"""Every scalar exponent, order, level, threshold and tolerance goes through
errors.in_range: a NaN, an infinity, a non-number or a value outside the
range raises the caller's typed error, and no numpy RuntimeWarning is
printed on the way.  Every number of an input file is read once, by its
object's constructor: a numeric string, a boolean or (in an integer field)
a fraction is refused with a typed error, and by the CLI with exit 2."""

import contextlib
import io
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from meanrisk import cli, exprs, measure, metrics, risk, stability
from meanrisk.errors import (
    DimMismatch,
    GrammarError,
    InvalidExponent,
    InvalidSpec,
    OutOfRange,
    in_range,
)
from meanrisk.measure import DiscreteMeasure, box_sampler, canonicalize
from meanrisk.objective import Q, DecisionSet, MeanRiskModel
from meanrisk.recourse import ParamMap, RecourseModel, certify_growth, theoretical_exponent

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")
INF, NAN = math.inf, math.nan


def demo(name):
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return json.load(fh)


def model_with(**edits):
    data = demo("model_milp_expectation.json")
    data.update(edits)
    return MeanRiskModel.from_dict(data)


def milp_with_h_matrix(matrix):
    data = demo("model_milp_expectation.json")
    data["recourse"]["h_map"]["affine"]["matrix"] = matrix
    return MeanRiskModel.from_dict(data)


def convex_recourse(**edits):
    data = demo("model_convex_expectation.json")["recourse"]
    data.update(edits)
    return RecourseModel.from_dict(data)


def convex_model(**edits):
    data = demo("model_convex_expectation.json")
    data["recourse"].update(edits)
    return MeanRiskModel.from_dict(data)


MU = canonicalize([((0.5,), 0.5), ((2.0,), 0.5)])
FAR = (canonicalize([((0.0, 0.0), 0.5), ((30.0, 0.0), 0.5)]), canonicalize([((15.0, 0.0), 1.0)]))
DIST = DiscreteMeasure([[0.0], [1.0], [4.0]], [0.25, 0.5, 0.25])
MILP = model_with().recourse
REPORT = stability.StabilityReport(
    tuple(stability.StabilityRow(k, float(k), 1.0 / (k + 1), 0, 0, 0, 0) for k in range(3)),
    True, (), (), {},
)

CASES = {
    "moment-inf": (OutOfRange, lambda: measure.moment(MU, INF)),
    "moment-overflow": (OutOfRange, lambda: measure.moment(FAR[0], 1000.0)),
    "tail-nan-q": (OutOfRange, lambda: measure.tail_functional(MU, NAN, 1.0)),
    "tail-negative-q": (OutOfRange, lambda: measure.tail_functional(MU, -1.0, 1.0)),
    "tail-overflow": (OutOfRange, lambda: measure.tail_functional(FAR[0], 1000.0, 1.0)),
    "mix-nan": (OutOfRange, lambda: measure.mix(MU, MU, NAN)),
    "ui-nan-q": (OutOfRange, lambda: metrics.diagnose_uniform_integrability([MU], NAN, [1.0])),
    "ui-inf-threshold": (OutOfRange,
                         lambda: metrics.diagnose_uniform_integrability([MU], 1.0, [INF])),
    "ui-text-threshold": (OutOfRange,
                          lambda: metrics.diagnose_uniform_integrability([MU], 1, ["a"])),
    "ui-numeric-text-threshold": (OutOfRange, lambda: metrics.diagnose_uniform_integrability(
        [MU], 1.0, [1.0, "2.0"])),
    "ui-bool-threshold": (OutOfRange,
                          lambda: metrics.diagnose_uniform_integrability([MU], 1.0, [True])),
    "ui-none-threshold": (OutOfRange,
                          lambda: metrics.diagnose_uniform_integrability([MU], 1.0, None)),
    "quantile-text": (OutOfRange, lambda: measure.quantile(MU, "a")),
    "quantile-numeric-text-entry": (OutOfRange, lambda: measure.quantile(MU, [0.2, "0.5"])),
    "quantile-bool": (OutOfRange, lambda: measure.quantile(MU, True)),
    "quantile-none": (OutOfRange, lambda: measure.quantile(MU, None)),
    "quantile-nan": (OutOfRange, lambda: measure.quantile(MU, [0.5, NAN])),
    "wasserstein-2d-overflow": (OutOfRange, lambda: metrics.wasserstein(*FAR, 1000.0)),
    "fm-2d-overflow": (OutOfRange, lambda: metrics.fortet_mourier(*FAR, 1000.0)),
    "psi-2d-overflow": (OutOfRange, lambda: metrics.psi_metric(*FAR, 1000.0)),
    "avar-nan": (OutOfRange, lambda: risk.avar(DIST, NAN)),
    "semidev-inf-p": (InvalidSpec, lambda: risk.semidev(DIST, 0.5, INF)),
    "target-semidev-inf-c": (InvalidSpec, lambda: risk.target_semidev(DIST, 0.5, INF, 2.0)),
    "target-semidev-inf-p": (InvalidSpec, lambda: risk.target_semidev(DIST, 0.5, 1.0, INF)),
    "riskspec-inf-p": (InvalidSpec, lambda: risk.RiskSpec("semidev", a=0.5, p=INF)),
    "riskspec-text-alpha": (InvalidSpec, lambda: risk.RiskSpec("avar", alpha="0.5")),
    "model-inf-gamma": (OutOfRange, lambda: model_with(gamma=INF)),
    "model-inf-p": (OutOfRange, lambda: model_with(p=INF)),
    "model-gauge-overflow": (OutOfRange, lambda: model_with(gamma=1e300, p=1e300)),
    "decision-inf": (OutOfRange, lambda: DecisionSet([[INF]])),
    "decision-box-inf": (OutOfRange, lambda: DecisionSet.from_box([0.0], [INF], [3])),
    "decision-box-nan": (OutOfRange, lambda: DecisionSet.from_box([NAN], [1.0], [1])),
    "decision-box-span-overflow": (OutOfRange,
                                   lambda: DecisionSet.from_box([-1e308], [1e308], [3])),
    "theoretical-inf": (InvalidExponent, lambda: theoretical_exponent(MILP, gamma_h=INF)),
    "theoretical-missing": (InvalidExponent, lambda: theoretical_exponent(MILP)),
    "declared-exponent-text": (InvalidExponent,
                               lambda: ParamMap(1, expressions=(exprs.var(0),),
                                                declared_exponent="x")),
    "certify-inf-gamma": (InvalidExponent,
                          lambda: certify_growth(MILP, [[0.0]], box_sampler(0, 1), INF, 5, 0)),
    "certify-overflow": (OutOfRange,
                         lambda: certify_growth(MILP, [[0.0]], box_sampler(5, 6), 700.0, 5, 0)),
    "certify-negative-seed": (OutOfRange,
                              lambda: certify_growth(MILP, [[0.0]], box_sampler(0, 1), 1.0, 5, -1)),
    "certify-fractional-n": (OutOfRange, lambda: certify_growth(
        MILP, [[0.0]], box_sampler(0, 1), 1.0, 2.5, 0)),
    "certify-bool-seed": (OutOfRange,
                          lambda: certify_growth(MILP, [[0.0]], box_sampler(0, 1), 1.0, 5, True)),
    "empirical-fractional-n": (OutOfRange, lambda: measure.empirical(box_sampler(0, 1), 2.5, 0)),
    "empirical-negative-seed": (OutOfRange, lambda: measure.empirical(box_sampler(0, 1), 5, -1)),
    "empirical-fractional-seed": (OutOfRange,
                                  lambda: measure.empirical(box_sampler(0, 1), 5, 1.5)),
    "empirical-negative-seed-entry": (OutOfRange,
                                      lambda: measure.empirical(box_sampler(0, 1), 5, (0, -1))),
    "ui-nan-eps": (OutOfRange,
                   lambda: metrics.diagnose_uniform_integrability([MU], 1.0, [1.0], eps=NAN)),
    "ui-negative-eps": (OutOfRange,
                        lambda: metrics.diagnose_uniform_integrability([MU], 1.0, [1.0], eps=-1)),
    "icx-nan-tol": (OutOfRange, lambda: risk.icx_leq(DIST, DIST, tol=NAN)),
    "stop-loss-nan": (OutOfRange, lambda: risk.stop_loss(DIST, NAN)),
    "stop-loss-inf-entry": (OutOfRange, lambda: risk.stop_loss(DIST, [0.0, -INF])),
    "trend-inf-factor": (OutOfRange, lambda: stability.trend_check(REPORT, "d_bl", INF)),
    "jitter-nan-sigma": (InvalidSpec,
                         lambda: stability.PerturbationScheme("jitter", schedule=(NAN,))),
    "saa-negative-seed": (InvalidSpec,
                          lambda: stability.PerturbationScheme("saa", schedule=(5,), seed=-1)),
    "scale-nan": (GrammarError, lambda: exprs.scale(NAN, exprs.var(0))),
    "affine-inf": (GrammarError, lambda: exprs.affine([INF])),
    "expression-reads-past-m2": (DimMismatch, lambda: convex_recourse(v=["var", 1])),
    "expression-pow-overflow": (OutOfRange, lambda: exprs.even_power(
        exprs.affine([1e200], 7.0), 2).value(np.array([1.0]))),
    "expression-subgradient-overflow": (OutOfRange, lambda: exprs.scale(
        1e200, exprs.affine([1e200])).eval_with_subgradient(np.array([1e-250]))),
    "convex-v-overflow": (OutOfRange, lambda: Q(
        convex_model(v=["pow", ["affine", [1e200], 7.0], 2]), [0.0], MU)),
    "convex-h-map-overflow": (OutOfRange, lambda: Q(
        convex_model(h_map={"exponent": 2.0, "expr": [["pow", ["affine", [0.0, 1.0]], 2]]}),
        [0.0], canonicalize([((1e200,), 1.0)]))),
    # an inf in an affine map (inf * 0 at x = 0 would reach the solver as a
    # NaN right-hand side) is refused when the model is built
    "map-inf-times-zero": (OutOfRange, lambda: milp_with_h_matrix([[INF, 1.0]])),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_of_range_is_a_typed_error_without_warnings(name):
    error, call = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call()


class TestExpressionOverflow:
    def test_the_error_names_the_expression_and_the_point(self):
        e = exprs.even_power(exprs.affine([1e200], 7.0), 2)
        with pytest.raises(OutOfRange, match=re.escape(
                "expression ['pow', ['affine', [1e+200], 7.0], 2] at y = [1.0] is inf")):
            e.eval_with_subgradient(np.array([1.0]))

    def test_a_finite_value_with_an_overflowing_subgradient(self):
        # 1e200 * (1e200 * 1e-250) = 1e150, but the subgradient is 1e400
        e = exprs.scale(1e200, exprs.affine([1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert e.value(np.array([1e-250])) == pytest.approx(1e150)
            with pytest.raises(OutOfRange, match="^the subgradient of expression"):
                e.eval_with_subgradient(np.array([1e-250]))


class TestInRange:
    @pytest.mark.parametrize(
        "bounds, words",
        [
            ({"gt": 0}, "must be finite and positive"),
            ({"ge": 0}, "must be finite and nonnegative"),
            ({"ge": 1}, "must be finite and >= 1"),
            ({"gt": 0, "lt": 1}, "must be finite and positive and < 1"),
            ({"ge": 0, "le": 1}, "must be finite and nonnegative and <= 1"),
            ({"ge": 1, "lt": 2.5}, "must be finite and >= 1 and < 2.5"),
            ({}, "must be finite,"),
        ],
    )
    def test_message_names_the_range(self, bounds, words):
        with pytest.raises(OutOfRange, match=f"^order q {re.escape(words)}"):
            in_range(NAN, "order q", **bounds)

    @pytest.mark.parametrize("value", [None, "1", [1.0], NAN, INF, -INF, 10**400])
    def test_non_numbers_and_non_finite_values_raise(self, value):
        with pytest.raises(InvalidSpec):
            in_range(value, "p", ge=1, error=InvalidSpec)

    def test_ends_open_or_closed(self):
        assert in_range(0, "a", ge=0, le=1) == 0.0 and in_range(1, "a", ge=0, le=1) == 1.0
        for value, bounds in ((0.0, {"gt": 0}), (1.0, {"lt": 1}), (-1e-300, {"ge": 0})):
            with pytest.raises(OutOfRange):
                in_range(value, "a", **bounds)

    def test_returns_a_float(self):
        got = in_range(np.int64(3), "n", ge=1)
        assert got == 3.0 and type(got) is float


def risk_model(risk_spec):
    data = demo("model_milp_expectation.json")
    data["risk"] = risk_spec
    return data


def convex_model_doc():
    # one continuous variable with its box, and a declared gamma_v
    data = demo("model_convex_expectation.json")
    data["recourse"].update(m1=1, continuous_box=[[-1.0, 1.0]], gamma_v=2.0)
    return data


# documents whose every number a field of the table below edits; each loads as it is
DOCS = {
    "linear": lambda: demo("model_linear_expectation.json"),
    "milp": lambda: demo("model_milp_expectation.json"),
    "miqp": lambda: demo("model_miqp_expectation.json"),
    "convex": convex_model_doc,
    "avar": lambda: demo("model_linear_avar.json"),
    "semidev": lambda: risk_model({"kind": "semidev", "a": 0.5, "p": 2.0}),
    # a parameter the kind does not read is still a number, and is kept in the digest
    "expectation": lambda: risk_model({"kind": "expectation", "alpha": 0.5}),
    "target_semidev": lambda: risk_model({"kind": "target_semidev", "a": 0.5, "c": 1.0,
                                          "p": 2.0}),
    "measure": lambda: demo("base_measure.json"),
    "saa": lambda: demo("scheme_saa.json"),
    "contamination": lambda: demo("scheme_contamination.json"),
    "jitter": lambda: {"kind": "jitter", "sigma_schedule": [0.5, 0.1], "seed": 0},
    "discretize": lambda: {"kind": "discretize", "grid_schedule": [10.0, 100.0]},
}
SCHEMES = ("saa", "contamination", "jitter", "discretize")

# field: (document, path to one of its numbers, error from the API, integer field)
FIELDS = {
    "n_schedule": ("saa", ("n_schedule", 0), InvalidSpec, True),
    "t_schedule": ("contamination", ("t_schedule", 0), InvalidSpec, False),
    "sigma_schedule": ("jitter", ("sigma_schedule", 0), InvalidSpec, False),
    "grid_schedule": ("discretize", ("grid_schedule", 0), InvalidSpec, False),
    "integer_bounds": ("milp", ("recourse", "integer_bounds", 0, 1), InvalidSpec, False),
    "continuous_box": ("convex", ("recourse", "continuous_box", 0, 0), InvalidSpec, False),
    "p": ("milp", ("p",), OutOfRange, False),
    "gamma": ("milp", ("gamma",), OutOfRange, False),
    "gamma_v": ("convex", ("recourse", "gamma_v"), InvalidExponent, False),
    "gamma_K": ("convex", ("recourse", "gamma_K"), InvalidExponent, False),
    "risk-alpha": ("avar", ("risk", "alpha"), InvalidSpec, False),
    "risk-a": ("semidev", ("risk", "a"), InvalidSpec, False),
    "risk-c": ("target_semidev", ("risk", "c"), InvalidSpec, False),
    "risk-p": ("semidev", ("risk", "p"), InvalidSpec, False),
    "risk-unread-alpha": ("expectation", ("risk", "alpha"), InvalidSpec, False),
    "decision-point": ("milp", ("decisions", "points", 1, 0), OutOfRange, False),
    "A": ("linear", ("recourse", "A", 0, 1), OutOfRange, False),
    "q": ("milp", ("recourse", "q", 1), OutOfRange, False),
    "D": ("miqp", ("recourse", "D", 0, 0), OutOfRange, False),
    "affine-matrix": ("milp", ("recourse", "h_map", "affine", "matrix", 0, 1), OutOfRange, False),
    "affine-constant": ("milp", ("recourse", "h_map", "affine", "constant", 0), OutOfRange, False),
    "measure-point": ("measure", ("atoms", 1, "point", 0), ValueError, False),
    "measure-weight": ("measure", ("atoms", 1, "weight"), ValueError, False),
    "const-node": ("convex", ("recourse", "h_map", "expr", 0, 2, 1), GrammarError, False),
    "affine-node-coefficient": ("convex", ("recourse", "v", 1, 1, 0), GrammarError, False),
    "affine-node-offset": ("convex", ("recourse", "v", 1, 2), GrammarError, False),
    "var-node": ("convex", ("recourse", "g", 0, 1, 1), GrammarError, True),
    "pow-node": ("convex", ("recourse", "v", 2), GrammarError, True),
}
# how a valid number is made invalid: its digits as a string, a boolean, and
# for an integer field a fraction (["var", 1.7] must not read variable 1)
EDITS = {"string": str, "bool": lambda v: True, "fraction": lambda v: v + 1.7}
TABLE = [(field, edit) for field, (*_, integer) in FIELDS.items()
         for edit in EDITS if edit != "fraction" or integer]


def load(doc_name, data):
    if doc_name in SCHEMES:
        return stability.PerturbationScheme.from_dict(data)
    if doc_name == "measure":
        return DiscreteMeasure.from_dict(data)
    return MeanRiskModel.from_dict(data)


def edited(field, edit):
    """The field's document with its number replaced by the edit, and the
    number it had."""
    doc_name, path, *_ = FIELDS[field]
    data = DOCS[doc_name]()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    valid = parent[path[-1]]
    parent[path[-1]] = EDITS[edit](valid)
    return data, valid


class TestInputFields:
    @pytest.mark.parametrize("doc_name", sorted(DOCS))
    def test_every_document_loads_as_it_is(self, doc_name):
        load(doc_name, DOCS[doc_name]())

    @pytest.mark.parametrize("field, edit", TABLE)
    def test_the_api_refuses_with_a_typed_error(self, field, edit):
        data, valid = edited(field, edit)
        assert isinstance(valid, (int, float)) and not isinstance(valid, bool)
        with pytest.raises(FIELDS[field][2]):
            load(FIELDS[field][0], data)

    @pytest.mark.parametrize("field, edit", TABLE)
    def test_the_cli_exits_2_with_one_config_error_line(self, field, edit, tmp_path):
        doc_name = FIELDS[field][0]
        data, _ = edited(field, edit)
        files = {"model": demo("model_milp_expectation.json"),
                 "measure": demo("base_measure.json"), "scheme": demo("scheme_saa.json")}
        role = "scheme" if doc_name in SCHEMES else "measure" if doc_name == "measure" else "model"
        files[role] = data
        paths = {}
        for name, doc in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        argv = ["stability", "--model", str(paths["model"]), "--measure", str(paths["measure"]),
                "--scheme", str(paths["scheme"]), "--out", str(tmp_path / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), lines
