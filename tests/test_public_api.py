import json
import os

import meanrisk
from meanrisk import measure, metrics, objective, optim, recourse

PUBLIC = [
    "DiscreteMeasure",
    "canonicalize",
    "dirac",
    "quantile",
    "moment",
    "tail_functional",
    "mix",
    "empirical",
    "RiskSpec",
    "evaluate_risk",
    "avar",
    "semidev",
    "target_semidev",
    "icx_leq",
    "RecourseModel",
    "ParamMap",
    "theoretical_exponent",
    "map_exponent",
    "certify_growth",
    "GrowthCertificate",
    "DecisionSet",
    "MeanRiskModel",
    "Q",
    "q_profile",
    "phi",
    "argmin_set",
    "PerturbationScheme",
    "StabilityReport",
    "generate_sequence",
    "run_experiment",
    "argmin_excess",
    "trend_check",
    "errors",
    "exprs",
    "metrics",
    "optim",
    "recourse",
    "risk",
    "stability",
]


def test_all_is_pinned():
    assert meanrisk.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in meanrisk.__all__:
        assert getattr(meanrisk, name) is not None, name


def array_records():
    """One instance of each frozen record that holds an ndarray, built
    afresh on every call from the same values."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demo", "model_linear_expectation.json")
    with open(path, encoding="utf-8") as fh:
        model = objective.MeanRiskModel.from_dict(json.load(fh))
    mu = measure.DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    lp = optim.LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    sampler = measure.box_sampler([-1.0] * model.recourse.s, [1.0] * model.recourse.s)
    return [
        mu,
        objective.DecisionSet([[0.0], [1.0]]),
        model,
        model.recourse,
        model.recourse.h_map,
        lp,
        optim.solve_lp(lp),
        metrics.diagnose_uniform_integrability([mu], 1.0, [1.0, 2.0]),
        recourse.certify_growth(model.recourse, model.decisions.points[:2], sampler, 1.0, 20, 0),
    ]


def test_array_records_compare_and_hash_by_identity():
    # the generated == and hash of a dataclass would compare and hash the
    # arrays, which raises for arrays of two or more entries
    for a, b in zip(array_records(), array_records()):
        assert type(a) is type(b)
        assert a == a and a != b, type(a).__name__
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2, type(a).__name__
