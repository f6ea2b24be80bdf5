"""Recourse values and the mean-risk objective on the demo models, checked
against the closed forms of their value functions.

linear      f(x, z) = |x - z|
milp        f(x, z) = max(0, ceil(z))
miqp        f(x, z) = min y^2 + (x - z) y over integers y >= -z in the box
convex_mip  f(x, z) = (7 - min(7, floor(|z| + 1)))^2
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from meanrisk import cli, exprs
from meanrisk.errors import DimMismatch, EmptySet, RecourseInfeasible
from meanrisk.measure import canonicalize, canonicalize_arrays
from meanrisk.objective import MeanRiskModel, Q, argmin_set, phi, q_profile
from meanrisk.recourse import ParamMap, RecourseModel, eval_recourse_batch
from meanrisk.stability import argmin_excess

from oracles import avar_ru_oracle, convex_grid_oracle

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")

# negative, integer and non-integer noise values
Z = np.concatenate([np.arange(-9.5, 10.0, 0.5), [-2.7, -0.3, 0.3, 1.1, 6.9, 12.4]])


def load(name) -> MeanRiskModel:
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return MeanRiskModel.from_dict(json.load(fh))


def miqp_brute(x, z):
    ys = np.arange(-600.0, 1101.0)  # the demo's integer box
    ys = ys[ys >= -z - 1e-9]
    return float(np.min(ys * ys + (x - z) * ys))


CLOSED = {
    "model_linear_expectation.json": lambda x, z: abs(x - z),
    "model_milp_expectation.json": lambda x, z: max(0.0, math.ceil(z)),
    "model_miqp_expectation.json": miqp_brute,
    "model_convex_expectation.json": lambda x, z: (7 - min(7, math.floor(abs(z) + 1))) ** 2,
}
DEMOS = sorted(CLOSED) + ["model_linear_avar.json"]


def closed_matrix(name, model, nu):
    f = CLOSED[name.replace("_avar", "_expectation")]
    return np.array([[f(x[0], z[0]) for z in nu.points] for x in model.decisions])


@pytest.fixture
def nu():
    w = np.random.default_rng(101).uniform(0.1, 1.0, size=len(Z))
    return canonicalize([((z,), wk) for z, wk in zip(Z, w)])


class TestRecourseValues:
    @pytest.mark.parametrize("name", sorted(CLOSED))
    def test_closed_form_on_grid(self, name):
        model = load(name)
        f = CLOSED[name]
        for x in model.decisions:
            got = eval_recourse_batch(model.recourse, x, Z[:, None])
            for z, value in zip(Z, got):
                assert value == pytest.approx(f(x[0], z), abs=1e-9), (x, z)

    def test_convex_mip_against_grid_oracle(self):
        # v = (y - c)^2 + k |y - e|, |y - d| <= z on a continuous y in
        # [-5, 5]; c, d, e and z sit on the oracle's 1e-3 grid, so its
        # error is at most (5e-4)^2 at a smooth interior minimum and zero
        # at a kink or a constraint boundary
        rng = np.random.default_rng(103)
        for _ in range(12):
            c, d, e = np.round(rng.uniform(-3, 3, size=3), 3)
            k = float(rng.uniform(0, 2))
            z = float(np.round(rng.uniform(0.2, 2), 3))
            v = exprs.vsum(
                exprs.even_power(exprs.affine([1.0], -c), 2),
                exprs.scale(k, exprs.vabs(exprs.affine([1.0], -e))),
            )
            g = exprs.vabs(exprs.affine([1.0], -d))
            model = RecourseModel(
                kind="convex_mip",
                n=1,
                s=1,
                h_map=ParamMap(out_dim=1, matrix=[[0.0, 1.0]]),
                v=v,
                g=(g,),
                m1=1,
                continuous_box=((-5.0, 5.0),),
                gamma_K=1.0,
            )
            expect = convex_grid_oracle(v, (g,), [z], -5.0, 5.0)
            assert eval_recourse_batch(model, [0.0], [[z]])[0] == pytest.approx(expect, abs=1e-5)

    def test_convex_mip_infeasibility_is_certified(self):
        # |y| <= z - 5 is empty at z = 0
        common = dict(
            kind="convex_mip",
            n=1,
            s=1,
            h_map=ParamMap(out_dim=1, matrix=[[0.0, 1.0]], constant=[-5.0]),
            v=exprs.var(0),
            g=(exprs.vabs(exprs.var(0)),),
            gamma_K=1.0,
        )
        continuous = RecourseModel(m1=1, continuous_box=((-10.0, 10.0),), **common)
        with pytest.raises(RecourseInfeasible, match="certified: the cutting-plane LP") as err:
            eval_recourse_batch(continuous, [0.0], [[0.0]])
        assert "not certified" not in str(err.value)
        integer = RecourseModel(m2=1, integer_bounds=((-3.0, 3.0),), **common)
        with pytest.raises(RecourseInfeasible) as err:
            eval_recourse_batch(integer, [0.0], [[0.0]])
        assert "certified" not in str(err.value)


class TestObjective:
    @pytest.mark.parametrize("name", DEMOS)
    def test_q_phi_argmin_against_numpy(self, name, nu):
        model = load(name)
        F = closed_matrix(name, model, nu)
        if model.risk.kind == "expectation":
            expect = F @ nu.weights
        else:
            expect = np.array(
                [
                    avar_ru_oracle(canonicalize_arrays(row[:, None], nu.weights), model.risk.alpha)
                    for row in F
                ]
            )
        assert q_profile(model, nu) == pytest.approx(expect, abs=1e-9)
        for x, e in zip(model.decisions, expect):
            assert Q(model, x, nu) == pytest.approx(e, abs=1e-9)
        assert phi(model, nu) == pytest.approx(expect.min(), abs=1e-9)
        keep = expect <= expect.min() + 1e-6
        assert np.array_equal(argmin_set(model, nu, 1e-6).points, model.decisions.points[keep])

    def test_argmin_excess_brute_force(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 6)), 2))
            b = rng.normal(size=(int(rng.integers(1, 6)), 2))
            expect = 0.0
            for p in a:
                nearest = math.inf
                for r in b:
                    nearest = min(nearest, math.dist(p, r))
                expect = max(expect, nearest)
            assert argmin_excess(a, b) == pytest.approx(expect, abs=1e-12)
            assert argmin_excess(a, np.vstack([a, b])) == 0.0
        with pytest.raises(EmptySet):
            argmin_excess(np.zeros((0, 2)), a)

    def test_argmin_excess_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            argmin_excess([[0.0, 1.0]], [[0.0]])


class TestRoundTrip:
    @pytest.mark.parametrize("name", DEMOS)
    def test_dict_round_trips_keep_the_digest(self, name):
        model = load(name)
        again = MeanRiskModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert again.to_dict() == model.to_dict()
        assert again.digest() == model.digest()
        rec = RecourseModel.from_dict(json.loads(json.dumps(model.recourse.to_dict())))
        assert rec.to_dict() == model.recourse.to_dict()
        assert rec.digest() == model.recourse.digest()
        Z = [[-2.7], [0.0], [1.1]]
        got = eval_recourse_batch(rec, [0.5], Z)
        assert got.tobytes() == eval_recourse_batch(model.recourse, [0.5], Z).tobytes()


class TestMatrixShapes:
    """A and D must be matrices, and the miqp D must be (m1 + m2) x (m1 + m2),
    at construction: DimMismatch from the API, a config error from the CLI."""

    def recourse_dict(self, name, **edits):
        with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
            data = json.load(fh)["recourse"]
        data.update(edits)
        return data

    @pytest.mark.parametrize("A", [1.0, [1.0, -1.0], [[[1.0, -1.0]]]],
                             ids=["scalar", "vector", "3-d"])
    @pytest.mark.parametrize("name", ["model_linear_expectation.json",
                                      "model_milp_expectation.json"])
    def test_a_must_be_a_matrix(self, name, A):
        data = self.recourse_dict(name, A=A)
        with pytest.raises(DimMismatch, match="A must be a matrix"):
            RecourseModel.from_dict(data)
        model = RecourseModel.from_dict(self.recourse_dict(name))
        with pytest.raises(DimMismatch, match="A must be a matrix"):
            dataclasses.replace(model, A=A)

    @pytest.mark.parametrize("D, match", [
        (1.0, "D must be a matrix"),
        ([1.0], "D must be a matrix"),
        ([[1.0, 0.0], [0.0, 1.0]], "D shape"),
        ([[1.0, 0.0]], "D shape"),
    ], ids=["scalar", "vector", "too-large", "not-square"])
    def test_miqp_d_is_square_of_width_m1_plus_m2(self, D, match):
        data = self.recourse_dict("model_miqp_expectation.json", D=D)
        with pytest.raises(DimMismatch, match=match):
            RecourseModel.from_dict(data)
        model = RecourseModel.from_dict(self.recourse_dict("model_miqp_expectation.json"))
        with pytest.raises(DimMismatch, match=match):
            dataclasses.replace(model, D=D)

    @pytest.mark.parametrize("edit", [{"A": 1.0}, {"A": [1.0]}, {"D": 1.0}],
                             ids=["scalar-A", "vector-A", "scalar-D"])
    def test_cli_config_error(self, edit, tmp_path, capsys):
        with open(os.path.join(DEMO, "model_miqp_expectation.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        data["recourse"].update(edit)
        model = tmp_path / "m.json"
        model.write_text(json.dumps(data))
        argv = ["eval", "--model", str(model), "--measure",
                os.path.join(DEMO, "base_measure.json"), "--all"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and "DimMismatch" in out.err
