"""The sharpness examples of the paper's stability theory, end to end
through run_experiment.  Weak convergence alone does not carry Q along:

- uniform integrability: mass t escaping to z_t moves Q by t |x - z_t|,
  which stays near 1 for z_t = 1/t although d_bl = 2t -> 0, and the
  diagnosis of the family must say so; for z_t = t^(-1/4) both vanish;
- a discontinuous recourse: the milp demo's f = max(0, ceil(z)) jumps at
  z = 1, so weight 1/2 moved from 1 to 1 + eps keeps Q 1/2 away while
  d_bl = eps/2 -> 0; off the jumps (at z = 1.5) Q does not move.

Every expected value is a closed form of the demo's value function, or of
the distances between these few atoms, and none is computed by
meanrisk.metrics.
"""

import json
import os

import numpy as np
import pytest

from meanrisk.measure import DiscreteMeasure, canonicalize, dirac, mix
from meanrisk.objective import MeanRiskModel
from meanrisk.stability import run_experiment

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")
TS = (1e-2, 1e-3, 1e-4, 1e-5)


def load(name):
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return json.load(fh)


def linear_q(xs, nu):
    """Q(x, nu) of the linear expectation demo, f(x, z) = |x - z|, per x."""
    return np.abs(xs - nu.points[:, 0]) @ nu.weights


class TestUniformIntegrability:
    @staticmethod
    def run(escape):
        model = MeanRiskModel.from_dict(load("model_linear_expectation.json"))
        base = DiscreteMeasure.from_dict(load("base_measure.json"))
        family = [mix(base, dirac([escape(t)]), t) for t in TS]
        report = run_experiment(model, base, sequence=family)
        xs = model.decisions.points
        for row, nu, t in zip(report.rows, family, TS):
            assert row.error == ""
            # every base atom lies at least 2 from z_t, so the optimal BL
            # witness is +1 at z_t and -1 on the base
            assert row.d_bl == pytest.approx(2.0 * t, rel=1e-9)
            want = np.max(np.abs(linear_q(xs, nu) - linear_q(xs, base)))
            assert row.sup_delta_q == pytest.approx(want, rel=1e-12, abs=1e-15)
        return report

    def test_mass_escaping_at_1_over_t_keeps_q_apart_and_fails_the_verdict(self):
        report = self.run(lambda t: 1.0 / t)
        # sup_x t |x - 1/t| - t E|x - Z| = 1 - t/2, at x = 0
        sup_dq = report.column("sup_delta_q")
        assert sup_dq == pytest.approx([1.0 - t / 2 for t in TS], rel=1e-12)
        assert sup_dq[-1] > 0.99999
        # the ||z||^2 tail of the family above the top threshold is t z_t^2 = 1/t
        assert report.ui_sup_tails[-1] == pytest.approx(1.0 / TS[-1], rel=1e-9)
        assert report.ui_verdict is False

    def test_mass_escaping_at_t_to_the_minus_quarter_lets_q_converge(self):
        report = self.run(lambda t: t ** -0.25)
        sup_dq = report.column("sup_delta_q")
        assert sup_dq == pytest.approx([t ** 0.75 - t / 2 for t in TS], rel=1e-9)
        assert sup_dq[-1] < 2e-4
        # z_t^2 = t^(-1/2) <= 317 stays below the top threshold of 1e3
        assert report.ui_sup_tails[-1] == 0.0
        assert report.ui_verdict is True


class TestMilpJump:
    EPS = (1e-2, 1e-4, 1e-6)

    @classmethod
    def run(cls, at):
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json"))
        base = canonicalize([((0.0,), 0.5), ((at,), 0.5)])
        moved = [canonicalize([((0.0,), 0.5), ((at + eps,), 0.5)]) for eps in cls.EPS]
        report = run_experiment(model, base, sequence=moved)
        for row, eps in zip(report.rows, cls.EPS):
            assert row.error == ""
            assert row.d_bl == pytest.approx(0.5 * ((at + eps) - at), rel=1e-9)
        return report

    def test_mass_on_the_jump_keeps_q_apart_as_d_bl_vanishes(self):
        # f(1) = 1 and f(1 + eps) = 2 at every decision
        report = self.run(1.0)
        assert report.column("sup_delta_q").tolist() == [0.5] * len(self.EPS)

    def test_mass_off_the_jumps_leaves_q_unmoved(self):
        # f(1.5) = f(1.5 + eps) = 2
        report = self.run(1.5)
        assert report.column("sup_delta_q").tolist() == [0.0] * len(self.EPS)
