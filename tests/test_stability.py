import json
import math
import os

import pytest

from meanrisk import stability
from meanrisk.errors import OutOfRange
from meanrisk.measure import canonicalize
from meanrisk.metrics import bounded_lipschitz, psi_metric
from meanrisk.objective import MeanRiskModel

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


@pytest.fixture
def model():
    with open(os.path.join(DEMO, "model_milp_expectation.json"), encoding="utf-8") as fh:
        return MeanRiskModel.from_dict(json.load(fh))


@pytest.fixture
def base():
    return canonicalize([((0.0,), 1.0), ((0.5,), 1.0), ((1.0,), 1.0)])


def sequence(base):
    return [
        canonicalize([((0.0,), 2.0), ((0.5,), 1.0), ((1.25,), 1.0)]),
        canonicalize([((0.0,), 1.0), ((0.5,), 1.0), ((1.1,), 1.0)]),
        base,
    ]


class TestRunExperiment:
    def test_one_bl_solve_per_step(self, model, base, monkeypatch):
        calls = []

        def counted(mu, nu):
            calls.append(1)
            return bounded_lipschitz(mu, nu)

        monkeypatch.setattr(stability, "bounded_lipschitz", counted)
        seq = sequence(base)
        report = stability.run_experiment(model, base, sequence=seq)
        assert len(calls) == len(seq)
        qp = model.gamma * model.p
        for row, nu in zip(report.rows, seq):
            assert row.error == ""
            assert row.d_bl == bounded_lipschitz(nu, base)
            assert row.d_psi == psi_metric(nu, base, qp)

    def test_failing_metric_marks_the_row(self, model, base, monkeypatch):
        seq = sequence(base)

        def flaky(mu, nu):
            if mu is seq[1]:
                raise OutOfRange("planted metric failure")
            return bounded_lipschitz(mu, nu)

        monkeypatch.setattr(stability, "bounded_lipschitz", flaky)
        report = stability.run_experiment(model, base, sequence=seq)
        assert len(report.rows) == 3
        bad = report.rows[1]
        assert bad.error.startswith("step 1: OutOfRange: planted metric failure")
        assert all(math.isnan(v) for v in bad.as_list()[2:7])
        assert report.rows[0].error == "" and report.rows[2].error == ""
        assert report.rows[2].d_bl == 0.0
