import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import stability
from meanrisk.errors import OutOfRange
from meanrisk.measure import canonicalize
from meanrisk.metrics import bounded_lipschitz, psi_metric
from meanrisk.objective import MeanRiskModel

from oracles import trend_slope_oracle

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


def report_with(column):
    """A report whose d_bl column is the given values."""
    rows = tuple(stability.StabilityRow(k, float(k), v, 0.0, 0.0, 0.0, 0.0)
                 for k, v in enumerate(column))
    return stability.StabilityReport(rows, True, (), (), {})


# entries that are zero, NaN (a failed row) or positive, so that many
# columns have fewer than two positive entries
entry = st.one_of(st.just(0.0), st.just(math.nan), st.floats(1e-6, 1e3))


class TestTrendCheck:
    @settings(max_examples=200, deadline=None)
    @given(column=st.lists(entry, min_size=3, max_size=12), factor=st.floats(1.001, 100.0))
    def test_matches_the_least_squares_oracle(self, column, factor):
        res = stability.trend_check(report_with(column), "d_bl", factor)
        first, last = column[0], column[-1]
        assert res.passed == (last <= first / factor)
        assert res.first == first or (math.isnan(first) and math.isnan(res.first))
        assert res.last == last or (math.isnan(last) and math.isnan(res.last))
        assert res.slope == pytest.approx(trend_slope_oracle(column), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 1.0, -2.0])
    def test_factor_must_be_finite_and_above_one(self, factor):
        with pytest.raises(OutOfRange, match="finite"):
            stability.trend_check(report_with([3.0, 2.0, 1.0]), "d_bl", factor)

    def test_needs_three_rows(self):
        with pytest.raises(OutOfRange):
            stability.trend_check(report_with([2.0, 1.0]), "d_bl", 2.0)
