import dataclasses
import json
import math
import os

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import cli, objective, stability
from meanrisk.errors import InvalidSpec, OutOfRange
from meanrisk.measure import DiscreteMeasure, canonicalize, empirical
from meanrisk.metrics import bounded_lipschitz, psi_metric
from meanrisk.objective import MeanRiskModel

from oracles import measure_sampler, trend_slope_oracle, wasserstein_transport_oracle

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

    def test_one_q_profile_per_measure(self, model, base, monkeypatch):
        seen = []
        profile = objective._profile

        def counted(m, xs, nu):
            seen.append(nu)
            return profile(m, xs, nu)

        monkeypatch.setattr(objective, "_profile", counted)
        seq = sequence(base)
        report = stability.run_experiment(model, base, sequence=seq)
        assert [row.error for row in report.rows] == [""] * len(seq)
        assert len(seen) == len(seq) + 1
        assert seen[0] is base and all(a is b for a, b in zip(seen[1:], seq))

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
        assert all(math.isnan(v) for v in bad[2:7])
        assert report.rows[0].error == "" and report.rows[2].error == ""
        assert report.rows[2].d_bl == 0.0

    def test_failure_after_a_deviation_keeps_all_three_nan(self, model, base, monkeypatch):
        seq = sequence(base)

        def flaky(candidate, reference):
            raise OutOfRange("planted argmin failure")

        monkeypatch.setattr(stability, "argmin_excess", flaky)
        report = stability.run_experiment(model, base, sequence=seq)
        for row in report.rows:
            assert row.error.endswith("OutOfRange: planted argmin failure")
            assert not math.isnan(row.d_bl) and not math.isnan(row.d_psi)
            assert all(math.isnan(v) for v in row[4:7])

    def test_needs_a_scheme_or_a_sequence_but_not_both(self, model, base, monkeypatch):
        solves = []
        monkeypatch.setattr(stability, "q_profile", lambda *args: solves.append(args))
        scheme = stability.PerturbationScheme("saa", (10,))
        for kwargs in ({"scheme": scheme, "sequence": [base]}, {}):
            with pytest.raises(InvalidSpec, match="need a scheme or an explicit sequence"):
                stability.run_experiment(model, base, **kwargs)
        assert solves == []


# a scheme document of each kind, as to_dict writes it
SCHEME_DOCS = {
    "saa": {"kind": "saa", "n_schedule": [10, 100], "seed": 3},
    "contamination": {"kind": "contamination", "t_schedule": [0.5, 0.25],
                      "direction": {"dim": 1, "atoms": [{"point": [2.0], "weight": 1.0}]}},
    "jitter": {"kind": "jitter", "sigma_schedule": [0.5, 0.1], "seed": 7},
    "discretize": {"kind": "discretize", "grid_schedule": [10.0, 100.0]},
}


class TestSchemeRecord:
    def test_fields(self):
        fields = [f.name for f in dataclasses.fields(stability.PerturbationScheme)]
        assert fields == ["kind", "schedule", "seed", "direction"]
        assert stability.COLUMNS == stability.StabilityRow._fields

    @pytest.mark.parametrize("kind", stability.SCHEME_KINDS)
    def test_documents_round_trip(self, kind):
        scheme = stability.PerturbationScheme.from_dict(SCHEME_DOCS[kind])
        assert scheme.schedule == tuple(SCHEME_DOCS[kind][stability._SCHEDULES[kind][0]])
        assert scheme.to_dict() == SCHEME_DOCS[kind]
        again = stability.PerturbationScheme.from_dict(scheme.to_dict())
        assert again.schedule == scheme.schedule and again.to_dict() == scheme.to_dict()

    @pytest.mark.parametrize("kind", stability.SCHEME_KINDS)
    def test_other_kinds_schedules_are_ignored(self, kind):
        others = {key: ["x", None] for key, *_ in stability._SCHEDULES.values()}
        scheme = stability.PerturbationScheme.from_dict({**others, **SCHEME_DOCS[kind]})
        assert scheme.to_dict() == SCHEME_DOCS[kind]
        assert vars(scheme).keys() == {"kind", "schedule", "seed", "direction"}

    @pytest.mark.parametrize("kind", stability.SCHEME_KINDS)
    def test_fields_the_kind_does_not_read_are_none(self, kind):
        direction = DiscreteMeasure.from_dict(SCHEME_DOCS["contamination"]["direction"])
        scheme = stability.PerturbationScheme(kind, SCHEME_DOCS[kind][stability._SCHEDULES[kind][0]],
                                              seed=5, direction=direction)
        assert scheme.seed == (5 if kind in stability.SEEDED_KINDS else None)
        assert (scheme.direction is direction) == (kind == "contamination")
        # an unread seed or direction is not checked either
        doc = {**SCHEME_DOCS[kind], "seed": -1, "direction": "x"}
        if kind in stability.SEEDED_KINDS:
            with pytest.raises(InvalidSpec, match="seed"):
                stability.PerturbationScheme.from_dict(doc)
        elif kind != "contamination":
            assert stability.PerturbationScheme.from_dict(doc).to_dict() == SCHEME_DOCS[kind]

    @pytest.mark.parametrize("kind", ["walk", ["saa"]])
    def test_unknown_kind(self, kind):
        with pytest.raises(InvalidSpec, match="unknown scheme kind") as err:
            stability.PerturbationScheme.from_dict({"kind": kind, "n_schedule": [10]})
        assert str(err.value) == f"unknown scheme kind {kind!r}"


def same_bits(mu, nu):
    return (mu.points.tobytes(), mu.weights.tobytes()) == (nu.points.tobytes(), nu.weights.tobytes())


def saa_steps(base, schedule, seed):
    scheme = stability.PerturbationScheme(kind="saa", schedule=schedule, seed=seed)
    return stability.generate_sequence(scheme, base)


# (0, 0) and (1e-13, 0) lie within POINT_TOL of each other but are kept
# apart by (0, 1) between them in sorted order, so a step without (0, 1)
# merges them
MERGING_BASE = canonicalize([((0.0, 0.0), 1.0), ((0.0, 1.0), 1.0), ((1e-13, 0.0), 1.0)])


class TestSaaSteps:
    """An SAA step is bit for bit the empirical measure of the base's
    sampler, keyed by (seed, step index)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_steps_are_empirical_measures(self, dim):
        rng = np.random.default_rng(dim)
        # rounded points, so some atoms share coordinates
        base = DiscreteMeasure(rng.normal(size=(40, dim)).round(1), rng.uniform(0.1, 1.0, 40))
        schedule = (1, 7, 100, 1000, 100_000)
        for seed in range(5):
            for k, (n, step) in enumerate(zip(schedule, saa_steps(base, schedule, seed))):
                assert same_bits(step, empirical(measure_sampler(base), n, seed=(seed, k)))

    def test_atoms_that_merge_without_their_neighbour(self):
        assert len(MERGING_BASE) == 3
        schedule = (2, 3, 5, 7)
        summed_apart = 0
        for seed in range(200):
            for k, (n, step) in enumerate(zip(schedule, saa_steps(MERGING_BASE, schedule, seed))):
                oracle = empirical(measure_sampler(MERGING_BASE), n, seed=(seed, k))
                assert same_bits(step, oracle)
                # the weights as counts on the atoms, without the merge guard
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
                idx = rng.choice(3, size=n, p=MERGING_BASE.weights)
                sums = np.bincount(idx, weights=np.full(n, 1.0 / n), minlength=3)
                kept = np.flatnonzero(sums)
                counted = DiscreteMeasure(MERGING_BASE.points[kept], sums[kept])
                summed_apart += not same_bits(counted, oracle)
        assert summed_apart > 0

    def test_merging_atoms_beside_a_separate_one(self):
        base = DiscreteMeasure(np.vstack([MERGING_BASE.points, [[2.0, 0.0]]]), [1, 2, 3, 4])
        merged = 0
        for seed in range(100):
            for k, (n, step) in enumerate(zip((3, 6), saa_steps(base, (3, 6), seed))):
                assert same_bits(step, empirical(measure_sampler(base), n, seed=(seed, k)))
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
                drawn = set(rng.choice(4, size=n, p=base.weights).tolist())
                merged += {0, 2, 3} <= drawn and 1 not in drawn
        assert merged > 0

    @pytest.mark.parametrize("zeros", [(0,), (3,), (7,), (0, 4, 7), (1, 2, 3, 5, 6)],
                             ids=["first", "interior", "last", "first-interior-last", "two-left"])
    def test_zero_weight_atoms_are_never_drawn(self, zeros):
        weights = np.linspace(1.0, 2.0, 8)
        weights[list(zeros)] = 0.0
        base = DiscreteMeasure(np.arange(8.0).reshape(-1, 1), weights)
        schedule = (1, 2, 50, 10_000)
        for seed in range(10):
            for k, (n, step) in enumerate(zip(schedule, saa_steps(base, schedule, seed))):
                assert same_bits(step, empirical(measure_sampler(base), n, seed=(seed, k)))
                assert not np.isin(step.points[:, 0], np.array(zeros, dtype=float)).any()

    def test_one_atom_base(self):
        base = canonicalize([((1.5, -2.0), 3.0)])
        schedule = (1, 2, 1000)
        for k, (n, step) in enumerate(zip(schedule, saa_steps(base, schedule, 4))):
            assert same_bits(step, empirical(measure_sampler(base), n, seed=(4, k)))
            # the weight is n running sums of 1/n, kept when within 1e-12 of 1
            assert np.array_equal(step.points, base.points) and abs(step.weights[0] - 1) <= 1e-12

    def test_one_draw(self):
        rng = np.random.default_rng(9)
        base = DiscreteMeasure(rng.normal(size=(25, 2)), rng.uniform(0.0, 1.0, 25))
        for seed in range(50):
            (step,) = saa_steps(base, (1,), seed)
            assert len(step) == 1 and step.weights[0] == 1.0
            assert same_bits(step, empirical(measure_sampler(base), 1, seed=(seed, 0)))

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=12)
        .filter(lambda w: sum(w) > 0),
        dim=st.integers(1, 2),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_steps_are_empirical_for_any_weights(self, weights, dim, n, seed):
        points = np.random.default_rng(seed).integers(-3, 4, size=(len(weights), dim))
        base = DiscreteMeasure(points, weights)
        (step,) = saa_steps(base, (n,), seed)
        assert same_bits(step, empirical(measure_sampler(base), n, seed=(seed, 0)))

    def test_steps_draw_without_choice(self, monkeypatch):
        calls = []

        class Spy(np.random.Generator):
            def choice(self, *args, **kwargs):
                calls.append(1)
                return super().choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", Spy)
        base = canonicalize([((0.0,), 1.0), ((0.5,), 2.0), ((1.0,), 3.0)])
        steps = saa_steps(base, (10, 1000), 0)
        assert calls == []
        # the spy sees the sampler's draw, so the count above is not vacuous
        assert same_bits(steps[1], empirical(measure_sampler(base), 1000, seed=(0, 1)))
        assert calls == [1]

    def test_draw_cap(self):
        stability.PerturbationScheme(kind="saa", schedule=(stability.MAX_SAA_DRAWS,))
        with pytest.raises(InvalidSpec, match="n_schedule entry"):
            stability.PerturbationScheme(kind="saa", schedule=(stability.MAX_SAA_DRAWS + 1,))


def moved_step_oracle(base, move):
    """canonicalize of the base atoms moved one at a time, each coordinate by
    move(i, j, value), with the base weights."""
    return canonicalize([([move(i, j, float(v)) for j, v in enumerate(p)], float(w))
                         for i, (p, w) in enumerate(zip(base.points, base.weights))])


def step_bases():
    """A 1-D and a 2-D base (one on a coarse grid, so snapped atoms merge)
    and a 3-D one with unequal weights."""
    rng = np.random.default_rng(29)
    return [
        canonicalize([((v,), w) for v, w in zip(rng.normal(size=9), rng.uniform(0.1, 1.0, 9))]),
        DiscreteMeasure(rng.integers(-4, 5, size=(12, 2)) * 0.25 + rng.normal(size=(12, 2)) * 0.01,
                        np.ones(12)),
        DiscreteMeasure(rng.normal(size=(7, 3)) * 3.0, rng.uniform(0.1, 1.0, 7)),
    ]


class TestJitterAndDiscretizeSteps:
    """A jitter or discretize step is bit for bit the base with every atom
    moved on its own, and within its transport bound of the base."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_jitter_steps_move_each_atom_by_its_draws(self, seed):
        sigmas = (2.0, 0.3, 1e-3, 1e-13)
        scheme = stability.PerturbationScheme(kind="jitter", schedule=sigmas, seed=seed)
        for base in step_bases():
            steps = stability.generate_sequence(scheme, base)
            assert len(steps) == len(sigmas)
            for k, (sigma, step) in enumerate(zip(sigmas, steps)):
                rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k))))
                # one scalar draw per coordinate, atom by atom
                noise = [[rng.uniform(-sigma, sigma) for _ in range(base.dim)]
                         for _ in range(len(base))]
                assert same_bits(step, moved_step_oracle(base, lambda i, j, v: v + noise[i][j]))
                bound = sigma * math.sqrt(base.dim)
                assert wasserstein_transport_oracle(step, base, 1.0) <= bound + 1e-12

    def test_discretize_steps_snap_each_atom(self):
        resolutions = (0.5, 1.0, 4.0, 1000.0)
        scheme = stability.PerturbationScheme(kind="discretize", schedule=resolutions)
        for base in step_bases():
            steps = stability.generate_sequence(scheme, base)
            assert len(steps) == len(resolutions)
            for res, step in zip(resolutions, steps):
                snapped = moved_step_oracle(base, lambda i, j, v: round(v * res, 0) / res)
                assert same_bits(step, snapped)
                bound = math.sqrt(base.dim) / (2.0 * res)
                assert wasserstein_transport_oracle(step, base, 1.0) <= bound + 1e-12
        # the coarse grid merges atoms of the 2-D base
        assert len(stability.generate_sequence(scheme, step_bases()[1])[0]) < len(step_bases()[1])


def run_stability(tmp_path, scheme, atoms, model="model_milp_expectation.json"):
    """cli.main on a scheme over a 1-D base, numpy warnings as errors."""
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"dim": 1, "atoms": [
        {"point": [p], "weight": 1.0} for p in atoms]}))
    argv = ["stability", "--model", os.path.join(DEMO, model),
            "--measure", str(base), "--scheme", json.dumps(scheme), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return cli.main(argv)


def test_grid_whose_top_overflows_ends_at_1e308(tmp_path, capsys):
    # gauge exponent 2 on an atom at 1e153: the moment 5e305 is finite, and
    # 1e3 times the gauge scale 1e306 is not
    with open(os.path.join(DEMO, "scheme_contamination.json"), encoding="utf-8") as fh:
        scheme = json.load(fh)
    assert run_stability(tmp_path, scheme, [1e153, 0.0],
                         "model_linear_expectation.json") == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        grid = json.load(fh)["uniform_integrability"]["grid"]
    assert grid[-1] == 1e308 and np.all(np.diff(grid) > 0)
    base = canonicalize([((1e3,), 1.0)])
    assert stability._default_ui_grid(base, 1.0).tobytes() == np.logspace(0.0, 6.0, 25).tobytes()


class TestSchemeRefusals:
    def test_jitter_whose_width_overflows_is_a_config_error(self, tmp_path, capsys):
        scheme = {"kind": "jitter", "sigma_schedule": [1e308], "seed": 0}
        assert run_stability(tmp_path, scheme, [0.0, 0.5, 1.0]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err == ("config error: bad scheme: InvalidSpec: sigma_schedule"
                                             " entry 1e+308 is too large: 2 sigma overflows\n")

    def test_widest_jitter_is_accepted(self):
        sigma = float(np.finfo(float).max / 2)
        stability.PerturbationScheme(kind="jitter", schedule=(sigma,))
        with pytest.raises(InvalidSpec):
            stability.PerturbationScheme(kind="jitter", schedule=(np.nextafter(sigma, np.inf),))

    @pytest.mark.parametrize("scheme, atoms", [
        ({"kind": "discretize", "grid_schedule": [1e308]}, [0.0, 3.0]),
        ({"kind": "jitter", "sigma_schedule": [8e307], "seed": 0}, [-1.7e308, 0.0, 1.0]),
    ], ids=["snap", "jitter"])
    def test_overflowing_points_are_a_model_error(self, tmp_path, capsys, scheme, atoms):
        assert run_stability(tmp_path, scheme, atoms) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "model error: OutOfRange: atom points and weights must be finite\n"

    def test_draws_above_the_cap_are_a_config_error(self, tmp_path, capsys):
        scheme = {"kind": "saa", "n_schedule": [10**12], "seed": 0}
        assert run_stability(tmp_path, scheme, [0.0, 0.5, 1.0]) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: bad scheme: InvalidSpec: "
                                                    "n_schedule entry")


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
