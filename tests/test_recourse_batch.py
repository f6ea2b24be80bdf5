"""eval_recourse_batch against the per-row oracle of tests/oracles.py.

The batch must equal recourse_row_oracle row by row: bit for bit for miqp
and convex_mip, and for milp on the demo models; elsewhere within 1e-12
(relative to max(1, |f|)) for linear and milp, whose rows or nodes a
stored basis answers with a basis solve instead of the tableau (the oracle
solves every milp node by its own tableau LP).  On an infeasible,
unbounded or invalid row it must raise what the oracle raises at the first
such row.
"""

import json
import os
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import cli, exprs, objective, optim, recourse, stability
from meanrisk.errors import (
    ConstraintLimitExceeded,
    MeanRiskError,
    OutOfRange,
    RecourseInfeasible,
    RecourseUnbounded,
)
from meanrisk.measure import DiscreteMeasure, canonicalize
from meanrisk.objective import DecisionSet, MeanRiskModel, Q, argmin_set, q_profile
from meanrisk.recourse import (
    ParamMap,
    RecourseCache,
    RecourseModel,
    eval_recourse_batch,
)

from oracles import image_risk_oracle, miqp_bb_oracle, param_map_oracle, recourse_row_oracle

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")
DEMO_MODELS = sorted(f for f in os.listdir(DEMO) if f.startswith("model_"))
BASES = ("base_measure.json", "base_measure_strict.json")
ROUNDOFF_TOL = 1e-12


def load(name):
    with open(os.path.join(DEMO, name), encoding="utf-8") as fh:
        return json.load(fh)


def per_row(model, x, Z):
    """(values, None) from recourse_row_oracle row by row, or (None, error)
    for the first row that raises."""
    try:
        return np.array([recourse_row_oracle(model, x, z) for z in Z], dtype=float), None
    except MeanRiskError as err:
        return None, err


def assert_matches_oracle(model, x, Z, cache=None, bitwise=None):
    """The batch equals the oracle row by row: bit for bit when bitwise
    (by default for miqp and convex_mip), else within ROUNDOFF_TOL."""
    want, want_err = per_row(model, x, Z)
    if want_err is not None:
        with pytest.raises(type(want_err)) as err:
            eval_recourse_batch(model, x, Z, cache)
        assert str(err.value) == str(want_err)
        return
    got = eval_recourse_batch(model, x, Z, cache)
    if bitwise is None:
        bitwise = model.kind in ("miqp", "convex_mip")
    if bitwise:
        assert got.tobytes() == want.tobytes(), (got, want)
    else:
        gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.all(gap <= ROUNDOFF_TOL), (gap.max(), got, want)


@pytest.fixture
def count_solves(monkeypatch):
    """Counter of the solver inputs recourse hands to optim: one entry per
    row of a solve_lp_batch, solve_milp_batch, solve_miqp_batch or
    solve_convex_mip_batch call.  Only recourse's own reference to optim is
    replaced, so the solves optim makes inside a solver (LPs of a batch,
    relaxations, Kelley's cut LPs) are not counted."""
    calls = []

    def counted(name, rows):
        solver = getattr(optim, name)

        def spy(*args):
            calls.extend(args[rows])
            return solver(*args)

        return spy

    spy = types.SimpleNamespace(**vars(optim))
    # each solver's argument that holds one row per input
    for name, rows in (("solve_lp_batch", 4), ("solve_milp_batch", 4), ("solve_miqp_batch", 3),
                       ("solve_convex_mip_batch", 2)):
        setattr(spy, name, counted(name, rows))
    monkeypatch.setattr(recourse, "optim", spy)
    return calls


@pytest.fixture
def count_lps(monkeypatch):
    """Counter of every optim.solve_lp call, inside the solvers too."""
    calls = []
    solve = optim.solve_lp

    def counted(prob):
        calls.append(prob)
        return solve(prob)

    monkeypatch.setattr(optim, "solve_lp", counted)
    return calls


class TestDemoModels:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("name", DEMO_MODELS)
    def test_batch_equals_per_row(self, name, base):
        model = MeanRiskModel.from_dict(load(name))
        nu = DiscreteMeasure.from_dict(load(base))
        grid = np.concatenate([np.arange(-9.5, 10.0, 0.5), [-2.7, -0.3, 0.3, 1.1, 6.9]])
        cache = RecourseCache()
        bitwise = model.recourse.kind != "linear"
        for x in model.decisions:
            for Z in (nu.points, grid[:, None]):
                assert_matches_oracle(model.recourse, x, Z, bitwise=bitwise)
                assert_matches_oracle(model.recourse, x, Z, cache, bitwise=bitwise)

    @pytest.mark.parametrize("name", DEMO_MODELS)
    def test_a_batch_of_one_equals_the_row_oracle(self, name):
        # one row is never bunched, so linear is bit for bit here too
        model = MeanRiskModel.from_dict(load(name))
        for x in model.decisions.points:
            for z in (-2.7, 0.0, 0.3, 1.1, 6.9):
                assert eval_recourse_batch(model.recourse, x, [[z]])[0] == recourse_row_oracle(
                    model.recourse, x, [z])

    def test_miqp_equals_the_branch_and_bound_oracle(self):
        # the benchmark's miqp recourse is this demo's, on 100 atoms uniform on [-2, 3]
        model = MeanRiskModel.from_dict(load("model_miqp_expectation.json"))
        r = model.recourse
        draws = np.random.default_rng(7).uniform(-2.0, 3.0, size=(100, 1))
        for Z in [DiscreteMeasure.from_dict(load(b)).points for b in BASES] + [draws]:
            for x in model.decisions.points:
                want = [miqp_bb_oracle(r.D, param_map_oracle(r.q_map, x, z), r.A,
                                       param_map_oracle(r.h_map, x, z), (0,),
                                       r.integer_bounds).value for z in Z]
                assert eval_recourse_batch(r, x, Z).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", DEMO_MODELS)
    def test_certificate_equals_per_row_loop(self, name):
        model = MeanRiskModel.from_dict(load(name))
        xs = model.decisions.points
        sampler = lambda rng, n: rng.uniform(-3.0, 3.0, size=(n, 1))  # noqa: E731
        cert = recourse.certify_growth(model.recourse, xs, sampler, model.gamma, 200, 5)
        zs = sampler(np.random.Generator(np.random.Philox(np.random.SeedSequence(5))), 200)
        denom = np.linalg.norm(zs, axis=1) ** model.gamma + 1.0
        margin = -np.inf
        for x, eta in zip(xs, cert.eta_hat):
            ratios = np.array([abs(recourse_row_oracle(model.recourse, x, z)) for z in zs]) / denom
            assert eta == max(float(ratios.max()), 1e-12)
            margin = max(margin, float(np.max((ratios - eta) * denom)))
        assert cert.max_residual_margin == margin


class TestSolveCounts:
    def test_one_solve_per_distinct_input(self, count_solves):
        # h ignores x in the milp demo, so five decisions share 7 solves, and
        # a later call solves only the inputs no call has seen
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json"))
        Z = np.array([[0.5], [1.5], [0.5], [-2.0], [2.2], [3.0], [1.5], [7.1], [0.0]])
        cache = RecourseCache()
        for x in model.decisions:
            eval_recourse_batch(model.recourse, x, Z, cache)
        assert len(count_solves) == 7
        assert len(cache) == 7
        more = np.array([[3.0], [-4.5], [0.5], [-4.5], [9.0]])
        got = eval_recourse_batch(model.recourse, [0.0], more, cache)
        assert len(count_solves) == 9
        assert len(cache) == 9
        want = [recourse_row_oracle(model.recourse, [0.0], z) for z in more]
        assert got.tobytes() == np.array(want).tobytes()

    def test_misses_are_solved_in_first_occurrence_order(self, monkeypatch):
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json")).recourse
        seen = []
        solve_rows = recourse._solve_rows

        def spy(model, H, C):
            seen.append(H.copy())
            return solve_rows(model, H, C)

        monkeypatch.setattr(recourse, "_solve_rows", spy)
        cache = RecourseCache()
        eval_recourse_batch(model, [0.0], np.array([[2.0]]), cache)
        Z = np.array([[1.0], [3.0], [1.0], [2.0], [-1.0], [3.0]])
        got = eval_recourse_batch(model, [0.0], Z, cache)
        # z = 2 is cached; 1, 3 and -1 are solved in one call, in that order,
        # though their keys sort as 3, 1, -1
        assert len(seen) == 2
        assert seen[1].tobytes() == model.h_map.rows([0.0], Z[[0, 1, 4]]).tobytes()
        want = [recourse_row_oracle(model, [0.0], z) for z in Z]
        assert got.tobytes() == np.array(want).tobytes()

    def test_signed_zeros_are_distinct_keys(self, count_solves):
        # h = z itself, so z = 0.0 and z = -0.0 hand the solver two inputs
        model = RecourseModel(
            kind="convex_mip", n=1, s=1, v=exprs.var(0), g=(exprs.vabs(exprs.var(0)),),
            h_map=ParamMap(out_dim=1, expressions=(exprs.var(1),), declared_exponent=1.0),
            m2=1, integer_bounds=((-2.0, 2.0),), gamma_K=1.0,
        )
        Z = np.array([[0.0], [-0.0], [0.0], [-0.0]])
        assert np.signbit(model.h_map.rows([0.0], Z)[:, 0]).tolist() == [False, True] * 2
        cache = RecourseCache()
        assert eval_recourse_batch(model, [0.0], Z, cache).tolist() == [0.0] * 4
        assert len(count_solves) == 2
        assert len(cache) == 2
        eval_recourse_batch(model, [0.0], Z[::-1], cache)
        assert len(count_solves) == 2

    def test_pure_integer_lattice_needs_no_solve(self, count_solves, monkeypatch):
        # h = |z| + 1 makes the 37 rows 19 distinct inputs, all answered by
        # one batch and so by one lattice table of v and g
        tables = []
        lattice = optim.lattice_points

        def counted_lattice(bounds):
            tables.append(bounds)
            return lattice(bounds)

        monkeypatch.setattr(optim, "lattice_points", counted_lattice)
        model = MeanRiskModel.from_dict(load("model_convex_expectation.json"))
        eval_recourse_batch(model.recourse, [0.0], np.linspace(-9.0, 9.0, 37)[:, None])
        assert len(count_solves) == 19
        assert len(tables) == 1

    def test_linear_bunching_solves_once_per_basis(self, count_solves, count_lps):
        # f = |x - z|: one basis for z < x and one for z > x; the degenerate
        # basis of z = x is one of them
        model = MeanRiskModel.from_dict(load("model_linear_expectation.json"))
        Z = np.array([[0.5], [-1.0], [2.0], [0.25], [3.0], [-4.0]])
        assert_matches_oracle(model.recourse, [0.5], Z)
        count_solves.clear()
        count_lps.clear()
        eval_recourse_batch(model.recourse, [0.5], Z)
        assert len(count_solves) == 6
        assert len(count_lps) == 2

    def test_eval_all_lp_count(self, count_lps, tmp_path, capsys):
        # the benchmark's eval-recourse pass at seed 7: eval --all of the four
        # recourse families on 100 atoms uniform on [-2, 3], which took 484
        # LPs when no basis or ray was reused, 66 when a degenerate basis
        # was not, with one Farkas LP per stored ray, and 19 with one batch
        # per decision; one batch per decision set takes 7
        rng = np.random.default_rng(7)
        points, weights = rng.uniform(-2.0, 3.0, size=100), rng.uniform(0.5, 1.5, size=100)
        atoms = [{"point": [p], "weight": w} for p, w in zip(points, weights / weights.sum())]
        measure = tmp_path / "measure.json"
        measure.write_text(json.dumps({"dim": 1, "atoms": atoms}))
        counts = []
        for _ in range(2):
            count_lps.clear()
            for name in ("model_linear_avar.json", "model_milp_expectation.json",
                         "model_miqp_expectation.json", "model_convex_expectation.json"):
                argv = ["eval", "--model", os.path.join(DEMO, name), "--measure", str(measure),
                        "--all"]
                assert cli.main(argv) == cli.EXIT_OK
            counts.append(len(count_lps))
        capsys.readouterr()
        assert counts[0] == counts[1] <= 8

    def test_linear_certify_is_one_batch(self, count_lps, capsys):
        # the two bases of f = |x - z| serve all five decisions (10 LPs with
        # one batch per decision)
        argv = ["certify", "--model", os.path.join(DEMO, "model_linear_avar.json"),
                "--zbox=-3:3", "--n", "200", "--xcount", "5"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        assert len(count_lps) == 2

    @pytest.mark.parametrize("name", ["model_milp_expectation.json", "model_miqp_expectation.json"])
    def test_duplicated_shuffled_rows_solve_each_input_once(self, name, count_solves):
        model = MeanRiskModel.from_dict(load(name)).recourse
        X = np.array([[0.0], [0.5], [0.0], [1.0], [0.5], [0.0]])
        Z = np.array([[1.5], [-0.5], [1.5], [2.0], [-0.5], [0.25]])
        distinct = {(x.tobytes(), z.tobytes()) for x, z in zip(X, Z)}
        perm = np.random.default_rng(3).permutation(24)
        Xs, Zs = np.tile(X, (4, 1))[perm], np.tile(Z, (4, 1))[perm]
        got = eval_recourse_batch(model, Xs, Zs)
        # milp's h ignores x, so its inputs are the distinct z
        assert len(count_solves) == (len({z.tobytes() for z in Z}) if model.kind == "milp"
                                     else len(distinct))
        want = [recourse_row_oracle(model, x, z) for x, z in zip(Xs, Zs)]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("name", DEMO_MODELS)
    def test_q_profile_equals_q_per_decision(self, name, base):
        # one batch over all decisions against a fresh model per decision
        nu = DiscreteMeasure.from_dict(load(base))
        fresh = lambda: MeanRiskModel.from_dict(load(name))  # noqa: E731
        got = q_profile(fresh(), nu)
        want = [Q(fresh(), x, nu) for x in fresh().decisions]
        gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.all(gap <= ROUNDOFF_TOL), (got, want)
        if not name.startswith("model_linear"):
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("name", DEMO_MODELS)
    def test_q_profile_matches_the_merged_image_oracle(self, name, base):
        # the risk of each decision's merged image measure, as Q was read
        # before it read the value rows directly
        model = MeanRiskModel.from_dict(load(name))
        nu = DiscreteMeasure.from_dict(load(base))
        F = np.array([[recourse_row_oracle(model.recourse, x, z) for z in nu.points]
                      for x in model.decisions])
        want = image_risk_oracle(model.risk, F, nu.weights)
        gap = np.abs(q_profile(model, nu) - want) / np.maximum(1.0, np.abs(want))
        assert np.all(gap <= ROUNDOFF_TOL), (gap.max(), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_value_is_out_of_range(self, monkeypatch, bad):
        model = MeanRiskModel.from_dict(load("model_linear_avar.json"))
        nu = DiscreteMeasure.from_dict(load("base_measure.json"))
        solve = objective.eval_recourse_batch

        def spoiled(*args):
            values = solve(*args)
            values[-1] = bad
            return values

        monkeypatch.setattr(objective, "eval_recourse_batch", spoiled)
        for call in (lambda: q_profile(model, nu), lambda: Q(model, model.decisions.points[2], nu)):
            with pytest.raises(OutOfRange, match="must be finite"):
                call()

    def test_model_cache_is_shared_by_q_and_recourse_value(self, count_solves):
        model = MeanRiskModel.from_dict(load("model_miqp_expectation.json"))
        nu = DiscreteMeasure.from_dict(load("base_measure.json"))
        x = model.decisions.points[1]
        want = [recourse_row_oracle(model.recourse, x, z) for z in nu.points]
        Q(model, x, nu)
        solved = len(count_solves)
        assert solved == len(nu)
        for z, value in zip(nu.points, want):
            assert model.recourse_value(x, z) == value
        assert len(count_solves) == solved  # every lookup hit the cache Q filled


class TestExactKeys:
    """The fractional h = 0.7x - 1.3z + 0.1 rounds differently per batch
    under a BLAS product; with one fold per row a row's key is the same in
    every batch, so the recourse cache answers every repeated (x, z)."""

    def model(self):
        data = load("model_linear_expectation.json")
        data["recourse"]["h_map"]["affine"] = {"matrix": [[0.7, -1.3]], "constant": [0.1]}
        data["decisions"] = {"points": [[x] for x in np.linspace(0.0, 1.0, 11)]}
        return MeanRiskModel.from_dict(data)

    def measures(self):
        rng = np.random.default_rng(5)
        ones = [canonicalize([((z,), 1.0)]) for z in rng.uniform(-1.0, 1.0, 20)]
        many = [canonicalize([((z,), w) for z, w in zip(rng.uniform(-1.0, 1.0, 50),
                                                         rng.uniform(0.1, 1.0, 50))])
                for _ in range(4)]
        return ones + many

    def test_q_after_q_profile_is_its_entry_without_a_solve(self, count_solves):
        model = self.model()
        for nu in self.measures():
            values = q_profile(model, nu)
            solved = len(count_solves)
            for x, value in zip(model.decisions, values):
                assert np.float64(Q(model, x, nu)).tobytes() == value.tobytes()
            assert len(count_solves) == solved

    def test_recourse_value_after_q_profile_adds_no_cache_key(self):
        model = self.model()
        for nu in self.measures():
            q_profile(model, nu)
            keys = len(model._f_cache)
            for x in model.decisions:
                for z in nu.points:
                    model.recourse_value(x, z)
            assert len(model._f_cache) == keys

    def test_one_profile_per_eval_all(self, monkeypatch, capsys):
        calls = []
        profile = objective._profile

        def counted(*args):
            calls.append(1)
            return profile(*args)

        monkeypatch.setattr(objective, "_profile", counted)
        argv = ["eval", "--model", os.path.join(DEMO, "model_milp_expectation.json"),
                "--measure", os.path.join(DEMO, BASES[0]), "--all"]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["argmin"]
        assert len(calls) == 1


class TestErrors:
    def integer_convex(self, m1=0):
        # |y| <= z - 5
        box = dict(m1=1, continuous_box=((-9.0, 9.0),)) if m1 else dict(
            m2=1, integer_bounds=((-9.0, 9.0),)
        )
        return RecourseModel(
            kind="convex_mip",
            n=1,
            s=1,
            h_map=ParamMap(out_dim=1, matrix=[[0.0, 1.0]], constant=[-5.0]),
            v=exprs.var(0),
            g=(exprs.vabs(exprs.var(0)),),
            gamma_K=1.0,
            **box,
        )

    @pytest.mark.parametrize("m1", [0, 1], ids=["lattice", "continuous"])
    def test_first_infeasible_row_is_named(self, m1):
        model = self.integer_convex(m1)
        Z = np.array([[6.0], [8.0], [1.0], [0.0], [6.0]])
        with pytest.raises(RecourseInfeasible) as want:
            recourse_row_oracle(model, [0.0], Z[2])
        with pytest.raises(RecourseInfeasible) as got:
            eval_recourse_batch(model, [0.0], Z)
        assert str(got.value) == str(want.value)
        assert "z=[1.0]" in str(got.value)

    def test_non_finite_rhs_on_the_lattice(self):
        model = RecourseModel(
            kind="convex_mip",
            n=1,
            s=1,
            h_map=ParamMap(out_dim=1, matrix=[[0.0, 1e308]], constant=[0.0]),
            v=exprs.var(0),
            g=(exprs.vabs(exprs.var(0)),),
            m2=1,
            integer_bounds=((-2.0, 2.0),),
            gamma_K=1.0,
        )
        # rows: feasible, rhs = +inf (refused by the solver), infeasible
        Z = np.array([[1.0], [10.0], [-1.0]])
        with np.errstate(over="ignore"), pytest.raises(OutOfRange, match="non-finite"):
            eval_recourse_batch(model, [0.0], Z)

    def abs_gap_model(self, decisions, overflow=False):
        # |y| <= h = |z - x| - 1: infeasible when |z - x| < 1; with overflow,
        # h adds (1e200 (x - 2))^2, which is inf unless x = 2
        h = ["sum", ["abs", ["affine", [-1.0, 1.0], 0.0]], ["const", -1.0]]
        if overflow:
            h.append(["pow", ["affine", [1e200, 0.0], -2e200], 2])
        recourse_data = self.integer_convex().to_dict()
        recourse_data["h_map"] = {"expr": [h], "exponent": 2.0}
        return MeanRiskModel.from_dict({"recourse": recourse_data,
                                        "risk": {"kind": "expectation"},
                                        "decisions": {"points": decisions}})

    def test_error_order_is_map_then_solver_each_by_decision_then_atom(self):
        nu = canonicalize([((2.0,), 0.5), ((6.0,), 0.5)])
        # x = 6 fails at its second atom, x = 2.5 at its first and x = 10
        # nowhere: the decision order decides, and the row's own x is named
        with pytest.raises(RecourseInfeasible, match=re.escape("x=[6.0], z=[6.0]")):
            q_profile(self.abs_gap_model([[6.0], [2.5]]), nu)
        with pytest.raises(RecourseInfeasible, match=re.escape("x=[2.5], z=[2.0]")):
            q_profile(self.abs_gap_model([[10.0], [2.5], [6.0]]), nu)
        # x = 2 is infeasible at z = 2, and h overflows at x = 6: every map
        # error comes before any solver error
        with pytest.raises(OutOfRange, match=re.escape("at y = [6.0, 2.0] is inf")):
            q_profile(self.abs_gap_model([[2.0], [6.0]], overflow=True), nu)
        with pytest.raises(RecourseInfeasible, match=re.escape("x=[2.0], z=[2.0]")):
            Q(self.abs_gap_model([[2.0], [6.0]], overflow=True), [2.0], nu)

    def miqp(self, h_scale=1.0, m2=1):
        # min y'y + q.y over y >= -h_scale z (first coordinate), y in [-600, 1100]
        return RecourseModel(
            kind="miqp", n=1, s=1, A=[[-1.0] + [0.0] * (m2 - 1)], D=np.eye(m2),
            h_map=ParamMap(out_dim=1, matrix=[[0.0, h_scale]]),
            q_map=ParamMap(out_dim=m2, matrix=[[1.0, -1.0]] * m2),
            m2=m2, integer_bounds=((-600.0, 1100.0),) * m2,
        )

    @pytest.mark.parametrize(
        "Z, error",
        [([[0.5], [-1.0], [2.0]], RecourseInfeasible), ([[0.5], [2.0], [-1.0]], OutOfRange)],
        ids=["infeasible-first", "non-finite-first"],
    )
    def test_first_failing_miqp_row_is_named(self, Z, error):
        # h = 1e308 z: z = -1 needs y >= 1e308 (infeasible), z = 2 gives h = inf
        model = self.miqp(h_scale=1e308)
        with np.errstate(over="ignore"):
            assert_matches_oracle(model, [0.0], np.array(Z))
            with pytest.raises(error):
                eval_recourse_batch(model, [0.0], np.array(Z))

    def test_miqp_row_cap_before_any_solve(self, monkeypatch):
        # 1 base row + 2 box rows for each of 10 integer coordinates
        model = self.miqp(m2=10)

        def no_solve(*args):
            raise AssertionError("solved before the row cap was checked")

        monkeypatch.setattr(optim, "_stacked_solve", no_solve)
        with pytest.raises(ConstraintLimitExceeded) as want:
            eval_recourse_batch(model, [0.0], [[0.5]])
        assert str(want.value) == "21 rows > 20"
        assert_matches_oracle(model, [0.0], np.array([[0.5], [1.5]]))

    def test_miqp_row_cap_cli_exit_code(self, tmp_path, capsys):
        data = load("model_miqp_expectation.json")
        data["recourse"] = self.miqp(m2=10).to_dict()
        model = tmp_path / "m.json"
        model.write_text(json.dumps(data))
        argv = ["eval", "--model", str(model), "--measure", os.path.join(DEMO, BASES[0]), "--all"]
        assert cli.main(argv) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "model error: ConstraintLimitExceeded: 21 rows > 20\n"

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 2, 1, 3], [3, 2, 1, 0]])
    def test_first_bad_row_is_named_among_infeasible_and_unbounded(self, order):
        # min (1 - z) y1 over y1 - y2 = 0, y3 = z + 1, y >= 0: infeasible for
        # z < -1, unbounded for z > 1 (y1 = y2 -> inf), else 0
        model = RecourseModel(
            kind="linear", n=1, s=1, A=[[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
            h_map=ParamMap(out_dim=2, matrix=[[0.0, 0.0], [0.0, 1.0]], constant=[0.0, 1.0]),
            q_map=ParamMap(out_dim=3, matrix=[[0.0, -1.0], [0.0, 0.0], [0.0, 0.0]],
                           constant=[1.0, 0.0, 0.0]),
        )
        Z = np.array([[0.5], [-3.0], [2.0], [0.0]])[order]
        first = next(z for z in Z if abs(z[0]) > 1)
        error = RecourseInfeasible if first[0] < -1 else RecourseUnbounded
        with pytest.raises(error, match=re.escape(f"z=[{first[0]}]")):
            eval_recourse_batch(model, [0.0], Z)
        assert_matches_oracle(model, [0.0], Z)

    def test_first_unbounded_linear_row_is_named(self):
        # min q.y, y1 - y2 = h: unbounded when q1 + q2 < 0, i.e. z < -1
        model = RecourseModel(
            kind="linear",
            n=1,
            s=1,
            A=[[1.0, -1.0]],
            h_map=ParamMap(out_dim=1, matrix=[[0.0, 1.0]]),
            q_map=ParamMap(out_dim=2, matrix=[[0.0, 1.0], [0.0, 0.0]], constant=[0.0, 1.0]),
        )
        assert_matches_oracle(model, [0.0], np.array([[1.0], [0.0], [-3.0], [-2.0]]))


class TestLatticeScan:
    """solve_convex_mip's comparisons, kept exactly by the table."""

    def model(self, v, g):
        return RecourseModel(kind="convex_mip", n=1, s=1, v=v, g=g,
                             h_map=ParamMap(out_dim=len(g), matrix=[[0.0, 1.0]] * len(g)),
                             m2=1, integer_bounds=((-1.0, 1.0),), gamma_K=1.0)

    def test_improvement_below_1e15_is_not_taken(self):
        # v = 1 - 1e-16 y reads 1.0, 1.0, 1 - 2^-53 on the lattice -1, 0, 1
        model = self.model(exprs.affine([-1e-16], 1.0), (exprs.vabs(exprs.var(0)),))
        assert_matches_oracle(model, [0.0], np.array([[5.0]]))
        assert eval_recourse_batch(model, [0.0], np.array([[5.0]]))[0] == 1.0

    def test_nan_violation_is_skipped_as_by_max(self):
        # g2 = inf + (-inf) = nan at y = 1; Python's max keeps g1's violation
        g2 = exprs.vsum(exprs.affine([1e308], 1e308), exprs.affine([-1e308], -1e308))
        model = self.model(exprs.affine([-1.0]), (exprs.vabs(exprs.var(0)), g2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_matches_oracle(model, [0.0], np.array([[1.0], [0.0]]))


class TestLatticeCap:
    def test_cap_is_checked_before_enumerating(self):
        assert len(optim.lattice_points(((0.0, 999.0), (0.0, 999.0)))) == optim.MAX_LATTICE_POINTS
        with pytest.raises(ConstraintLimitExceeded, match="MAX_LATTICE_POINTS"):
            optim.lattice_points(((0.0, 1000.0), (0.0, 999.0)))

    def test_solver_and_batch_refuse_a_huge_lattice(self):
        data = load("model_convex_expectation.json")["recourse"]
        data["integer_bounds"] = [[-1e7, 1e7]]
        model = RecourseModel.from_dict(data)
        with pytest.raises(ConstraintLimitExceeded):
            eval_recourse_batch(model, [0.0], [[0.5]])
        with pytest.raises(ConstraintLimitExceeded):
            eval_recourse_batch(model, [0.0], np.array([[0.5], [1.5]]))

    def test_cli_exit_code(self, tmp_path, capsys):
        data = load("model_convex_expectation.json")
        data["recourse"]["integer_bounds"] = [[-1e7, 1e7]]
        model = tmp_path / "m.json"
        model.write_text(json.dumps(data))
        argv = ["eval", "--model", str(model), "--measure", os.path.join(DEMO, BASES[0]),
                "--x", "0"]
        assert cli.main(argv) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("model error: ConstraintLimitExceeded")


class TestCertifyCap:
    def no_sampler(self, rng, n):
        raise AssertionError("sampled before the row cap was checked")

    def test_cap_is_checked_before_sampling(self, monkeypatch):
        model = MeanRiskModel.from_dict(load("model_linear_avar.json"))
        xs = model.decisions.points
        n = recourse.MAX_RECOURSE_ROWS // len(xs) + 1
        with pytest.raises(ConstraintLimitExceeded, match="MAX_RECOURSE_ROWS"):
            recourse.certify_growth(model.recourse, xs, self.no_sampler, 2.0, n, 0)
        # the cap itself is admitted
        monkeypatch.setattr(recourse, "MAX_RECOURSE_ROWS", 10)
        sampler = lambda rng, n: rng.uniform(-1.0, 1.0, size=(n, 1))  # noqa: E731
        assert recourse.certify_growth(model.recourse, xs[:2], sampler, 2.0, 5, 0).sample_count == 5
        with pytest.raises(ConstraintLimitExceeded):
            recourse.certify_growth(model.recourse, xs[:2], self.no_sampler, 2.0, 6, 0)

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "box_sampler", lambda lo, hi: self.no_sampler)
        argv = ["certify", "--model", os.path.join(DEMO, "model_linear_avar.json"),
                "--zbox=-1:1", "--n", str(10**12)]
        assert cli.main(argv) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("model error: ConstraintLimitExceeded: 5000000000000 rows "
                           "> MAX_RECOURSE_ROWS = 500000\n")


class TestRecourseRowCap:
    def test_q_profile_admits_the_cap_and_refuses_one_row_more(self, monkeypatch):
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json"))
        nu = DiscreteMeasure.from_dict(load(BASES[0]))
        rows = len(model.decisions) * len(nu)
        monkeypatch.setattr(recourse, "MAX_RECOURSE_ROWS", rows)
        want = q_profile(MeanRiskModel.from_dict(load("model_milp_expectation.json")), nu)
        monkeypatch.setattr(recourse, "MAX_RECOURSE_ROWS", rows - 1)
        with pytest.raises(ConstraintLimitExceeded,
                           match=f"^{rows} rows > MAX_RECOURSE_ROWS = {rows - 1}$"):
            q_profile(model, nu)
        assert len(want) == len(model.decisions)

    def test_eval_all_above_the_cap_is_a_model_error(self, monkeypatch, capsys):
        monkeypatch.setattr(recourse, "MAX_RECOURSE_ROWS", 10)
        argv = ["eval", "--model", os.path.join(DEMO, "model_miqp_expectation.json"),
                "--measure", os.path.join(DEMO, BASES[0]), "--all"]
        assert cli.main(argv) == cli.EXIT_MODEL
        out = capsys.readouterr()
        assert out.out == ""
        assert re.fullmatch(r"model error: ConstraintLimitExceeded: \d+ rows > "
                            r"MAX_RECOURSE_ROWS = 10\n", out.err)


class TestDecisionGridCap:
    def test_a_grid_above_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        cap = recourse.MAX_RECOURSE_ROWS
        assert len(DecisionSet.from_box([0.0, 0.0], [1.0, 1.0], [cap // 1000, 1000])) == cap

        def no_grid(*args, **kwargs):
            raise AssertionError("built the grid before its size was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        with pytest.raises(ConstraintLimitExceeded,
                           match=f"^{cap + 1000}-point decision grid > MAX_RECOURSE_ROWS = {cap}$"):
            DecisionSet.from_box([0.0, 0.0], [1.0, 1.0], [cap // 1000 + 1, 1000])
        with pytest.raises(ConstraintLimitExceeded, match="^1000000000000000000000000-point"):
            DecisionSet.from_box([0.0] * 4, [1.0] * 4, [10**6] * 4)


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_argmin_set_rejects_bad_tol(self, tol, count_solves):
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json"))
        nu = DiscreteMeasure.from_dict(load(BASES[0]))
        with pytest.raises(OutOfRange, match="tolerance"):
            argmin_set(model, nu, tol)
        assert count_solves == []

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_run_experiment_rejects_bad_tol_before_any_solve(self, tol, count_solves):
        model = MeanRiskModel.from_dict(load("model_milp_expectation.json"))
        nu = DiscreteMeasure.from_dict(load(BASES[0]))
        with pytest.raises(OutOfRange, match="tolerance"):
            stability.run_experiment(model, nu, sequence=[nu], argmin_tol=tol)
        assert count_solves == []

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["eval", "stability"])
    def test_cli_bad_tol_is_a_config_error(self, tmp_path, capsys, command, tol):
        argv = [command, "--model", os.path.join(DEMO, "model_milp_expectation.json"),
                "--measure", os.path.join(DEMO, BASES[0]), f"--tol={tol}"]
        if command == "eval":
            argv.append("--all")
        else:
            argv += ["--scheme", os.path.join(DEMO, "scheme_saa.json"),
                     "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: --tol")
        assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# random instances of each kind
# ---------------------------------------------------------------------------

quarter = st.integers(-8, 8).map(lambda k: 0.25 * k)
small = st.integers(-1, 1).map(lambda k: 0.25 * k)


def affine_map(draw, out_dim, n_in, coef=quarter, z_free=False, through_origin=False):
    """An affine map of (x, z) on quarter-integer entries; with z_free the
    output ignores z, with through_origin it is 0 at (0, 0)."""
    M = np.array([[draw(coef) for _ in range(n_in)] for _ in range(out_dim)])
    if z_free:
        M[:, 1:] = 0.0
    c = np.zeros(out_dim) if through_origin else np.array([draw(quarter) for _ in range(out_dim)])
    return M, c


@st.composite
def noise_rows(draw, s):
    """Rows on a coarse grid, the zero row and repeats included."""
    rows = draw(st.lists(st.lists(st.integers(-4, 4).map(lambda k: 0.5 * k),
                                  min_size=s, max_size=s), min_size=1, max_size=12))
    rows += [[0.0] * s] + rows[: draw(st.integers(0, 3))]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order], dtype=float)


@st.composite
def linear_instances(draw):
    # A = [I, -I, R] makes every h feasible and q >= 1 - 1.25 > 0 every q
    # bounded; q depends on z unless z_free, h = 0 at x = 0, z = 0 when the
    # map goes through the origin (a degenerate optimum)
    m = draw(st.integers(1, 3))
    k = draw(st.integers(0, 2))
    R = np.array([[draw(quarter) for _ in range(k)] for _ in range(m)]).reshape(m, k)
    A = np.hstack([np.eye(m), -np.eye(m), R])
    H, h0 = affine_map(draw, m, 3, through_origin=draw(st.booleans()))
    Qm, q0 = affine_map(draw, A.shape[1], 3, coef=small, z_free=draw(st.booleans()))
    model = RecourseModel(
        kind="linear", n=1, s=2, A=A,
        h_map=ParamMap(out_dim=m, matrix=H, constant=h0),
        q_map=ParamMap(out_dim=A.shape[1], matrix=Qm, constant=np.abs(q0) + 1.0),
    )
    return model, draw(st.sampled_from([0.0, 0.5, -1.0])), draw(noise_rows(2))


@st.composite
def milp_instances(draw):
    # y = (slack+, slack-, integers in [0, 4]); h moves with x
    m = draw(st.integers(1, 2))
    m2 = draw(st.integers(1, 2))
    R = np.array([[draw(st.integers(-2, 2)) for _ in range(m2)] for _ in range(m)], dtype=float)
    A = np.hstack([np.eye(m), -np.eye(m), R])
    q = np.array([draw(quarter) + 2.5 for _ in range(2 * m)] + [draw(quarter) for _ in range(m2)])
    H, h0 = affine_map(draw, m, 2)
    H[:, 0] = [0.5 * draw(st.integers(1, 4)) for _ in range(m)]
    model = RecourseModel(kind="milp", n=1, s=1, A=A, q=q,
                          h_map=ParamMap(out_dim=m, matrix=H, constant=h0),
                          m1=2 * m, m2=m2, integer_bounds=((0.0, 4.0),) * m2)
    return model, draw(st.sampled_from([0.0, 0.5, 1.0])), draw(noise_rows(1))


@st.composite
def convex_instances(draw):
    # v = (a.y + b)^2 + c|y1 - d|, g1 = |y0 - e|, g2 = max(y0 + y1, -y1);
    # small rhs values leave some rows infeasible
    v = exprs.vsum(
        exprs.even_power(exprs.affine([draw(quarter), draw(quarter)], draw(quarter)), 2),
        exprs.scale(abs(draw(quarter)), exprs.vabs(exprs.affine([0.0, 1.0], -draw(quarter)))),
    )
    g = (
        exprs.vabs(exprs.affine([1.0, 0.0], -draw(quarter))),
        exprs.vmax(exprs.affine([1.0, 1.0]), exprs.affine([0.0, -1.0])),
    )
    H, h0 = affine_map(draw, 2, 2, z_free=draw(st.booleans()))
    model = RecourseModel(kind="convex_mip", n=1, s=1, v=v, g=g,
                          h_map=ParamMap(out_dim=2, matrix=H, constant=h0),
                          m2=2, integer_bounds=((-3.0, 3.0), (-2.5, 2.0)), gamma_K=1.0)
    return model, draw(st.sampled_from([0.0, 1.0])), draw(noise_rows(1))


@st.composite
def miqp_instances(draw):
    # y = (continuous, integers in boxes); h and q move with x and z, and
    # small h leaves some rows infeasible
    m1 = draw(st.integers(0, 1))
    m2 = draw(st.integers(1, 2))
    n = m1 + m2
    m = draw(st.integers(1, 2))
    R = np.array([[draw(quarter) for _ in range(n)] for _ in range(n)])
    D = R @ R.T + (0.3 + draw(st.integers(0, 6)) / 7.0) * np.eye(n)
    A = np.array([[float(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(m)])
    H, h0 = affine_map(draw, m, 2)
    Qm, q0 = affine_map(draw, n, 2)
    bounds = tuple((float(draw(st.integers(-3, 0))), float(draw(st.integers(0, 3))))
                   for _ in range(m2))
    model = RecourseModel(kind="miqp", n=1, s=1, A=A, D=D, m1=m1, m2=m2, integer_bounds=bounds,
                          h_map=ParamMap(out_dim=m, matrix=H, constant=h0),
                          q_map=ParamMap(out_dim=n, matrix=Qm, constant=q0 / 3.0))
    return model, draw(st.sampled_from([0.0, 0.5, 1.0])), draw(noise_rows(1))


@settings(max_examples=60, deadline=None)
@given(case=miqp_instances(), data=st.data())
def test_random_miqp_matches_the_branch_and_bound_oracle(case, data):
    # values bit for bit, and the first infeasible row named, in any row order
    model, x, Z = case
    xv = np.array([x])
    idx = tuple(range(model.m1, model.m1 + model.m2))
    want = [miqp_bb_oracle(model.D, param_map_oracle(model.q_map, xv, z), model.A,
                           param_map_oracle(model.h_map, xv, z), idx, model.integer_bounds)
            for z in Z]
    order = np.arange(len(Z))
    for perm in (order, order[::-1], np.array(data.draw(st.permutations(order)))):
        failing = [i for i in perm if not want[i].optimal]
        if failing:
            with pytest.raises(RecourseInfeasible) as err:
                eval_recourse_batch(model, xv, Z[perm])
            assert str(err.value) == str(RecourseInfeasible(xv, Z[failing[0]]))
        else:
            got = eval_recourse_batch(model, xv, Z[perm])
            assert got.tobytes() == np.array([want[i].value for i in perm]).tobytes()
    assert_matches_oracle(model, xv, Z)


@settings(max_examples=60, deadline=None)
@given(case=st.one_of(linear_instances(), milp_instances(), convex_instances()))
def test_random_instances_match_the_oracle(case):
    model, x, Z = case
    assert_matches_oracle(model, [x], Z)
    assert_matches_oracle(model, [x], Z[::-1])
