import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import exprs, optim
from meanrisk.errors import (
    ConstraintLimitExceeded,
    DimMismatch,
    InvalidSpec,
    MeanRiskError,
    OutOfRange,
)

from oracles import (
    convex_grid_oracle,
    convex_mip_loop_oracle,
    highs_duals,
    highs_status,
    lp_vertex_oracle,
    milp_bb_oracle,
    milp_closed_oracle,
    miqp_bb_oracle,
    miqp_closed_oracle,
    polyhedral_slice_oracle,
    sliver_oracle,
)


def solutions(rows) -> list:
    """The Rows of a batch as one optim.Solution per row."""
    return [optim.Solution("optimal", value, point) if status == optim.OPTIMAL
            else optim.Solution(optim.STATUSES[status]) for status, value, point in zip(*rows)]


def one(rows) -> optim.Solution:
    """The result of a batch of one."""
    (sol,) = solutions(rows)
    return sol


def solve_milp(prob, idx, bounds) -> optim.Solution:
    """The LP prob with integer boxes, as a batch of one."""
    return one(optim.solve_milp_batch(prob.c, prob.A, prob.senses, prob.nonneg, prob.b[None], idx,
                                      bounds))


def solve_miqp(D, q, A, b, idx=(), bounds=()) -> optim.Solution:
    """min y'Dy + q.y over A y <= b with integer boxes, as a batch of one."""
    row = lambda v: np.atleast_1d(np.asarray(v, dtype=float))[None]  # noqa: E731
    return one(optim.solve_miqp_batch(D, row(q), A, row(b), idx, bounds))


def solve_convex_mip(v, g, rhs, *slices) -> optim.Solution:
    """min v(y) over g(y) <= rhs on the integer and continuous slices, as a
    batch of one."""
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))[None]
    return one(optim.solve_convex_mip_batch(v, g, rhs, *slices))


class TestLinearProgram:
    def test_shape_validation(self):
        with pytest.raises(DimMismatch):
            optim.LinearProgram([1, 2], [[1, 2, 3]], [1])
        with pytest.raises(InvalidSpec):
            optim.LinearProgram(
                c=[1.0], A=[[1.0]], b=[1.0], senses=(">=",), nonneg=(True,)
            )

    def test_simple(self):
        sol = optim.solve_lp(optim.LinearProgram([1, 1], [[1, -1]], [1.5]))
        assert sol.optimal
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        assert np.allclose(sol.point, [1.5, 0], atol=1e-9)

    def test_infeasible(self):
        assert optim.solve_lp(optim.LinearProgram([0], [[1]], [-1])).status == "infeasible"

    def test_unbounded(self):
        assert optim.solve_lp(optim.LinearProgram([-1], [[0]], [0])).status == "unbounded"

    def test_free_variables(self):
        # min x, x <= 3, -x <= 5  (x free) -> -5
        sol = optim.solve_lp(
            optim.LinearProgram([1], [[1], [-1]], [3, 5], senses="<=", nonneg=(False,))
        )
        assert sol.value == pytest.approx(-5.0, abs=1e-9)

    def test_vertex_oracle_random(self):
        rng = np.random.default_rng(61)
        solved = 0
        for it in range(80):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            x_star = rng.uniform(0, 3, size=n)
            senses = tuple(rng.choice(["==", "<="], size=m))
            slack = np.where([s == "<=" for s in senses], rng.uniform(0, 1, size=m), 0.0)
            b = A @ x_star + slack
            c = rng.uniform(0.05, 2.0, size=n)  # positive costs keep it bounded
            prob = optim.LinearProgram(c, A, b, senses)
            sol = optim.solve_lp(prob)
            assert sol.optimal
            expect = lp_vertex_oracle(c, A, b, senses, (True,) * n)
            assert expect is not None, f"oracle found no vertex at iteration {it}"
            assert sol.value == pytest.approx(expect, abs=1e-8)
            # feasibility of the returned point
            assert np.all(sol.point >= -1e-9)
            for i, s in enumerate(senses):
                r = A[i] @ sol.point - b[i]
                assert r <= 1e-9 if s == "<=" else abs(r) <= 1e-9
            solved += 1
        assert solved == 80

    def test_vertex_oracle_redundant_rows(self):
        # x0 = a, x0 + x1 = b, 3 x0 = 3a: rank 2 with three rows, and the
        # only feasible point is (a, b - a)
        a, bb, c = 1.0, 2.5, [2.0, 1.0]
        A = [[1.0, 0.0], [1.0, 1.0], [3.0, 0.0]]
        rhs = [a, bb, 3.0 * a]
        expect = c[0] * a + c[1] * (bb - a)
        assert lp_vertex_oracle(c, A, rhs, ("==",) * 3, (True, True)) == pytest.approx(
            expect, abs=1e-12
        )
        sol = optim.solve_lp(optim.LinearProgram(c, A, rhs, "=="))
        assert sol.optimal
        assert sol.value == pytest.approx(expect, abs=1e-9)
        # x0 = 1, 2 x0 = 3: b lies outside the range of A
        A, rhs = [[1.0], [2.0]], [1.0, 3.0]
        assert lp_vertex_oracle([1.0], A, rhs, ("==", "=="), (True,)) is None
        assert optim.solve_lp(optim.LinearProgram([1.0], A, rhs, "==")).status == "infeasible"

    def test_tableau_and_scipy_paths_agree(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(m, n))
            b = A @ rng.uniform(0, 2, size=n)
            c = rng.uniform(0.1, 1, size=n)
            prob = optim.LinearProgram(c, A, b)
            t_sol = optim._tableau_solve(prob)
            s_sol = optim._scipy_solve(prob)
            assert t_sol.status == s_sol.status
            if t_sol.optimal:
                assert t_sol.value == pytest.approx(s_sol.value, abs=1e-8)

    def test_determinism(self):
        prob = optim.LinearProgram([1, 2, 0.5], [[1, 1, 1], [1, -1, 0]], [3, 0.5], ("==", "<="))
        a = optim.solve_lp(prob)
        b = optim.solve_lp(prob)
        assert a.value == b.value
        assert np.array_equal(a.point, b.point)


class TestDuals:
    def test_complementary_slackness_random(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            senses = tuple(rng.choice(["==", "<="], size=m))
            slack = np.where([s == "<=" for s in senses], rng.uniform(0, 1, size=m), 0.0)
            b = A @ rng.uniform(0, 2, size=n) + slack
            c = rng.uniform(0.1, 2, size=n)
            sol = optim.solve_lp(optim.LinearProgram(c, A, b, senses))
            if not sol.optimal:
                continue
            # any optimal primal and any optimal dual are complementary
            y, reduced = highs_duals(c, A, b, senses)
            for i, s in enumerate(senses):
                if s == "<=":
                    gap = b[i] - A[i] @ sol.point
                    assert abs(y[i] * gap) <= 1e-8
            for j in range(n):
                assert abs(reduced[j] * sol.point[j]) <= 1e-8
                assert reduced[j] >= -1e-8


@st.composite
def lp_batches(draw):
    """Up to 8 right-hand sides of one LP: m <= 3 rows with mixed senses and
    entries in {-2, ..., 2}, n <= 4 variables, some free.  A row is A x + s
    for an integer x (nonnegative where it must be) and slack s >= 0 on <=
    rows, an integer vector (often infeasible or degenerate), or a positive
    multiple of an earlier row, so that stored bases and rays get used."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    A = np.array([[float(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(m)])
    senses = tuple(draw(st.sampled_from(["==", "<="])) for _ in range(m))
    nonneg = tuple(draw(st.booleans()) for _ in range(n))
    c = np.array([0.25 * draw(st.integers(-4, 8)) for _ in range(n)])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["feasible", "grid", "multiple"] if rows else ["feasible", "grid"]))
        if kind == "feasible":
            x = np.array([float(draw(st.integers(0 if nn else -2, 2))) for nn in nonneg])
            s = np.array([float(draw(st.integers(0, 2))) if sense == "<=" else 0.0
                          for sense in senses])
            rows.append(A @ x + s)
        elif kind == "grid":
            rows.append(np.array([float(draw(st.integers(-3, 3))) for _ in range(m)]))
        else:
            rows.append(draw(st.sampled_from([0.5, 1.0, 3.0])) * draw(st.sampled_from(rows)))
    return c, A, senses, nonneg, np.array(rows).reshape(len(rows), m)


class TestLpBatch:
    """solve_lp_batch against solve_lp row by row: the same status, values
    within 1e-12 relative to max(1, |value|), and every row a Farkas ray
    answered infeasible for HiGHS too."""

    def solve_logged(self, c, A, senses, nonneg, B):
        """solve_lp_batch, and the right-hand sides of the row LPs it solved."""
        solved = []
        solve = optim.solve_lp

        def spy(prob):
            solved.append(prob.b.tobytes())
            return solve(prob)

        with mock.patch.object(optim, "solve_lp", spy):
            return solutions(optim.solve_lp_batch(c, A, senses, nonneg, B)), solved

    @settings(max_examples=200, deadline=None)
    @given(case=lp_batches(), data=st.data())
    def test_rows_match_solve_lp_in_any_order(self, case, data):
        c, A, senses, nonneg, B = case
        want = [optim.solve_lp(optim.LinearProgram(c, A, b, senses, nonneg)) for b in B]
        order = np.array(data.draw(st.permutations(range(len(B)))), dtype=int)
        for perm in (np.arange(len(B)), order):
            got, solved = self.solve_logged(c, A, senses, nonneg, B[perm])
            assert len(got) == len(perm)
            for sol, i in zip(got, perm):
                assert sol.status == want[i].status, (sol, want[i])
                if sol.optimal:
                    gap = abs(sol.value - want[i].value) / max(1.0, abs(want[i].value))
                    assert gap <= 1e-12, (sol, want[i])
                    assert sol.value == pytest.approx(c @ sol.point, abs=1e-12)
                    resid = A @ sol.point - B[i]
                    assert np.all(np.where(np.array(senses) == "==", np.abs(resid), resid) <= 1e-9)
                    assert np.all(sol.point[list(nonneg)] >= -1e-9)
                elif sol.status == "infeasible" and B[i].tobytes() not in solved:
                    assert highs_status(c, A, B[i], senses, nonneg) == 2

    def test_certificates_answer_rows_without_an_lp(self):
        # min x0 + x1, x0 - x1 = b, x >= 0: one basis for b > 0, one for b < 0;
        # x0 + x1 <= -1 is empty, and one ray answers every such row
        A = np.array([[1.0, -1.0], [1.0, 1.0]])
        B = np.array([[2.0, 5.0], [3.0, 5.0], [-1.0, 5.0], [-4.0, 5.0], [0.5, 9.0],
                      [1.0, -1.0], [2.0, -3.0], [0.0, -2.0]])
        got, solved = self.solve_logged([1.0, 1.0], A, ("==", "<="), (True, True), B)
        assert [sol.value for sol in got[:5]] == [2.0, 3.0, 1.0, 4.0, 0.5]
        assert [sol.status for sol in got[5:]] == ["infeasible"] * 3
        assert solved == [B[0].tobytes(), B[2].tobytes(), B[5].tobytes()]

    @staticmethod
    def solve_with(certificate, c, A, senses, nonneg, B):
        """An _LpBatch over B whose row LPs carry `certificate` in place of
        the tableau's own, and the right-hand sides of the LPs it solved."""
        solved = []
        solve = optim.solve_lp

        def spy(prob):
            solved.append(prob.b.tobytes())
            return dataclasses.replace(solve(prob), certificate=np.array(certificate))

        batch = optim._LpBatch(c, A, senses, nonneg)
        with mock.patch.object(optim, "solve_lp", spy):
            return batch, solutions(batch.solve(B)), solved

    def test_a_ray_breaking_its_sign_conditions_is_not_stored(self):
        # lam = (1, -1) has lam.b < 0 at b = (-1, 5) but breaks A'lam >= 0;
        # stored, it would call the feasible b = (1, 5) infeasible
        args = ([1.0, 1.0, 0.0], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), ("==", "=="),
                (True, True, False), np.array([[-1.0, 5.0], [1.0, 5.0]]))
        batch, got, solved = self.solve_with([1.0, -1.0], *args)
        assert [sol.status for sol in got] == ["infeasible", "optimal"]
        assert batch.rays == [] and len(solved) == 2
        # the tableau's own ray is stored, and does not cover b = (1, 5)
        batch = optim._LpBatch(*args[:4])
        assert [sol.status for sol in solutions(batch.solve(args[4]))] == ["infeasible", "optimal"]
        assert len(batch.rays) == 1

    def test_a_basis_failing_its_reduced_costs_is_not_stored(self):
        # min x0 + 2 x1 over x0 + x1 = b, x >= 0: the basis {x1} is primal
        # feasible for every b >= 0 but has reduced cost -1 on x0; stored, it
        # would answer b = 3 with the value 6
        args = ([1.0, 2.0], [[1.0, 1.0]], ("==",), (True, True), np.array([[2.0], [3.0]]))
        batch, got, solved = self.solve_with([1], *args)
        assert [sol.value for sol in got] == [2.0, 3.0]
        assert batch.bases == [] and len(solved) == 2
        # the tableau's own basis {x0} is stored and answers b = 3
        batch, got, solved = self.solve_with([0], *args)
        assert [sol.value for sol in got] == [2.0, 3.0]
        assert len(batch.bases) == 1 and solved == [args[4][0].tobytes()]

    @settings(max_examples=200, deadline=None)
    @given(case=lp_batches())
    def test_every_tableau_ray_is_stored_only_when_it_certifies(self, case):
        # the checks, in the original rows: A_j'lam >= 0 for x_j >= 0 and
        # = 0 for a free x_j, lam_i >= 0 on a <= row, lam.b < 0 with margin
        c, A, senses, nonneg, B = case
        le = np.array(senses) == "<="
        for b in B:
            sol = optim.solve_lp(optim.LinearProgram(c, A, b, senses, nonneg))
            if sol.status != "infeasible":
                continue
            ray = sol.certificate
            lam = ray / np.max(np.abs(ray))
            At = A.T @ lam
            passes = (lam @ b < -optim.RAY_MARGIN
                      and np.all(np.where(nonneg, At, -np.abs(At)) >= -optim.RAY_TOL)
                      and np.all(lam[le] >= -optim.RAY_TOL))
            batch = optim._LpBatch(c, A, senses, nonneg)
            assert batch._store(sol, b) == passes
            if passes:
                assert np.array_equal(batch.rays[0], lam)
                assert highs_status(c, A, b, senses, nonneg) == 2

    @settings(max_examples=200, deadline=None)
    @given(case=lp_batches())
    def test_every_tableau_basis_is_primal_feasible_on_its_row(self, case):
        # the standard form built here: x_j, then -x_j after a free x_j, then
        # one slack per <= row; the basis solve gives the solution's point
        c, A, senses, nonneg, B = case
        cols = [(j, s) for j, nn in enumerate(nonneg) for s in ((1.0,) if nn else (1.0, -1.0))]
        le = [i for i, sense in enumerate(senses) if sense == "<="]
        M = np.hstack([np.array([s * A[:, j] for j, s in cols]).T, np.eye(len(senses))[:, le]])
        for b in B:
            sol = optim.solve_lp(optim.LinearProgram(c, A, b, senses, nonneg))
            basis = sol.certificate
            if not sol.optimal or basis is None:
                continue
            assert len(basis) == len(b) == len(set(basis.tolist()))
            w = np.linalg.solve(M[:, basis], b)
            assert np.all(w >= -1e-9)
            x = np.zeros(len(c))
            for k, wk in zip(basis, w):
                if k < len(cols):
                    x[cols[k][0]] += cols[k][1] * wk
            assert np.allclose(x, sol.point, atol=1e-9)

    def test_highs_sized_rows_store_nothing(self, monkeypatch):
        # 90 columns are above TABLEAU_LIMIT: every row goes to HiGHS
        rng = np.random.default_rng(90)
        c, A = rng.uniform(0.5, 1.5, 90), rng.uniform(-1.0, 1.0, (2, 90))
        B = np.array([[1.0, 0.5], [2.0, 1.0], [-1.0, 0.25]])
        calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **k: calls.append(a) or linprog(*a, **k))
        batch = optim._LpBatch(c, A, ("==", "<="), (True,) * 90)
        got = solutions(batch.solve(B))
        assert len(calls) == 3 and batch.rays == [] and batch.bases == []
        for sol, b in zip(got, B):
            assert same_solution(sol, optim.solve_lp(optim.LinearProgram(c, A, b, ("==", "<="))))

    def test_empty_batch_and_batch_of_one(self):
        c, A, senses = [1.0, 2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], ("==", "<=")
        assert solutions(optim.solve_lp_batch(c, A, senses, (True,) * 3, np.zeros((0, 2)))) == []
        for b in ([3.0, 0.5], [-1.0, 0.0]):
            got = one(optim.solve_lp_batch(c, A, senses, (True,) * 3, [b]))
            assert same_solution(got, optim.solve_lp(optim.LinearProgram(c, A, b, senses)))

    def test_bad_right_hand_sides(self):
        args = ([1.0], [[1.0]], ("==",), (True,))
        with pytest.raises(InvalidSpec, match="non-finite entries in b"):
            optim.solve_lp_batch(*args, [[1.0], [np.nan]])
        with pytest.raises(DimMismatch):
            optim.solve_lp_batch(*args, [1.0, 2.0])


class TestRows:
    """Every batch entry returns one Rows: int8 status codes, (k,) values
    and (k, n) points, NaN where a row is not optimal."""

    def batches(self, k):
        g = (exprs.vabs(exprs.var(0)),)
        lp = ([1.0, 2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], ("==", "<="), (True,) * 3)
        qp = (np.eye(2), np.ones((k, 2)), [[1.0, 1.0]], np.ones((k, 1)))
        return {
            "lp": (optim.solve_lp_batch(*lp, np.tile([3.0, 0.5], (k, 1))), 3),
            "milp": (optim.solve_milp_batch(*lp, np.tile([3.0, 0.5], (k, 1)), (0,), ((0, 2),)), 3),
            "qp": (optim.solve_miqp_batch(*qp), 2),
            "miqp": (optim.solve_miqp_batch(*qp, (1,), ((-2, 2),)), 2),
            "lattice": (optim.solve_convex_mip_batch(exprs.var(0), g, np.ones((k, 1)), (0,),
                                                     ((-2, 2),)), 1),
            "kelley": (optim.solve_convex_mip_batch(exprs.var(0), g, np.ones((k, 1)), (), (), (0,),
                                                    ((-2, 2),)), 1),
        }

    @pytest.mark.parametrize("k", [0, 1])
    def test_shapes(self, k):
        for name, (rows, n) in self.batches(k).items():
            assert isinstance(rows, optim.Rows), name
            assert rows.status.dtype == np.int8, name
            assert (rows.status.shape, rows.value.shape, rows.point.shape) == ((k,), (k,), (k, n))
            assert np.all(rows.status == optim.OPTIMAL), name

    def test_rows_that_are_not_optimal_carry_nan(self):
        # x0 + x1 + x2 = 3, x0 - x1 <= b1: feasible, empty for b = (-1, 0)
        rows = optim.solve_lp_batch([1.0, 2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                                    ("==", "<="), (True,) * 3, [[3.0, 0.5], [-1.0, 0.0]])
        assert rows.status.tolist() == [optim.OPTIMAL, optim.INFEASIBLE]
        assert np.isfinite(rows.value[0]) and np.all(np.isfinite(rows.point[0]))
        assert np.isnan(rows.value[1]) and np.all(np.isnan(rows.point[1]))


class TestMilp:
    def test_ceiling_example(self):
        sol = solve_milp(optim.LinearProgram([0, 1], [[-1, 1]], [1.2]), (1,), ((0, 10),))
        assert sol.value == pytest.approx(2.0, abs=1e-9)
        assert abs(sol.point[1] - round(sol.point[1])) <= 1e-9

    def test_negative_rhs(self):
        sol = solve_milp(optim.LinearProgram([0, 1], [[-1, 1]], [-3.0]), (1,), ((0, 10),))
        assert sol.value == pytest.approx(0.0, abs=1e-9)

    def test_no_integers_degenerates_to_lp(self):
        prob = optim.LinearProgram([1, 1], [[1, -1]], [1.5])
        lp_sol = optim.solve_lp(prob)
        mip_sol = solve_milp(prob, (), ())
        assert mip_sol.value == lp_sol.value
        assert np.array_equal(mip_sol.point, lp_sol.point)

    def test_infeasible_lattice(self):
        # x integer in [0,3], 2x == 7 has no solution
        sol = solve_milp(optim.LinearProgram([1], [[2]], [7]), (0,), ((0, 3),))
        assert sol.status == "infeasible"
        assert milp_closed_oracle([1], [[2]], [7], ("==",), [0], ((0, 3),), []) is None

    def test_sparse_a_matches_dense(self):
        # min y1 s.t. y1 - y0 = 1.2, y >= 0, y1 integer in [0, 10]
        dense = np.array([[-1.0, 1.0]])
        sols = [
            solve_milp(optim.LinearProgram([0, 1], A, [1.2]), (1,), ((0, 10),))
            for A in (scipy.sparse.csr_array(dense), dense)
        ]
        assert sols[0].value == sols[1].value == pytest.approx(2.0, abs=1e-9)
        assert np.array_equal(sols[0].point, sols[1].point)

    def test_bounds_validation(self):
        with pytest.raises(InvalidSpec):
            solve_milp(optim.LinearProgram([1], [[1]], [1]), (0,), ((0, np.inf),))

    def test_against_closed_oracle_random(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            n_int = int(rng.integers(1, 4))
            n_cont = int(rng.integers(0, 2))
            n = n_int + n_cont
            m = int(rng.integers(1, 3))
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            senses = tuple(rng.choice(["==", "<="], size=m, p=[0.3, 0.7]))
            y_star = np.concatenate(
                [rng.integers(-5, 6, size=n_int), rng.uniform(0, 3, size=n_cont)]
            )
            slack = np.where([s == "<=" for s in senses], rng.uniform(0, 2, size=m), 0.0)
            b = A @ y_star + slack
            c = np.concatenate(
                [rng.uniform(-2, 2, size=n_int), rng.uniform(0.1, 2, size=n_cont)]
            )
            int_idx = tuple(range(n_int))
            cont_idx = list(range(n_int, n))
            nonneg = (False,) * n_int + (True,) * n_cont
            bounds = ((-5, 5),) * n_int
            sol = solve_milp(optim.LinearProgram(c, A, b, senses, nonneg), int_idx, bounds)
            expect = milp_closed_oracle(c, A, b, senses, list(int_idx), bounds, cont_idx)
            if expect is None:
                assert sol.status == "infeasible"
            else:
                assert sol.optimal
                assert sol.value == pytest.approx(expect, abs=1e-9)

    def test_determinism_bitwise(self):
        prob = optim.LinearProgram([1, -1.3, 0.2], [[1, 1, 1]], [4.5], "<=", (False, False, True))
        a = solve_milp(prob, (0, 1), ((-5, 5), (-5, 5)))
        b = solve_milp(prob, (0, 1), ((-5, 5), (-5, 5)))
        assert a.value == b.value and np.array_equal(a.point, b.point)


@st.composite
def milp_batches(draw):
    """Up to 6 right-hand sides of one MILP on n <= 3 variables, 1-2 of them
    integer in small boxes, with m <= 3 rows of mixed senses, some variables
    free and costs of either sign, so roots may be unbounded and children
    empty; rows are small integer vectors or positive multiples of one."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    idx = tuple(sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, min(2, n)))]))
    A = np.array([[0.5 * draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)])
    senses = tuple(draw(st.sampled_from(["==", "<="])) for _ in range(m))
    nonneg = tuple(draw(st.booleans()) for _ in range(n))
    c = np.array([0.25 * draw(st.integers(-6, 6)) for _ in range(n)])
    bounds = tuple((float(draw(st.integers(-3, 0))), draw(st.integers(0, 3)) + 0.5 * draw(
        st.integers(0, 1))) for _ in idx)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from([0.5, 2.0])) * draw(st.sampled_from(rows)))
        else:
            rows.append(np.array([0.5 * draw(st.integers(-6, 6)) for _ in range(m)]))
    return c, A.reshape(m, n), senses, nonneg, np.array(rows).reshape(len(rows), m), idx, bounds


class TestMilpBatch:
    """solve_milp_batch against the per-node branch and bound of
    tests/oracles.py: the same status, values within 1e-12 relative."""

    @settings(max_examples=150, deadline=None)
    @given(case=milp_batches(), data=st.data())
    def test_rows_match_the_oracle_in_any_order(self, case, data):
        c, A, senses, nonneg, B, idx, bounds = case
        want = [milp_bb_oracle(c, A, b, senses, nonneg, idx, bounds) for b in B]
        order = np.array(data.draw(st.permutations(range(len(B)))), dtype=int)
        for perm in (np.arange(len(B)), order):
            got = solutions(optim.solve_milp_batch(c, A, senses, nonneg, B[perm], idx, bounds))
            assert len(got) == len(perm)
            for sol, i in zip(got, perm):
                assert sol.status == want[i].status, (sol, want[i])
                if sol.optimal:
                    gap = abs(sol.value - want[i].value) / max(1.0, abs(want[i].value))
                    assert gap <= 1e-12, (sol, want[i])

    def test_unbounded_and_infeasible_roots(self):
        # y0 integer in [0, 2] with 2 y0 == b1 has no point for b1 = 3; the
        # free y2 with cost -1 in no row makes every other row unbounded
        A = np.array([[-1.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        B = np.array([[0.0, 2.0], [1.0, 3.0], [5.0, 4.0]])
        got = solutions(optim.solve_milp_batch([0.5, -1.0, -1.0], A, ("<=", "=="),
                                               (True, False, False), B, (0,), ((0.0, 2.0),)))
        assert [sol.status for sol in got] == ["unbounded", "infeasible", "unbounded"]

    def test_milp_is_a_batch_of_one(self):
        args = ([1, -1.3, 0.2], [[1, 1, 1]], [4.5], ("<=",), (False, False, True), (0, 1),
                ((-5, 5), (-5, 5)))
        sol = solve_milp(optim.LinearProgram(*args[:5]), *args[5:])
        assert same_solution(sol, milp_bb_oracle(*args))

    def test_degenerate_roots_share_one_basis(self, monkeypatch):
        # the milp demo's recourse: min y1 over -y0 + y1 = z, y >= 0, y1
        # integer in [0, 1100].  At z < 0 the root is y = (-z, 0): y1 sits on
        # its box bound, so the vertex is degenerate (2 positive coordinates
        # for 3 rows), and the first root's basis answers every other one
        A, q, bounds = [[-1.0, 1.0]], [0.0, 1.0], ((0.0, 1100.0),)
        B = np.array([[-0.5], [-2.0], [-1.25], [-7.0], [-0.01]])
        calls = []
        solve = optim.solve_lp
        monkeypatch.setattr(optim, "solve_lp", lambda prob: calls.append(prob) or solve(prob))
        got = solutions(optim.solve_milp_batch(q, A, ("==",), (True, True), B, (1,), bounds))
        assert len(calls) == 1
        for sol, b in zip(got, B):
            want = milp_bb_oracle(q, A, b, ("==",), (True, True), (1,), bounds)
            assert sol.value == want.value == 0.0
            assert np.array_equal(sol.point, [-b[0], 0.0])

    def test_a_relaxation_just_outside_its_box_is_read_clipped(self, monkeypatch):
        # the same recourse at z = 1 + 1e-8: the floor child y1 <= 1 comes
        # back feasible within the LP's tolerance at y1 = z, just outside its
        # box; read unclipped, it was split into a child with its own box,
        # round after round, while the node store doubled
        A, q, bounds = [[-1.0, 1.0]], [0.0, 1.0], ((0.0, 1100.0),)
        rounds = []
        scan = optim._branch_positions

        def counted(P):
            rounds.append(len(P))
            assert len(rounds) < 50, "branch and bound does not end"
            return scan(P)

        monkeypatch.setattr(optim, "_branch_positions", counted)
        z = 1.0 + 1e-8
        (sol,) = solutions(optim.solve_milp_batch(q, A, ("==",), (True, True), [[z]], (1,), bounds))
        assert sol.value == pytest.approx(z, rel=1e-12)
        assert np.array_equal(sol.point, [0.0, 1.0])


class TestQp:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            solve_miqp([[1, 0.1], [0, 1]], [0, 0], [], [])
        with pytest.raises(InvalidSpec):
            solve_miqp([[0.0]], [0.0], [], [])

    def test_unconstrained_identity(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            R = rng.normal(size=(n, n))
            D = R @ R.T + np.eye(n)
            q = rng.normal(size=n)
            sol = solve_miqp(D, q, np.zeros((0, n)), np.zeros(0))
            expect = -0.25 * q @ np.linalg.solve(D, q)
            assert sol.value == pytest.approx(expect, abs=1e-8)

    def test_integer_example(self):
        sol = solve_miqp([[1.0]], [0.0], [[-1.0]], [-1.5], (0,), ((-10, 10),))
        assert sol.value == pytest.approx(4.0, abs=1e-9)

    def test_constraint_cap(self):
        n = 2
        A = np.vstack([np.eye(n)] * 11)  # 22 rows
        with pytest.raises(ConstraintLimitExceeded):
            solve_miqp(np.eye(n), np.zeros(n), A, np.ones(22))

    def test_infeasible(self):
        assert solve_miqp([[1.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0]).status == "infeasible"

    def test_against_closed_oracle_random(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            n_int = int(rng.integers(1, 4))
            n_cont = int(rng.integers(0, 2))
            n = n_int + n_cont
            m = int(rng.integers(0, 3))
            R = rng.normal(size=(n, n))
            D = R @ R.T + (0.5 + rng.uniform()) * np.eye(n)
            q = rng.normal(size=n) * 2
            y_star = np.concatenate(
                [rng.integers(-5, 6, size=n_int), rng.uniform(-2, 2, size=n_cont)]
            )
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            b = A @ y_star + rng.uniform(0, 2, size=m) if m else np.zeros(0)
            int_idx = tuple(range(n_int))
            cont_idx = list(range(n_int, n))
            sol = solve_miqp(D, q, A, b, int_idx, ((-5, 5),) * n_int)
            expect = miqp_closed_oracle(D, q, A, b, list(int_idx), ((-5, 5),) * n_int, cont_idx)
            assert expect is not None and sol.optimal
            assert sol.value == pytest.approx(expect, abs=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["D", "q", "A", "b"])
    def test_non_finite_data_is_out_of_range(self, name, bad):
        data = dict(D=np.eye(2), q=np.zeros(2), A=np.array([[1.0, 1.0]]), b=np.ones(1))
        data[name][(0,) * data[name].ndim] = bad
        D, q, A, b = data["D"], data["q"], data["A"], data["b"]
        match = f"non-finite entries in {name}"
        with pytest.raises(OutOfRange, match=match):
            solve_miqp(D, q, A, b, (0,), ((-2.0, 2.0),))
        with pytest.raises(OutOfRange, match=match):
            solve_miqp(D, q, A, b)
        with pytest.raises(OutOfRange, match=match):
            optim.solve_miqp_batch(D, np.vstack([np.ones(2), q]), A, np.vstack([b, b]))


def same_solution(got, want) -> bool:
    if got.status != want.status:
        return False
    if not want.optimal:
        return True
    return (np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            and got.point.tobytes() == want.point.tobytes())


real = st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def miqp_batches(draw):
    """Up to 6 inputs (q, b) of one MIQP: random positive definite D with
    n <= 3, up to 4 base rows with small integer entries (so a child box
    often cuts the polytope empty), 1-2 boxed integer coordinates."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    idx = tuple(sorted(draw(st.permutations(range(n)))[: draw(st.integers(1, min(2, n)))]))
    R = np.array([[draw(real) for _ in range(n)] for _ in range(n)])
    D = R @ R.T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    A = np.array([[float(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(m)])
    bounds = tuple((draw(st.integers(-3, 0)) - 0.5 * draw(st.integers(0, 1)),
                    float(draw(st.integers(0, 3)))) for _ in idx)
    k = draw(st.integers(1, 6))
    Q = np.array([[4.0 / 3.0 * draw(real) for _ in range(n)] for _ in range(k)])
    B = np.array([[draw(real) for _ in range(m)] for _ in range(k)]).reshape(k, m)
    return D, Q, A.reshape(m, n), B, idx, bounds


class TestMiqpBatch:
    """solve_miqp_batch against the per-input KKT enumeration and branch and
    bound in tests/oracles.py, bit for bit."""

    def check(self, D, Q, A, B, idx, bounds):
        try:
            want = [miqp_bb_oracle(D, q, A, b, idx, bounds) for q, b in zip(Q, B)]
        except MeanRiskError as err:
            with pytest.raises(type(err)) as got:
                optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
            assert str(got.value) == str(err)
            return None
        got = solutions(optim.solve_miqp_batch(D, Q, A, B, idx, bounds))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_solution(g, w), (g, w)
        return want

    @settings(max_examples=150, deadline=None)
    @given(case=miqp_batches(), data=st.data())
    def test_rows_match_the_oracle_in_any_order(self, case, data):
        D, Q, A, B, idx, bounds = case
        want = self.check(D, Q, A, B, idx, bounds)
        if want is None:
            return
        order = data.draw(st.permutations(range(len(Q))))
        for perm in (order, order[::-1]):
            got = solutions(optim.solve_miqp_batch(D, Q[perm], A, B[perm], idx, bounds))
            for g, i in zip(got, perm):
                assert same_solution(g, want[i])

    def test_infeasible_children_and_roots(self):
        # y0 + y1 <= b0, -y0 + y1 <= b1 with y integer in [-2, 2] x [-2, 2]:
        # fractional corners make children empty, b0 + b1 < -8 the root
        D = np.array([[1.0, 0.2], [0.2, 0.7]])
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        Q = np.array([[-3.1, -2.2], [0.4, -5.3], [1.0, 1.0], [-7.0, 0.3]])
        B = np.array([[0.5, -0.5], [-4.5, -4.5], [1.5, 0.25], [-2.75, 0.6]])
        want = self.check(D, Q, A, B, (0, 1), ((-2.0, 2.0), (-2.0, 2.0)))
        assert [w.status for w in want] == ["optimal", "infeasible", "optimal", "optimal"]

    def test_qp_and_miqp_are_batches_of_one(self):
        D = np.array([[2.0, 0.5], [0.5, 1.0]])
        q, A, b = np.array([0.3, -1.7]), np.array([[1.0, 2.0], [-1.0, 0.5]]), np.array([0.7, 0.2])
        want = miqp_bb_oracle(D, q, A, b, (), ())
        assert same_solution(solve_miqp(D, q, A, b), want)
        want = miqp_bb_oracle(D, q, A, b, (1,), ((-3.0, 3.0),))
        assert same_solution(solve_miqp(D, q, A, b, (1,), ((-3.0, 3.0),)), want)

    def test_integer_coordinate_rounding_to_zero_from_below_is_plus_zero(self):
        # min y^2 + 2e-12 y: the relaxed minimum y = -1e-12 is integral within
        # 1e-9 and rounds to 0, which np.round alone makes -0.0
        D, Q, A, B = np.eye(1), np.array([[2e-12]]), np.zeros((0, 1)), np.zeros((1, 0))
        want = self.check(D, Q, A, B, (0,), ((-2.0, 2.0),))
        rows = optim.solve_miqp_batch(D, Q, A, B, (0,), ((-2.0, 2.0),))
        assert rows.point.tobytes() == np.array([[0.0]]).tobytes() == want[0].point.tobytes()
        assert np.signbit(np.round(-1e-12))

    def test_certificate_point_violating_a_row_is_infeasible(self):
        # the ceil child y >= 0 against y <= -5.96e-8 has no KKT point within
        # FEAS_TOL, and the tableau's phase 1 (tolerance 1e-7) returns y = 0
        D, q, A = np.array([[10.7575]]), np.array([0.0]), np.array([[0.0], [1.0], [-1.0]])
        b = np.array([0.451, -5.96e-8, 0.0267])
        assert solve_miqp(D, q, A, b, (0,), ((-0.5, 2.0),)).status == "infeasible"
        assert miqp_bb_oracle(D, q, A, b, (0,), ((-0.5, 2.0),)).status == "infeasible"
        child = solve_miqp(D, q, np.vstack([A, [[-1.0]]]), np.append(b, 0.0))
        assert child.status == "infeasible"

    def test_certificate_lps_share_one_store(self, monkeypatch):
        # min y^2 + (2 b + 1) y over integers y >= -b: the relaxed minimum
        # sits on the bound y = -b, so at every fractional b the floor child
        # y <= floor(-b) is empty, and the phase-1 ray of the first such LP
        # certifies all of them
        B = np.linspace(0.05, 2.95, 30)[:, None]
        args = (np.eye(1), 2.0 * B + 1.0, -np.eye(1), B, (0,), ((-5.0, 5.0),))
        want = self.check(*args)
        assert all(w.optimal for w in want)
        calls = []
        solve = optim.solve_lp
        monkeypatch.setattr(optim, "solve_lp", lambda prob: calls.append(prob) or solve(prob))
        optim.solve_miqp_batch(*args)
        assert len(calls) == 1  # the first empty child's LP

    @settings(max_examples=60, deadline=None)
    @given(case=miqp_batches(), chunk=st.integers(1, 3))
    def test_chunked_sweeps_give_the_same_rows(self, case, chunk):
        D, Q, A, B, idx, bounds = case
        try:
            whole = optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
        except MeanRiskError:
            return
        with mock.patch.object(optim, "KKT_CHUNK", chunk):
            parts = optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
        for got, want in zip(parts, whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_large_round_is_swept_in_chunks(self, monkeypatch):
        # 300 inputs, each round swept 7 at a time: the same Rows, bit for bit
        rng = np.random.default_rng(2)
        D = np.array([[1.0, 0.2], [0.2, 0.7]])
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        Q, B = rng.normal(0.0, 3.0, (300, 2)), rng.normal(0.0, 2.0, (300, 2))
        args = (D, Q, A, B, (0, 1), ((-2.0, 2.0), (-2.0, 2.0)))
        whole = optim.solve_miqp_batch(*args)
        sizes = []
        sweep = optim._kkt_chunk
        monkeypatch.setattr(optim, "KKT_CHUNK", 7)
        monkeypatch.setattr(optim, "_kkt_chunk",
                            lambda D, A, Q, *rest: sizes.append(len(Q)) or sweep(D, A, Q, *rest))
        parts = optim.solve_miqp_batch(*args)
        assert max(sizes) == 7 and len(sizes) > 300 // 7
        for got, want in zip(parts, whole):
            assert got.tobytes() == want.tobytes()
        assert np.mean(whole.status == optim.OPTIMAL) > 0.5

    def test_row_cap_is_checked_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before the row cap was checked")

        monkeypatch.setattr(optim, "_stacked_solve", no_solve)
        # 1 base row + 2 box rows for each of 10 integer coordinates
        n = 10
        with pytest.raises(ConstraintLimitExceeded, match="^21 rows > 20$"):
            optim.solve_miqp_batch(np.eye(n), np.zeros((3, n)), np.ones((1, n)),
                                   np.ones((3, 1)), tuple(range(n)), ((0.0, 1.0),) * n)


@st.composite
def convex_batches(draw):
    """Up to 6 right-hand sides of one pure-integer convex MIP on n <= 3
    variables: v = (a.y + b)^2 + c|y_j - d|, constraints |y_i - e| and
    max(a'.y, -y_j); small right-hand sides leave some rows infeasible and
    ties between lattice points are common."""
    n = draw(st.integers(1, 3))
    coef = st.integers(-4, 4).map(lambda k: 0.5 * k)
    j = draw(st.integers(0, n - 1))
    unit = [1.0 if i == j else 0.0 for i in range(n)]
    v = exprs.vsum(
        exprs.even_power(exprs.affine([draw(coef) for _ in range(n)], draw(coef)), 2),
        exprs.scale(abs(draw(coef)), exprs.vabs(exprs.affine(unit, -draw(coef)))),
    )
    g = (
        exprs.vabs(exprs.affine([1.0] + [0.0] * (n - 1), -draw(coef))),
        exprs.vmax(exprs.affine([draw(coef) for _ in range(n)]),
                   exprs.affine([-u for u in unit])),
    )[: draw(st.integers(0, 2))]
    idx = tuple(draw(st.permutations(range(n))))
    bounds = tuple((draw(st.integers(-3, 0)) - 0.5 * draw(st.integers(0, 1)),
                    float(draw(st.integers(0, 2)))) for _ in idx)
    k = draw(st.integers(1, 6))
    R = np.array([[draw(coef) for _ in g] for _ in range(k)]).reshape(k, len(g))
    return v, g, R, idx, bounds


class TestConvexMipBatch:
    """solve_convex_mip_batch against the per-program lattice loop in
    tests/oracles.py, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=convex_batches(), data=st.data())
    def test_rows_match_the_loop_in_any_order(self, case, data):
        v, g, R, idx, bounds = case
        want = [convex_mip_loop_oracle(v, g, r, idx, bounds) for r in R]
        order = np.array(data.draw(st.permutations(range(len(R)))), dtype=int)
        for perm in (np.arange(len(R)), order, order[::-1]):
            got = solutions(optim.solve_convex_mip_batch(v, g, R[perm], idx, bounds))
            assert len(got) == len(perm)
            for sol, i in zip(got, perm):
                assert same_solution(sol, want[i]), (sol, want[i])

    def test_continuous_slices_match_the_loop(self):
        # the mixed program of TestConvexMip, at three right-hand sides
        v = exprs.vsum(
            exprs.even_power(exprs.affine([1.0, 0.0], -1.5), 2),
            exprs.even_power(exprs.affine([0.0, 1.0], 0.25), 2),
        )
        g = (exprs.vabs(exprs.var(0)),)
        R = np.array([[2.0], [-1.0], [0.5]])
        slices = ((1,), ((-3, 3),), (0,), ((-4, 4),))
        got = solutions(optim.solve_convex_mip_batch(v, g, R, *slices))
        for sol, r in zip(got, R):
            assert same_solution(sol, convex_mip_loop_oracle(v, g, r, *slices))
        assert [sol.status for sol in got] == ["optimal", "infeasible", "optimal"]

    def test_a_non_finite_row_fails_the_batch(self):
        g = (exprs.vabs(exprs.var(0)),)
        with pytest.raises(OutOfRange, match="non-finite"):
            optim.solve_convex_mip_batch(exprs.var(0), g, [[1.0], [np.inf]], (0,), ((-2, 2),))

    @pytest.mark.parametrize(
        "slices",
        [((3,), ((0, 2),), (), ()), ((0, 0), ((0, 2), (0, 2)), (), ()),
         ((0,), ((0, 2),), (0,), ((0, 2),)), ((), (), (1,), ((0, 2),))],
        ids=["integer-out-of-range", "duplicate-integer", "overlap", "continuous-out-of-range"],
    )
    def test_indices_must_be_exactly_range_n(self, slices):
        with pytest.raises(InvalidSpec):
            optim.solve_convex_mip_batch(exprs.var(0), (), [[]], *slices)


class TestConvexMip:
    def test_unconstrained_minimum_feasible(self):
        v = exprs.even_power(exprs.var(0), 2)
        g = exprs.vsum(exprs.vabs(exprs.var(0)), exprs.const(-1.0))
        sol = solve_convex_mip(v, (g,), [0.5], (), (), (0,), ((-5, 5),))
        assert sol.value == pytest.approx(0.0, abs=1e-5)

    def test_boundary_minimum(self):
        v = exprs.var(0)
        g = exprs.vsum(exprs.vabs(exprs.var(0)), exprs.const(-1.0))
        sol = solve_convex_mip(v, (g,), [0.0], (), (), (0,), ((-5, 5),))
        expect = convex_grid_oracle(v, (g,), [0.0], -5, 5)
        assert sol.value == pytest.approx(expect, abs=1e-5)
        assert sol.value == pytest.approx(-1.0, abs=1e-5)

    def test_integer_slice(self):
        v = exprs.even_power(exprs.var(0), 2)
        g = exprs.vsum(exprs.vabs(exprs.affine([1.0], -2.5)), exprs.const(-1.0))
        sol = solve_convex_mip(v, (g,), [0.0], (0,), ((0, 5),), (), ())
        assert sol.value == pytest.approx(4.0, abs=1e-9)
        assert sol.point[0] == pytest.approx(2.0)

    def test_infeasible_everywhere(self):
        g = exprs.vabs(exprs.var(0))
        assert solve_convex_mip(exprs.var(0), (g,), [-1.0], (0,), ((-3, 3),)).status == "infeasible"

    def test_mixed_integer_continuous(self):
        # v = (y0 - 1.5)^2 + (y1 + 0.25)^2 with y1 integer in [-3, 3],
        # constraint |y0| <= 2: optimum y0 = 1.5, y1 = 0
        v = exprs.vsum(
            exprs.even_power(exprs.affine([1.0, 0.0], -1.5), 2),
            exprs.even_power(exprs.affine([0.0, 1.0], 0.25), 2),
        )
        g = exprs.vabs(exprs.var(0))
        sol = solve_convex_mip(v, (g,), [2.0], (1,), ((-3, 3),), (0,), ((-4, 4),))
        assert sol.value == pytest.approx(0.0625, abs=1e-5)
        assert sol.point[1] == pytest.approx(0.0)


    @pytest.mark.parametrize(
        "slices",
        [((), (), (0,), ((-5, 5),)), ((0,), ((-5, 5),), (), ())],
        ids=["continuous", "integer"],
    )
    def test_nan_rhs_rejected(self, slices):
        g = exprs.vabs(exprs.var(0))
        with pytest.raises(OutOfRange, match="non-finite"):
            solve_convex_mip(exprs.var(0), (g,), [np.nan], *slices)

    def test_against_polyhedral_oracle(self):
        # v = max of 3 affines, |affine_i| <= r_i on 2-3 continuous
        # coordinates in [-2, 2]: the cut LP is exact after finitely many
        # rounds, so status and value must match one LP
        rng = np.random.default_rng(7)
        statuses = set()
        for it in range(60):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(1, k + 2))
            V, v0 = rng.normal(size=(3, k)), rng.normal(size=3)
            G, g0 = rng.normal(size=(m, k)), rng.normal(size=m)
            r = 10.0 ** rng.uniform(-7, 0, size=m)
            lo, hi = np.full(k, -2.0), np.full(k, 2.0)
            v = exprs.vmax(*(exprs.affine(a, b) for a, b in zip(V, v0)))
            gs = tuple(exprs.vabs(exprs.affine(a, b)) for a, b in zip(G, g0))
            sol = solve_convex_mip(v, gs, r, (), (), tuple(range(k)), tuple(zip(lo, hi)))
            expect = polyhedral_slice_oracle(V, v0, G, g0, r, lo, hi)
            statuses.add(sol.status)
            if expect is None:
                assert sol.status == "infeasible", it
            else:
                assert sol.optimal and sol.value == pytest.approx(expect, abs=1e-9), it
        assert statuses == {"optimal", "infeasible"}

    def test_planted_slivers_are_found(self):
        # a slab |a.(y - c) - s0| <= 1e-8 cutting a disc |y - c| <= R
        # just inside its edge leaves a feasible sliver; minimize y0 + y1.
        # The value lies between the sliver's minimum with both constraints
        # relaxed by FEAS_TOL (what the acceptance rule allows) and its
        # exact minimum (the cut LP bound) plus the stopping gap
        rng = np.random.default_rng(5)
        w, eps, tol = np.ones(2), 1e-8, optim.FEAS_TOL
        for it in range(40):
            c = rng.uniform(-1, 1, size=2)
            R = rng.uniform(1.0, 3.5)
            th = rng.uniform(0, 2 * np.pi)
            a = np.array([np.cos(th), np.sin(th)])
            s0 = R * (1 - 10.0 ** rng.uniform(-12, -8))
            disc = exprs.norm(exprs.affine([1.0, 0.0], -c[0]), exprs.affine([0.0, 1.0], -c[1]))
            slab = exprs.vabs(exprs.affine(a, -(a @ c + s0)))
            sol = solve_convex_mip(exprs.affine(w), (disc, slab), [R, eps], (), (), (0, 1),
                                   ((-5, 5), (-5, 5)))
            assert sol.optimal, it
            lower = sliver_oracle(w, c, R + tol, a, s0, eps + tol)
            upper = sliver_oracle(w, c, R, a, s0, eps)
            assert lower - 1e-12 <= sol.value <= upper + 1e-10 * (1 + abs(upper)), it


class TestExprGrammar:
    def test_curvature_rules(self):
        a = exprs.affine([1.0, -2.0], 0.5)
        assert a.curvature == exprs.AFFINE
        assert exprs.vabs(a).curvature == exprs.CONVEX
        with pytest.raises(Exception):
            exprs.vabs(exprs.vabs(a))  # abs of convex rejected
        with pytest.raises(Exception):
            exprs.even_power(a, 3)  # odd power rejected
        with pytest.raises(Exception):
            exprs.scale(-1.0, a)  # negative scale rejected

    def test_subgradients_are_valid(self):
        rng = np.random.default_rng(89)
        e = exprs.vmax(
            exprs.vabs(exprs.affine([1.0, -1.0], 0.3)),
            exprs.even_power(exprs.affine([0.5, 0.5], 0.0), 2),
            exprs.norm(exprs.affine([1.0, 0.0], 0.0), exprs.affine([0.0, 2.0], -1.0)),
        )
        for _ in range(100):
            y = rng.normal(size=2) * 2
            d = rng.normal(size=2)
            v, g = e.eval_with_subgradient(y)
            # convexity: e(y + d) >= e(y) + g . d
            assert e.value(y + d) >= v + g @ d - 1e-9

    def test_prefix_round_trip(self):
        e = exprs.vsum(
            exprs.scale(2.0, exprs.vabs(exprs.affine([1.0], -0.5))),
            exprs.even_power(exprs.var(0), 4),
            exprs.const(1.25),
        )
        again = exprs.from_prefix(e.to_prefix())
        rng = np.random.default_rng(97)
        for _ in range(20):
            y = rng.normal(size=1)
            assert e.value(y) == again.value(y)
