import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from meanrisk import exprs, optim, qp
from meanrisk.errors import (
    ConstraintLimitExceeded,
    DimMismatch,
    InvalidSpec,
    MeanRiskError,
    NumericalFailure,
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
    miqp_value_tol,
    polyhedral_slice_oracle,
    qp_kkt_certificate,
    qp_kkt_oracle,
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

    @pytest.mark.parametrize("c, nonneg, status", [
        ([1.0, 2.0], (True, True), "optimal"),
        ([1.0, 2.0], (False, True), "unbounded"),
        ([1.0, -2.0], (True, True), "unbounded"),
        ([1.0, -2.0], (False, True), "unbounded"),
        ([0.0, 0.0], (True, True), "optimal"),
        ([0.0, 0.0], (False, True), "optimal"),
    ])
    def test_zero_rows(self, c, nonneg, status):
        # bounded iff no cost leads off along a free or nonnegative axis,
        # and then optimal at 0; the batch stores the empty basis
        A = np.zeros((0, 2))
        single = optim.solve_lp(optim.LinearProgram(c, A, np.zeros(0), (), nonneg))
        batch = solutions(optim.solve_lp_batch(c, A, (), nonneg, np.zeros((3, 0))))
        for sol in [single] + batch:
            assert sol.status == status
            if sol.optimal:
                assert sol.value == 0.0 and np.array_equal(sol.point, np.zeros(2))

    def test_tableau_and_scipy_paths_agree(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            A = rng.normal(size=(m, n))
            b = A @ rng.uniform(0, 2, size=n)
            c = rng.uniform(0.1, 1, size=n)
            prob = optim.LinearProgram(c, A, b)
            t_sol = optim._tableau_solve(optim._Standard(prob), prob.b)
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
        solve = optim._tableau_solve

        def spy(std, b):
            solved.append(b.tobytes())
            return solve(std, b)

        with mock.patch.object(optim, "_tableau_solve", spy):
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

    def test_one_standard_form_and_one_factor_per_stored_basis(self, monkeypatch):
        # the rows of test_certificates_answer_rows_without_an_lp, in two
        # calls on one batch: the batch builds its _Standard once, factors
        # each of its two bases once when it stores it, and answers every
        # basis check with a product, not a solve
        built, factored = [], []
        standard, inv = optim._Standard, np.linalg.inv
        monkeypatch.setattr(optim, "_Standard", lambda prob: built.append(prob) or standard(prob))
        monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(a) or inv(a))

        def no_solve(*args):
            raise AssertionError("a basis check solved a system")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        A = np.array([[1.0, -1.0], [1.0, 1.0]])
        B = np.array([[2.0, 5.0], [3.0, 5.0], [-1.0, 5.0], [-4.0, 5.0], [0.5, 9.0],
                      [1.0, -1.0], [2.0, -3.0], [0.0, -2.0]])
        batch = optim._LpBatch([1.0, 1.0], A, ("==", "<="), (True, True))
        first = batch.solve(B)
        assert len(built) == 1 and len(factored) == len(batch.bases) == 2
        again = batch.solve(B[::-1])
        assert len(built) == 1 and len(factored) == 2
        assert same_rows(optim.Rows(*(a[::-1] for a in again)), first)
        assert first.value[:5].tolist() == [2.0, 3.0, 1.0, 4.0, 0.5]

    def test_a_one_dimensional_A_is_one_row(self):
        # as LinearProgram reads it, in both batch entries
        B = np.array([[1.0], [-1.0], [3.0]])
        for solve in (optim.solve_lp_batch, optim.solve_milp_batch):
            flat = solve([1.0, -1.0], [1.0, 1.0], "<=", (True, True), B)
            assert same_rows(flat, solve([1.0, -1.0], [[1.0, 1.0]], "<=", (True, True), B))
            assert list(flat.status) == [optim.OPTIMAL, optim.INFEASIBLE, optim.OPTIMAL]

    @staticmethod
    def solve_with(certificate, c, A, senses, nonneg, B):
        """An _LpBatch over B whose row LPs carry `certificate` in place of
        the tableau's own, and the right-hand sides of the LPs it solved."""
        solved = []
        solve = optim._tableau_solve

        def spy(std, b):
            solved.append(b.tobytes())
            return dataclasses.replace(solve(std, b), certificate=np.array(certificate))

        batch = optim._LpBatch(c, A, senses, nonneg)
        with mock.patch.object(optim, "_tableau_solve", spy):
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

    def test_a_basis_whose_factor_fails_its_own_row_is_not_stored(self):
        # min x0 + x1 over 0.1 x0 + 0.3 x1 = b0, 0.3 x0 + 0.9 x1 = b1, x >= 0:
        # the columns are singular but for round-off, and their inverse maps
        # b = (1, 3) and (2, 6) to w = 0, which passes the reduced costs;
        # stored, the basis would answer b = (2, 6) with x = 0 at value 0
        args = ([1.0, 1.0], [[0.1, 0.3], [0.3, 0.9]], ("==", "=="), (True, True),
                np.array([[1.0, 3.0], [2.0, 6.0]]))
        batch, got, solved = self.solve_with([0, 1], *args)
        assert batch.bases == [] and len(solved) == 2
        assert [sol.value for sol in got] == pytest.approx([10.0 / 3.0, 20.0 / 3.0], rel=1e-12)

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
        solve = optim._tableau_solve
        monkeypatch.setattr(optim, "_tableau_solve",
                            lambda std, b: calls.append(b) or solve(std, b))
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
        # at the default budget one input of 255 variables and a row needs more
        # than SWEEP_BYTES, and is refused before its working arrays exist and
        # before D is factored or even copied; 22 rows on 2 variables are solved
        n = 255
        assert optim._qp_bytes(1, n - 1) <= optim.SWEEP_BYTES < optim._qp_bytes(1, n)
        D, q, A, b = np.eye(n), np.zeros(n), np.ones((1, n)), np.ones(1)
        tracemalloc.start()
        try:
            with pytest.raises(ConstraintLimitExceeded,
                               match=f"^{n} variables and 1 rows: {optim._qp_bytes(1, n)} B per "
                                     f"QP input > SWEEP_BYTES = {optim.SWEEP_BYTES}$"):
                solve_miqp(D, q, A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < D.nbytes
        A, b = np.vstack([np.eye(2)] * 11), np.ones(22)
        sol = solve_miqp(np.eye(2), [-4.0, 2.0], A, b)  # the minimum (1, -1) of |y - (2, -1)|^2 - 5
        assert sol.optimal and qp_kkt_certificate(np.eye(2), [-4.0, 2.0], A, b, sol.point)
        assert sol.value == pytest.approx(-4.0, abs=1e-12)

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


def close_solution(got, want, A, b, idx=()) -> bool:
    """The status of the oracle's solution want and, when optimal, its
    integer coordinates bit for bit and its value within miqp_value_tol of
    the rows A y <= b."""
    if got.status != want.status:
        return False
    if not want.optimal:
        return True
    cols = list(idx)
    return (got.point[cols].tobytes() == want.point[cols].tobytes()
            and abs(got.value - want.value) <= miqp_value_tol(want.value, A, b, got.point,
                                                              want.point))


def same_rows(got, want) -> bool:
    """Two Rows bit for bit."""
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


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


def sweep_budget(inputs, A, idx) -> int:
    """The SWEEP_BYTES that sweeps inputs inputs of a QP over the rows A and
    the boxes of idx at a time."""
    return inputs * optim._qp_bytes(len(A) + 2 * len(idx), A.shape[1])


class TestMiqpBatch:
    """solve_miqp_batch against the per-input KKT enumeration and branch and
    bound in tests/oracles.py (statuses, errors and integer coordinates
    exactly, values within miqp_value_tol), and against itself bit for bit
    in any order or split."""

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
        for g, w, b in zip(got, want, B):
            assert close_solution(g, w, A, b, idx), (g, w)
        return want

    @settings(max_examples=150, deadline=None)
    @given(case=miqp_batches(), data=st.data())
    def test_rows_match_the_oracle_in_any_order(self, case, data):
        D, Q, A, B, idx, bounds = case
        if self.check(D, Q, A, B, idx, bounds) is None:
            return
        whole = optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
        order = data.draw(st.permutations(range(len(Q))))
        for perm in (order, order[::-1]):
            got = optim.solve_miqp_batch(D, Q[perm], A, B[perm], idx, bounds)
            assert same_rows(got, [part[perm] for part in whole])

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
        Q, B = np.array([[1.0, 1.0], q, [-2.0, 0.5]]), np.array([[0.1, 0.1], b, [1.0, -0.3]])
        for idx, bounds in (((), ()), ((1,), ((-3.0, 3.0),))):
            got = solve_miqp(D, q, A, b, idx, bounds)
            assert close_solution(got, miqp_bb_oracle(D, q, A, b, idx, bounds), A, b, idx)
            # the row in a batch of three is the batch of one, bit for bit
            assert same_solution(solutions(optim.solve_miqp_batch(D, Q, A, B, idx, bounds))[1], got)

    def test_integer_coordinate_rounding_to_zero_from_below_is_plus_zero(self):
        # min y^2 + 2e-12 y: the relaxed minimum y = -1e-12 is integral within
        # 1e-9 and rounds to 0, which np.round alone makes -0.0
        D, Q, A, B = np.eye(1), np.array([[2e-12]]), np.zeros((0, 1)), np.zeros((1, 0))
        want = self.check(D, Q, A, B, (0,), ((-2.0, 2.0),))
        rows = optim.solve_miqp_batch(D, Q, A, B, (0,), ((-2.0, 2.0),))
        assert rows.point.tobytes() == np.array([[0.0]]).tobytes() == want[0].point.tobytes()
        assert np.signbit(np.round(-1e-12))

    # the ceil child y >= 0 against y <= -5.96e-8 has no KKT point within
    # FEAS_TOL, and the dual method's Farkas ray certifies it empty
    VIOLATED = (np.array([[10.7575]]), np.array([0.0]), np.array([[0.0], [1.0], [-1.0]]),
                np.array([0.451, -5.96e-8, 0.0267]))

    def test_certificate_point_violating_a_row_is_infeasible(self):
        D, q, A, b = self.VIOLATED
        assert solve_miqp(D, q, A, b, (0,), ((-0.5, 2.0),)).status == "infeasible"
        assert miqp_bb_oracle(D, q, A, b, (0,), ((-0.5, 2.0),)).status == "infeasible"
        child = solve_miqp(D, q, np.vstack([A, [[-1.0]]]), np.append(b, 0.0))
        assert child.status == "infeasible"

    def test_miqp_batch_makes_no_lp_call(self, monkeypatch):
        # min y^2 + (2 b + 1) y over integers y >= -b: the relaxed minimum
        # sits on the bound y = -b, so at every fractional b the floor child
        # y <= floor(-b) is empty, and a Farkas ray certifies each one
        B = np.linspace(0.05, 2.95, 30)[:, None]
        args = (np.eye(1), 2.0 * B + 1.0, -np.eye(1), B, (0,), ((-5.0, 5.0),))
        want = self.check(*args)
        assert all(w.optimal for w in want)
        whole = optim.solve_miqp_batch(*args)

        def no_lp(*args):
            raise AssertionError("a MIQP batch reached the LP code")

        for name in ("solve_lp", "_tableau_solve", "_LpBatch"):
            monkeypatch.setattr(optim, name, no_lp)
        assert same_rows(optim.solve_miqp_batch(*args), whole)
        D, q, A, b = self.VIOLATED
        assert solve_miqp(D, q, A, b, (0,), ((-0.5, 2.0),)).status == "infeasible"

    @settings(max_examples=60, deadline=None)
    @given(case=miqp_batches(), chunk=st.integers(1, 3))
    def test_chunked_sweeps_give_the_same_rows(self, case, chunk):
        D, Q, A, B, idx, bounds = case
        try:
            whole = optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
        except MeanRiskError:
            return
        with mock.patch.object(optim, "SWEEP_BYTES", sweep_budget(chunk, A, idx)):
            parts = optim.solve_miqp_batch(D, Q, A, B, idx, bounds)
        assert same_rows(parts, whole)

    def test_large_round_is_swept_in_chunks(self, monkeypatch):
        # 300 inputs, each round swept 7 at a time: the same Rows, bit for bit
        rng = np.random.default_rng(2)
        D = np.array([[1.0, 0.2], [0.2, 0.7]])
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        Q, B = rng.normal(0.0, 3.0, (300, 2)), rng.normal(0.0, 2.0, (300, 2))
        args = (D, Q, A, B, (0, 1), ((-2.0, 2.0), (-2.0, 2.0)))
        whole = optim.solve_miqp_batch(*args)
        sizes = []
        sweep = optim._qp_chunk
        monkeypatch.setattr(optim, "SWEEP_BYTES", sweep_budget(7, A, (0, 1)))
        monkeypatch.setattr(optim, "_qp_chunk",
                            lambda D, J0, A, Q, *rest: sizes.append(len(Q))
                            or sweep(D, J0, A, Q, *rest))
        parts = optim.solve_miqp_batch(*args)
        assert max(sizes) == 7 and len(sizes) > 300 // 7
        assert same_rows(parts, whole)
        assert np.mean(whole.status == optim.OPTIMAL) > 0.5

    def test_one_unconstrained_solve_per_call(self, monkeypatch):
        # 300 inputs whose trees take several rounds, swept in one chunk or 7
        # inputs at a time: 2D y = -q is solved once for every node of a tree
        rng = np.random.default_rng(2)
        D = np.array([[1.0, 0.2], [0.2, 0.7]])
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        Q, B = rng.normal(0.0, 3.0, (300, 2)), rng.normal(0.0, 2.0, (300, 2))
        solves, sweeps = [], []
        solve, sweep = optim._stacked_solve, optim._qp_sweep
        monkeypatch.setattr(optim, "_stacked_solve", lambda K, R: solves.append(len(R))
                            or solve(K, R))
        monkeypatch.setattr(optim, "_qp_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        for idx, budget in (((), optim.SWEEP_BYTES), ((0, 1), optim.SWEEP_BYTES),
                            ((0, 1), sweep_budget(7, A, (0, 1)))):
            monkeypatch.setattr(optim, "SWEEP_BYTES", budget)
            solves.clear(), sweeps.clear()
            optim.solve_miqp_batch(D, Q, A, B, idx, ((-2.0, 2.0),) * len(idx))
            assert solves == [300] and len(sweeps) > (2 if idx else 0)

    def test_budget_is_checked_before_any_solve(self, monkeypatch):
        # 1 base row + 2 box rows for each of 10 integer coordinates, with the
        # budget one byte short of one input: refused before any solve, having
        # held less than one input's working bytes; at one input per chunk it
        # solves
        n, need = 10, optim._qp_bytes(21, 10)
        args = (np.eye(n), np.zeros((3, n)), np.ones((1, n)), np.ones((3, 1)), tuple(range(n)),
                ((0.0, 1.0),) * n)
        solve = optim._stacked_solve

        def no_solve(*args):
            raise AssertionError("solved before the budget was checked")

        monkeypatch.setattr(optim, "_stacked_solve", no_solve)
        monkeypatch.setattr(optim, "SWEEP_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConstraintLimitExceeded,
                               match=f"^10 variables and 21 rows: {need} B per QP input > "
                                     f"SWEEP_BYTES = {need - 1}$"):
                optim.solve_miqp_batch(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need
        monkeypatch.setattr(optim, "_stacked_solve", solve)
        monkeypatch.setattr(optim, "SWEEP_BYTES", need)
        rows = optim.solve_miqp_batch(*args)
        assert rows.value.tolist() == [0.0] * 3 and not rows.point.any()

    def test_24_rows_match_brute_force(self):
        # 4 integers in [-3, 3] under 16 rows, 24 with the boxes: the minimum
        # over the 2,401 lattice points
        rng = np.random.default_rng(7)
        M = rng.normal(size=(4, 4))
        D, A = M @ M.T + np.eye(4), rng.normal(size=(16, 4))
        Q, B = 10.0 * rng.normal(size=(20, 4)), rng.uniform(0.5, 3.0, size=(20, 16))
        pts = np.array(list(itertools.product(range(-3, 4), repeat=4)), dtype=float)
        rows = optim.solve_miqp_batch(D, Q, A, B, (0, 1, 2, 3), ((-3.0, 3.0),) * 4)
        assert np.all(rows.status == optim.OPTIMAL)
        for q, b, value, point in zip(Q, B, rows.value, rows.point):
            vals = np.array([y @ D @ y + q @ y for y in pts])
            vals[np.any(pts @ A.T > b + optim.FEAS_TOL, axis=1)] = np.inf
            best = np.argmin(vals)
            assert point.tolist() == pts[best].tolist()
            assert abs(value - vals[best]) <= 1e-12 * (1.0 + abs(vals[best]))


class TestDualActiveSet:
    """The QP sweep's dual active-set method on degenerate rows, drops and a
    larger program, against qp_kkt_oracle: statuses exactly, values within
    miqp_value_tol."""

    # min |y - c|^2 (D = I, q = -2c) for targets c on every side of the rows
    TARGETS = np.array([[3.0, 1.0], [-2.0, 4.0], [0.5, 0.5], [2.0, -3.0], [-1.0, -1.0],
                        [4.0, 4.0]])
    # rows a drop leaves upper Hessenberg at target (-4, -3): two rows become
    # active, and the first of them is dropped
    DROPS = (np.array([[2.0, -2.0], [0.0, -2.0], [-1.0, 0.0]]), np.array([0.0, 0.0, -2.0]))

    def check(self, D, Q, A, B) -> optim.Rows:
        rows = optim.solve_miqp_batch(D, Q, A, B)
        for got, q, b in zip(solutions(rows), Q, B):
            assert close_solution(got, qp_kkt_oracle(D, q, A, b), A, b), (got, q, b)
        return rows

    @pytest.mark.parametrize("A, b", [
        ([[1, 1], [1, 1], [-1, 2]], [1, 1, 2]),
        ([[1, 1], [2, 2], [3, 3], [-1, 2]], [1, 2, 6, 2]),
        ([[2, 2], [1, 1], [-1, 2]], [3, 1, 2]),
        ([[1, -1], [-1, 1], [1, 1]], [0.5, -0.5, 2]),
        ([[0, 0], [1, 1], [0, 0]], [0, 1, 3]),
    ], ids=["duplicate row", "parallel rows", "a looser parallel row added first",
            "equality as two rows", "zero rows, b >= 0"])
    def test_degenerate_rows(self, A, b):
        A, B = np.array(A, dtype=float), np.tile(np.array(b, dtype=float), (len(self.TARGETS), 1))
        rows = self.check(np.eye(2), -2.0 * self.TARGETS, A, B)
        assert np.all(rows.status == optim.OPTIMAL)

    def test_zero_row_with_negative_b_is_infeasible(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        B = np.tile([1.0, -1e-3], (len(self.TARGETS), 1))
        rows = self.check(np.eye(2), -2.0 * self.TARGETS, A, B)
        assert np.all(rows.status == optim.INFEASIBLE)

    @staticmethod
    def interval(A, b):
        """The exact set {y : a_i y <= b_i} of one variable, as (lo, hi)."""
        ends = [Fraction(bi) / Fraction(ai) for ai, bi in zip(A[:, 0], b)]
        return (max(e for e, a in zip(ends, A[:, 0]) if a < 0.0),
                min(e for e, a in zip(ends, A[:, 0]) if a > 0.0))

    def test_thin_set_is_not_called_infeasible(self):
        # -y <= -1.5e-9 and y <= 0 have no common point, but y = 7.5e-10 is
        # within FEAS_TOL of both, and the ray (1, 1) has lam.(b + FEAS_TOL) =
        # 5e-10 > 0: no certificate, and no KKT point within FEAS_TOL found
        A, b = np.array([[-1.0], [1.0]]), np.array([-1.5e-9, 0.0])
        assert np.all(A @ [7.5e-10] <= b + optim.FEAS_TOL)
        for q in (10.0, -10.0, 0.0):
            with pytest.raises(NumericalFailure, match="^convex QP without a detected KKT point$"):
                solve_miqp(np.eye(1), [q], A, b)

    def test_q_far_above_b_is_decided_on_the_rows_alone(self):
        # the first full step from y = 4.4e192 cancels to y = -5e176, and the
        # method stops at two compatible rows; from y = 0 with q = 0 a ray
        # certifies the set empty
        A = np.array([[-3.0736516877177977], [0.6002562280980226], [0.7177623625051149],
                      [-0.23577500945198013], [0.455151022272704], [0.8591486187933196]])
        b = np.array([4.777162564488858e+88, 5.060980272756817e+88, 4.213909517358653e+88,
                      1.4567234953232701e+88, -5.523380382788728e+88, 1.9204756343991116e+88])
        lo, hi = self.interval(A, b)
        assert lo > hi
        got = solve_miqp(np.array([[0.100779517688657]]), [-8.854641959527347e+191], A, b)
        assert got.status == "infeasible"

    def test_a_set_far_out_that_is_not_empty_raises(self):
        # y in [2.45e84, 6.0e84], with q = -5.4e299: the KKT checks cannot pass
        # at this scale, but no ray certifies the set empty either
        A = np.array([[0.44808764250117405], [0.36388146067947263], [-0.7288592220573591],
                      [0.24736173414275014], [-1.4577184441147182], [-0.519560515195863],
                      [-1.3461411477556446]])
        b = np.array([2.687406081424099e+84, 2.826683110817944e+84, -1.3090325803504204e+84,
                      1.6108727400583432e+84, -4.963404448701342e+82, 2.73733344844938e+84,
                      -3.301366652202697e+84])
        lo, hi = self.interval(A, b)
        assert lo < hi
        with pytest.raises(NumericalFailure, match="^convex QP without a detected KKT point$"):
            solve_miqp(np.array([[0.16326830645593854]]), [-5.3522683927659976e+299], A, b)

    def test_round_off_in_a_ray_does_not_meet_a_far_b(self):
        # a node stops at the ray of the two box rows of y3 (lam.b = hi - lo >
        # 0), whose entries of about 1e-16 on other rows meet b near 1e225
        # there: with them lam.b is -6.9e208, and the set, which holds the
        # point y below, was called empty
        D = np.array([[8.613837693078949, -0.4675869505351321, 3.524147025578371,
                       2.963569179833055],
                      [-0.4675869505351321, 2.4382528524513813, 3.188405380295291,
                       -3.069429201727621],
                      [3.524147025578371, 3.188405380295291, 7.064709290679219,
                       -3.3421919832949],
                      [2.963569179833055, -3.069429201727621, -3.3421919832949,
                       5.146457055808445]])
        q = [-2.8941239081464322e+23, 4.0522837351155165e+23, -8.757716304113759e+23,
             1.2975178995690164e+23]
        A = np.array([
            [-0.8978477203484704, -0.10912310243417223, 1.3827456276451446, 1.335055144734255],
            [-2.8965922236964627, -1.4570437917134211, -0.06853951028076645,
             -0.26736729523926084],
            [-0.827717753555873, -0.07852271938203438, -0.49841317768702365,
             -1.8906632302888178],
            [-0.791308539472446, -0.17191336880117625, 0.02085515304437429, 0.7945973995062375],
            [0.7283117022424305, -0.3246980645518643, -3.33003542318923, -1.1200681605296263],
            [0.9000394473473907, -0.9326006720945199, -0.26311948091085596,
             -0.3808046908143844],
            [-0.7293122974652738, 0.7909803504986254, -0.6996494701869534, 0.12776869853831335]])
        b = np.array([1.865110577294171e+225, 3.5721854713590913e+225, 1.0739938896780014e+224,
                      1.2238064107639323e+225, -4.905908914360142e+224, 1.0476462488605554e+224,
                      3.3800396843131914e+225])
        y = [-2.0, 3.763805337449314e+225, -2.0, -3.0]
        assert all(sum(Fraction(a) * Fraction(v) for a, v in zip(row, y)) <= Fraction(bi)
                   for row, bi in zip(A, b))
        with pytest.raises(NumericalFailure, match="^convex QP without a detected KKT point$"):
            solve_miqp(D, q, A, b, (0, 2, 3), ((-2.0, 3.0), (-2.0, 2.0), (-3.0, 1.0)))

    @pytest.mark.parametrize("off", [1e-12, 1e-13])
    def test_nearly_parallel_rows_meeting_far_out_raise(self, off):
        # y0 <= -1 and -y0 + off y1 <= 0 meet at y1 <= -1/off; the second row
        # counts as dependent on the first (DEPENDENT), and the ray (1, 1)
        # leaves off in lam'A, far above FARKAS_TOL, so the set is not empty
        A = np.array([[1.0, 0.0], [-1.0, off]])
        with pytest.raises(NumericalFailure, match="^convex QP without a detected KKT point$"):
            solve_miqp(np.eye(2), [0.0, 0.0], A, [-1.0, 0.0])

    def test_vertex_with_a_zero_multiplier(self):
        # targets (c, 0) with c > 1/2 have the minimum (1/2, 0), where both
        # rows are active and y0 + y1 <= 1/2 has multiplier 0; that row is
        # added first, the other at its multiplier's zero
        A, b = np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5])
        Q = np.array([[-2.0, 0.0], [-4.0, 0.0], [-7.0, 0.0]])
        rows = self.check(np.eye(2), Q, A, np.tile(b, (3, 1)))
        assert rows.point.tobytes() == np.tile([0.5, 0.0], (3, 1)).tobytes()

    def test_forty_variables_two_hundred_rows(self):
        # 100 inputs, too many rows for qp_kkt_oracle, each certified by its KKT
        # conditions, and bit for bit one input per chunk
        rng = np.random.default_rng(11)
        M = rng.normal(size=(40, 40))
        D, A = M @ M.T + np.eye(40), rng.normal(size=(200, 40))
        Q, B = 10.0 * rng.normal(size=(100, 40)), rng.uniform(0.5, 3.0, size=(100, 200))
        rows = optim.solve_miqp_batch(D, Q, A, B)
        assert np.all(rows.status == optim.OPTIMAL)
        assert not np.any(np.all(A @ np.linalg.solve(2.0 * D, -Q.T) <= B.T, axis=0))
        for q, b, value, y in zip(Q, B, rows.value, rows.point):
            assert qp_kkt_certificate(D, q, A, b, y)
            assert abs(value - (y @ D @ y + q @ y)) <= 1e-12 * (1.0 + abs(value))
        with mock.patch.object(optim, "SWEEP_BYTES", sweep_budget(1, A, ())):
            assert same_rows(optim.solve_miqp_batch(D, Q[:5], A, B[:5]), [r[:5] for r in rows])

    def test_a_step_holds_under_six_n_by_n_arrays_per_input(self):
        # 12 inputs at n = 40 outside a polytope of 60 rows, whose steps add
        # rows and drop them: J, R and one path's copies of either are four n
        # x n arrays an input; the add path's copies kept through the drop
        # path took the peak to 7.6
        rng = np.random.default_rng(0)
        n, k = 40, 12
        M = rng.normal(size=(n, n))
        D, A = M @ M.T / n + np.eye(n), rng.normal(size=(60, n))
        Q, B = -2.0 * rng.normal(0.0, 3.0, size=(k, n)) @ D, rng.uniform(0.1, 1.0, size=(k, 60))
        J0 = np.linalg.inv(np.linalg.cholesky(2.0 * D)).T
        Y = optim._stacked_solve(2.0 * D, -Q)
        tracemalloc.start()
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ok, _, _ = qp.dual_active_set(D, J0, A, Q, B, Y, optim.FEAS_TOL, optim.QP_STEP_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok.all()
        assert peak < k * 6 * 8 * n * n

    def test_six_variables_sixteen_rows(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 6))
        D, A = M @ M.T + np.eye(6), rng.normal(size=(16, 6))
        Q, B = 10.0 * rng.normal(size=(3, 6)), rng.uniform(0.5, 3.0, size=(3, 16))
        rows = self.check(D, Q, A, B)
        assert np.all(rows.status == optim.OPTIMAL)
        assert not np.any(np.all(A @ np.linalg.solve(2.0 * D, -Q.T) <= B.T, axis=0))

    def test_drops_give_the_same_bits_in_any_split_or_order(self, monkeypatch):
        A, b = self.DROPS
        Q = -2.0 * np.array([[-4.0, -3.0], [-4.5, -3.0], [-3.0, -4.0], [1.0, -3.0], [-4.0, -2.5]])
        B = np.tile(b, (len(Q), 1))
        axes = []
        givens = qp._givens
        monkeypatch.setattr(qp, "_givens", lambda a, b, on, *targets: axes.extend(
            axis for *_, axis in targets) or givens(a, b, on, *targets))
        whole = self.check(np.eye(2), Q, A, B)
        assert 1 in axes  # a drop that rotates the rows of R back to triangular
        for perm in (np.arange(len(Q))[::-1], np.array([2, 0, 4, 1, 3])):
            for chunk in (1, 2, 3):
                monkeypatch.setattr(optim, "SWEEP_BYTES", sweep_budget(chunk, A, ()))
                got = optim.solve_miqp_batch(np.eye(2), Q[perm], A, B[perm])
                assert same_rows(got, [part[perm] for part in whole])

    def test_step_cap(self, monkeypatch):
        # target (-4, -3) takes four steps: two adds, a drop and an add
        A, b = self.DROPS
        args = (np.eye(2), np.array([[8.0, 6.0]]), A, b[None])
        monkeypatch.setattr(optim, "QP_STEP_CAP", 4)
        assert optim.solve_miqp_batch(*args).status[0] == optim.OPTIMAL
        monkeypatch.setattr(optim, "QP_STEP_CAP", 3)
        with pytest.raises(NumericalFailure, match="^dual active-set step cap exceeded$"):
            optim.solve_miqp_batch(*args)


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
    @given(case=convex_batches(), data=st.data(), per_block=st.integers(1, 4))
    def test_rows_match_the_loop_in_any_order(self, case, data, per_block):
        # the reversed order is scanned per_block rows at a time (34 B per
        # lattice point and row, as optim sizes its blocks)
        v, g, R, idx, bounds = case
        want = [convex_mip_loop_oracle(v, g, r, idx, bounds) for r in R]
        order = np.array(data.draw(st.permutations(range(len(R)))), dtype=int)
        block = 34 * per_block * max(1, len(optim.lattice_points(bounds)))
        for perm, budget in ((np.arange(len(R)), optim.SWEEP_BYTES),
                             (order, optim.SWEEP_BYTES), (order[::-1], block)):
            with mock.patch.object(optim, "SWEEP_BYTES", budget):
                got = solutions(optim.solve_convex_mip_batch(v, g, R[perm], idx, bounds))
            assert len(got) == len(perm)
            for sol, i in zip(got, perm):
                assert same_solution(sol, want[i]), (sol, want[i])

    def loop_rows(self, v, g, R, bounds, block=None):
        """The batch at the budget block (SWEEP_BYTES if None), checked row by
        row against the loop oracle bit for bit."""
        idx = tuple(range(len(bounds)))
        with mock.patch.object(optim, "SWEEP_BYTES", block or optim.SWEEP_BYTES):
            got = solutions(optim.solve_convex_mip_batch(v, g, R, idx, bounds))
        for sol, r in zip(got, R):
            assert same_solution(sol, convex_mip_loop_oracle(v, g, r, idx, bounds)), (sol, r)
        return got

    def test_exact_ties_keep_the_first_point(self):
        # the convex demo: v = (y + 7)^2 over |y| <= rhs, y in [-20, 20], takes
        # 1 at y = -8 and y = -6; (y + 6.5)^2 ties its minimum 0.25 at y = -7
        # and y = -6, and (y0 + 7)^2 + (y1 + 7)^2 over y0 + y1 >= -13 ties 1 at
        # (-7, -6) and (-6, -7)
        g = (exprs.vabs(exprs.var(0)),)
        R = np.array([[20.0], [6.0], [7.0], [8.0], [0.5], [-1.0]])
        for shift in (7.0, 6.5):
            v = exprs.even_power(exprs.affine([1.0], shift), 2)
            got = self.loop_rows(v, g, R, ((-20.0, 20.0),))
            assert [sol.point[0] for sol in got[:5]] == [-7.0, -6.0, -7.0, -7.0, 0.0]
            assert got[5].status == "infeasible"
        v = exprs.vsum(*(exprs.even_power(exprs.affine(e, 7.0), 2)
                         for e in ([1.0, 0.0], [0.0, 1.0])))
        got = self.loop_rows(v, (exprs.affine([-1.0, -1.0]),), np.array([[13.0], [14.0]]),
                             ((-10.0, 0.0), (-10.0, 0.0)))
        assert [sol.point.tolist() for sol in got] == [[-7.0, -6.0], [-7.0, -7.0]]

    def test_a_near_tie_keeps_the_earlier_point(self):
        # v = -6e-16 y on y in [0, 5] falls by 6e-16 a point: the scan keeps y =
        # 0, then y = 2 (1.2e-15 below it), then y = 4 (1.2e-15 below y = 2);
        # y = 3 and y = 5 improve by only 6e-16, so the minimum y = 5 is not kept
        v = exprs.affine([-6e-16], 0.0)
        g = (exprs.var(0),)
        got = self.loop_rows(v, g, np.array([[5.0], [1.0], [3.0]]), ((0.0, 5.0),))
        assert [sol.point[0] for sol in got] == [4.0, 0.0, 2.0]
        assert got[0].value > float(v.values(np.array([[5.0]]))[0])

    def test_a_block_of_one_row_gives_the_same_rows(self):
        # a two-coordinate lattice (y0 in the demo's box) scanned one row per
        # block: the loop oracle's rows, and bit for bit the one-block Rows
        v = exprs.vsum(exprs.even_power(exprs.affine([1.0, -0.5], 7.0), 2),
                       exprs.vabs(exprs.affine([0.0, 1.0], -1.5)))
        g = (exprs.vabs(exprs.var(0)), exprs.vmax(exprs.affine([0.5, 1.0]), exprs.var(1)))
        R = np.array([[20.0, 3.0], [6.0, -1.0], [7.5, 0.0], [0.5, -4.0], [3.0, 3.0]])
        bounds = ((-20.0, 20.0), (-3.0, 3.0))
        whole = optim.solve_convex_mip_batch(v, g, R, (0, 1), bounds)
        self.loop_rows(v, g, R, bounds, block=1)
        with mock.patch.object(optim, "SWEEP_BYTES", 1):
            assert same_rows(optim.solve_convex_mip_batch(v, g, R, (0, 1), bounds), whole)

    def test_a_box_without_integer_points_leaves_every_row_infeasible(self):
        g = (exprs.vabs(exprs.var(0)),)
        got = self.loop_rows(exprs.var(0), g, np.array([[1.0], [2.0]]), ((0.2, 0.8),))
        assert [sol.status for sol in got] == ["infeasible"] * 2

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
