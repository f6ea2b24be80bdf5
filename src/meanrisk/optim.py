"""Desk-scale solvers backing the recourse evaluators.

solve_lp runs a dense two-phase tableau simplex with Bland's anti-cycling
rule for small instances and hands larger instances (the metric LPs) to
scipy's HiGHS backend behind the same interface; it returns one Solution.
The batch solvers (solve_lp_batch, solve_milp_batch, solve_miqp_batch and
solve_convex_mip_batch) solve many programs that share their matrices and
return one Rows: an int8 status code, a value and a point per program, as
arrays, NaN where a program is not optimal.  solve_lp_batch solves LPs that
differ only in their right-hand sides: the tableau returns its final basis
with an optimal solution and its phase-1 Farkas ray with an infeasible one;
the basis answers every right-hand side it stays primal feasible for
(bunching) and the ray every one it separates, so only the rows no stored
certificate covers reach solve_lp.  Mixed-integer linear and quadratic
programs share one depth-first branch and bound, which runs the trees of
many inputs in lockstep over one array store of nodes; only the relaxation
differs (an LP or a convex QP), and both append the integer boxes as rows.
The boxed rows are the same at every node, so each round's relaxations are
one batch: for MILPs one solve_lp_batch, whose bases and rays serve every
round; for MIQPs one KKT sweep (per active set, one matrix for all pending
relaxations, with per-input arithmetic, so a batch is bit-identical to its
rows solved alone), whose infeasibility certificates share one store of
rays and bases.  The fixed branching order (lowest-index most-fractional,
floor branch first) keeps identical inputs producing identical outputs.
Convex QPs are solved exactly by KKT subset enumeration, which is sound for
positive definite objectives at the row counts used here.  Mixed-integer
convex programs enumerate the integer lattice.  A batch of pure-integer
programs that differ only in their right-hand sides shares one table of
the objective and constraint values on the lattice; continuous slices are
solved by Kelley's cutting planes, one small LP per round, so their
infeasibility is certified.  scipy is imported only when HiGHS runs.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstraintLimitExceeded,
    DimMismatch,
    InvalidSpec,
    NumericalFailure,
    OutOfRange,
)

FEAS_TOL = 1e-9
PIVOT_CAP = 1_000_000
# beyond this size the tableau's dense O(m*n) pivots stop paying off
TABLEAU_LIMIT = 80
# cutting-plane rounds per continuous convex-MIP slice before giving up
KELLEY_ROUNDS = 500
# integer assignments a convex MIP may enumerate
MAX_LATTICE_POINTS = 1_000_000


# Rows.status codes, and the Solution status each stands for
OPTIMAL, INFEASIBLE, UNBOUNDED = 0, 1, 2
STATUSES = ("optimal", "infeasible", "unbounded")


@dataclass(frozen=True)
class Solution:
    """The result of solve_lp: one of STATUSES, and a value and point when
    optimal."""

    status: str
    value: float | None = None
    point: np.ndarray | None = None
    # the tableau's optimal basis or Farkas ray (see _LpBatch._store)
    certificate: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InvalidSpec(f"bad status {self.status!r}")
        if self.status == "optimal":
            if self.value is None or self.point is None:
                raise InvalidSpec("optimal solution needs value and point")
            object.__setattr__(self, "value", float(self.value))
            pt = np.ascontiguousarray(self.point, dtype=float)
            pt.setflags(write=False)
            object.__setattr__(self, "point", pt)
        elif self.value is not None or self.point is not None:
            raise InvalidSpec(f"{self.status} solution must not carry value/point")

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class Rows(NamedTuple):
    """The results of a batch, one row per program: int8 status codes
    (OPTIMAL, INFEASIBLE or UNBOUNDED), values (k,) and points (k, n), NaN
    where a row is not optimal."""

    status: np.ndarray
    value: np.ndarray
    point: np.ndarray

    @classmethod
    def infeasible(cls, k: int, n: int) -> "Rows":
        """k rows of n variables, each infeasible until it is filled."""
        return cls(np.full(k, INFEASIBLE, dtype=np.int8), np.full(k, np.nan),
                   np.full((k, n), np.nan))

    def put(self, j, value, point):
        """Mark rows j optimal with their values and points."""
        self.status[j] = OPTIMAL
        self.value[j] = value
        self.point[j] = point


def _issparse(A) -> bool:
    """scipy.sparse.issparse(A), without importing scipy: no sparse matrix
    exists before scipy.sparse is imported."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  A x (= | <=) b,  x_j >= 0 where nonneg[j] else free.

    senses is one sense per row or one for every row (default "=="), and
    nonneg defaults to x >= 0; a 1-D A is one row.  A is a dense array or
    any scipy.sparse matrix; sparse input is kept as CSR and only densified
    when the tableau solves it."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple | str = "=="
    nonneg: tuple | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        sparse = _issparse(self.A)
        if sparse:
            A = sys.modules["scipy.sparse"].csr_array(self.A, dtype=float)
        else:
            A = np.asarray(self.A, dtype=float)
            if A.size == 0:
                A = A.reshape(0, len(c))
            elif A.ndim == 1:
                A = A.reshape(1, -1)
        b = np.atleast_1d(np.asarray(self.b, dtype=float)) if np.size(self.b) else np.zeros(0)
        senses = (self.senses,) * len(b) if isinstance(self.senses, str) else tuple(self.senses)
        nonneg = (True,) * len(c) if self.nonneg is None else tuple(bool(v) for v in self.nonneg)
        if A.ndim != 2 or A.shape != (len(b), len(c)):
            raise DimMismatch(f"A shape {A.shape} vs b {len(b)}, c {len(c)}")
        if len(senses) != len(b):
            raise DimMismatch("one sense per row required")
        if any(s not in ("==", "<=") for s in senses):
            raise InvalidSpec(f"row senses must be '==' or '<=', got {senses}")
        if len(nonneg) != len(c):
            raise DimMismatch("one bound flag per variable required")
        for name, arr in (("c", c), ("A", A.data if sparse else A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise InvalidSpec(f"non-finite entries in {name}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "nonneg", nonneg)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_rows(self) -> int:
        return len(self.b)


# ---------------------------------------------------------------------------
# dense two-phase tableau simplex (Bland's rule)
# ---------------------------------------------------------------------------


class _Standard:
    """The standard form min cost.w, M w = b, w >= 0 of min c.x, A x (senses)
    b, x_j >= 0 where nonneg[j]: w holds x_j for each variable in order,
    followed by -x_j for a free x_j (x_j = w_j - w_j'), and then one slack
    per <= row (slack_of_row maps the row to its column); x = w @ P.  It
    does not depend on b, so one object serves every right-hand side."""

    def __init__(self, prob: LinearProgram):
        A = prob.A.toarray() if _issparse(prob.A) else prob.A
        cols = [j for j, nn in enumerate(prob.nonneg) for _ in range(1 if nn else 2)]
        signs = np.array([s for nn in prob.nonneg for s in ((1.0,) if nn else (1.0, -1.0))])
        le = [i for i, s in enumerate(prob.senses) if s == "<="]
        k = len(cols)
        self.slack_of_row = {i: k + pos for pos, i in enumerate(le)}
        self.M = np.zeros((prob.n_rows, k + len(le)))
        self.M[:, :k] = A[:, cols] * signs
        self.M[le, k + np.arange(len(le))] = 1.0
        self.cost = np.zeros(k + len(le))
        self.cost[:k] = prob.c[cols] * signs
        self.P = np.zeros((k + len(le), prob.n_vars))
        self.P[np.arange(k), cols] = signs


def _pivot(T: np.ndarray, basis: list, row: int, col: int):
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(len(T)):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list, n_cols: int, budget: list) -> str:
    """Iterate on a tableau whose last row holds reduced costs (to be
    minimized) and whose last column holds the rhs.  Returns 'optimal' or
    'unbounded'.  Bland's rule: lowest eligible entering index; leaving row
    chosen among minimal ratios by lowest basic-variable index."""
    m = len(T) - 1
    while True:
        rc = T[-1, :n_cols]
        enter = -1
        for j in range(n_cols):
            if rc[j] < -FEAS_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = T[:m, enter]
        best_ratio = np.inf
        leave = -1
        for i in range(m):
            if col[i] > FEAS_TOL:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
        budget[0] -= 1
        if budget[0] <= 0:
            raise NumericalFailure("simplex pivot cap exceeded")


def _tableau_solve(prob: LinearProgram) -> Solution:
    """Two-phase simplex on the standard form, its rows with b < 0 negated.

    An optimal Solution carries its final basis (columns of M) as its
    certificate, unless phase 1 dropped a redundant row.  An infeasible one
    carries the Farkas ray lam = -y of the phase-1 duals y = B1^-T c1, on the
    original rows: M'lam >= -FEAS_TOL and lam.b < -1e-7."""
    std = _Standard(prob)
    m, n_std = std.M.shape
    if m == 0:
        # unconstrained: bounded iff no improving direction exists
        if np.any(std.cost < -FEAS_TOL):
            return Solution("unbounded")
        x = np.zeros(prob.n_vars)
        return Solution("optimal", float(prob.c @ x), x)
    budget = [PIVOT_CAP]
    sign = np.where(prob.b < 0, -1.0, 1.0)

    # phase 1: artificial basis, reusing unit slack columns where possible
    basis = [std.slack_of_row.get(i, -1) if sign[i] > 0 else -1 for i in range(m)]
    art_rows = [i for i in range(m) if basis[i] < 0]
    n_all = n_std + len(art_rows)
    for k, i in enumerate(art_rows):
        basis[i] = n_std + k
    start = list(basis)
    T = np.zeros((m + 1, n_all + 1))
    T[:m, :n_std] = std.M * sign[:, None]
    T[art_rows, n_std:n_all] = np.eye(len(art_rows))
    T[:m, -1] = prob.b * sign
    if art_rows:
        c1 = np.zeros(n_all)
        c1[n_std:] = 1.0
        T[-1, :n_all] = c1
        for i in art_rows:
            T[-1] -= T[i]
        status = _run_simplex(T, basis, n_all, budget)
        if status != "optimal":
            raise NumericalFailure("phase 1 unbounded")
        if -T[-1, -1] > 1e-7:
            # row i started on the unit column start[i], whose reduced cost
            # is c1 - y_i
            y = c1[start] - T[-1, start]
            return Solution("infeasible", certificate=-sign * y)
        # drive remaining artificials out of the basis or drop their rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_std:
                pivot_col = -1
                for j in range(n_std):
                    if abs(T[i, j]) > FEAS_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    _pivot(T, basis, i, pivot_col)
                else:
                    keep[i] = False
        if not np.all(keep):
            rows = list(np.nonzero(keep)[0]) + [m]
            T = T[rows]
            basis = [basis[i] for i in np.nonzero(keep)[0]]
            m = len(basis)

    # phase 2 on structural + slack columns only
    T2 = np.zeros((m + 1, n_std + 1))
    T2[:m, :n_std] = T[:m, :n_std]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :n_std] = std.cost
    for i in range(m):
        if std.cost[basis[i]] != 0.0:
            T2[-1] -= std.cost[basis[i]] * T2[i]
    status = _run_simplex(T2, basis, n_std, budget)
    if status == "unbounded":
        return Solution("unbounded")
    w = np.zeros(n_std)
    w[basis] = T2[:m, -1]
    x = w @ std.P
    cert = np.array(basis) if m == prob.n_rows else None
    return Solution("optimal", float(prob.c @ x), x, certificate=cert)


def _scipy_solve(prob: LinearProgram) -> Solution:
    import scipy.optimize

    eq = [i for i, s in enumerate(prob.senses) if s == "=="]
    ub = [i for i, s in enumerate(prob.senses) if s == "<="]
    bounds = [(0.0, None) if nn else (None, None) for nn in prob.nonneg]
    res = scipy.optimize.linprog(
        prob.c,
        A_ub=prob.A[ub] if ub else None,
        b_ub=prob.b[ub] if ub else None,
        A_eq=prob.A[eq] if eq else None,
        b_eq=prob.b[eq] if eq else None,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 0:
        return Solution("optimal", float(res.fun), np.asarray(res.x, dtype=float))
    if res.status in (2, 3):
        return Solution(STATUSES[res.status - 1])
    raise NumericalFailure(f"linprog status {res.status}: {res.message}")


def solve_lp(prob: LinearProgram) -> Solution:
    """Solve a linear program, certifying infeasibility and unboundedness.

    Up to TABLEAU_LIMIT rows and columns the dense tableau solves it (a
    sparse A is densified); larger instances go to HiGHS, sparse A as is."""
    if max(prob.n_rows, prob.n_vars) <= TABLEAU_LIMIT:
        return _tableau_solve(prob)
    return _scipy_solve(prob)


# ---------------------------------------------------------------------------
# linear programs that differ only in their right-hand sides
# ---------------------------------------------------------------------------

# A Farkas ray lam with ||lam||_inf = 1 certifies b only when lam.b is below
# -RAY_MARGIN: phase 1 on b would then end above its 1e-7 threshold.
RAY_MARGIN = 1e-6
# sign conditions a ray must meet before it is stored
RAY_TOL = 1e-12


class _LpBatch:
    """min c.x  s.t.  A x (senses) b,  x_j >= 0 where nonneg[j], for many b,
    with the optimal bases and Farkas rays found so far.

    Certificates are the tableau's own (_tableau_solve), in the standard
    form M w = b, w >= 0 of _Standard, which the batch builds once, on
    first use.  A basis is a final tableau basis, degenerate or not, whose
    reduced costs recomputed from M are >= -FEAS_TOL; it answers every b
    with B^-1 b >= 0 (bunching: Wets 1974; Birge & Louveaux, ch. 5).  A ray
    is the tableau's phase-1 dual scaled to ||lam||_inf = 1, kept when
    M'lam >= -RAY_TOL and lam.b < -RAY_MARGIN at its own row; it answers
    every b with lam.b < -RAY_MARGIN as infeasible (Farkas).  A row above
    TABLEAU_LIMIT goes to HiGHS and stores nothing; no recourse model
    batches an LP of that size."""

    def __init__(self, c, A, senses, nonneg):
        rows = np.shape(A)[0] if np.ndim(A) == 2 else 0
        self.prob = LinearProgram(c, A, np.zeros(rows), senses, nonneg)
        self.std = None  # prob's _Standard, built on the first store
        self.rays = []  # one lam per ray
        self.bases = []  # the columns of M of each basis

    def _store(self, sol, b) -> bool:
        """Store the certificate the tableau gave sol, the solution of row
        b, if it passes its check."""
        cert = sol.certificate
        if cert is None:
            return False
        if self.std is None:
            self.std = _Standard(self.prob)
        M, cost = self.std.M, self.std.cost
        # a nearly singular basis may overflow here; NaN fails the checks
        with np.errstate(over="ignore", invalid="ignore"):
            if sol.optimal:
                try:
                    duals = np.linalg.solve(M[:, cert].T, cost[cert])
                except np.linalg.LinAlgError:
                    return False
                if not np.all(cost - M.T @ duals >= -FEAS_TOL):
                    return False
                self.bases.append(cert)
                return True
            lam = cert / np.max(np.abs(cert))
            if not (lam @ b < -RAY_MARGIN and np.all(M.T @ lam >= -RAY_TOL)):
                return False
        self.rays.append(lam)
        return True

    def _cover(self, B, todo, out, rays, bases):
        """Answer the rows todo of B that a ray or basis certifies in the
        Rows out; returns the rows still open."""
        if rays and len(todo):
            hit = np.any(np.array(rays) @ B[todo].T < -RAY_MARGIN, axis=0)
            out.status[todo[hit]] = INFEASIBLE
            todo = todo[~hit]
        for cols in bases:
            if not len(todo):
                break
            with np.errstate(over="ignore", invalid="ignore"):
                W = np.linalg.solve(self.std.M[:, cols], B[todo].T)
                ok = np.all(W >= 0.0, axis=0) & np.all(np.isfinite(W), axis=0)
                X = W[:, ok].T @ self.std.P[cols]
            out.put(todo[ok], X @ self.prob.c, X)
            todo = todo[~ok]
        return todo

    def rows(self, B) -> np.ndarray:
        """B as floats, one finite right-hand side per row."""
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[1] != self.prob.n_rows:
            raise DimMismatch(f"B must have one row of {self.prob.n_rows} entries per program, "
                              f"got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise InvalidSpec("non-finite entries in b")
        return B

    def solve(self, B) -> Rows:
        """The Rows of B; see solve_lp_batch."""
        B = self.rows(B)
        out = Rows.infeasible(len(B), self.prob.n_vars)
        todo = self._cover(B, np.arange(len(B)), out, self.rays, self.bases)
        while len(todo):
            j, todo = todo[0], todo[1:]
            sol = solve_lp(replace(self.prob, b=B[j]))
            out.status[j] = STATUSES.index(sol.status)
            if sol.optimal:
                out.put(j, sol.value, sol.point)
            # a certificate is stored only while rows of this call are open
            if len(todo) and self._store(sol, B[j]):
                new = ([], self.bases[-1:]) if sol.optimal else (self.rays[-1:], [])
                todo = self._cover(B, todo, out, *new)
        return out


def solve_lp_batch(c, A, senses, nonneg, B) -> Rows:
    """solve_lp at every right-hand side b = B[j] with one c, A, senses and
    nonneg: one row of Rows per program.

    A row is first checked against the Farkas rays and then against the
    optimal bases stored so far in this call, each check one matrix product
    or solve over all open rows; only a row that neither covers goes to
    solve_lp.  Each solved row that leaves rows open stores the certificate
    the tableau returned with it, if it passes its check: the final basis of
    an optimal row, degenerate or not, or the phase-1 Farkas ray of an
    infeasible one.  Statuses are solve_lp's; a value from a basis agrees
    with the tableau's to round-off.  Errors are raised for the batch, with
    the message a single row would give."""
    return _LpBatch(c, A, senses, nonneg).solve(B)


# ---------------------------------------------------------------------------
# branch and bound shared by the mixed-integer linear and quadratic programs
# ---------------------------------------------------------------------------


def _box_arrays(bounds):
    return np.array([b[0] for b in bounds]), np.array([b[1] for b in bounds])


def _box_rows(A, idx) -> np.ndarray:
    """A with the rows x_i <= hi and -x_i <= -lo appended, in that order
    for each boxed variable, after the base rows (see _box_rhs)."""
    m, k = A.shape[0], len(idx)
    A2 = np.zeros((m + 2 * k, A.shape[1]))
    # relaxations are tableau-sized, so a sparse A is densified here
    A2[:m] = A.toarray() if _issparse(A) else A
    for pos, i in enumerate(idx):
        A2[m + 2 * pos, i] = 1.0
        A2[m + 2 * pos + 1, i] = -1.0
    return A2


def _box_rhs(b, lo, hi) -> np.ndarray:
    """The right-hand side of _box_rows: b, then hi and -lo interleaved.
    b, lo and hi may carry one leading row per input."""
    m = b.shape[-1]
    b2 = np.empty(b.shape[:-1] + (m + 2 * lo.shape[-1],))
    b2[..., :m] = b
    b2[..., m::2] = hi
    b2[..., m + 1 :: 2] = -lo
    return b2


def _branch_positions(P: np.ndarray) -> np.ndarray:
    """Per row of P (the integer coordinates of points), the column of its
    most fractional entry, scanned column by column so that a later one
    wins only by more than 1e-15 (ties go to the lowest index); -1 where
    all are integral within 1e-9."""
    best = np.full(len(P), -1)
    score = np.full(len(P), 1e-9)
    for pos in range(P.shape[1]):
        frac = np.abs(P[:, pos] - np.round(P[:, pos]))
        better = frac > score + 1e-15
        best[better] = pos
        score[better] = frac[better]
    return best


def _branch_and_bound(relax, idx, lo0, hi0, roots: Rows) -> Rows:
    """Depth-first branch and bound over the integer coordinates idx, one
    tree per row of roots, the trees run in lockstep.

    roots holds each tree's relaxation on the initial boxes [lo0, hi0];
    relax(trees, lo, hi) returns the Rows of the relaxations of trees
    trees[r] on the boxes [lo[r], hi[r]].  The nodes live in one array store
    of boxes, relaxation values and points, a relaxation that is not
    optimal at value +inf so the prune drops it; each tree's stack is a
    linked list from top[t] through below[v].  Each round pops nodes from
    every tree until one branches and relaxes all their children in one
    relax call, tree by tree.  Within a tree the ceil child is relaxed first
    and the floor child explored first, and a node is pruned when its
    relaxation cannot improve that tree's incumbent by more than 1e-12, so
    every tree visits exactly the nodes it visits alone.
    """
    n_trees, n = roots.point.shape
    out = Rows.infeasible(n_trees, n)
    best = np.full(n_trees, np.inf)
    cols = np.array(idx)
    # the store, grown by doubling, holds size nodes; the roots come first
    lo, hi = np.repeat(lo0[None], n_trees, axis=0), np.repeat(hi0[None], n_trees, axis=0)
    val = np.where(roots.status == OPTIMAL, roots.value, np.inf)
    pt, below = roots.point.copy(), np.full(n_trees, -1)
    top, size = np.arange(n_trees), n_trees
    active = top.copy()
    while len(active):
        requests = []  # (trees, child, lo, hi), child 0 for ceil and 1 for floor
        while len(active):
            v = top[active]
            top[active] = below[v]
            live = np.flatnonzero(val[v] < best[active] - 1e-12)
            t, v = active[live], v[live]
            # a relaxation may leave its box by up to the LP's feasibility
            # tolerance; branching on such a coordinate unclipped would give
            # a child with its parent's box, relaxed again without end
            inside = np.minimum(np.maximum(pt[v[:, None], cols], lo[v]), hi[v])
            pos = _branch_positions(inside)
            leaf = pos < 0
            new = leaf & (val[v] < best[t] - 1e-15)
            t_new, v_new = t[new], v[new]
            best[t_new] = val[v_new]
            point = pt[v_new]
            point[:, cols] = np.round(point[:, cols]) + 0.0  # +0.0 where it rounds to zero
            out.put(t_new, val[v_new], point)
            t, v, pos, inside = t[~leaf], v[~leaf], pos[~leaf], inside[~leaf]
            rows = np.arange(len(v))
            split = np.floor(inside[rows, pos] + 1e-9)
            up, down = split + 1.0 <= hi[v, pos], lo[v, pos] <= split
            ceil_lo, floor_hi = lo[v], hi[v]
            ceil_lo[rows, pos] = split + 1.0
            floor_hi[rows, pos] = split
            requests += [(t[up], np.zeros(up.sum()), ceil_lo[up], hi[v[up]]),
                         (t[down], np.ones(down.sum()), lo[v[down]], floor_hi[down])]
            branched = np.zeros(len(active), dtype=bool)
            branched[live[~leaf][up | down]] = True
            active = active[~branched & (top[active] >= 0)]
        trees, child, kid_lo, kid_hi = (np.concatenate(part) for part in zip(*requests))
        if not len(trees):
            break  # every stack is empty
        order = np.lexsort((child, trees))
        trees, kid_lo, kid_hi = trees[order], kid_lo[order], kid_hi[order]
        kids = relax(trees, kid_lo, kid_hi)
        kid_val = np.where(kids.status == OPTIMAL, kids.value, np.inf)
        keep = kid_val < best[trees] - 1e-12
        trees = trees[keep]
        ids = size + np.arange(len(trees))
        size += len(trees)
        while size > len(val):
            lo, hi, val, pt, below = (np.resize(a, (2 * len(a),) + a.shape[1:])
                                      for a in (lo, hi, val, pt, below))
        lo[ids], hi[ids] = kid_lo[keep], kid_hi[keep]
        val[ids], pt[ids] = kid_val[keep], kids.point[keep]
        # the floor child is pushed last, so it is explored first
        same = np.zeros(len(trees), dtype=bool)  # a floor child after its ceil sibling
        same[1:] = trees[1:] == trees[:-1]
        below[ids] = np.where(same, ids - 1, top[trees])
        np.maximum.at(top, trees, ids)  # a new id exceeds every stored one
        active = np.flatnonzero(top >= 0)
    return out


# ---------------------------------------------------------------------------
# mixed-integer linear programs
# ---------------------------------------------------------------------------


def _integer_boxes(integer_idx, bounds, n: int, kind: str = "integer"):
    """Indices of the integer (or another kind of) variables and their
    (lo, hi) boxes, checked against n variables."""
    idx = tuple(int(i) for i in integer_idx)
    bnds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(idx) != len(bnds):
        raise DimMismatch(f"one bounds pair per {kind} variable")
    for i in idx:
        if not (0 <= i < n):
            raise InvalidSpec(f"{kind} index {i} out of range")
    if len(set(idx)) != len(idx):
        raise InvalidSpec(f"duplicate {kind} indices")
    for lo, hi in bnds:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise InvalidSpec(f"{kind} bounds must be finite with lo <= hi, got ({lo}, {hi})")
    return idx, bnds


def solve_milp_batch(c, A, senses, nonneg, B, integer_idx=(), bounds=()) -> Rows:
    """Branch and bound over LP relaxations at every right-hand side
    b = B[j], with one c, A, senses, nonneg and set of finite integer boxes
    (lo, hi): one row of Rows per program.

    The trees run in lockstep (_branch_and_bound), the boxes appended as
    rows, and each round's relaxations are one solve_lp_batch over one
    store of bases and rays kept for the whole call: every node of every
    tree has the same boxed matrix.  A row whose root relaxation is
    unbounded is unbounded if its integer boxes hold a feasible point (a
    zero-cost batch decides it) and infeasible otherwise.  Errors are raised
    for the batch, with the message a single row would give."""
    plain = _LpBatch(c, A, senses, nonneg)
    prob = plain.prob
    idx, bounds = _integer_boxes(integer_idx, bounds, prob.n_vars)
    if not idx:
        return plain.solve(B)
    B = plain.rows(B)
    boxed = _LpBatch(prob.c, _box_rows(prob.A, idx), prob.senses + ("<=",) * (2 * len(idx)),
                     prob.nonneg)

    def relax(trees, lo, hi):
        return boxed.solve(_box_rhs(B[trees], lo, hi))

    lo0, hi0 = _box_arrays(bounds)
    roots = relax(np.arange(len(B)), lo0, hi0)
    out = _branch_and_bound(relax, idx, lo0, hi0, roots)
    unbounded = np.flatnonzero(roots.status == UNBOUNDED)
    if len(unbounded):
        # bounded integers means any feasible point extends to an unbounded ray
        feas = solve_milp_batch(np.zeros(prob.n_vars), prob.A, prob.senses, prob.nonneg,
                                B[unbounded], idx, bounds)
        out.status[unbounded] = np.where(feas.status == OPTIMAL, UNBOUNDED, INFEASIBLE)
    return out


# ---------------------------------------------------------------------------
# convex quadratic programs and their mixed-integer extension
# ---------------------------------------------------------------------------

# rows a convex QP may have: KKT enumeration tries every active set
MAX_QP_ROWS = 20
# inputs per chunk of a KKT sweep, which bounds the sweep's working arrays
KKT_CHUNK = 8192


def _quad_values(D, Y, Q) -> np.ndarray:
    """y'Dy + q.y per row, each as the 1-D expression y @ D @ y + q @ y
    evaluates it: the stacked matmuls make the same BLAS call per row."""
    Yc = Y[:, :, None]
    return (Y[:, None, :] @ D @ Yc)[:, 0, 0] + (Q[:, None, :] @ Yc)[:, 0, 0]


def _stacked_solve(K, R) -> np.ndarray:
    """np.linalg.solve(K, r) for every row r of R, with the arithmetic of a
    one-vector solve: a multi-column solve rounds differently."""
    return np.linalg.solve(np.broadcast_to(K, (len(R),) + K.shape), R[..., None])[..., 0]


def _kkt_sweep(D, A, Q, B, feasibility) -> Rows:
    """Exact minimum of y'Dy + Q[j].y over A y <= B[j], one row of Rows per
    j, for positive definite D.

    Enumerates KKT active sets of size at most n (conic Caratheodory
    guarantees one exists at the optimum) in itertools.combinations order.
    Every active set S has one KKT matrix K_S for all inputs, so each is
    solved once for all inputs still without a free minimum: one vector
    solve per input, so values are those of a per-input enumeration.  An
    input without a KKT point must have an empty feasible set.  All such
    inputs of a chunk go to one feasibility.solve, an _LpBatch of min 0
    over A y <= b with y free whose rays and bases (the tableau's phase-1
    rays and final bases) the caller keeps across sweeps: a ray certifies
    an input infeasible, and an LP either does too or returns a point
    violating A y <= b + FEAS_TOL (a set empty up to the tableau's phase-1
    tolerance).  A point that passes, from an LP or a basis, raises
    NumericalFailure.  Inputs are swept in chunks of KKT_CHUNK, which
    bounds the working arrays of a large branch-and-bound round; every
    input's arithmetic is its own, so the Rows do not depend on the
    chunking.  Raises ConstraintLimitExceeded for more than MAX_QP_ROWS
    rows.
    """
    m = A.shape[0]
    if m > MAX_QP_ROWS:
        raise ConstraintLimitExceeded(f"{m} rows > {MAX_QP_ROWS}")
    out = Rows.infeasible(*Q.shape)
    for i in range(0, len(Q), KKT_CHUNK):
        part = slice(i, i + KKT_CHUNK)
        _kkt_chunk(D, A, Q[part], B[part], feasibility, Rows(*(a[part] for a in out)))
    return out


def _kkt_chunk(D, A, Q, B, feasibility, out: Rows):
    """The sweep of _kkt_sweep on the inputs (Q, B), written into out."""
    k, n = Q.shape
    m = A.shape[0]
    Y = _stacked_solve(2.0 * D, -Q)
    free = np.ones(k, dtype=bool) if m == 0 else np.all(
        (A @ Y[:, :, None])[:, :, 0] <= B + FEAS_TOL, axis=1
    )
    j = np.flatnonzero(free)
    out.put(j, _quad_values(D, Y[j], Q[j]), Y[j])
    rest = np.flatnonzero(~free)
    if not len(rest):
        return
    Q_rest, B_rest = Q[rest], B[rest]
    best_val = np.full(len(rest), np.inf)
    best_y = np.zeros((len(rest), n))
    found = np.zeros(len(rest), dtype=bool)
    for size in range(1, min(n, m) + 1):
        for S in itertools.combinations(range(m), size):
            As = A[list(S)]
            K = np.zeros((n + size, n + size))
            K[:n, :n] = 2.0 * D
            K[:n, n:] = As.T
            K[n:, :n] = As
            R = np.concatenate([-Q_rest, B_rest[:, list(S)]], axis=1)
            try:
                sol = _stacked_solve(K, R)
            except np.linalg.LinAlgError:
                continue
            # the checks of a single KKT point, each on the inputs that
            # passed the one before
            j = np.flatnonzero(np.all(np.isfinite(sol), axis=1))
            resid = (K @ sol[j, :, None])[:, :, 0] - R[j]
            j = j[~(np.max(np.abs(resid), axis=1) > 1e-7)]
            j = j[~np.any(sol[j, n:] < -1e-9, axis=1)]
            y = sol[j, :n]
            j_ok = ~np.any((A @ y[:, :, None])[:, :, 0] > B_rest[j] + FEAS_TOL, axis=1)
            j, y = j[j_ok], y[j_ok]
            val = _quad_values(D, y, Q_rest[j])
            better = ~found[j] | (val < best_val[j] - 1e-15)
            best_val[j[better]] = val[better]
            best_y[j[better]] = y[better]
            found[j[better]] = True
    out.put(rest[found], best_val[found], best_y[found])
    # no KKT point: the feasible set must be empty, which a ray or an LP
    # certifies, or else the LP's point violates a row by > FEAS_TOL
    empty = rest[~found]
    feas = feasibility.solve(B[empty])
    ok = feas.status == OPTIMAL
    P = feas.point[ok]
    if not np.all(np.any((A @ P[:, :, None])[:, :, 0] > B[empty[ok]] + FEAS_TOL, axis=1)):
        raise NumericalFailure("feasible convex QP without a detected KKT point")


def _check_positive_definite(D: np.ndarray):
    """InvalidSpec unless the finite square D is symmetric and positive definite."""
    if np.max(np.abs(D - D.T), initial=0.0) > 1e-12:
        raise InvalidSpec("D must be symmetric within 1e-12")
    if np.min(np.linalg.eigvalsh(D)) <= 1e-10:
        raise InvalidSpec("D must be positive definite (min eigenvalue > 1e-10)")


def solve_miqp_batch(D, Q, A, B, integer_idx=(), bounds=()) -> Rows:
    """Exact minimum of y'Dy + q.y over A y <= b, y_i integer in the finite
    box (lo, hi) of each i in integer_idx, at every (q, b) = (Q[j], B[j])
    with one positive definite D and one A: one row of Rows per program,
    bit-identical to solving each row alone.  Without integers it is one
    KKT sweep (_kkt_sweep); with them the trees run in lockstep, and each
    round's relaxations share one KKT sweep, since the boxed rows (and so
    every K_S) are the same for all nodes of all trees.  Raises OutOfRange
    on non-finite data and ConstraintLimitExceeded for more than
    MAX_QP_ROWS rows, boxes included.  Errors are raised for the batch,
    with the message a single row would give."""
    D = np.asarray(D, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2:
        raise DimMismatch(f"Q must have one row per program, got shape {Q.shape}")
    k, n = Q.shape
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        A = A.reshape(0, n)
    B = np.asarray(B, dtype=float)
    if B.size == 0 and B.ndim != 2:
        B = B.reshape(k, 0)
    for name, arr in (("D", D), ("q", Q), ("A", A), ("b", B)):
        if not np.all(np.isfinite(arr)):
            raise OutOfRange(f"non-finite entries in {name}")
    if D.shape != (n, n):
        raise DimMismatch(f"D shape {D.shape} vs {n} variables")
    _check_positive_definite(D)
    if A.ndim != 2 or A.shape[1] != n or B.shape != (k, A.shape[0]):
        raise DimMismatch(f"A shape {A.shape} vs b {B.shape[-1]}")
    idx, bounds = _integer_boxes(integer_idx, bounds, n)
    if idx:
        A = _box_rows(A, idx)
    # every relaxation has the same rows, so one store of certificates
    # serves the feasibility LPs of every sweep
    feasibility = _LpBatch(np.zeros(n), A, ("<=",) * len(A), (False,) * n)
    if not idx:
        return _kkt_sweep(D, A, Q, B, feasibility)

    def relax(trees, lo, hi):
        return _kkt_sweep(D, A, Q[trees], _box_rhs(B[trees], lo, hi), feasibility)

    lo0, hi0 = _box_arrays(bounds)
    roots = relax(np.arange(len(B)), lo0, hi0)
    return _branch_and_bound(relax, idx, lo0, hi0, roots)


# ---------------------------------------------------------------------------
# mixed-integer convex programs over the expression grammar
# ---------------------------------------------------------------------------


def lattice_points(bounds) -> np.ndarray:
    """The integer points of the box, one row each, last coordinate fastest.

    The point count is checked from the bounds before anything is
    allocated: above MAX_LATTICE_POINTS this raises ConstraintLimitExceeded.
    """
    lows = [np.ceil(lo - 1e-9) for lo, _ in bounds]
    highs = [np.floor(hi + 1e-9) for _, hi in bounds]
    count = float(np.prod([max(0.0, h - l + 1.0) for l, h in zip(lows, highs)]))
    if count > MAX_LATTICE_POINTS:
        raise ConstraintLimitExceeded(
            f"{count:.6g} integer points > MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}"
        )
    axes = [np.arange(l, h + 1.0) for l, h in zip(lows, highs)]
    if not axes:
        return np.zeros((1, 0))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _kelley_slice(v, g, rhs, y_full, cont, lo, hi):
    """Kelley's cutting planes on one continuous slice.

    Minimizes t over (y_c, t) subject to the box, the cuts
    t >= v(y_k) + s.(y - y_k) and, for every g_i that y_k violates,
    g_i(y_k) + s_i.(y - y_k) <= rhs_i.  Every cut outer-approximates the
    slice, so an infeasible cut LP proves the slice empty (returns None).
    Otherwise returns (value, point) of the best iterate with
    g_i <= rhs_i + FEAS_TOL once it is within a relative 1e-10 of the LP
    bound."""
    k = len(cont)
    rows = [np.hstack([np.vstack([np.eye(k), -np.eye(k)]), np.zeros((2 * k, 1))])]
    cut_rhs = [hi, -lo]
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    best_val, best_pt = np.inf, None
    yc = 0.5 * (lo + hi)
    for _ in range(KELLEY_ROUNDS):
        y = y_full.copy()
        y[cont] = yc
        val, grad = v.eval_with_subgradient(y)
        rows.append(np.append(grad[cont], -1.0))
        cut_rhs.append(grad[cont] @ yc - val)
        feasible = True
        for gi, r in zip(g, rhs):
            gval, ggrad = gi.eval_with_subgradient(y)
            if gval - r > FEAS_TOL:
                feasible = False
                rows.append(np.append(ggrad[cont], 0.0))
                cut_rhs.append(r - gval + ggrad[cont] @ yc)
        if feasible and val < best_val:
            best_val, best_pt = val, y
        prob = LinearProgram(cost, np.vstack(rows), np.hstack(cut_rhs), "<=", (False,) * (k + 1))
        sol = solve_lp(prob)
        if not sol.optimal:
            return None
        if best_pt is not None and best_val - sol.value <= 1e-10 * (1.0 + abs(best_val)):
            return best_val, best_pt
        yc = sol.point[:k]
    raise NumericalFailure(f"cutting planes did not close the gap in {KELLEY_ROUNDS} rounds")


def solve_convex_mip_batch(v, g, R, integer_idx, integer_bounds, continuous_idx=(),
                           continuous_box=()) -> Rows:
    """min v(y) s.t. g_i(y) <= rhs_i at every rhs = R[j], with one v, g and
    set of boxes: the integer coordinates integer_idx in integer_bounds and
    the continuous ones continuous_idx searched over continuous_box, the two
    index lists together 0, ..., n - 1.  One row of Rows per program,
    bit-identical to solving each row alone.

    Integer assignments are enumerated in lattice_points order and the best
    feasible slice is kept (an improvement must exceed 1e-15).  Without
    continuous coordinates a slice is one point: v and every g_i are
    evaluated once on the lattice for all rows, and each point is checked
    against g_i <= rhs_i + FEAS_TOL (the violation max_i(g_i - rhs_i) taken
    left to right, as Python's max takes it).  A continuous slice is solved
    per row by Kelley's cutting planes (_kelley_slice): its value is within
    a relative 1e-10 of an LP lower bound, and it is reported infeasible
    only when the cut LP is, which proves it.  NumericalFailure is raised
    when a slice does not close its gap within KELLEY_ROUNDS rounds.  More
    than MAX_LATTICE_POINTS integer assignments raise
    ConstraintLimitExceeded before any is tried.  Errors are raised for the
    batch, with the message a single row would give."""
    g = tuple(g)
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[1] != len(g):
        raise DimMismatch("one rhs entry per constraint expression")
    if not np.all(np.isfinite(R)):
        raise OutOfRange("non-finite entries in rhs")
    n = len(integer_idx) + len(continuous_idx)
    idx, bounds = _integer_boxes(integer_idx, integer_bounds, n)
    cont, box = _integer_boxes(continuous_idx, continuous_box, n, "continuous")
    if sorted(idx + cont) != list(range(n)):
        raise InvalidSpec(f"integer and continuous indices must together be 0, ..., {n - 1}")
    pts = lattice_points(bounds)
    Y = np.zeros((len(pts), n))
    Y[:, list(idx)] = pts
    out = Rows.infeasible(len(R), n)
    if cont:
        lo, hi = _box_arrays(box)
        cont = list(cont)
        for j, rhs in enumerate(R):
            best_val, best_pt = np.inf, None
            for y_full in Y:
                found = _kelley_slice(v, g, rhs, y_full, cont, lo, hi)
                if found is not None and found[0] < best_val - 1e-15:
                    best_val, best_pt = found
            if best_pt is not None:
                out.put(j, best_val, best_pt)
        return out
    V = v.values(Y)
    G = np.array([gi.values(Y) for gi in g]).reshape(len(g), len(Y))
    best = np.full(len(R), np.inf)
    arg = np.full(len(R), -1)
    for l, val in enumerate(V):
        viol = np.full(len(R), -np.inf)
        for i in range(len(g)):
            d = G[i, l] - R[:, i]
            viol = d if i == 0 else np.where(d > viol, d, viol)
        better = (viol <= FEAS_TOL) & (val < best - 1e-15)
        best[better] = val
        arg[better] = l
    hit = arg >= 0
    out.put(hit, best[hit], Y[arg[hit]])
    return out
