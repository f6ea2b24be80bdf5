"""Independent ground-truth oracles used by the test suite.

Everything here deliberately avoids the code paths it checks: risk values
come from plain sums and dense level grids (and the risk of Q's value rows
also from each row's merged image measure, the path Q took before it read
the rows directly), LP optima from basis enumeration, LP duals from
HiGHS, canonical merges from a row-by-row loop, parsed atoms from a
per-atom conversion loop, mixed-integer optima from
closed-form one-variable solves per lattice assignment, mixed-integer LPs
and QPs from the per-input depth-first branch and bound that ``optim`` ran
before its batched lockstep form (one tree per input, and per relaxation one
``optim.solve_lp`` tableau LP or a KKT enumeration with one
``np.linalg.solve`` per active set), mixed-integer convex optima from the
per-program lattice loop that ``optim`` ran before its batched table,
expression values and subgradients from the per-point tree walk that
``exprs`` ran before it evaluated rows, parameter maps one point at a time,
recourse values from one solve per (x, z) with no batching, bunching or
stored certificates, QP optima too large to enumerate from a KKT
certificate whose multipliers come from ``scipy.optimize.nnls``,
one-dimensional convex minima from dense grids, polyhedral convex slices
from one ``scipy.optimize.linprog`` LP, and disc-slab slivers in closed
form.
Metric values come from the dense formulations,
solved by ``scipy.optimize.linprog`` directly: the bounded-Lipschitz LP with
one Lipschitz row per ordered pair of atoms, and transport LPs with one
dense marginal row per atom; on the line also from the LP with Lipschitz
rows between adjacent atoms only, which ``metrics`` solved before its
dynamic program, and from that program's first form, whose breakpoint
fragments multiply on near-cancelling data.  Trend slopes come from the
centred normal equations of a least-squares line, and SAA draws from
``rng.choice`` over the base atoms (measure_sampler).
"""

import bisect
import itertools
import math

import numpy as np
import scipy.optimize
import scipy.sparse

from meanrisk import optim
from meanrisk.errors import (
    ConstraintLimitExceeded,
    DimMismatch,
    InvalidSpec,
    NumericalFailure,
    OutOfRange,
    RecourseInfeasible,
    RecourseUnbounded,
)
from meanrisk.measure import POINT_TOL, DiscreteMeasure, quantile
from meanrisk.risk import evaluate_risk


def merge_sorted_oracle(points, weights):
    """Row-by-row anchor merge of a lexicographically sorted point array: a
    row joins the current group if every coordinate is within POINT_TOL of
    the group's first row, and weights (one per row, or one row per row) are
    added with a running sum."""
    out_pts = []
    out_wts = []
    anchor = points[0]
    acc = weights[0]
    for i in range(1, len(points)):
        if np.all(np.abs(points[i] - anchor) <= POINT_TOL):
            acc = acc + weights[i]
        else:
            out_pts.append(anchor)
            out_wts.append(acc)
            anchor = points[i]
            acc = weights[i]
    out_pts.append(anchor)
    out_wts.append(acc)
    return np.array(out_pts, dtype=float), np.array(out_wts, dtype=float)


def line_measure(values, weights) -> DiscreteMeasure:
    """The canonical measure on the line with these atom values and weights."""
    return DiscreteMeasure(np.reshape(values, (-1, 1)), weights)


def image_risk_oracle(spec, values, weights) -> np.ndarray:
    """rho of each row's image measure, merged first: the DiscreteMeasure of
    the row with the weights, then evaluate_risk, the path Q took before it
    read the value rows directly."""
    return np.array([evaluate_risk(spec, line_measure(row, weights)) for row in values])


def cumulative_weights(mu: DiscreteMeasure) -> np.ndarray:
    """Running sums of a canonical measure's weights, the last pinned to 1."""
    cum = np.cumsum(mu.weights)
    cum[-1] = 1.0
    return cum


def parse_atoms_oracle(raw_atoms):
    """Point and weight arrays of raw (point, weight) pairs, converted one
    atom at a time as ``measure.canonicalize`` did before it parsed them as
    arrays: each point through ``np.atleast_1d(np.asarray(p, dtype=float))``,
    each weight through ``float``."""
    pts = []
    wts = []
    for point, weight in raw_atoms:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.ndim != 1:
            raise DimMismatch("atom points must be vectors")
        pts.append(p)
        wts.append(float(weight))
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DimMismatch(f"inconsistent atom dimensions {sorted(dims)}")
    return np.array(pts, dtype=float), np.array(wts, dtype=float)


def riemann_avar(dist: DiscreteMeasure, alpha: float, n: int = 1_000_000) -> float:
    """Midpoint Riemann sum of the quantile function over (alpha, 1)."""
    beta = alpha + (np.arange(n) + 0.5) * (1.0 - alpha) / n
    return float(np.mean(quantile(dist, beta)))


def direct_mean(values, weights) -> float:
    return sum(v * w for v, w in zip(values, weights))


def direct_semidev(values, weights, a, p) -> float:
    m = direct_mean(values, weights)
    s = sum(w * max(v - m, 0.0) ** p for v, w in zip(values, weights))
    return m + a * s ** (1.0 / p)


def direct_target_semidev(values, weights, a, c, p) -> float:
    m = direct_mean(values, weights)
    s = sum(w * max(v - c, 0.0) ** p for v, w in zip(values, weights))
    return m + a * s ** (1.0 / p)


def stop_loss_grid(dist: DiscreteMeasure, lo: float, hi: float, n: int = 4001):
    ts = np.linspace(lo, hi, n)
    vals = np.array([sum(w * max(v - t, 0.0) for v, w in zip(dist.points[:, 0], dist.weights))
                     for t in ts])
    return ts, vals


def lp_vertex_oracle(c, A, b, senses, nonneg):
    """Optimal value by enumerating basic solutions of the slack-extended
    system M x = b, x >= 0; assumes the LP is bounded and tiny.

    Bases have size r = rank(M), not one column per row, so redundant rows
    and overdetermined-but-consistent equality systems are covered: a basis
    is r columns of rank r whose solution satisfies every row and is
    nonnegative.  Returns None if and only if the LP is infeasible (this
    includes b outside the range of M)."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(c)
    cols = [A[:, j] for j in range(n)]
    costs = list(c)
    ub_rows = [i for i, s in enumerate(senses) if s == "<="]
    for i in ub_rows:
        e = np.zeros(len(b))
        e[i] = 1.0
        cols.append(e)
        costs.append(0.0)
    # free variables get a mirrored negative copy
    for j in range(n):
        if not nonneg[j]:
            cols.append(-A[:, j])
            costs.append(-c[j])
    M = np.array(cols).T
    r = np.linalg.matrix_rank(M)
    if np.linalg.matrix_rank(np.column_stack([M, b])) > r:
        return None
    tol = 1e-9 * (1.0 + np.linalg.norm(b))
    best = None
    for basis in itertools.combinations(range(M.shape[1]), r):
        B = M[:, basis]
        if np.linalg.matrix_rank(B) < r:
            continue
        x = np.linalg.lstsq(B, b, rcond=None)[0]
        if np.linalg.norm(B @ x - b) > tol or np.any(x < -1e-9):
            continue
        val = sum(costs[j] * xi for j, xi in zip(basis, x))
        if best is None or val < best - 1e-12:
            best = val
    return best


def highs_duals(c, A, b, senses):
    """Row duals y and reduced costs c - A'y of min c.x s.t. A x (senses) b,
    x >= 0, read from HiGHS through scipy.optimize.linprog: y is the
    sensitivity of the optimal value to b (ineqlin/eqlin marginals), in row
    order.  Returns None unless HiGHS reports an optimum."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    ub = [i for i, s in enumerate(senses) if s == "<="]
    eq = [i for i, s in enumerate(senses) if s == "=="]
    res = scipy.optimize.linprog(
        c,
        A_ub=A[ub] if ub else None,
        b_ub=b[ub] if ub else None,
        A_eq=A[eq] if eq else None,
        b_eq=b[eq] if eq else None,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        return None
    y = np.zeros(len(b))
    if ub:
        y[ub] = res.ineqlin.marginals
    if eq:
        y[eq] = res.eqlin.marginals
    return y, c - A.T @ y


def highs_status(c, A, b, senses, nonneg):
    """scipy.optimize.linprog's status for min c.x s.t. A x (senses) b,
    x_j >= 0 where nonneg[j]: 0 optimal, 2 infeasible, 3 unbounded."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    ub = [i for i, s in enumerate(senses) if s == "<="]
    eq = [i for i, s in enumerate(senses) if s == "=="]
    res = scipy.optimize.linprog(
        c,
        A_ub=A[ub] if ub else None,
        b_ub=b[ub] if ub else None,
        A_eq=A[eq] if eq else None,
        b_eq=b[eq] if eq else None,
        bounds=[(0.0, None) if nn else (None, None) for nn in nonneg],
        method="highs",
    )
    return res.status


def interval_from_rows(a_vec, rhs, senses, nonneg_var):
    """Feasible interval of a single variable y subject to rows
    a_i * y (sense_i) rhs_i and optionally y >= 0.  Returns (lo, hi) or None."""
    lo = 0.0 if nonneg_var else -math.inf
    hi = math.inf
    for a, r, s in zip(a_vec, rhs, senses):
        if s == "==":
            if abs(a) < 1e-12:
                if abs(r) > 1e-9:
                    return None
                continue
            t = r / a
            lo = max(lo, t)
            hi = min(hi, t)
        else:  # a*y <= r
            if abs(a) < 1e-12:
                if r < -1e-9:
                    return None
                continue
            if a > 0:
                hi = min(hi, r / a)
            else:
                lo = max(lo, r / a)
    if lo > hi + 1e-9:
        return None
    return lo, hi


def milp_closed_oracle(c, A, b, senses, int_idx, bounds, cont_idx, nonneg_cont=True):
    """Exact optimum for test MILPs with at most one continuous variable."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    assert len(cont_idx) <= 1
    ranges = [np.arange(lo, hi + 1) for lo, hi in bounds]
    best = None
    for assign in itertools.product(*ranges):
        t = np.array(assign, dtype=float)
        resid = b - A[:, int_idx] @ t
        if not cont_idx:
            ok = True
            for r, s in zip(resid, senses):
                if s == "==" and abs(r) > 1e-9:
                    ok = False
                if s == "<=" and r < -1e-9:
                    ok = False
            if ok:
                val = float(c[int_idx] @ t)
                if best is None or val < best - 1e-12:
                    best = val
            continue
        j = cont_idx[0]
        iv = interval_from_rows(A[:, j], resid, senses, nonneg_cont)
        if iv is None:
            continue
        lo, hi = iv
        cj = c[j]
        if cj > 0:
            y = lo
        elif cj < 0:
            y = hi
        else:
            y = lo if math.isfinite(lo) else (hi if math.isfinite(hi) else 0.0)
        if not math.isfinite(y):
            return "unbounded"
        val = float(c[int_idx] @ t + cj * y)
        if best is None or val < best - 1e-12:
            best = val
    return best


def miqp_closed_oracle(D, q, A, b, int_idx, bounds, cont_idx):
    """Exact optimum for test MIQPs with at most one continuous variable."""
    D = np.asarray(D, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    assert len(cont_idx) <= 1
    ranges = [np.arange(lo, hi + 1) for lo, hi in bounds]
    best = None
    for assign in itertools.product(*ranges):
        t = np.array(assign, dtype=float)
        resid = b - A[:, int_idx] @ t if len(b) else np.zeros(0)
        const = float(t @ D[np.ix_(int_idx, int_idx)] @ t + q[int_idx] @ t)
        if not cont_idx:
            if len(b) and np.any(resid < -1e-9):
                continue
            if best is None or const < best - 1e-12:
                best = const
            continue
        j = cont_idx[0]
        senses = ["<="] * len(b)
        iv = interval_from_rows(A[:, j], resid, senses, nonneg_var=False)
        if iv is None:
            continue
        lo, hi = iv
        d = float(D[j, j])
        e = float(q[j] + 2.0 * D[j, int_idx] @ t)
        y = min(max(-e / (2.0 * d), lo), hi)
        val = const + d * y * y + e * y
        if best is None or val < best - 1e-12:
            best = val
    return best


def qp_kkt_oracle(D, q, A, b):
    """Minimum of y'Dy + q.y over A y <= b for positive definite D, by KKT
    active-set enumeration, one input at a time, as optim solved it before
    its dual active-set method: the reference the batched optim sweep must
    match in statuses and errors, and in values within miqp_value_tol."""
    n = len(q)
    m = len(b)
    if m > 20:
        raise ConstraintLimitExceeded(f"{m} rows > 20")
    y_free = np.linalg.solve(2.0 * D, -q)
    if m == 0 or np.all(A @ y_free <= b + optim.FEAS_TOL):
        return optim.Solution("optimal", float(y_free @ D @ y_free + q @ y_free), y_free)
    best = None
    for size in range(1, min(n, m) + 1):
        for S in itertools.combinations(range(m), size):
            As = A[list(S)]
            K = np.zeros((n + size, n + size))
            K[:n, :n] = 2.0 * D
            K[:n, n:] = As.T
            K[n:, :n] = As
            rhs = np.concatenate([-q, b[list(S)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            y, lam = sol[:n], sol[n:]
            if np.max(np.abs(K @ sol - rhs)) > 1e-7:
                continue
            if np.any(lam < -1e-9):
                continue
            if np.any(A @ y > b + optim.FEAS_TOL):
                continue
            val = float(y @ D @ y + q @ y)
            if best is None or val < best[0] - 1e-15:
                best = (val, y)
    if best is not None:
        return optim.Solution("optimal", best[0], best[1])
    # an infeasible certificate LP, or one whose point violates a row by
    # more than FEAS_TOL, means the feasible set is empty
    feas = optim.solve_lp(optim.LinearProgram(np.zeros(n), A, b, senses="<=", nonneg=(False,) * n))
    if feas.optimal and not np.any(A @ feas.point > b + optim.FEAS_TOL):
        raise NumericalFailure("convex QP without a detected KKT point")
    return optim.Solution("infeasible")


def qp_kkt_certificate(D, q, A, b, y, tol=1e-7) -> bool:
    """Whether y is the minimum of y'Dy + q.y over A y <= b for positive
    definite D, by the KKT conditions, for programs too large for
    qp_kkt_oracle's enumeration: every row within FEAS_TOL, multipliers
    lam >= 0 from scipy.optimize.nnls on the rows within tol (1 + |b_i|) of
    equality, stationarity |2Dy + q + A_act'lam| <= tol (1 + |2Dy + q|), and
    complementary slackness |lam_i (b_i - a_i.y)| <= tol on those rows; the
    program is strictly convex, so a KKT point is its minimum."""
    D, q, A, b, y = (np.asarray(v, dtype=float) for v in (D, q, A, b, y))
    slack = b - A @ y
    if np.any(slack < -optim.FEAS_TOL):
        return False
    act = np.abs(slack) <= tol * (1.0 + np.abs(b))
    grad = 2.0 * D @ y + q
    lam = scipy.optimize.nnls(A[act].T, -grad)[0] if act.any() else np.zeros(0)
    stat = grad + A[act].T @ lam
    return bool(np.max(np.abs(stat), initial=0.0) <= tol * (1.0 + np.max(np.abs(grad)))
                and np.all(np.abs(lam * slack[act]) <= tol))


def miqp_bb_oracle(D, q, A, b, int_idx, bounds):
    """Depth-first branch and bound over qp_kkt_oracle relaxations, one tree
    per input: integer boxes appended as rows x_i <= hi, -x_i <= -lo; the
    lowest-index most-fractional coordinate is branched on, the ceil child
    relaxed first and the floor child explored first; a node is pruned when
    it cannot improve the incumbent by more than 1e-12."""
    D, q, A, b = (np.asarray(v, dtype=float) for v in (D, q, A, b))
    A = A.reshape(len(b), len(q))
    if not int_idx:
        return qp_kkt_oracle(D, q, A, b)
    m, k = len(b), len(int_idx)

    def relax(lo, hi):
        A2 = np.zeros((m + 2 * k, len(q)))
        A2[:m] = A
        b2 = np.empty(m + 2 * k)
        b2[:m] = b
        for pos, i in enumerate(int_idx):
            A2[m + 2 * pos, i] = 1.0
            A2[m + 2 * pos + 1, i] = -1.0
        b2[m::2] = hi
        b2[m + 1 :: 2] = -lo
        return qp_kkt_oracle(D, q, A2, b2)

    lo0 = np.array([lo for lo, _ in bounds], dtype=float)
    hi0 = np.array([hi for _, hi in bounds], dtype=float)
    best_val, best_pt = np.inf, None
    stack = [(lo0, hi0, relax(lo0, hi0))]
    while stack:
        lo, hi, rel = stack.pop()
        if not rel.optimal or rel.value >= best_val - 1e-12:
            continue
        pos, score = -1, 1e-9
        for p, i in enumerate(int_idx):
            frac = abs(rel.point[i] - round(rel.point[i]))
            if frac > score + 1e-15:
                pos, score = p, frac
        if pos < 0:
            pt = rel.point.copy()
            for i in int_idx:
                pt[i] = round(float(pt[i]))  # an int, so never -0.0
            if rel.value < best_val - 1e-15:
                best_val, best_pt = rel.value, pt
            continue
        split = np.floor(rel.point[int_idx[pos]] + 1e-9)
        for new_lo, new_hi in ((split + 1.0, hi[pos]), (lo[pos], split)):
            if new_lo > new_hi:
                continue
            l2, h2 = lo.copy(), hi.copy()
            l2[pos], h2[pos] = new_lo, new_hi
            child = relax(l2, h2)
            if child.optimal and child.value < best_val - 1e-12:
                stack.append((l2, h2, child))
    if best_pt is None:
        return optim.Solution("infeasible")
    return optim.Solution("optimal", best_val, best_pt)


def miqp_value_tol(value, A, b, *points) -> float:
    """How far a solve_miqp_batch value may lie from miqp_bb_oracle's value:
    1e-12 (1 + |value|), the round-off between the dual active-set method
    and this enumeration.  Where an optimal point lies within FEAS_TOL of a
    row of A y <= b, either method may have taken a relaxation outside that
    row by up to FEAS_TOL (the enumeration keeps the least value among its
    KKT points that pass), at a value up to a multiplier times FEAS_TOL
    from the other's, so the band is then 10 FEAS_TOL (1 + |value|)."""
    near = any(np.any(np.abs(A @ p - b) <= optim.FEAS_TOL) for p in points)
    return (10 * optim.FEAS_TOL if near else 1e-12) * (1.0 + abs(value))


def milp_bb_oracle(c, A, b, senses, nonneg, idx, bounds):
    """min c.x s.t. A x (senses) b, x_j >= 0 where nonneg[j], x_i integer in
    bounds for i in idx, by depth-first branch and bound over one
    optim.solve_lp relaxation per node, one tree per program, as optim ran
    it before its batched form:
    integer boxes appended as rows x_i <= hi, -x_i <= -lo; the lowest-index
    most-fractional coordinate is branched on, the ceil child relaxed first
    and the floor child explored first; a node is pruned when it cannot
    improve the incumbent by more than 1e-12.  A program whose root
    relaxation is unbounded is unbounded if a zero-cost run finds an
    integer-feasible point and infeasible otherwise."""
    base = optim.LinearProgram(c, A, b, senses, nonneg)
    if not idx:
        return optim.solve_lp(base)
    A = base.A.toarray() if scipy.sparse.issparse(base.A) else base.A
    m, k = A.shape[0], len(idx)
    A2 = np.zeros((m + 2 * k, base.n_vars))
    A2[:m] = A
    for pos, i in enumerate(idx):
        A2[m + 2 * pos, i] = 1.0
        A2[m + 2 * pos + 1, i] = -1.0
    senses = base.senses + ("<=",) * (2 * k)

    def relax(lo, hi):
        b2 = np.empty(m + 2 * k)
        b2[:m] = base.b
        b2[m::2] = hi
        b2[m + 1 :: 2] = -lo
        return optim.solve_lp(optim.LinearProgram(base.c, A2, b2, senses, base.nonneg))

    lo0 = np.array([lo for lo, _ in bounds], dtype=float)
    hi0 = np.array([hi for _, hi in bounds], dtype=float)
    root = relax(lo0, hi0)
    if root.status == "unbounded":
        feas = milp_bb_oracle(np.zeros(base.n_vars), base.A, base.b, base.senses, base.nonneg,
                              idx, bounds)
        return optim.Solution("unbounded" if feas.optimal else "infeasible")
    best_val, best_pt = np.inf, None
    stack = [(lo0, hi0, root)]
    while stack:
        lo, hi, rel = stack.pop()
        if not rel.optimal or rel.value >= best_val - 1e-12:
            continue
        pos, score = -1, 1e-9
        for p, i in enumerate(idx):
            frac = abs(rel.point[i] - round(rel.point[i]))
            if frac > score + 1e-15:
                pos, score = p, frac
        if pos < 0:
            pt = rel.point.copy()
            for i in idx:
                pt[i] = round(float(pt[i]))
            if rel.value < best_val - 1e-15:
                best_val, best_pt = rel.value, pt
            continue
        split = np.floor(rel.point[idx[pos]] + 1e-9)
        for new_lo, new_hi in ((split + 1.0, hi[pos]), (lo[pos], split)):
            if new_lo > new_hi:
                continue
            l2, h2 = lo.copy(), hi.copy()
            l2[pos], h2[pos] = new_lo, new_hi
            child = relax(l2, h2)
            if child.optimal and child.value < best_val - 1e-12:
                stack.append((l2, h2, child))
    if best_pt is None:
        return optim.Solution("infeasible")
    return optim.Solution("optimal", best_val, best_pt)


def expr_point_oracle(e, y):
    """(value, subgradient) of the expression tree e at the point y, one
    node at a time in Python floats (the per-point walk exprs ran before it
    evaluated rows), unchecked: an overflow gives inf."""
    k = e.kind
    if k == "const":
        return e.value0, np.zeros(len(y))
    if k == "var":
        g = np.zeros(len(y))
        g[e.index] = 1.0
        return float(y[e.index]), g
    if k == "affine":
        g = np.zeros(len(y))
        g[: len(e.coeffs)] = e.coeffs
        return affine_fold_oracle(e.coeffs, y, e.value0), g
    if k == "sum":
        total = 0.0
        grad = np.zeros(len(y))
        for c in e.children:
            v, g = expr_point_oracle(c, y)
            total += v
            grad += g
        return total, grad
    if k == "scale":
        v, g = expr_point_oracle(e.children[0], y)
        return e.value0 * v, e.value0 * g
    if k == "max":
        best_v = -np.inf
        best_g = np.zeros(len(y))
        for c in e.children:
            v, g = expr_point_oracle(c, y)
            if v > best_v:
                best_v, best_g = v, g
        return best_v, best_g
    if k == "abs":
        v, g = expr_point_oracle(e.children[0], y)
        return abs(v), np.sign(v) * g
    if k == "pow":
        v, g = expr_point_oracle(e.children[0], y)
        try:
            return v**e.exponent, e.exponent * v ** (e.exponent - 1) * g
        except OverflowError:  # a float power raises where a product gives inf
            return math.inf, g
    assert k == "norm", k
    vals, grads = zip(*(expr_point_oracle(c, y) for c in e.children))
    vals = np.array(vals)
    nrm = float(np.linalg.norm(vals))
    if nrm == 0.0:
        return 0.0, np.zeros(len(y))
    return nrm, sum(v * g for v, g in zip(vals, grads)) / nrm


def expr_value_oracle(e, y):
    """The value of e at y by expr_point_oracle; OutOfRange with the message
    of ConvexExpr.value when it is not finite."""
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        v = expr_point_oracle(e, y)[0]
    if not math.isfinite(v):
        raise OutOfRange(f"expression {e.to_prefix()} at y = {[float(c) for c in y]} is {v}: "
                         "not finite")
    return v


def affine_fold_oracle(a, y, c):
    """a . y + c in Python floats: 0.0 plus a[j] * y[j] for j = 0, 1, ...,
    then c (the order exprs.affine_rows keeps for every row)."""
    total = 0.0
    for aj, yj in zip(a, y):
        total = total + float(yj) * float(aj)
    return total + float(c)


def param_map_oracle(pm, x, z):
    """The map at one point (x, z): one affine_fold_oracle per output for an
    affine map, one expr_value_oracle per output for an expression map."""
    w = np.concatenate([np.atleast_1d(x), np.atleast_1d(z)]).astype(float)
    if pm.is_affine:
        return np.array([affine_fold_oracle(row, w, c) for row, c in zip(pm.matrix, pm.constant)])
    return np.array([expr_value_oracle(e, w) for e in pm.expressions])


def convex_mip_loop_oracle(v, g, rhs, integer_idx, integer_bounds, continuous_idx=(),
                           continuous_box=()):
    """min v(y) s.t. g_i(y) <= rhs_i as a loop over lattice points, one
    program at a time: a pure-integer point is checked against
    max_i(g_i - rhs_i) <= FEAS_TOL with Python's max, a continuous slice
    goes to Kelley's cutting planes, and an improvement must exceed 1e-15."""
    n = len(integer_idx) + len(continuous_idx)
    cont = list(continuous_idx)
    lo = np.array([b[0] for b in continuous_box], dtype=float)
    hi = np.array([b[1] for b in continuous_box], dtype=float)
    best_val, best_pt = np.inf, None
    for assign in optim.lattice_points(integer_bounds):
        y_full = np.zeros(n)
        y_full[list(integer_idx)] = assign
        if cont:
            found = optim._kelley_slice(v, g, rhs, y_full, cont, lo, hi)
            if found is not None and found[0] < best_val - 1e-15:
                best_val, best_pt = found
            continue
        viol = max((expr_value_oracle(gi, y_full) - r for gi, r in zip(g, rhs)), default=-np.inf)
        if viol <= optim.FEAS_TOL:
            val = expr_value_oracle(v, y_full)
            if val < best_val - 1e-15:
                best_val, best_pt = val, y_full.copy()
    if best_pt is None:
        return optim.Solution("infeasible")
    return optim.Solution("optimal", float(best_val), best_pt)


def recourse_row_oracle(model, x, z):
    """f(x, z) solved on its own: solve_lp for linear, milp_bb_oracle for
    milp, miqp_bb_oracle for miqp and convex_mip_loop_oracle for convex_mip,
    a non-finite solver input refused with the error optim gives it (the LP
    constructor's InvalidSpec, OutOfRange for a QP's q or b and for a convex
    program's rhs).  Raises what the recourse module raises at that row,
    the solver's errors about the row's data (InvalidSpec, NumericalFailure,
    OutOfRange) with " at x=[...], z=[...]" appended."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    h = param_map_oracle(model.h_map, xv, zv)
    idx = tuple(range(model.m1, model.m1 + model.m2))
    inputs = {"linear": (), "milp": (), "miqp": ("q", "b"), "convex_mip": ("rhs",)}[model.kind]
    q = param_map_oracle(model.q_map, xv, zv) if model.q_map is not None else None
    try:
        for name in inputs:
            if not np.all(np.isfinite(q if name == "q" else h)):
                raise OutOfRange(f"non-finite entries in {name}")
        if model.kind == "linear":
            sol = optim.solve_lp(optim.LinearProgram(q, model.A, h))
        elif model.kind == "milp":
            bounds = tuple((max(0.0, lo), hi) for lo, hi in model.integer_bounds)
            sol = milp_bb_oracle(model.q, model.A, h, ("==",) * len(h), (True,) * len(model.q), idx,
                                 bounds)
        elif model.kind == "miqp":
            sol = miqp_bb_oracle(model.D, q, model.A, h, idx, model.integer_bounds)
        else:
            sol = convex_mip_loop_oracle(model.v, model.g, h, idx, model.integer_bounds,
                                         tuple(range(model.m1)), model.continuous_box)
    except (InvalidSpec, NumericalFailure, OutOfRange) as err:  # the row's data: name the row
        err.args = (f"{err} at x={xv.tolist()}, z={zv.tolist()}",) + err.args[1:]
        raise
    if sol.status == "infeasible":
        detail = ""
        if model.kind == "convex_mip" and model.m1:
            detail = "certified: the cutting-plane LP of every continuous slice is infeasible"
        raise RecourseInfeasible(xv, zv, detail)
    if sol.status == "unbounded":
        raise RecourseUnbounded(xv, zv)
    return sol.value


def convex_grid_oracle(v, gs, rhs, box_lo, box_hi, step=1e-3):
    """Dense-grid minimum of a one-dimensional convex slice."""
    ys = np.arange(box_lo, box_hi + step / 2, step)
    best = None
    for y in ys:
        yv = np.array([y])
        if all(expr_value_oracle(g, yv) <= r + 1e-9 for g, r in zip(gs, rhs)):
            val = expr_value_oracle(v, yv)
            if best is None or val < best:
                best = val
    return best


def polyhedral_slice_oracle(V, v0, G, g0, r, lo, hi):
    """min max_j (V_j.y + v0_j)  s.t.  |G_i.y + g0_i| <= r_i,  lo <= y <= hi,
    as one epigraph LP over (y, t); None when it is infeasible."""
    k = V.shape[1]
    A = np.vstack(
        [
            np.hstack([V, -np.ones((len(V), 1))]),
            np.hstack([G, np.zeros((len(G), 1))]),
            np.hstack([-G, np.zeros((len(G), 1))]),
        ]
    )
    b = np.concatenate([-v0, r - g0, r + g0])
    c = np.zeros(k + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c,
        A_ub=A,
        b_ub=b,
        bounds=list(zip(lo, hi)) + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def sliver_oracle(w, c, R, a, s0, eps):
    """min w.y  s.t.  |a.(y - c) - s0| <= eps,  |y - c| <= R  for a unit a
    and 0 <= s0 - eps < R (the box must not bind).

    With y = c + s a + u a_perp the objective is w.c + s w.a + u w.a_perp,
    minimized at u = -sign(w.a_perp) sqrt(R^2 - s^2); that is convex in s
    with its stationary point at s = -R w.a / |w|, so the minimum sits at
    the stationary point clipped to the slab."""
    perp = np.array([-a[1], a[0]])
    s_hi = min(s0 + eps, R)
    s = min(max(-R * (w @ a) / np.linalg.norm(w), s0 - eps), s_hi)
    return float(w @ c + s * (w @ a) - abs(w @ perp) * math.sqrt(R * R - s * s))


def avar_ru_oracle(values, weights, alpha: float) -> float:
    """AVaR of the law with these weights on these values, as given (neither
    sorted nor merged), as min over t of t + E[(Y-t)^+]/(1-alpha)
    (Rockafellar-Uryasev).

    The objective is piecewise linear and convex in t with kinks at the atom
    values, so minimizing over the atom grid is exact."""
    values = np.asarray(values, dtype=float)
    excess = np.clip(values[None, :] - values[:, None], 0.0, None) @ np.asarray(weights)
    return float(np.min(values + excess / (1.0 - alpha)))


def comonotone_mixture(mu: DiscreteMeasure, nu: DiscreteMeasure, lam: float):
    """Law of lam*Q_mu(U) + (1-lam)*Q_nu(U) for a common uniform U, built
    on the merged cumulative-weight grid of the two canonical inputs."""
    cuts = np.union1d(cumulative_weights(mu), cumulative_weights(nu))
    cuts = cuts[(cuts > 0.0) & (cuts <= 1.0)]
    prev = np.concatenate(([0.0], cuts[:-1]))
    mids = 0.5 * (prev + cuts)
    vals = lam * quantile(mu, mids) + (1.0 - lam) * quantile(nu, mids)
    return line_measure(vals, cuts - prev)


def quantized_distribution(rng, max_atoms=50, denom=10_000, value_scale=10.0):
    """Random measure on the line whose weights are exact multiples of 1/denom,
    so cumulative weights land exactly on the Riemann oracle's cell edges."""
    k = int(rng.integers(2, max_atoms + 1))
    cuts = np.sort(rng.choice(np.arange(1, denom), size=k - 1, replace=False))
    counts = np.diff(np.concatenate(([0], cuts, [denom])))
    values = rng.uniform(-value_scale, value_scale, size=k)
    return line_measure(values, counts / denom)


def random_distribution(rng, max_atoms=20, value_scale=5.0):
    k = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(-value_scale, value_scale, size=k)
    weights = rng.uniform(0.1, 1.0, size=k)
    return line_measure(values, weights / weights.sum())


def _linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)) -> float:
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def union_atoms(mu, nu):
    """Distinct points of both measures (exact equality) with mu - nu on them."""
    pts, inv = np.unique(np.vstack([mu.points, nu.points]), axis=0, return_inverse=True)
    signed = np.zeros(len(pts))
    np.add.at(signed, inv.ravel(), np.concatenate([mu.weights, -nu.weights]))
    return pts, signed


def pairwise_bl_oracle(mu, nu) -> float:
    """sup a.f over |f_i| <= 1 and f_i - f_j <= ||x_i - x_j|| for every
    ordered pair of union atoms: m(m-1) dense Lipschitz rows."""
    pts, a = union_atoms(mu, nu)
    m = len(pts)
    rows, rhs = [], []
    for i in range(m):
        for j in range(m):
            if i != j:
                r = np.zeros(m)
                r[i], r[j] = 1.0, -1.0
                rows.append(r)
                rhs.append(np.linalg.norm(pts[i] - pts[j]))
    if not rows:
        return 0.0
    return -_linprog(-a, np.array(rows), np.array(rhs), bounds=(-1.0, 1.0))


def bl_line_oracle(t, a) -> float:
    """BL of the signed weight a on sorted atoms t, by the slope-trick
    program ``metrics._bl_line`` ran before its heap form.  The hub flow
    sums H (H_0 = 0, H_m = A_m, A the partial sums of a) minimize the sum over i
    of |H_i - H_(i-1)| + w_i |A_i - H_i|, w_i = min(t_(i+1) - t_i, 2) and
    w_m = 1.  Slope trick: the cost-to-go is ``low`` plus [position, slope]
    breakpoints left (``lo``, in H) and right (``hi``, in -H) of its minimum,
    inner end last, each side of total slope 1 after each hub step.  Each
    step moves slope w across the minimum one fragment at a time, so
    near-cancelling data (jitter pairs) multiply the fragments."""
    low, lo, hi = 0.0, [[0.0, 1.0]], [[0.0, 1.0]]
    with np.errstate(over="ignore"):  # an inf gap between far atoms costs 2
        gaps = np.minimum(np.diff(t), 2.0)
    for x, w in zip(np.cumsum(a).tolist(), gaps.tolist() + [1.0]):
        near, far, y = (hi, lo, -x) if -x < hi[-1][0] else (lo, hi, x)
        bisect.insort(near, [y, 2.0 * w])
        rest = w
        while rest > 0.0:
            p, v = near.pop()
            if v > rest:
                near.append([p, v - rest])
            far.append([-p, min(v, rest)])
            low += min(v, rest) * (p - y)
            rest -= v
        for side in lo, hi:
            side[0][1] -= w
            while side[0][1] <= 0.0:
                side[1][1] += side.pop(0)[1]
    return low


def adjacent_bl_lp_oracle(t, a) -> float:
    """BL of the signed weight a on sorted 1-D atoms t by one optim.solve_lp
    LP over g = f + 1: rows |g_(i+1) - g_i| <= t_(i+1) - t_i and g <= 2,
    with g >= 0, 3m - 2 sparse rows in all (Lipschitz bounds between
    adjacent atoms imply all others)."""
    m, gaps = len(t), np.diff(t)
    step = scipy.sparse.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(m - 1, m))
    A = scipy.sparse.vstack([step, -step, scipy.sparse.diags_array(np.ones(m))])
    b = np.concatenate([gaps, gaps, np.full(m, 2.0)])
    sol = optim.solve_lp(optim.LinearProgram(-a, A, b, "<="))
    # int f d(mu - nu) = a.g - sum(a) for f = g - 1
    return max(0.0, -sol.value - float(np.sum(a)))


def kron_marginal_rows(n_s: int, n_d: int):
    """The marginal rows of an n_s x n_d transport LP as Kronecker products:
    I (x) 1' for the sources, then 1' (x) [I 0] for all targets but the
    last, over the plan entries in row-major order."""
    src_rows = scipy.sparse.kron(scipy.sparse.diags_array(np.ones(n_s)), np.ones((1, n_d)))
    dst_rows = scipy.sparse.kron(np.ones((1, n_s)),
                                 scipy.sparse.diags_array(np.ones(n_d - 1), shape=(n_d - 1, n_d)))
    return scipy.sparse.vstack([src_rows, dst_rows])


def dense_transport_oracle(w_src, w_dst, C) -> float:
    """Minimum of <P, C> over couplings P of w_src and w_dst, every marginal
    row written out densely."""
    C = np.asarray(C, dtype=float)
    n_s, n_d = C.shape
    rows, rhs = [], []
    for i in range(n_s):
        r = np.zeros((n_s, n_d))
        r[i, :] = 1.0
        rows.append(r.ravel())
        rhs.append(w_src[i])
    for j in range(n_d):
        r = np.zeros((n_s, n_d))
        r[:, j] = 1.0
        rows.append(r.ravel())
        rhs.append(w_dst[j])
    return _linprog(C.ravel(), A_eq=np.array(rows), b_eq=np.array(rhs))


def fortet_mourier_oracle(mu, nu, q) -> float:
    """Cost ||x-y|| max(1, ||x||^(q-1), ||y||^(q-1)) over the union atoms,
    closed under relays by Floyd-Warshall in plain loops, then a dense
    transport of (mu - nu)^+ onto (mu - nu)^-."""
    pts, a = union_atoms(mu, nu)
    m = len(pts)
    g = [max(1.0, float(np.linalg.norm(p)) ** (q - 1.0)) for p in pts]
    D = [[float(np.linalg.norm(pts[i] - pts[j])) * max(g[i], g[j]) for j in range(m)] for i in range(m)]
    for k in range(m):
        for i in range(m):
            for j in range(m):
                D[i][j] = min(D[i][j], D[i][k] + D[k][j])
    pos, neg = np.where(a > 1e-15)[0], np.where(a < -1e-15)[0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    C = np.array(D)[np.ix_(pos, neg)]
    return dense_transport_oracle(a[pos], -a[neg], C)


def wasserstein_transport_oracle(mu, nu, q) -> float:
    C = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=2) ** q
    return max(0.0, dense_transport_oracle(mu.weights, nu.weights, C)) ** (1.0 / q)


def sorted_matching_wq(x, y, q) -> float:
    """W_q between two equal-size, equally weighted samples on the line:
    the i-th smallest of one is matched with the i-th smallest of the other."""
    x, y = np.sort(np.asarray(x, dtype=float)), np.sort(np.asarray(y, dtype=float))
    return float(np.mean(np.abs(x - y) ** q)) ** (1.0 / q)


def wasserstein_union1d_grid(mu: DiscreteMeasure, nu: DiscreteMeasure, q) -> float:
    """W_q on the line by the quantile coupling on the cuts of
    np.union1d(F_mu, F_nu) in (0, 1]: the arithmetic of the 1-D branch of
    metrics.wasserstein term for term, so the two agree bit for bit when
    their grids do."""
    cums = [cumulative_weights(mu), cumulative_weights(nu)]
    cuts = np.union1d(*cums)
    cuts = cuts[(cuts > 0.0) & (cuts <= 1.0)]
    prev = np.concatenate(([0.0], cuts[:-1]))
    mids = 0.5 * (prev + cuts)
    q_mu, q_nu = (m.points[np.searchsorted(c, mids), 0] for m, c in zip((mu, nu), cums))
    return float(np.abs(q_mu - q_nu) ** q @ (cuts - prev)) ** (1.0 / q)


def measure_sampler(m: DiscreteMeasure):
    """Sampler drawing i.i.d. atoms of m according to its weights."""

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(m), size=n, p=m.weights)
        return m.points[idx]

    return draw


def trend_slope_oracle(values) -> float:
    """Least-squares slope of log(value) against log(step), steps 1, 2, ...,
    over the positive entries only, from the centred normal equations; 0.0
    with fewer than two positive entries."""
    pts = [(math.log(k), math.log(v)) for k, v in enumerate(values, start=1) if v > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
