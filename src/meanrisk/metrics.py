"""Probability metrics between two DiscreteMeasures of one dimension; on
the line they compare laws of real quantities, such as the images
f(x, .)#nu that the risk functionals read, with the same code.

A function with |f| <= 1 and Lip(f) <= 1 is, up to a shift that leaves
int f d(mu - nu) unchanged, 1-Lipschitz for min(||x - y||, 2); so the
bounded-Lipschitz (weak) metric is the cost of transporting (mu - nu)^+
onto (mu - nu)^- under that truncated distance.  On the line that is a
flow along the atoms and through a hub one unit from each, solved exactly
by a slope-trick dynamic program (Johnson, J. Comput. Graph. Stat. 22,
2013).  The gauge-weighted metric adds the gap of the ||.||^q integrals.
Wasserstein distances use the quantile coupling in one dimension, on the
canonical form of each measure (measure.canonical_line), and otherwise the
cost of an optimal transport plan, which transport_plan returns without the
plan itself.  The Fortet-Mourier cost is reduced by all-pairs
shortest paths before transporting the positive against the negative part
of mu - nu; on the line the reduced cost adds up over adjacent atoms, a
closed form in the CDF gap (Rachev and Roemisch, Math. Oper. Res. 27,
2002).  Between two lists of n atoms that all carry the same weight, as two
n-atom empirical measures or the two parts of their difference do, every
vertex of the coupling polytope is a permutation (Birkhoff-von Neumann), so
the plan is an assignment solved without an LP.  Other plans are LPs built
sparse, one variable per (source, target) pair.  Both are refused with
ConstraintLimitExceeded above MAX_PLAN_ENTRIES pairs before anything of that
size is allocated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import ConstraintLimitExceeded, DimMismatch, EmptySupport, InvalidSpec, OutOfRange
from .errors import finite_result, in_range
from .measure import DiscreteMeasure, _cumulative, _merge_sorted, _tail_sums, canonical_line
from .measure import moment

# largest transport plan (source x target atoms), and largest squared union
# support for the Fortet-Mourier shortest paths; HiGHS needs about 1 KB per
# plan entry
MAX_PLAN_ENTRIES = 1_000_000


def _union_support(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Merged support of two measures with both weight vectors aligned on it."""
    pts = np.vstack([mu.points, nu.points])
    w = np.zeros((len(pts), 2))
    w[: len(mu), 0] = mu.weights
    w[len(mu) :, 1] = nu.weights
    order = np.lexsort(pts.T[::-1])
    pts, w = _merge_sorted(pts[order], w[order])
    return pts, w[:, 0], w[:, 1]


def _check_dims(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.dim != nu.dim:
        raise DimMismatch(f"measure dims {mu.dim} vs {nu.dim}")


def _check_plan_size(n_src: int, n_dst: int):
    if n_src * n_dst > MAX_PLAN_ENTRIES:
        raise ConstraintLimitExceeded(f"{n_src} x {n_dst} plan > {MAX_PLAN_ENTRIES} entries")


def _distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    _check_plan_size(len(X), len(Y))
    return np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=2)


def _signed_parts(delta: np.ndarray):
    """Indices of the positive and of the negative part of a signed weight."""
    return np.where(delta > 1e-15)[0], np.where(delta < -1e-15)[0]


def _bl_line(t: np.ndarray, a: np.ndarray) -> float:
    """BL of the signed weight a on sorted atoms t.  The hub flow sums H
    (H_0 = 0, H_m = A_m, A the partial sums of a) minimize the sum over i
    of |H_i - H_(i-1)| + w_i |A_i - H_i|, w_i = min(t_(i+1) - t_i, 2) and
    w_m = 1.  Slope trick: the cost-to-go is ``low`` plus [position, slope]
    breakpoints left (``lo``, in H) and right (``hi``, in -H) of its minimum,
    inner end last, each side of total slope 1 after each hub step."""
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


def bounded_lipschitz(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """sup { int f dmu - int f dnu : ||f||_inf <= 1, Lip(f) <= 1 }.

    In one dimension, the exact dynamic program of ``_bl_line`` (no LP).  In
    higher dimensions, the transport cost of (mu - nu)^+ onto (mu - nu)^-
    under min(||x - y||, 2).
    """
    _check_dims(mu, nu)
    pts, w1, w2 = _union_support(mu, nu)
    a = w1 - w2
    pos, neg = _signed_parts(a)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    if mu.dim == 1:
        return _bl_line(pts[:, 0], a)
    cost = np.minimum(_distances(pts[pos], pts[neg]), 2.0)
    return max(0.0, transport_plan(a[pos], -a[neg], cost))


def transport_plan(w_src, w_dst, cost_matrix: np.ndarray) -> float:
    """Cost of an optimal coupling of two nonnegative weight vectors of equal
    mass.

    When both sides have n atoms and every weight on both is the same
    positive float w (two n-atom empirical measures, or the two parts of
    their difference), the coupling polytope is w times the Birkhoff
    polytope, whose vertices are the permutation matrices (Birkhoff-von
    Neumann): an optimal assignment (scipy's linear_sum_assignment) is an
    optimal plan, with n entries of mass w.  Any other input is an LP over
    the plan entries with sparse marginal rows; the final target-marginal
    row is dropped as redundant, which removes the worst degeneracy; its plan
    is read with entries up to 1e-14 set to zero, and a marginal off by more
    than 1e-9 raises OutOfRange.  Raises ConstraintLimitExceeded above
    MAX_PLAN_ENTRIES entries and InvalidSpec on a non-finite cost.
    """
    w_src = np.asarray(w_src, dtype=float)
    w_dst = np.asarray(w_dst, dtype=float)
    C = np.asarray(cost_matrix, dtype=float)
    n_s, n_d = C.shape
    if len(w_src) != n_s or len(w_dst) != n_d:
        raise DimMismatch("cost matrix shape must match the weight vectors")
    _check_plan_size(n_s, n_d)
    if abs(w_src.sum() - w_dst.sum()) > 1e-9:
        raise OutOfRange("transport requires equal total masses")
    if not np.all(np.isfinite(C)):
        raise InvalidSpec("non-finite entries in c")
    w = w_src[0] if n_s else 0.0
    if n_s == n_d and w > 0.0 and np.all(w_src == w) and np.all(w_dst == w):
        import scipy.optimize

        src, dst = scipy.optimize.linear_sum_assignment(C)
        # fsum: the same value whichever measure is the source
        return math.fsum(w * C[src, dst])
    import scipy.sparse

    # rows i < n_s are the source marginals and rows n_s + j the target
    # marginals of j < n_d - 1; plan entry (i, j) is variable i n_d + j
    # (int32 indices, which scipy.sparse picks itself at this size)
    var = np.arange(n_s * n_d, dtype=np.int32)
    tgt = var[var % n_d < n_d - 1]
    rows = np.concatenate([var // n_d, n_s + tgt % n_d])
    cols = np.concatenate([var, tgt])
    A = scipy.sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                               shape=(n_s + n_d - 1, n_s * n_d))
    b = np.concatenate([w_src, w_dst[:-1]])
    sol = optim.solve_lp(optim.LinearProgram(C.reshape(-1), A, b))
    if not sol.optimal:
        raise OutOfRange(f"transport LP came back {sol.status}")
    plan = sol.point.reshape(n_s, n_d)
    plan = np.where(plan > 1e-14, plan, 0.0)
    err = max(np.max(np.abs(plan.sum(axis=1) - w_src)), np.max(np.abs(plan.sum(axis=0) - w_dst)))
    if err > 1e-9:
        raise OutOfRange(f"transport marginals off by {err:.2e}")
    return float(np.sum(plan * C))


def wasserstein(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Order-q Wasserstein distance (min transport cost ||x-y||^q, then the
    q-th root).  In one dimension the quantile coupling integral is exact:
    int_0^1 |Q_mu - Q_nu|^q dbeta over the merged cumulative grid.  A value
    or cost that overflows raises OutOfRange."""
    _check_dims(mu, nu)
    in_range(q, "order q", ge=1)
    if mu.dim == 1:
        mu, nu = canonical_line(mu), canonical_line(nu)
        cums = [_cumulative(mu.weights), _cumulative(nu.weights)]
        cuts = np.union1d(*cums)
        cuts = cuts[(cuts > 0.0) & (cuts <= 1.0)]
        prev = np.concatenate(([0.0], cuts[:-1]))
        mids = 0.5 * (prev + cuts)
        # the quantiles at mids, read as measure.quantile reads them
        q_mu, q_nu = (m.points[np.searchsorted(c, mids), 0] for m, c in zip((mu, nu), cums))
        with np.errstate(over="ignore"):
            gaps = np.abs(q_mu - q_nu) ** q
        return finite_result(float(gaps @ (cuts - prev)) ** (1.0 / q), "wasserstein", q)
    with np.errstate(over="ignore"):
        C = _distances(mu.points, nu.points) ** q
    finite_result(float(C.max()), "wasserstein cost ||x - y||^q", q)
    return max(0.0, transport_plan(mu.weights, nu.weights, C)) ** (1.0 / q)


def _floyd_warshall(C: np.ndarray) -> np.ndarray:
    D = C.copy()
    for k in range(len(D)):
        np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :], out=D)
    return D


def fortet_mourier(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Fortet-Mourier transshipment value of order q.

    Cost ||x-y|| * max(1, ||x||^(q-1), ||y||^(q-1)) on the union support,
    reduced by all-pairs shortest paths so relayed transports are no more
    expensive than direct ones.  On the line, ||t||^(q-1) peaks at an end of
    every segment, so the reduced cost adds up over adjacent atoms and the
    value is sum_i |F_mu - F_nu|(t_i) (t_(i+1) - t_i) max(1, |t_i|^(q-1),
    |t_(i+1)|^(q-1)).  In higher dimensions it is a transport LP between the
    positive and negative parts of mu - nu under the reduced cost.  A value
    or cost that overflows raises OutOfRange.
    """
    _check_dims(mu, nu)
    in_range(q, "order q", ge=1)
    pts, w1, w2 = _union_support(mu, nu)
    delta = w1 - w2
    pos, neg = _signed_parts(delta)
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.maximum(1.0, np.linalg.norm(pts, axis=1) ** (q - 1.0))
        if mu.dim == 1:
            seg = np.diff(pts[:, 0]) * np.maximum(weight[:-1], weight[1:])
            return finite_result(float(np.abs(np.cumsum(delta)[:-1]) @ seg), "fortet_mourier", q)
        C = _floyd_warshall(_distances(pts, pts) * np.maximum(weight[:, None], weight[None, :]))
    C = C[np.ix_(pos, neg)]
    finite_result(float(C.max()), "fortet_mourier reduced cost", q)
    return max(0.0, transport_plan(delta[pos], -delta[neg], C))


def psi_metric(mu: DiscreteMeasure, nu: DiscreteMeasure, q: float) -> float:
    """Gauge-weighted distance: weak metric plus the gap of the ||.||^q
    integrals.  Metrizes convergence in distribution together with
    convergence of the q-th moments; OutOfRange when a moment overflows."""
    _check_dims(mu, nu)
    in_range(q, "gauge exponent q", gt=0)
    return bounded_lipschitz(mu, nu) + abs(moment(mu, q) - moment(nu, q))


@dataclass(frozen=True)
class UniformIntegrabilityReport:
    """Family-sup tail integrals over a threshold grid, with a verdict.

    The verdict is relative to the supplied grid: it passes iff the sup
    tail falls below eps at some grid point and stays below through the end.
    """

    q: float
    a_grid: np.ndarray
    tails: np.ndarray  # (n_measures, n_grid)
    sup_tails: np.ndarray
    verdict: bool
    eps: float


def diagnose_uniform_integrability(
    family, q: float, a_grid, eps: float = 1e-9
) -> UniformIntegrabilityReport:
    family = list(family)
    if not family:
        raise EmptySupport("family must be nonempty")
    dims = {m.dim for m in family}
    if len(dims) != 1:
        raise DimMismatch(f"family carries dims {sorted(dims)}")
    q = in_range(q, "tail exponent q", gt=0)
    grid = np.sort(np.asarray(a_grid, dtype=float))
    for a in grid:
        in_range(a, "thresholds", ge=0)
    tails = np.array([_tail_sums(m, q, grid) for m in family])
    sup_tails = tails.max(axis=0)
    below = sup_tails <= eps
    verdict = bool(np.any(below) and np.all(below[int(np.argmax(below)) :]))
    return UniformIntegrabilityReport(
        q=q,
        a_grid=grid,
        tails=tails,
        sup_tails=sup_tails,
        verdict=verdict,
        eps=float(eps),
    )

