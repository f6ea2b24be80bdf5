"""Finitely supported probability measures on R^d, one type for all of them.

A DiscreteMeasure is canonical by construction: its atoms are sorted in
lexicographic coordinate order, merged, and renormalized to total weight
one, so equal laws are equal arrays.  The merge walks the sorted rows and
adds a row to the current atom when every coordinate is within POINT_TOL
(1e-12) of that atom's first row, its anchor; any other row becomes the next
anchor.  Closeness is measured against the anchor, not the previous row, so
it is not transitive: a chain of rows each within 1e-12 of its predecessor
splits once it drifts more than 1e-12 from the anchor.  All values are
immutable after construction and every operation is pure, so concurrent
reads are safe.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimMismatch, EmptySupport, NegativeWeight, OutOfRange, as_int, finite_result
from .errors import float_array, in_range

POINT_TOL = 1e-12

Sampler = Callable[[np.random.Generator, int], np.ndarray]


def _group_end(points: np.ndarray, a: int, stop: int) -> int:
    """First row in (a, stop) not within POINT_TOL of row a, else stop.

    Scans blocks of doubling length, so a group of k rows costs O(k)."""
    lo, step = a + 1, 8
    while lo < stop:
        hi = min(lo + step, stop)
        off = np.any(np.abs(points[lo:hi] - points[a]) > POINT_TOL, axis=1)
        if off.any():
            return lo + int(np.argmax(off))
        lo, step = hi, 2 * step
    return stop


# a gap between atoms near +-1e308 overflows to inf, which is > POINT_TOL
@np.errstate(over="ignore")
def _anchor_starts(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of a sorted array that start a group under
    the anchor rule.

    Splitting wherever consecutive rows differ by more than POINT_TOL gives
    the anchor groups exactly when every row is within POINT_TOL of its
    group's first row and no group's first row is within POINT_TOL of the
    previous group's.  Where that check fails, only the affected segments
    (runs with first-coordinate gaps <= POINT_TOL, which no anchor group
    crosses) are re-split by the anchor rule, one group at a time.  The
    consecutive test reduces slice differences by np.logical_or.reduce: the
    bits of np.any over np.diff(points, axis=0), without their helpers.
    """
    n = len(points)
    start = np.ones(n, dtype=bool)
    np.logical_or.reduce(np.abs(points[1:] - points[:-1]) > POINT_TOL, axis=1, out=start[1:])
    if start.all():  # singletons are their own anchors, each > POINT_TOL past the last
        return start
    starts = np.flatnonzero(start)
    gid = np.cumsum(start) - 1
    bad = np.zeros(len(starts), dtype=bool)
    bad[gid[np.any(np.abs(points - points[starts[gid]]) > POINT_TOL, axis=1)]] = True
    bad[1:] |= np.all(np.abs(points[starts[1:]] - points[starts[:-1]]) <= POINT_TOL, axis=1)
    if not bad.any():
        return start
    seg_start = np.ones(n, dtype=bool)
    seg_start[1:] = np.diff(points[:, 0]) > POINT_TOL
    seg_bounds = np.append(np.flatnonzero(seg_start), n)
    seg = np.cumsum(seg_start) - 1
    for k in np.unique(seg[starts[bad]]):
        a, stop = seg_bounds[k], seg_bounds[k + 1]
        start[a:stop] = False
        while a < stop:
            start[a] = True
            a = _group_end(points, a, stop)
    return start


def _group_sums(weights: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Weights added left to right within each group (rows starts[g] up to
    starts[g + 1]), bit for bit as a running ``acc = acc + w`` gives them;
    ``np.add.reduceat`` rounds differently.  Loops over groups or over
    positions within a group, whichever count is smaller."""
    sizes = np.diff(np.append(starts, len(weights)))
    longest = int(sizes.max())
    if len(starts) <= longest:
        return np.array(
            [np.cumsum(weights[s : s + k], axis=0)[-1] for s, k in zip(starts, sizes)]
        )
    acc = weights[starts]
    for k in range(1, longest):
        live = sizes > k
        acc[live] += weights[starts[live] + k]
    return acc


def _merge_sorted(points: np.ndarray, weights: np.ndarray):
    """Merge the rows of a lexicographically sorted point array by the
    anchor rule (module docstring), adding weights (one weight per row, or
    one row of weights per row).  Returns the anchors and the group sums,
    the arrays themselves when every row is its own atom."""
    starts = np.flatnonzero(_anchor_starts(points))
    if len(starts) == len(points):
        return points, weights
    return points[starts], _group_sums(weights, starts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _check_atoms(points: np.ndarray, weights: np.ndarray) -> float:
    """At least one atom, finite points and weights, none negative and a
    finite positive total, which is returned.  NaN and inf carry into sums,
    so three reductions pass a valid measure; others get the checks below."""
    if len(weights) == 0:
        raise EmptySupport("no atoms")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(weights.sum())
        if 0 < total < math.inf and math.isfinite(points.sum()) and weights.min() >= 0:
            return total
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
        raise OutOfRange("atom points and weights must be finite")
    if np.any(weights < 0):
        raise NegativeWeight("negative atom weight")
    if total <= 0:
        raise EmptySupport("total weight is zero")
    return finite_result(total, "total weight")


def _renormalize(weights: np.ndarray) -> np.ndarray:
    """Divide by the total unless it is already 1 within 1e-12; the skip
    makes canonicalization exactly idempotent."""
    total = float(weights.sum())
    if abs(total - 1.0) <= 1e-12:
        return weights
    return weights / total


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported Borel probability measure on R^d.

    Built from an (n, d) point array with d >= 1 and n nonnegative weights
    of finite positive total: the atoms are validated, sorted, merged by the
    anchor rule (module docstring) and renormalized, so ``points`` holds k
    distinct anchors in lexicographic order and ``weights`` sums to one
    within 1e-12.  Malformed shapes raise DimMismatch.  Rebuilding a measure
    from its own arrays gives the same bits, so equal laws are compared by
    ``digest()``; ``==`` and ``hash`` are those of object identity.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[1] == 0:
            raise DimMismatch(f"points must have shape (n, d) with d >= 1, got {points.shape}")
        if weights.shape != (len(points),):
            raise DimMismatch(f"weights of shape {weights.shape} for {len(points)} points")
        _check_atoms(points, weights)
        order = np.lexsort(points.T[::-1])
        points, weights = _merge_sorted(points[order], weights[order])
        object.__setattr__(self, "points", _freeze(points))
        object.__setattr__(self, "weights", _freeze(_renormalize(weights)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.weights)

    def norms(self) -> np.ndarray:
        """np.linalg.norm(points, axis=1) bit for bit: the reduction it runs
        on real input, without its helpers."""
        return np.sqrt(np.add.reduce(self.points * self.points, axis=1))

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.dim).encode())
        h.update(self.points.tobytes())
        h.update(self.weights.tobytes())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"point": [float(v) for v in p], "weight": float(w)}
                for p, w in zip(self.points, self.weights)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        """The measure of a ``{"dim": d, "atoms": [{"point": p, "weight":
        w}, ...]}`` document, as ``canonicalize`` builds it from the (p, w)
        pairs.  The atoms are read into one list of points and one of
        weights, which ``_parse_atoms`` turns into arrays (exactly, see
        ``errors.float_array``); no pair is built per atom."""
        dim = as_int(data["dim"], "dim")
        atoms = data["atoms"]
        try:
            points = [a["point"] for a in atoms]
            weights = [a["weight"] for a in atoms]
        except (LookupError, TypeError):
            for a in atoms:  # the first malformed atom's error, point before weight
                a["point"], a["weight"]
            raise
        m = _parse_atoms(points, weights)
        if m.dim != dim:
            raise DimMismatch(f"declared dim {dim} vs atom dim {m.dim}")
        return m

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "DiscreteMeasure":
        return cls.from_dict(json.loads(text))


def canonicalize(raw_atoms: Sequence) -> DiscreteMeasure:
    """Build a DiscreteMeasure from raw (point, weight) pairs.

    Atoms are sorted in lexicographic coordinate order and merged by the
    anchor rule: walking the sorted atoms, one joins the current atom when
    every coordinate is within POINT_TOL (1e-12) of that atom's first point,
    its anchor, and otherwise becomes the next anchor; merged weights are
    added in sorted order.  The rule is anchor-relative and so not
    transitive: points 0, 7e-13 and 1.4e-12 give two atoms, 0 with two
    thirds of the weight and 1.4e-12 with one third.  Weights are
    renormalized to sum to one, and the result is independent of input
    permutation.  Points are vectors of one length or, for d = 1, bare
    numbers (not both in one call); any other shape is a DimMismatch, and
    an entry that is not a real number (a string, a bool, None) is a
    ValueError.  The pairs, any iterable of them (read once), are split into
    a point list and a weight list, which ``_parse_atoms`` parses; the
    DiscreteMeasure constructor does the rest.
    """
    pairs = list(raw_atoms)
    return _parse_atoms([p for p, _ in pairs], [w for _, w in pairs])


def _parse_atoms(points: list, weights: list) -> DiscreteMeasure:
    """The measure of a list of points and a list of weights, each parsed
    into one array by ``errors.float_array``: one ``np.array`` call when
    they hold plain floats and ints (exact), else the per-entry checked
    path.  Errors as ``canonicalize`` documents them."""
    weights = float_array(weights, "atom weights", ValueError)
    try:
        pts = float_array(points, "atom points", ValueError)
    except ValueError as err:
        # points of unequal shapes; one that is not numbers raises here instead
        for p in points:
            float_array(p, "atom point", ValueError)
        raise DimMismatch("atom points must be vectors of one length") from err
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    elif pts.ndim != 2:
        raise DimMismatch("atom points must be vectors")
    return DiscreteMeasure(pts, weights)


def dirac(point) -> DiscreteMeasure:
    return canonicalize([(point, 1.0)])


def line_values(mu: DiscreteMeasure) -> np.ndarray:
    """The atom values of a measure on the line; DimMismatch for d != 1."""
    if mu.dim != 1:
        raise DimMismatch(f"a measure on the line is needed, got dim {mu.dim}")
    return mu.points[:, 0]


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative weights along the last axis (one measure on the line, or
    one per row), the last pinned to 1."""
    cum = np.cumsum(weights, axis=-1)
    cum[..., -1] = 1.0
    return cum


def quantile(mu: DiscreteMeasure, beta):
    """Left-continuous quantile of a measure on the line: inf{t : F(t) >= beta}
    for beta in (0,1).

    Accepts a scalar or an array of levels; piecewise constant in beta with
    jumps exactly at the cumulative weights.  A level that is not a real
    number (a string, a bool, None) is OutOfRange, as one outside (0, 1) is.
    """
    b = float_array(beta, "quantile level")
    if not np.all((b > 0.0) & (b < 1.0)):
        raise OutOfRange("quantile level must lie in (0, 1)")
    out = line_values(mu)[np.searchsorted(_cumulative(mu.weights), b, side="left")]
    return float(out) if np.isscalar(beta) or b.ndim == 0 else out


def moment(mu: DiscreteMeasure, q: float) -> float:
    """Sum_i w_i ||z_i||^q with the Euclidean norm; OutOfRange when the sum
    overflows."""
    q = in_range(q, "moment exponent q", gt=0)
    with np.errstate(over="ignore"):
        return finite_result(float(mu.norms() ** q @ mu.weights), "moment", q)


def tail_functional(mu: DiscreteMeasure, q: float, a: float) -> float:
    """Sum_i w_i ||z_i||^q over atoms with ||z_i||^q strictly above a;
    OutOfRange when the sum overflows."""
    q = in_range(q, "tail exponent q", gt=0)
    a = in_range(a, "tail threshold", ge=0)
    return _tail_sums(mu, q, [a])[0]


def _tail_sums(mu: DiscreteMeasure, q: float, thresholds) -> list:
    """tail_functional(mu, q, a) for every (checked) threshold a, with the
    powers ||z_i||^q computed once."""
    with np.errstate(over="ignore"):
        g = mu.norms() ** q
        out = []
        for a in thresholds:
            mask = g > a
            out.append(finite_result(float(g[mask] @ mu.weights[mask]), "tail functional", q))
        return out


def mix(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Convex combination (1-t)*mu + t*nu, canonicalized."""
    if mu.dim != nu.dim:
        raise DimMismatch(f"dims {mu.dim} vs {nu.dim}")
    t = in_range(t, "mixture parameter t", ge=0, le=1)
    if t == 0.0:
        return mu
    if t == 1.0:
        return nu
    return DiscreteMeasure(np.concatenate([mu.points, nu.points]),
                           np.concatenate([(1.0 - t) * mu.weights, t * nu.weights]))


def _philox(seed) -> np.random.Generator:
    """The counter-based Philox generator keyed by seed (an integer >= 0 or
    a tuple of them, each read through as_int), which every sampled step of
    the package draws from; any other seed is OutOfRange."""
    # SeedSequence(s) and SeedSequence((s,)) give one state
    key = tuple(as_int(s, "seed", ge=0) for s in (seed if isinstance(seed, tuple) else (seed,)))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def empirical(sampler: Sampler, n: int, seed) -> DiscreteMeasure:
    """Empirical measure of n i.i.d. draws, each with weight 1/n.

    The generator is the counter-based Philox keyed by ``seed`` (an integer
    >= 0 or a tuple of them), so draw i occupies counter slot i
    independently of evaluation order; identical (sampler, n, seed) give
    identical output.  n is an integer >= 1.
    """
    n = as_int(n, "sample count", ge=1)
    draws = np.asarray(sampler(_philox(seed), n), dtype=float)
    if draws.ndim == 1:
        draws = draws.reshape(-1, 1)
    if draws.ndim != 2 or len(draws) != n:
        raise DimMismatch(f"sampler returned shape {draws.shape}, expected {n} rows")
    return DiscreteMeasure(draws, np.full(n, 1.0 / n))


def box_sampler(lo, hi) -> Sampler:
    """Sampler uniform on the axis-aligned box [lo, hi] (vectors or scalars)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo > hi):
        raise DimMismatch("invalid box bounds")

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(lo, hi, size=(n, len(lo)))

    return draw
