"""Second-stage value functions f(x, z) for four recourse classes.

linear      min q(x,z).y   s.t. A y  = h(x,z), y >= 0
milp        min q.y        s.t. A y  = h(x,z), y >= 0, last m2 coords integer
miqp        min y'Dy+q(x,z).y  s.t. A y <= h(x,z), last m2 coords integer
convex_mip  min v(y)       s.t. g(y) <= h(x,z), last m2 coords integer

Each kind has one route to its batched solver (_solve_rows):
optim.solve_lp_batch per distinct cost for linear (bunching: one optimal
basis answers every right-hand side it stays feasible for),
optim.solve_milp_batch for milp, optim.solve_miqp_batch for miqp and
optim.solve_convex_mip_batch for convex_mip; this module holds no solver
logic of its own.  eval_recourse_batch solves every distinct input of a
batch of rows (x, z) that way, in one optim.Rows of status codes, values
and points, and checks the statuses in one pass; f(x, z) at one point is
a batch of one row.  A batch holds at most MAX_RECOURSE_ROWS rows.
Solver inputs are keyed one way: as int64 rows, ordered by one stable
lexsort (_runs) that finds a batch's cache hits and distinct misses and
linear's cost groups; the cache is re-sorted with each batch.

Infeasibility or unboundedness at a point signals a violated model
assumption for that instance and is raised, never silently absorbed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import exprs, optim
from .errors import (
    ConstraintLimitExceeded,
    DimMismatch,
    InvalidExponent,
    InvalidSpec,
    MeanRiskError,
    MissingDeclaredExponent,
    NumericalFailure,
    OutOfRange,
    RecourseInfeasible,
    RecourseUnbounded,
    _floats,
    as_int,
    finite_result,
    float_array,
    in_range,
)
from .measure import Sampler, _philox

KINDS = ("linear", "milp", "miqp", "convex_mip")
# (x, z) rows of one recourse batch; at the peak of a 100,000-row certify a
# row holds about 0.69 KB for miqp, 0.26 KB for linear and under 0.2 KB for
# milp and convex_mip
MAX_RECOURSE_ROWS = 500_000


@dataclass(frozen=True, eq=False)
class ParamMap:
    """Map (x, z) -> R^out, either affine in the stacked vector (x, z), with
    finite entries, or a tuple of expression trees with a user-declared
    growth exponent."""

    out_dim: int
    matrix: np.ndarray | None = None
    constant: np.ndarray | None = None
    expressions: tuple = ()
    declared_exponent: float | None = None

    def __post_init__(self):
        if self.matrix is not None:
            M = float_array(self.matrix, "affine matrix")
            c = (
                float_array(self.constant, "affine constant")
                if self.constant is not None
                else np.zeros(self.out_dim)
            )
            if M.ndim != 2 or M.shape[0] != self.out_dim or c.shape != (self.out_dim,):
                raise DimMismatch(f"affine map shape {M.shape} vs out_dim {self.out_dim}")
            if not (np.all(np.isfinite(M)) and np.all(np.isfinite(c))):
                raise OutOfRange("non-finite entries in an affine map")
            object.__setattr__(self, "matrix", M)
            object.__setattr__(self, "constant", c)
        else:
            if len(self.expressions) != self.out_dim:
                raise DimMismatch("one expression per output coordinate")
            object.__setattr__(self, "expressions", tuple(self.expressions))
        if self.declared_exponent is not None:
            exponent = in_range(self.declared_exponent, "declared exponent", gt=0,
                                error=InvalidExponent)
            object.__setattr__(self, "declared_exponent", exponent)

    @property
    def is_affine(self) -> bool:
        return self.matrix is not None

    def rows(self, X, Z) -> np.ndarray:
        """The map at every row (x, z), X one x for all rows z of Z or one per
        row; OutOfRange at the first row, then expression, that overflows."""
        W = np.hstack([_decision_rows(X, len(Z)), np.asarray(Z, dtype=float)])
        if not self.is_affine:
            return exprs.table(self.expressions, W)
        if self.matrix.shape[1] != W.shape[1]:
            raise DimMismatch(f"affine map of {self.matrix.shape[1]} inputs, got {W.shape[1]}")
        return exprs.affine_rows(W, self.matrix, self.constant)

    def to_dict(self) -> dict:
        if self.is_affine:
            return {
                "affine": {
                    "matrix": [[float(v) for v in row] for row in self.matrix],
                    "constant": [float(v) for v in self.constant],
                }
            }
        out = {"expr": [e.to_prefix() for e in self.expressions]}
        if self.declared_exponent is not None:
            out["exponent"] = float(self.declared_exponent)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ParamMap":
        if "affine" in data:
            affine = data["affine"]
            return cls(out_dim=len(affine["matrix"]), matrix=affine["matrix"],
                       constant=affine.get("constant"))
        trees = tuple(exprs.from_prefix(e) for e in data["expr"])
        return cls(
            out_dim=len(trees),
            expressions=trees,
            declared_exponent=data.get("exponent"),
        )


def _decision_rows(X, k: int) -> np.ndarray:
    """X as k rows: one decision for every row, or one row per noise row."""
    X = np.atleast_1d(np.asarray(X, dtype=float))
    if X.ndim > 2 or (X.ndim == 2 and len(X) != k):
        raise DimMismatch(f"decision rows of shape {X.shape} for {k} noise rows")
    return np.broadcast_to(X, (k, X.shape[-1]))


def map_exponent(pm: ParamMap) -> float:
    """Growth exponent of a parameter map: affine maps are limited by one,
    expression maps carry their declared exponent."""
    if pm.is_affine:
        return 1.0
    if pm.declared_exponent is None:
        raise MissingDeclaredExponent("expression map has no declared growth exponent")
    return pm.declared_exponent


@dataclass(frozen=True, eq=False)
class RecourseModel:
    """One of the four recourse problem classes with its data.

    The rational-entry assumption on the matrices of the integer classes is
    not checked.
    """

    kind: str
    n: int  # decision dimension
    s: int  # noise dimension
    A: np.ndarray | None = None
    q: np.ndarray | None = None  # milp: constant cost vector
    q_map: ParamMap | None = None
    h_map: ParamMap | None = None
    D: np.ndarray | None = None
    m1: int = 0
    m2: int = 0
    integer_bounds: tuple = ()
    v: exprs.ConvexExpr | None = None
    g: tuple = ()
    continuous_box: tuple = ()
    gamma_v: float | None = None
    gamma_K: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown recourse kind {self.kind!r}")
        for name in ("n", "s", "m1", "m2"):
            object.__setattr__(self, name, as_int(getattr(self, name), f"recourse {name}"))
        if min(self.m1, self.m2) < 0:
            raise OutOfRange(f"recourse m1 and m2 must be nonnegative, got {self.m1}, {self.m2}")
        width = self.m1 + self.m2  # recourse variables y, the continuous ones first
        for name in ("A", "q", "D"):
            if getattr(self, name) is not None:
                arr = float_array(getattr(self, name), name)
                if not np.all(np.isfinite(arr)):
                    raise OutOfRange(f"non-finite entries in {name}")
                object.__setattr__(self, name, arr)
        for name in ("A", "D"):
            M = getattr(self, name)
            if M is not None and M.ndim != 2:
                raise DimMismatch(f"{name} must be a matrix, got shape {M.shape}")
        for name in ("integer_bounds", "continuous_box"):
            pairs = tuple(tuple(in_range(v, f"{name} entry", error=InvalidSpec) for v in (a, b))
                          for a, b in getattr(self, name))
            object.__setattr__(self, name, pairs)
        for name in ("gamma_v", "gamma_K"):
            if getattr(self, name) is not None:
                exponent = in_range(getattr(self, name), name, gt=0, error=InvalidExponent)
                object.__setattr__(self, name, exponent)
        object.__setattr__(self, "g", tuple(self.g))
        maps = [pm for pm in (self.q_map, self.h_map) if pm is not None]
        if max((e.width for pm in maps for e in pm.expressions), default=0) > self.n + self.s:
            raise DimMismatch(f"a map expression reads past its n + s = {self.n + self.s} inputs")
        if any(pm.is_affine and pm.matrix.shape[1] != self.n + self.s for pm in maps):
            raise DimMismatch(f"an affine map does not have n + s = {self.n + self.s} columns")
        k = self.kind
        if k == "linear":
            if self.A is None or self.q_map is None or self.h_map is None:
                raise InvalidSpec("linear recourse needs A, q_map, h_map")
            if self.q_map.out_dim != self.A.shape[1] or self.h_map.out_dim != self.A.shape[0]:
                raise DimMismatch("q_map/h_map dimensions do not match A")
        elif k == "milp":
            if self.A is None or self.q is None or self.h_map is None:
                raise InvalidSpec("milp recourse needs A, q, h_map")
            if self.A.shape[1] != width or len(self.q) != width:
                raise DimMismatch("A/q width must equal m1 + m2")
            if self.h_map.out_dim != self.A.shape[0]:
                raise DimMismatch("h_map must match the row count of A")
        elif k == "miqp":
            if self.A is None or self.D is None or self.q_map is None or self.h_map is None:
                raise InvalidSpec("miqp recourse needs A, D, q_map, h_map")
            if self.A.shape[1] != width:
                raise DimMismatch("A width must equal m1 + m2")
            if self.D.shape != (width, width):
                raise DimMismatch(f"D shape {self.D.shape} must be (m1 + m2) x (m1 + m2)")
            optim._check_positive_definite(self.D)
            if self.q_map.out_dim != width:
                raise DimMismatch("q_map must produce m1 + m2 outputs")
            if self.h_map.out_dim != self.A.shape[0]:
                raise DimMismatch("h_map must match the row count of A")
        elif k == "convex_mip":
            if self.v is None or self.h_map is None:
                raise InvalidSpec("convex_mip recourse needs v and h_map")
            if self.h_map.out_dim != len(self.g):
                raise DimMismatch("h_map must produce one rhs per constraint")
            if max(e.width for e in (self.v, *self.g)) > width:
                raise DimMismatch("v and g must read only the m1 + m2 recourse variables")
            optim._integer_boxes(range(self.m1), self.continuous_box, width, "continuous")
        if k != "linear":  # the solvers' own check of the boxes, before any solve
            optim._integer_boxes(range(self.m1, width), self.integer_bounds, width)
        for lo, hi in self.integer_bounds if k == "milp" else ():
            # _solve_rows clips milp boxes at y >= 0, which would empty this one
            if hi < 0.0:
                raise InvalidSpec(f"milp keeps y >= 0, so integer bounds need hi >= 0, "
                                  f"got ({lo}, {hi})")

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "n": self.n, "s": self.s}
        if self.A is not None:
            out["A"] = [[float(v) for v in row] for row in self.A]
        if self.q is not None:
            out["q"] = [float(v) for v in self.q]
        if self.q_map is not None:
            out["q_map"] = self.q_map.to_dict()
        if self.h_map is not None:
            out["h_map"] = self.h_map.to_dict()
        if self.D is not None:
            out["D"] = [[float(v) for v in row] for row in self.D]
        if self.kind != "linear":
            out["m1"] = self.m1
            out["m2"] = self.m2
            out["integer_bounds"] = [[lo, hi] for lo, hi in self.integer_bounds]
        if self.kind == "convex_mip":
            out["v"] = self.v.to_prefix()
            out["g"] = [e.to_prefix() for e in self.g]
            out["continuous_box"] = [[lo, hi] for lo, hi in self.continuous_box]
            if self.gamma_v is not None:
                out["gamma_v"] = float(self.gamma_v)
            if self.gamma_K is not None:
                out["gamma_K"] = float(self.gamma_K)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RecourseModel":
        kind = data["kind"]
        names = ["A", "q", "D", "m1", "m2", "integer_bounds"]
        if kind == "convex_mip":
            names += ["continuous_box", "gamma_v", "gamma_K"]
        kwargs = {name: data[name] for name in names if name in data}
        for name in ("q_map", "h_map"):
            if name in data:
                kwargs[name] = ParamMap.from_dict(data[name])
        if kind == "convex_mip":
            kwargs["v"] = exprs.from_prefix(data["v"])
            kwargs["g"] = tuple(exprs.from_prefix(e) for e in data["g"])
        return cls(kind=kind, n=data["n"], s=data["s"], **kwargs)


def _check_rows(count: int):
    """ConstraintLimitExceeded for a batch of more than MAX_RECOURSE_ROWS rows."""
    if count > MAX_RECOURSE_ROWS:
        raise ConstraintLimitExceeded(f"{count} rows > MAX_RECOURSE_ROWS = {MAX_RECOURSE_ROWS}")


class RecourseCache:
    """Recourse values of one model keyed on their solver inputs, for
    eval_recourse_batch to keep across calls.

    A key is one row of [h | q] read as int64 words, so inputs are compared
    bit for bit (0.0 and -0.0 are distinct keys).  keys holds the distinct
    key rows in _runs order and values their recourse values; each batch
    re-sorts them together with its own rows.
    """

    def __init__(self):
        self.keys = np.empty((0, 0), dtype=np.int64)
        self.values = np.empty(0)

    def __len__(self) -> int:
        return len(self.values)


def _runs(keys: np.ndarray):
    """The rows of an int64 key array in the order of one stable lexsort
    (the first column first), and a mask over that order marking where each
    run of equal rows starts: the rows of a run keep their row order.  With
    no column there is one key, shared by every row."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    start = np.ones(len(keys), dtype=bool)
    start[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order, start


def eval_recourse_batch(model: RecourseModel, X, Z,
                        cache: RecourseCache | None = None) -> np.ndarray:
    """f(x, z) at every row z of Z, with X one x for all rows or one per row.

    Rows are keyed on what the solver sees: h(x, z), and q(x, z) for linear
    and miqp, bit for bit, as one int64 row each.  The maps compute each
    row's bits on their own (exprs.affine_rows, and expression trees node
    by node), so a key does not depend on the batch that holds its row: a
    row seen in any earlier call hits.  The keys of `cache` (a RecourseCache
    the caller may keep across calls for one model; a fresh one by default)
    and of the batch are ordered by one stable lexsort (_runs): a run of
    equal keys that starts with a cached key is a hit, and every other run
    is one solve, so rows that differ only where the solver does not look
    share it.  All misses go to their kind's solver in one _solve_rows
    call, in the order of their first rows, and the runs' first keys with
    their values, already in order, become the cache.  The miqp and
    convex_mip batches give each row what they give it alone; a linear row
    or milp node that a stored basis answers agrees with its own LP to
    round-off (1e-12 relative in the tests).

    More than MAX_RECOURSE_ROWS rows raise ConstraintLimitExceeded before
    any map is evaluated.  A map overflow (OutOfRange) is raised before any
    solve, and then a row whose recourse problem is infeasible, unbounded or
    invalid raises its error, each for the first such row in order: a batch
    whose solver raises is replayed one row at a time, and an error of the
    replayed solve names the row's x and z.
    """
    Zv = np.asarray(Z, dtype=float)
    if Zv.ndim != 2:
        raise DimMismatch(f"noise rows must form a 2-D array, got shape {Zv.shape}")
    _check_rows(len(Zv))
    Xv = _decision_rows(X, len(Zv))
    if Xv.shape[1] != model.n:
        raise DimMismatch(f"decision has dim {Xv.shape[1]}, model expects {model.n}")
    if Zv.shape[1] != model.s:
        raise DimMismatch(f"noise has dim {Zv.shape[1]}, model expects {model.s}")
    cache = RecourseCache() if cache is None else cache
    # a non-finite h or q (inf data times zero) is rejected by the solver
    with np.errstate(invalid="ignore", over="ignore"):
        H = model.h_map.rows(Xv, Zv)
        C = model.q_map.rows(Xv, Zv) if model.kind in ("linear", "miqp") else np.zeros((len(Zv), 0))
    cached = len(cache)
    words = np.hstack([H, C]).view(np.int64)
    keys = np.concatenate([cache.keys, words]) if cached else words
    order, start = _runs(keys)
    run = np.empty(len(keys), dtype=np.intp)
    run[order] = np.cumsum(start) - 1  # the run of every key row
    heads = order[start]  # each run's first key row: a cached key where it has one
    values = np.empty(len(heads))
    values[run[:cached]] = cache.values
    rows = np.sort(heads[heads >= cached]) - cached  # each new key's first row, in row order
    if len(rows):
        try:
            solved = _solve_rows(model, H[rows], C[rows])
        except MeanRiskError:
            for j in rows:  # one row at a time, so the first row that fails raises
                try:
                    one = _solve_rows(model, H[[j]], C[[j]])
                except (InvalidSpec, NumericalFailure, OutOfRange) as err:
                    # the errors of this row's data: name the row, as _values does
                    err.args = (f"{err} at x={_floats(Xv[j])}, z={_floats(Zv[j])}",) + err.args[1:]
                    raise
                _values(model, Xv[[j]], Zv[[j]], one)
            raise
        values[run[cached + rows]] = _values(model, Xv[rows], Zv[rows], solved)
    cache.keys, cache.values = keys[heads], values
    return values[run[cached:]]


def _solve_rows(model: RecourseModel, H, C) -> optim.Rows:
    """The recourse problem at every right-hand side H[j] (and cost C[j] for
    linear and miqp) through the one batched solver of its kind."""
    idx = tuple(range(model.m1, model.m1 + model.m2))
    if model.kind in ("linear", "milp"):
        m, width = model.A.shape
        eq, nonneg = ("==",) * m, (True,) * width
    if model.kind == "linear":
        # one LP batch, and so one store of bases, per distinct cost, in the
        # order of the costs' first rows
        out = optim.Rows.infeasible(len(H), width)
        order, start = _runs(C.view(np.int64))
        bounds = np.append(np.flatnonzero(start), len(C))
        for k in np.argsort(order[start]):
            rows = order[bounds[k]:bounds[k + 1]]  # in row order: the sort is stable
            solved = optim.solve_lp_batch(C[rows[0]], model.A, eq, nonneg, H[rows])
            for part, got in zip(out, solved):
                part[rows] = got
        return out
    if model.kind == "milp":
        # Eq-form integer recourse keeps y >= 0, so the declared boxes are
        # clipped from below at zero.
        bounds = tuple((max(0.0, lo), hi) for lo, hi in model.integer_bounds)
        return optim.solve_milp_batch(model.q, model.A, eq, nonneg, H, idx, bounds)
    if model.kind == "miqp":
        return optim.solve_miqp_batch(model.D, C, model.A, H, idx, model.integer_bounds)
    return optim.solve_convex_mip_batch(model.v, model.g, H, idx, model.integer_bounds,
                                        tuple(range(model.m1)), model.continuous_box)


def _values(model: RecourseModel, X, Z, solved: optim.Rows) -> np.ndarray:
    """The values of solved, whose row j is the problem at (X[j], Z[j]);
    RecourseInfeasible or RecourseUnbounded at its first row that is not
    optimal."""
    bad = np.flatnonzero(solved.status != optim.OPTIMAL)
    if not len(bad):
        return solved.value
    j = bad[0]
    if solved.status[j] == optim.UNBOUNDED:
        raise RecourseUnbounded(X[j], Z[j])
    detail = ""
    if model.kind == "convex_mip" and model.m1:
        detail = "certified: the cutting-plane LP of every continuous slice is infeasible"
    raise RecourseInfeasible(X[j], Z[j], detail)


# per recourse kind: the exponents the growth of f depends on, and how
_GROWTH = {
    "linear": (("gamma_q", "gamma_h"), lambda q, h: q + h),
    "milp": (("gamma_h",), lambda h: h),
    "miqp": (("gamma_q", "gamma_h"), lambda q, h: max(2.0 * q, 2.0 * h)),
    "convex_mip": (("gamma_h", "gamma_K", "gamma_v"), lambda h, K, v: h * (K + 1.0) * (v + 1.0)),
}


def theoretical_exponent(
    model: RecourseModel,
    gamma_q: float | None = None,
    gamma_h: float | None = None,
    gamma_v: float | None = None,
    gamma_K: float | None = None,
) -> float:
    """Growth exponent of f per recourse class:

    linear      gamma_q + gamma_h
    milp        gamma_h
    miqp        max(2*gamma_q, 2*gamma_h)
    convex_mip  gamma_h * (gamma_K + 1) * (gamma_v + 1)

    with each exponent it uses finite and positive (else InvalidExponent).
    """
    names, growth = _GROWTH[model.kind]
    given = {"gamma_q": gamma_q, "gamma_h": gamma_h, "gamma_v": gamma_v, "gamma_K": gamma_K}
    return growth(*(in_range(given[name], name, gt=0, error=InvalidExponent) for name in names))


def default_gamma(model: RecourseModel) -> float:
    """Exponent derived from the model's own maps and declared metadata."""
    gh = map_exponent(model.h_map) if model.h_map is not None else None
    if model.kind in ("linear", "miqp"):
        return theoretical_exponent(model, gamma_q=map_exponent(model.q_map), gamma_h=gh)
    if model.kind == "milp":
        return theoretical_exponent(model, gamma_h=gh)
    gv = model.gamma_v if model.gamma_v is not None else model.v.growth_exponent()
    if model.gamma_K is None:
        raise MissingDeclaredExponent(
            "convex_mip models must declare gamma_K (no algorithm derives it)"
        )
    return theoretical_exponent(model, gamma_h=gh, gamma_v=gv, gamma_K=model.gamma_K)


@dataclass(frozen=True, eq=False)
class GrowthCertificate:
    """Empirical witness that |f(x,z)| <= eta_hat(x) * (||z||^gamma + 1) over
    the drawn sample.  A falsification device, not a proof: eta_hat is the
    largest sampled ratio per decision (floored at 1e-12), and
    max_residual_margin = max |f| - eta_hat(x)(||z||^gamma + 1) over the
    sample, which is nonpositive by construction."""

    gamma: float
    decisions: np.ndarray
    eta_hat: np.ndarray
    sample_count: int
    max_residual_margin: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "gamma": float(self.gamma),
            "decisions": [[float(v) for v in row] for row in self.decisions],
            "eta_hat": [float(v) for v in self.eta_hat],
            "sample_count": int(self.sample_count),
            "max_residual_margin": float(self.max_residual_margin),
            "seed": int(self.seed),
        }


def certify_growth(
    model: RecourseModel,
    x_set,
    z_sampler: Sampler,
    gamma: float,
    n: int,
    seed: int,
) -> GrowthCertificate:
    """Sample z and record eta_hat(x) = max |f(x,z)| / (||z||^gamma + 1);
    OutOfRange when ||z||^gamma overflows on the sample.  The (x, z) pairs are
    one recourse batch: ConstraintLimitExceeded above MAX_RECOURSE_ROWS, before sampling."""
    in_range(gamma, "gamma", gt=0, error=InvalidExponent)
    n = as_int(n, "sample count", ge=1)
    rng = _philox(seed)
    xs = np.atleast_2d(np.asarray(x_set, dtype=float))
    _check_rows(n * len(xs))
    zs = np.asarray(z_sampler(rng, n), dtype=float).reshape(n, -1)
    with np.errstate(over="ignore"):
        denom = np.linalg.norm(zs, axis=1) ** gamma + 1.0
    finite_result(float(denom.max()), "||z||^gamma + 1 on the sample", gamma)
    f = eval_recourse_batch(model, np.repeat(xs, len(zs), axis=0), np.tile(zs, (len(xs), 1)))
    ratios = np.abs(f.reshape(len(xs), len(zs))) / denom
    etas = np.maximum(ratios.max(axis=1), 1e-12)
    margin = float(np.max((ratios - etas[:, None]) * denom))
    return GrowthCertificate(
        gamma=float(gamma),
        decisions=xs,
        eta_hat=etas,
        sample_count=n,
        max_residual_margin=margin,
        seed=int(seed),
    )

