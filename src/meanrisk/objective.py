"""Composite mean-risk objective Q(x, nu), its optimal value phi over a
finite decision set, and the epsilon-argmin set.

Q(x, nu) is the risk of the image f(x, .)#nu, which a law-invariant risk
reads off the values f(x, z) at the atoms z of nu and their weights: no
image measure is built, and risk._risk_rows reads each decision's values
as one row.  The one cache is the model's RecourseCache of recourse values
per solver input (the row of h(x, z), and of q(x, z) where the cost moves,
compared bit for bit as int64 words), kept in the order of one stable
lexsort and re-sorted with each batch.  Maps compute each row on its own
(exprs.affine_rows), so a key is exact across batches and an input seen in
any earlier call is solved once.  q_profile evaluates all decisions in one
recourse batch.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintLimitExceeded, DimMismatch, EmptySupport, OutOfRange, as_int
from .errors import float_array, in_range
from .measure import DiscreteMeasure
from .recourse import MAX_RECOURSE_ROWS, RecourseCache, RecourseModel, default_gamma
from .recourse import eval_recourse_batch
from .risk import RiskSpec, _risk_rows


@dataclass(frozen=True, eq=False)
class DecisionSet:
    """Nonempty finite list of decision vectors; compactness for free."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(float_array(self.points, "decision points"))
        if pts.size == 0:
            raise EmptySupport("decision set must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise OutOfRange("decision points must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_box(cls, lo, hi, counts) -> "DecisionSet":
        """Per-axis uniform grid over [lo, hi], expanded in C order.  A grid
        of more than MAX_RECOURSE_ROWS points, which no profile could
        evaluate, raises ConstraintLimitExceeded before anything is built."""
        lo = np.atleast_1d(float_array(lo, "box lo"))
        hi = np.atleast_1d(float_array(hi, "box hi"))
        counts = np.atleast_1d(counts).tolist()
        counts = np.array([as_int(c, "box counts", ge=1) for c in counts], dtype=int)
        if not (len(lo) == len(hi) == len(counts)):
            raise DimMismatch("box bounds and counts must share a dimension")
        size = math.prod(counts.tolist())
        if size > MAX_RECOURSE_ROWS:
            raise ConstraintLimitExceeded(
                f"{size}-point decision grid > MAX_RECOURSE_ROWS = {MAX_RECOURSE_ROWS}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise OutOfRange("box bounds must be finite")
        # a span past the float range overflows to inf, which the point
        # check in __post_init__ refuses
        with np.errstate(over="ignore", invalid="ignore"):
            axes = [
                np.linspace(l, h, int(c)) if c > 1 else np.array([0.5 * (l + h)])
                for l, h, c in zip(lo, hi, counts)
            ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return cls(points=pts)

    def to_dict(self) -> dict:
        return {"points": [[float(v) for v in row] for row in self.points]}

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionSet":
        if "points" in data:
            return cls(points=data["points"])
        box = data["box"]
        return cls.from_box(box["lo"], box["hi"], box["counts"])


@dataclass(frozen=True, eq=False)
class MeanRiskModel:
    recourse: RecourseModel
    risk: RiskSpec
    decisions: DecisionSet
    p: float = 1.0
    gamma: float | None = None
    # recourse values keyed on solver inputs (see eval_recourse_batch)
    _f_cache: RecourseCache = field(default_factory=RecourseCache, repr=False)

    def __post_init__(self):
        p = in_range(self.p, "p", ge=1)
        if self.decisions.dim != self.recourse.n:
            raise DimMismatch(
                f"decision dim {self.decisions.dim} vs recourse n={self.recourse.n}"
            )
        gamma = self.gamma if self.gamma is not None else default_gamma(self.recourse)
        gamma = in_range(gamma, "gamma", gt=0)
        in_range(gamma * p, "gauge exponent gamma * p", gt=0)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)

    def recourse_value(self, x, z) -> float:
        """f(x, z) through the model's solver-input cache.  Nothing in the
        package calls it; it stays only because the benchmark tracer
        (bench/spans.py) wraps it by name, until that tracer is replaced."""
        return float(eval_recourse_batch(self.recourse, x, [np.ravel(z)], self._f_cache)[0])

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "recourse": self.recourse.to_dict(),
            "risk": self.risk.to_dict(),
            "decisions": self.decisions.to_dict(),
            "p": self.p,
            "gamma": self.gamma,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeanRiskModel":
        return cls(
            recourse=RecourseModel.from_dict(data["recourse"]),
            risk=RiskSpec.from_dict(data["risk"]),
            decisions=DecisionSet.from_dict(data["decisions"]),
            p=data.get("p", 1.0),
            gamma=data.get("gamma"),
        )


def Q(model: MeanRiskModel, x, nu: DiscreteMeasure) -> float:
    """Risk of the push-forward of nu through the recourse value at x."""
    return float(_profile(model, np.asarray(x, dtype=float).reshape(1, -1), nu)[0])


def q_profile(model: MeanRiskModel, nu: DiscreteMeasure) -> np.ndarray:
    """Q over the whole decision set, in decision order.  The (decision,
    atom) pairs are one recourse batch: a map overflow at any pair is raised
    before any solver error, each for its first pair in (decision, atom)
    order."""
    return _profile(model, model.decisions.points, nu)


def _profile(model: MeanRiskModel, xs: np.ndarray, nu: DiscreteMeasure) -> np.ndarray:
    """Q at every row of xs (a profile of one is Q); the batch checks dims,
    and a NaN or inf value is OutOfRange.  A row of values gets the same
    risk bits in any batch.  Q agrees with evaluate_risk of the merged image
    measure to 1e-12 relative to max(1, |Q|), plus (1 + 2a) POINT_TOL where
    the merge moves values within POINT_TOL onto their anchor."""
    f = eval_recourse_batch(model.recourse, np.repeat(xs, len(nu), axis=0),
                            np.tile(nu.points, (len(xs), 1)), model._f_cache)
    if not np.isfinite(f).all():
        raise OutOfRange("atom points and weights must be finite")
    return _risk_rows(model.risk, f.reshape(len(xs), -1), nu.weights)


def phi(model: MeanRiskModel, nu: DiscreteMeasure) -> float:
    """Minimum of Q over the finite decision set (always attained)."""
    return float(np.min(q_profile(model, nu)))


def argmin_set(model: MeanRiskModel, nu: DiscreteMeasure, tol: float = 1e-8) -> DecisionSet:
    """Decisions within tol of the optimal value; nonempty by finiteness.
    A negative or non-finite tol raises OutOfRange before any solve."""
    tol = in_range(tol, "tolerance", ge=0)
    return _argmin(model, q_profile(model, nu), tol)


def _argmin(model: MeanRiskModel, values: np.ndarray, tol: float) -> DecisionSet:
    """The decisions whose values (a q_profile) are within tol of their minimum."""
    return DecisionSet(points=model.decisions.points[values <= float(np.min(values)) + tol])
