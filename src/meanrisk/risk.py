"""Law-invariant risk functionals of the law of a random cost.

Four functionals are implemented in closed form: expectation, average
value at risk, mean upper semideviation of order p, and mean upper
semideviation of order p from a fixed target.  The last one is
deliberately not translation-equivariant.  Each closed form exists once,
in _risk_rows, which evaluates rho on every row of a (k, m) value array
with one vector of m weights: a law-invariant rho reads only values and
weights, so tied values need no merge.  objective reads Q's (decision x
atom) values that way; the public functions read the atoms of a 1-D
DiscreteMeasure as a batch of one (DimMismatch for any other dimension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, OutOfRange, float_array, in_range
from .measure import DiscreteMeasure, _cumulative, line_values

KINDS = ("expectation", "avar", "semidev", "target_semidev")


@dataclass(frozen=True)
class RiskSpec:
    """One of the four implemented risk functionals with its parameters.

    kind            parameters used (each finite)
    expectation     none
    avar            alpha in (0,1)
    semidev         a in [0,1], p >= 1
    target_semidev  a in [0,1], c > 0, p >= 1
    """

    kind: str
    alpha: float | None = None
    a: float | None = None
    c: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown risk kind {self.kind!r}")
        semi = self.kind in ("semidev", "target_semidev")
        # per parameter: its name in messages, its range, and whether the kind
        # reads it; a parameter given but not read is still a finite number
        rules = {
            "alpha": ("avar level alpha", {"gt": 0, "lt": 1}, self.kind == "avar"),
            "a": ("semideviation weight a", {"ge": 0, "le": 1}, semi),
            "p": ("semideviation order p", {"ge": 1}, semi),
            "c": ("target c", {"gt": 0}, self.kind == "target_semidev"),
        }
        for name, (label, bounds, read) in rules.items():
            value = getattr(self, name)
            if read or value is not None:
                value = in_range(value, label, error=InvalidSpec, **(bounds if read else {}))
                object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("alpha", "a", "c", "p"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RiskSpec":
        return cls(
            kind=data["kind"],
            alpha=data.get("alpha"),
            a=data.get("a"),
            c=data.get("c"),
            p=data.get("p"),
        )


def _risk_rows(spec: RiskSpec, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rho of every row of a (k, m) value array, each the law with the m
    weights (nonnegative, summing to one) on its m values, tied or not.

    Sums are elementwise products reduced along the last axis of C-ordered
    arrays, never a BLAS product: a row gets the same bits in any batch.
    avar sorts each row stably; the quantile function is piecewise constant
    on the cumulative-weight plateaus (the last pinned to 1), so
    (1/(1-alpha)) int_alpha^1 quantile(beta) dbeta is summed exactly, the
    plateau containing alpha contributing (cum_i - alpha) * value_i.
    """
    if spec.kind == "avar":
        order = np.argsort(values, axis=1, kind="stable")
        t = np.take_along_axis(values, order, axis=1)
        cum = _cumulative(weights[order])
        prev = np.concatenate([np.zeros((len(cum), 1)), cum[:, :-1]], axis=1)
        seg = np.clip(np.minimum(cum, 1.0) - np.maximum(prev, spec.alpha), 0.0, None)
        return (seg * t).sum(axis=1) / (1.0 - spec.alpha)
    mean = (values * weights).sum(axis=1)
    if spec.kind == "expectation":
        return mean
    center = mean[:, None] if spec.kind == "semidev" else spec.c
    dev = np.clip(values - center, 0.0, None)
    return mean + spec.a * (dev**spec.p * weights).sum(axis=1) ** (1.0 / spec.p)


def evaluate_risk(spec: RiskSpec, dist: DiscreteMeasure) -> float:
    """rho(dist) by the closed form matching the spec, on dist's atoms."""
    return float(_risk_rows(spec, line_values(dist)[None, :], dist.weights)[0])


def avar(dist: DiscreteMeasure, alpha: float) -> float:
    """Average value at risk: (1/(1-alpha)) * int_alpha^1 quantile(beta) dbeta."""
    alpha = in_range(alpha, "alpha", gt=0, lt=1)
    return evaluate_risk(RiskSpec("avar", alpha=alpha), dist)


def semidev(dist: DiscreteMeasure, a: float, p: float) -> float:
    """Mean upper semideviation of order p:
    E[Y] + a * (E[((Y - E[Y])^+)^p])^(1/p)."""
    return evaluate_risk(RiskSpec("semidev", a=a, p=p), dist)


def target_semidev(dist: DiscreteMeasure, a: float, c: float, p: float) -> float:
    """Mean upper semideviation of order p from the target c:
    E[Y] + a * (E[((Y - c)^+)^p])^(1/p)."""
    return evaluate_risk(RiskSpec("target_semidev", a=a, c=c, p=p), dist)


def stop_loss(dist: DiscreteMeasure, t) -> np.ndarray:
    """E[(Y - t)^+] for a scalar or array of thresholds t, each finite
    (OutOfRange otherwise)."""
    tv = np.atleast_1d(float_array(t, "stop-loss thresholds"))
    if not np.all(np.isfinite(tv)):
        raise OutOfRange(f"stop-loss thresholds must be finite, got {tv}")
    return np.clip(line_values(dist)[None, :] - tv[:, None], 0.0, None) @ dist.weights


def icx_leq(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-10) -> bool:
    """Decide mu <= nu in the increasing convex order.

    Checks the stop-loss inequality E[(X-t)^+] <= E[(Y-t)^+] at every atom
    value of both measures; both sides are piecewise linear with kinks
    only at atoms and vanish beyond the joint support, so this grid decides
    the ordering.  tol is finite and nonnegative (OutOfRange otherwise).
    """
    tol = in_range(tol, "tolerance tol", ge=0)
    grid = np.union1d(line_values(mu), line_values(nu))
    return bool(np.all(stop_loss(mu, grid) <= stop_loss(nu, grid) + tol))
