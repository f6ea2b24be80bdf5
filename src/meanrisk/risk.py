"""Law-invariant risk functionals evaluated directly on measures on the line.

Four functionals are implemented in closed form on finite atom sums of a
1-D DiscreteMeasure, the law of the random cost: expectation, average
value at risk, mean upper semideviation of order p, and mean upper
semideviation of order p from a fixed target.  The last one is
deliberately not translation-equivariant.  A measure of any other
dimension raises DimMismatch.  Only avar reads the atoms in order, so only
it takes measure.canonical_line of its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, in_range
from .measure import DiscreteMeasure, _cumulative, canonical_line, line_values

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


def avar(dist: DiscreteMeasure, alpha: float) -> float:
    """Average value at risk: (1/(1-alpha)) * int_alpha^1 quantile(beta) dbeta.

    The quantile function is piecewise constant on the cumulative-weight
    plateaus, so the integral is summed exactly; the plateau containing
    alpha contributes (cum_i - alpha) * value_i.
    """
    in_range(alpha, "alpha", gt=0, lt=1)
    dist = canonical_line(dist)
    cum = _cumulative(dist.weights)
    prev = np.concatenate(([0.0], cum[:-1]))
    seg = np.clip(np.minimum(cum, 1.0) - np.maximum(prev, alpha), 0.0, None)
    return float(seg @ dist.points[:, 0]) / (1.0 - alpha)


def semidev(dist: DiscreteMeasure, a: float, p: float) -> float:
    """Mean upper semideviation of order p:
    E[Y] + a * (E[((Y - E[Y])^+)^p])^(1/p)."""
    in_range(a, "a", ge=0, le=1, error=InvalidSpec)
    in_range(p, "p", ge=1, error=InvalidSpec)
    t = line_values(dist)
    m = float(t @ dist.weights)
    dev = np.clip(t - m, 0.0, None)
    return m + a * float(dev**p @ dist.weights) ** (1.0 / p)


def target_semidev(dist: DiscreteMeasure, a: float, c: float, p: float) -> float:
    """Mean upper semideviation of order p from the target c:
    E[Y] + a * (E[((Y - c)^+)^p])^(1/p)."""
    in_range(a, "a", ge=0, le=1, error=InvalidSpec)
    in_range(c, "c", gt=0, error=InvalidSpec)
    in_range(p, "p", ge=1, error=InvalidSpec)
    t = line_values(dist)
    dev = np.clip(t - c, 0.0, None)
    return float(t @ dist.weights) + a * float(dev**p @ dist.weights) ** (1.0 / p)


def evaluate_risk(spec: RiskSpec, dist: DiscreteMeasure) -> float:
    """Dispatch to the closed form matching the spec."""
    if spec.kind == "expectation":
        return float(line_values(dist) @ dist.weights)
    if spec.kind == "avar":
        return avar(dist, spec.alpha)
    if spec.kind == "semidev":
        return semidev(dist, spec.a, spec.p)
    if spec.kind == "target_semidev":
        return target_semidev(dist, spec.a, spec.c, spec.p)
    raise InvalidSpec(f"unknown risk kind {spec.kind!r}")


def stop_loss(dist: DiscreteMeasure, t) -> np.ndarray:
    """E[(Y - t)^+] for a scalar or array of thresholds t."""
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    return np.clip(line_values(dist)[None, :] - tv[:, None], 0.0, None) @ dist.weights


def icx_leq(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = 1e-10) -> bool:
    """Decide mu <= nu in the increasing convex order.

    Checks the stop-loss inequality E[(X-t)^+] <= E[(Y-t)^+] at every atom
    value of both measures; both sides are piecewise linear with kinks
    only at atoms and vanish beyond the joint support, so this grid decides
    the ordering.
    """
    grid = np.union1d(line_values(mu), line_values(nu))
    return bool(np.all(stop_loss(mu, grid) <= stop_loss(nu, grid) + tol))
