"""Perturbation schemes and the stability experiment runner.

Each run perturbs a base measure along a schedule, re-evaluates the
mean-risk objective on the decision grid, and reports per step the weak
distance, the gauge-weighted distance, the optimal-value drift, the sup
deviation of Q, and the one-sided argmin excess — always against the base
measure, since the theory is about continuity at the base.  A uniform
integrability diagnosis of the generated family travels with the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatch,
    EmptySet,
    InvalidSpec,
    MeanRiskError,
    OutOfRange,
    UnknownColumn,
    as_int,
    in_range,
)
from .measure import DiscreteMeasure, _philox, mix, moment
from .metrics import bounded_lipschitz, diagnose_uniform_integrability
from .objective import MeanRiskModel, _argmin, q_profile

SCHEME_KINDS = ("saa", "contamination", "jitter", "discretize")
# the kinds whose steps draw, keyed by the seed; only these store one
SEEDED_KINDS = ("saa", "jitter")
# draws of one SAA step; outside the d >= 2 merge fallback a step holds 8 B
# per draw at its peak (the sorted float64 uniforms, freed before the
# weights' running sums of 8 B per draw of the most-drawn atom), so 80 MB
# at the cap
MAX_SAA_DRAWS = 10_000_000
# per kind: the JSON key of its schedule, the range of every entry (an
# integer for saa), and +1 when the schedule strictly increases or -1 when
# it strictly decreases
_SCHEDULES = {
    "saa": ("n_schedule", {"ge": 1, "le": MAX_SAA_DRAWS}, 1),
    "contamination": ("t_schedule", {"ge": 0, "le": 1}, -1),
    "jitter": ("sigma_schedule", {"gt": 0}, -1),
    "discretize": ("grid_schedule", {"gt": 0}, 1),
}


@dataclass(frozen=True)
class PerturbationScheme:
    """One of four perturbation families, each indexed by one nonempty
    schedule of finite entries (JSON key, range, direction in _SCHEDULES):

    saa            seeded empirical measures of the base, of the schedule's sizes
    contamination  (1-t) base + t direction, t decreasing
    jitter         seeded coordinate-wise uniform noise of half-width sigma
    discretize     atoms snapped to a grid of increasing resolution

    A field the kind does not read is set to None: the seed of a kind that
    does not draw (not in SEEDED_KINDS), and the direction of a kind other
    than contamination.
    """

    kind: str
    schedule: tuple
    seed: int | None = 0
    direction: DiscreteMeasure | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise InvalidSpec(f"unknown scheme kind {self.kind!r}")
        seed = as_int(self.seed, "seed", InvalidSpec, ge=0) if self.kind in SEEDED_KINDS else None
        object.__setattr__(self, "seed", seed)
        if self.kind != "contamination":
            object.__setattr__(self, "direction", None)
        elif self.direction is None:
            raise InvalidSpec("contamination needs a direction")
        name, bounds, sign = _SCHEDULES[self.kind]
        entry, values = f"{name} entry", []
        for v in self.schedule:
            if self.kind == "saa":
                v = as_int(v, entry, InvalidSpec)
                in_range(v, entry, error=InvalidSpec, **bounds)
            else:
                v = in_range(v, entry, error=InvalidSpec, **bounds)
            # rng.uniform(-sigma, sigma) needs a finite width 2 sigma
            if self.kind == "jitter" and not np.isfinite(2 * v):
                raise InvalidSpec(f"{entry} {v} is too large: 2 sigma overflows")
            values.append(v)
        if not values:
            raise InvalidSpec(f"{self.kind} needs a nonempty {name}")
        object.__setattr__(self, "schedule", tuple(values))
        if any(sign * (b - a) <= 0 for a, b in zip(values, values[1:])):
            raise InvalidSpec(f"{name} must strictly {'increase' if sign > 0 else 'decrease'}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, _SCHEDULES[self.kind][0]: list(self.schedule)}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.direction is not None:
            out["direction"] = self.direction.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PerturbationScheme":
        kind = data["kind"]
        return cls(
            kind=kind,
            # an unknown kind reads no schedule and is refused by the constructor
            schedule=tuple(data.get(_SCHEDULES[kind][0], ()) if kind in SCHEME_KINDS else ()),
            seed=data.get("seed", 0),
            # only contamination reads a direction
            direction=(DiscreteMeasure.from_dict(data["direction"])
                       if kind == "contamination" and "direction" in data else None),
        )


def _saa_counts(base: DiscreteMeasure, n: int, seed) -> np.ndarray:
    """Draws per base atom of rng.choice(len(base), size=n, p=base.weights).

    choice returns cdf.searchsorted(rng.random(n), side="right") with
    cdf = cumsum(p) / its last entry, so atom k gets the uniforms in
    [cdf[k-1], cdf[k]).  Counting them needs the same n uniforms only
    sorted, and one search per atom rather than one per draw."""
    u = _philox(seed).random(n)
    u.sort()
    cdf = np.cumsum(base.weights)
    cdf /= cdf[-1]
    below = np.searchsorted(u, cdf, side="left")
    return np.diff(below, prepend=0)


def _saa_step(base: DiscreteMeasure, n: int, seed) -> DiscreteMeasure:
    """Empirical measure of n draws from base, as counts on its atoms.

    An atom drawn c times weighs the c-th running sum of 1/n, which is what
    adding its draws' 1/n weights up one by one gives, in any order."""
    counts = _saa_counts(base, n, seed)
    kept = np.flatnonzero(counts)
    sums = np.full(int(counts.max()), 1.0 / n)
    np.cumsum(sums, out=sums)
    step = DiscreteMeasure(base.points[kept], sums[counts[kept] - 1])
    if len(step) < len(kept):
        # kept atoms merged: add their draws up in sorted order, as empirical does
        step = DiscreteMeasure(np.repeat(base.points, counts, axis=0), np.full(n, 1.0 / n))
    return step


def generate_sequence(scheme: PerturbationScheme, base: DiscreteMeasure):
    """Deterministic perturbed sequence; per-step randomness is keyed by
    (seed, step index) so steps are independent of evaluation order.

    An SAA step counts the draws rng.choice(len(base), n, p=base.weights)
    would make per base atom from one sort of the same uniforms (rng.choice
    maps each uniform to the first atom whose normalized cumulative weight
    exceeds it, so the count of atom k is the number of sorted uniforms
    between two such weights), and gives atom k the running sum of 1/n over
    its count.  Equal weights add up to the same running sums in any order,
    so the step is bit for bit the empirical measure of those draws, as
    empirical(sampler, n, seed=(seed, k)) gives it for a sampler that
    returns base.points at those atom indices.
    The one exception is a set of drawn atoms that merge once the atoms
    between them are missing (possible in d >= 2), whose sums could differ
    in the last bit; such a step is canonicalized from its draws, repeated
    per atom, instead.  Jittered or snapped points that overflow are
    refused by canonicalization (OutOfRange)."""
    out = []
    if scheme.kind == "saa":
        for k, n in enumerate(scheme.schedule):
            out.append(_saa_step(base, n, (scheme.seed, k)))
    elif scheme.kind == "contamination":
        for t in scheme.schedule:
            out.append(mix(base, scheme.direction, t))
    elif scheme.kind == "jitter":
        for k, sigma in enumerate(scheme.schedule):
            noise = _philox((scheme.seed, k)).uniform(-sigma, sigma, size=base.points.shape)
            with np.errstate(over="ignore"):
                moved = base.points + noise
            out.append(DiscreteMeasure(moved, base.weights))
    else:
        for res in scheme.schedule:
            with np.errstate(over="ignore"):
                snapped = np.round(base.points * res) / res
            out.append(DiscreteMeasure(snapped, base.weights))
    return out


class StabilityRow(NamedTuple):
    """One step of a run, its fields in report column order."""

    step: int
    param: float
    d_bl: float
    d_psi: float
    delta_phi_abs: float
    sup_delta_q: float
    argmin_excess: float
    error: str = ""


COLUMNS = StabilityRow._fields


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple
    ui_verdict: bool
    ui_sup_tails: tuple
    ui_grid: tuple
    metadata: dict = field(compare=False)

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS or name == "error":
            raise UnknownColumn(f"no numeric column {name!r}")
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def to_csv_text(self) -> str:
        lines = [",".join(COLUMNS)]
        for r in self.rows:
            lines.append(",".join(str(v) if isinstance(v, (int, str)) else repr(v) for v in r))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "columns": list(COLUMNS),
            "rows": [list(r) for r in self.rows],
            "uniform_integrability": {
                "verdict": bool(self.ui_verdict),
                "grid": list(self.ui_grid),
                "sup_tails": list(self.ui_sup_tails),
            },
            "metadata": self.metadata,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"


def argmin_excess(candidate, reference) -> float:
    """One-sided Hausdorff excess max_{x in candidate} min_{x' in reference}
    ||x - x'||; zero iff the candidate set is contained in the reference."""
    cand = np.atleast_2d(np.asarray(getattr(candidate, "points", candidate), dtype=float))
    ref = np.atleast_2d(np.asarray(getattr(reference, "points", reference), dtype=float))
    if cand.size == 0 or ref.size == 0:
        raise EmptySet("argmin excess needs nonempty sets")
    if cand.shape[1] != ref.shape[1]:
        raise DimMismatch(f"argmin sets of dims {cand.shape[1]} vs {ref.shape[1]}")
    d = np.linalg.norm(cand[:, None, :] - ref[None, :, :], axis=2)
    return float(np.max(np.min(d, axis=1)))


def _default_ui_grid(base: DiscreteMeasure, q: float) -> np.ndarray:
    """Threshold grid topping out at 1e3 times the base measure's own
    gauge scale, so families escaping far beyond the base fail the verdict
    while compactly supported perturbations pass.  The top is capped at
    1e308, where 1e3 times the scale overflows."""
    scale = max(1.0, float(np.max(base.norms()) ** q))
    return np.logspace(0.0, np.log10(min(1e3 * scale, 1e308)), 25)


def run_experiment(
    model: MeanRiskModel,
    base: DiscreteMeasure,
    scheme: PerturbationScheme | None = None,
    sequence=None,
    argmin_tol: float = 1e-8,
) -> StabilityReport:
    """Measure stability of phi and the argmin map along a perturbation
    path, from one Q profile per measure.  The path is a scheme's (params
    its schedule) or an explicit measure sequence (params 1, 2, ...), not
    both; giving both or neither, or a bad argmin_tol, raises before any
    solve.  A step whose metrics or evaluation fail carries NaN in the
    values it could not compute and in all three deviations, and an error
    naming the step, instead of aborting the run."""
    argmin_tol = in_range(argmin_tol, "tolerance", ge=0)
    if (scheme is None) == (sequence is None):
        raise InvalidSpec("need a scheme or an explicit sequence, not both")
    if sequence is None:
        sequence = generate_sequence(scheme, base)
        params = scheme.schedule
    else:
        params = range(1, len(sequence) + 1)

    qp = model.gamma * model.p
    base_q = q_profile(model, base)
    base_phi = float(np.min(base_q))
    base_arg = _argmin(model, base_q, argmin_tol)
    base_moment = moment(base, qp)

    rows = []
    for k, (nu, par) in enumerate(zip(sequence, params)):
        d_bl = d_psi = dphi = sup_dq = exc = float("nan")
        error = ""
        try:
            d_bl = bounded_lipschitz(nu, base)
            # psi_metric(nu, base, qp), reusing d_bl and the base moment
            d_psi = d_bl + abs(moment(nu, qp) - base_moment)
            qk = q_profile(model, nu)
            # the one deviation that can fail goes first, so a failed step has none
            exc = argmin_excess(_argmin(model, qk, argmin_tol), base_arg)
            dphi, sup_dq = abs(float(np.min(qk)) - base_phi), float(np.max(np.abs(qk - base_q)))
        except MeanRiskError as err:
            error = f"step {k}: {type(err).__name__}: {err}"
        rows.append(StabilityRow(k, float(par), d_bl, d_psi, dphi, sup_dq, exc, error))

    ui = diagnose_uniform_integrability(list(sequence) + [base], qp, _default_ui_grid(base, qp))

    metadata = {
        "model_hash": model.digest(),
        "base_hash": base.digest(),
        "scheme": scheme.to_dict() if scheme is not None else {"kind": "explicit"},
        "seed": scheme.seed if scheme is not None else None,
        "gauge_exponent": qp,
        "argmin_tol": argmin_tol,
    }
    return StabilityReport(
        rows=tuple(rows),
        ui_verdict=ui.verdict,
        ui_sup_tails=tuple(float(v) for v in ui.sup_tails),
        ui_grid=tuple(float(a) for a in ui.a_grid),
        metadata=metadata,
    )


@dataclass(frozen=True)
class TrendResult:
    passed: bool
    slope: float
    first: float
    last: float


def trend_check(report: StabilityReport, column: str, factor: float) -> TrendResult:
    """Gate: last value <= first value / factor; also fits the slope of
    log(value) against log(step index) over the positive entries."""
    in_range(factor, "factor", gt=1)
    values = report.column(column)
    if len(values) < 3:
        raise OutOfRange("trend check needs at least 3 rows")
    first, last = float(values[0]), float(values[-1])
    passed = bool(last <= first / factor)
    steps = np.arange(1, len(values) + 1, dtype=float)
    pos = values > 0
    if np.count_nonzero(pos) >= 2:
        x = np.log(steps[pos])
        y = np.log(values[pos])
        slope = float(np.polyfit(x, y, 1)[0])
    else:
        slope = 0.0
    return TrendResult(passed=passed, slope=slope, first=first, last=last)
