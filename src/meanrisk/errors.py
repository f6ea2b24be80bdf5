"""Exception types and the guards on input numbers: in_range for every
parameter's range, as_int for integer fields, float_array for arrays of
data, finite_result for computed values."""

import math
import operator
from numbers import Integral, Real

import numpy as np


class MeanRiskError(Exception):
    """Base class for all package errors."""


class EmptySupport(MeanRiskError):
    """A measure was constructed with no atoms or zero total weight."""


class NegativeWeight(MeanRiskError):
    """A measure was constructed with a negative atom weight."""


class OutOfRange(MeanRiskError):
    """A numeric argument is outside its documented range."""


class DimMismatch(MeanRiskError):
    """Two objects with incompatible dimensions were combined."""


class InvalidSpec(MeanRiskError):
    """A specification object carries parameters outside their ranges."""


class NumericalFailure(MeanRiskError):
    """A solver exceeded its iteration cap or lost numerical control."""


class ConstraintLimitExceeded(MeanRiskError):
    """A problem exceeds a documented size cap: a QP with more than
    optim.MAX_QP_ROWS rows for KKT subset enumeration, a convex MIP with
    more than optim.MAX_LATTICE_POINTS integer assignments, a transport
    problem with more than metrics.MAX_PLAN_ENTRIES (source, target) pairs,
    or a recourse batch of more than recourse.MAX_RECOURSE_ROWS rows, and a
    decision grid (DecisionSet.from_box) of more points than that cap."""


def _floats(v) -> list:
    return [float(c) for c in v]


class _RecourseAtPoint(MeanRiskError):
    """A recourse problem without an optimal value at (x, z), kept for diagnostics."""

    status = ""

    def __init__(self, x=None, z=None, detail=""):
        self.x = x
        self.z = z
        msg = f"recourse {self.status}"
        if x is not None:
            msg += f" at x={_floats(x)}, z={_floats(z)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RecourseInfeasible(_RecourseAtPoint):
    """The recourse problem is infeasible at a given (x, z): a violated
    feasibility assumption for this instance."""

    status = "infeasible"


class RecourseUnbounded(_RecourseAtPoint):
    """The recourse problem is unbounded below at a given (x, z)."""

    status = "unbounded"


class InvalidExponent(MeanRiskError):
    """A growth exponent that must be positive is missing, not finite or <= 0."""


class MissingDeclaredExponent(MeanRiskError):
    """An expression parameter map has no declared growth exponent."""


class GrammarError(MeanRiskError):
    """An expression tree violates the convex construction rules."""


class UnknownColumn(MeanRiskError):
    """A report column name does not exist."""


class EmptySet(MeanRiskError):
    """A set argument that must be nonempty is empty."""


class ConfigError(MeanRiskError):
    """A CLI configuration file is missing, unreadable or inconsistent."""


_OPS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="),
        "lt": (operator.lt, "<"), "le": (operator.le, "<=")}
_WORDS = {("gt", 0): "positive", ("ge", 0): "nonnegative"}


def _real(kind: type) -> bool:
    """Whether values of this type are real numbers (numpy's too), not bools."""
    return issubclass(kind, Real) and not issubclass(kind, bool)


def in_range(value, name: str, *, gt=None, ge=None, lt=None, le=None, error=OutOfRange) -> float:
    """float(value) when value is a finite real number above gt (or at least
    ge) and below lt (or at most le), each end optional.  Otherwise, and for
    None, a bool, a string or any other non-number (shown by its repr), raise
    ``error`` with a message naming the parameter and its range."""
    bounds = [(op, b) for op, b in zip(_OPS, (gt, ge, lt, le)) if b is not None]
    try:
        v = float(value) if _real(type(value)) else math.nan
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not (math.isfinite(v) and all(_OPS[op][0](v, b) for op, b in bounds)):
        rule = "".join(f" and {_WORDS.get((op, b)) or f'{_OPS[op][1]} {b:g}'}" for op, b in bounds)
        shown = value if _real(type(value)) else repr(value)
        raise error(f"{name} must be finite{rule}, got {shown}")
    return v


def as_int(value, name: str, error=OutOfRange) -> int:
    """int(value) when value is an integral number (2 or 2.0, but not 1.9,
    inf, True or "2"); otherwise raise ``error`` naming the field."""
    if _real(type(value)) and (isinstance(value, Integral) or float(value).is_integer()):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def float_array(value, name: str, error=OutOfRange) -> np.ndarray:
    """value as a float array: a numeric array, or numbers nested in lists or
    tuples.  An entry that is not a real number (a string, a bool, None, or
    the list left where a nesting is ragged) raises ``error``; finiteness
    and shape are the caller's to check."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(float, copy=False)
    entries = np.array(value, dtype=object)
    if not all(map(_real, set(map(type, entries.flat)))):
        bad = next(v for v in entries.flat if not _real(type(v)))
        raise error(f"{name} must hold only numbers, got {bad!r}")
    return entries.astype(float)


def finite_result(value: float, name: str, q: float | None = None) -> float:
    """value, or OutOfRange naming what overflowed: a power ||.||^q on the
    atoms when q is given, else the computed quantity name."""
    if not math.isfinite(value):
        where = ": not finite" if q is None else f" at order q = {q}: not finite on these atoms"
        raise OutOfRange(f"{name} is {value}{where}")
    return value
