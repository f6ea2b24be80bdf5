"""Exception types shared across the package."""


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
    """A problem exceeds a documented size cap: a QP with more than 20 rows
    for KKT subset enumeration, a convex MIP with more than
    optim.MAX_LATTICE_POINTS integer assignments, or a transport problem
    with more than metrics.MAX_PLAN_ENTRIES (source, target) pairs."""


def _floats(v) -> list:
    return [float(c) for c in v]


class RecourseInfeasible(MeanRiskError):
    """The recourse problem is infeasible at a given (x, z).

    Signals a violated feasibility assumption for this instance; the
    offending point is kept for diagnostics.
    """

    def __init__(self, x=None, z=None, detail=""):
        self.x = x
        self.z = z
        msg = "recourse infeasible"
        if x is not None:
            msg += f" at x={_floats(x)}, z={_floats(z)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RecourseUnbounded(MeanRiskError):
    """The recourse problem is unbounded below at a given (x, z)."""

    def __init__(self, x=None, z=None, detail=""):
        self.x = x
        self.z = z
        msg = "recourse unbounded"
        if x is not None:
            msg += f" at x={_floats(x)}, z={_floats(z)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InvalidExponent(MeanRiskError):
    """A growth exponent that must be positive is missing or <= 0."""


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
