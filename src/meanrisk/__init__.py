"""Mean-risk two-stage stochastic programs on finitely supported measures.

One measure type, DiscreteMeasure, canonical by construction, carries the
noise measure nu on R^s and any law on the line.  The package evaluates the
mean-risk objective Q(x, nu) = rho(f(x, .)#nu) from the recourse values
f(x, z) at nu's atoms, provides probability metrics for weak and
gauge-weighted convergence, and ships an experiment harness that measures
how the optimal value and argmin set respond to perturbations of the
underlying measure.
"""

from . import errors, exprs, metrics, optim, recourse, risk, stability
from .measure import (
    DiscreteMeasure,
    canonicalize,
    dirac,
    empirical,
    mix,
    moment,
    quantile,
    tail_functional,
)
from .objective import (
    DecisionSet,
    MeanRiskModel,
    Q,
    argmin_set,
    phi,
    q_profile,
)
from .recourse import (
    GrowthCertificate,
    ParamMap,
    RecourseModel,
    certify_growth,
    map_exponent,
    theoretical_exponent,
)
from .risk import RiskSpec, avar, evaluate_risk, icx_leq, semidev, target_semidev
from .stability import (
    PerturbationScheme,
    StabilityReport,
    argmin_excess,
    generate_sequence,
    run_experiment,
    trend_check,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteMeasure",
    "canonicalize",
    "dirac",
    "quantile",
    "moment",
    "tail_functional",
    "mix",
    "empirical",
    "RiskSpec",
    "evaluate_risk",
    "avar",
    "semidev",
    "target_semidev",
    "icx_leq",
    "RecourseModel",
    "ParamMap",
    "theoretical_exponent",
    "map_exponent",
    "certify_growth",
    "GrowthCertificate",
    "DecisionSet",
    "MeanRiskModel",
    "Q",
    "q_profile",
    "phi",
    "argmin_set",
    "PerturbationScheme",
    "StabilityReport",
    "generate_sequence",
    "run_experiment",
    "argmin_excess",
    "trend_check",
    "errors",
    "exprs",
    "metrics",
    "optim",
    "recourse",
    "risk",
    "stability",
]
