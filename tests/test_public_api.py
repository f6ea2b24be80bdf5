import meanrisk

PUBLIC = [
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


def test_all_is_pinned():
    assert meanrisk.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in meanrisk.__all__:
        assert getattr(meanrisk, name) is not None, name
