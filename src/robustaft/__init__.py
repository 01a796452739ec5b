"""Robust linear regression under random right censoring.

Kaplan-Meier-weighted least squares with an l1 penalty on per-observation
mean shifts: a non-robust baseline fit, the penalized robust fit, an
outlier-screened refit, plug-in sandwich inference, and a Monte Carlo
replication harness.
"""

from .data import SortedSample, SurvivalSample, load_csv, sort_sample, write_csv
from .inference import (
    CensoringKM,
    DegenerateTailWarning,
    InferenceResult,
    censoring_km,
    compute_psi,
    sandwich_ci,
)
from .km import KMWeightSet, km_weights, lambda_rule
from .penalized import PenalizedConfig, fit_penalized, soft_threshold_step
from .simulation import (
    DESK_PROFILE,
    PAPER_PROFILE,
    DgpConfig,
    MonteCarloReport,
    ReportRow,
    StudyProfile,
    generate_sample,
    run_study,
)
from .two_step import DEFAULT_TAU0, detect_outliers, fit_two_step
from .wls import (
    Fit,
    SingularGramError,
    WeightedDesign,
    build_weighted_design,
    stute_fit,
    wls_solve,
)

__version__ = "0.1.0"

__all__ = [
    "CensoringKM",
    "DEFAULT_TAU0",
    "DESK_PROFILE",
    "DegenerateTailWarning",
    "DgpConfig",
    "Fit",
    "InferenceResult",
    "KMWeightSet",
    "MonteCarloReport",
    "PAPER_PROFILE",
    "PenalizedConfig",
    "ReportRow",
    "SingularGramError",
    "SortedSample",
    "StudyProfile",
    "SurvivalSample",
    "WeightedDesign",
    "build_weighted_design",
    "censoring_km",
    "compute_psi",
    "detect_outliers",
    "fit_penalized",
    "fit_two_step",
    "generate_sample",
    "km_weights",
    "lambda_rule",
    "load_csv",
    "run_study",
    "sandwich_ci",
    "sort_sample",
    "soft_threshold_step",
    "stute_fit",
    "wls_solve",
    "write_csv",
]
