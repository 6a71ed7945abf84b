"""Confidence intervals after best-subset selection.

Exhaustive subset search under AIC/BIC/AICc characterizes its own selection
event, along any fixed linear direction of the response, as a finite union of
intervals; inverting the truncated-normal CDF over that union yields
intervals with exact finite-sample conditional coverage.  This package
implements the geometry, the truncated-normal numerics, classical and
corrected intervals, and a simulation/analysis harness with a CLI.
"""

from . import errors
from .criteria import (
    CandidatePolicy,
    Criterion,
    CriterionSpec,
    ScoredModel,
    best_subset,
    criterion_score,
    penalty_ratio,
)
from .geometry import (
    EtaDecomposition,
    SelectionEvent,
    decompose,
    selection_event,
    selection_events,
    superset_lower_bound,
)
from .harness import (
    AnalysisReport,
    CoverageReport,
    SimulationConfig,
    analyze,
    emit_report,
    generate_design,
    load_csv_dataset,
    simulate_coverage,
)
from .inference import (
    CIResult,
    InferenceTarget,
    SigmaSpec,
    classical_ci,
    corrected_ci,
    estimate_sigma,
    eta_for_target,
    pivot_value,
)
from .intervals import IntervalUnion, interval_union
from .linmodel import (
    Dataset,
    IndexSet,
    LeastSquaresFit,
    adjusted_coefficients,
    fit_submodel,
    residual_project,
    rss,
)
from .truncnorm import (
    TruncatedNormalSpec,
    invert_mean,
    log_normal_measure,
    normal_measure,
    truncated_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CIResult",
    "CandidatePolicy",
    "CoverageReport",
    "Criterion",
    "CriterionSpec",
    "Dataset",
    "EtaDecomposition",
    "IndexSet",
    "InferenceTarget",
    "IntervalUnion",
    "LeastSquaresFit",
    "ScoredModel",
    "SelectionEvent",
    "SigmaSpec",
    "SimulationConfig",
    "TruncatedNormalSpec",
    "adjusted_coefficients",
    "analyze",
    "best_subset",
    "classical_ci",
    "corrected_ci",
    "criterion_score",
    "decompose",
    "emit_report",
    "errors",
    "estimate_sigma",
    "eta_for_target",
    "fit_submodel",
    "generate_design",
    "interval_union",
    "invert_mean",
    "load_csv_dataset",
    "log_normal_measure",
    "normal_measure",
    "penalty_ratio",
    "pivot_value",
    "residual_project",
    "rss",
    "selection_event",
    "selection_events",
    "simulate_coverage",
    "superset_lower_bound",
    "truncated_cdf",
]
