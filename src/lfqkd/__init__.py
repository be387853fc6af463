"""Loophole-free QKD post-processing: rates, thresholds, detection Monte Carlo."""

from .rates import (
    CoherentDecoy,
    CoherentDecoyMemory,
    DetectionStats,
    KeyRateBreakdown,
    RANDOM_ASSIGNMENT_ERROR_RATE,
    SinglePhoton,
    SourceModel,
    channel_terms,
    key_rate,
    key_rate_single_click,
    rate_terms,
)
from .simulate import (
    AdversaryStrategy,
    ClickKind,
    ComparisonReport,
    ExtremeTimeShift,
    StrongPulse,
    TrialBatch,
    compare_to_analytic,
    empirical_stats,
    run_trials,
    trial_records,
)
from .threshold import (
    EmptyCurveError,
    GridSpec,
    MODEL_FAMILIES,
    ThresholdCurve,
    curve_to_csv,
    solve_threshold_ed,
    sweep_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryStrategy",
    "ClickKind",
    "CoherentDecoy",
    "CoherentDecoyMemory",
    "ComparisonReport",
    "DetectionStats",
    "EmptyCurveError",
    "ExtremeTimeShift",
    "GridSpec",
    "KeyRateBreakdown",
    "MODEL_FAMILIES",
    "RANDOM_ASSIGNMENT_ERROR_RATE",
    "SinglePhoton",
    "SourceModel",
    "StrongPulse",
    "ThresholdCurve",
    "TrialBatch",
    "channel_terms",
    "compare_to_analytic",
    "curve_to_csv",
    "empirical_stats",
    "key_rate",
    "key_rate_single_click",
    "rate_terms",
    "run_trials",
    "solve_threshold_ed",
    "sweep_curve",
    "trial_records",
]
