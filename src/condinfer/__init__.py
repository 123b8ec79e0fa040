"""Selection-corrected inference for effects flagged by multiple testing.

After a step-down or step-up procedure marks some estimated effects as
significant, the conventional estimates of exactly those effects are
biased and their confidence intervals undercover.  This package computes
conditionally median-unbiased estimates and conditional confidence
intervals by inverting the truncated-Gaussian distribution of each selected
t-statistic given the selection outcome.
"""

from .inference import (
    ConditionalInference,
    EffectEstimates,
    infer_significant,
    studentize,
    unconditional_ci,
)
from .sim import (
    DesignConfig,
    SimulationSummary,
    csv_header,
    csv_row,
    format_table,
    simulate_design,
    summarize,
)
from .stats_core import (
    BoundaryStatisticError,
    DegenerateSupportError,
    IntervalUnion,
    TruncatedGaussian,
    invert_truncated_mu,
    normal_quantile,
    truncated_cdf,
)
from .support import (
    Decomposition,
    InconsistentEventError,
    SelectionEvent,
    conditional_support,
    decompose,
    membership_oracle,
    membership_profile,
    merge_intervals,
)
from .testing import (
    SelectionOutcome,
    ThresholdSpec,
    ZeroVarianceError,
    load_bootstrap_draws,
    save_bootstrap_draws,
    select,
    step_down_select,
    step_up_select,
    threshold_value,
    thresholds_by_step,
    wild_bootstrap_draws,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryStatisticError",
    "ConditionalInference",
    "Decomposition",
    "DegenerateSupportError",
    "DesignConfig",
    "EffectEstimates",
    "InconsistentEventError",
    "IntervalUnion",
    "SelectionEvent",
    "SelectionOutcome",
    "SimulationSummary",
    "ThresholdSpec",
    "TruncatedGaussian",
    "ZeroVarianceError",
    "conditional_support",
    "csv_header",
    "csv_row",
    "decompose",
    "format_table",
    "infer_significant",
    "invert_truncated_mu",
    "load_bootstrap_draws",
    "membership_oracle",
    "membership_profile",
    "merge_intervals",
    "normal_quantile",
    "save_bootstrap_draws",
    "select",
    "simulate_design",
    "step_down_select",
    "step_up_select",
    "studentize",
    "summarize",
    "threshold_value",
    "thresholds_by_step",
    "truncated_cdf",
    "unconditional_ci",
    "wild_bootstrap_draws",
]
