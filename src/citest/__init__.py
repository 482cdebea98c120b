"""Citation-profile indices, total-citation estimators, and exact
Durfee-square partition statistics."""

from .errors import (
    CitestError,
    DegenerateCore,
    EmptyCore,
    GroundTruthUnavailable,
    IndexUnderflow,
    InsufficientTail,
    NegativeArgument,
    NegativeCitation,
    ParseError,
    RankOutOfRange,
    ResourceLimit,
    WrongCase,
)
from .profile import (
    CitationProfile,
    load_profile,
    normalize,
    truncate_head,
)
from .indices import CoreIndices, compute_core_indices, core_sum, g_index, h_index
from .shifted import (
    CASE_TAGS,
    DefectAnalysis,
    ShiftedRow,
    check_transition,
    h_defect,
    shifted_h,
    shifted_ladder,
)
from .estimators import (
    CaseWeights,
    ErrorMetrics,
    EstimateReport,
    Interval,
    IntervalVariants,
    RuleOfThumbSet,
    brown_interval,
    error_metrics,
    estimate_A_quick,
    estimate_report,
    h_na,
    interval_I,
    interval_J,
    interval_variants,
    na_ratio_limit,
    rules_of_thumb,
    yong_interval,
)
from .partitions import (
    DurfeeDistribution,
    Partition,
    count_by_durfee,
    durfee_mode_formula,
    durfee_moment_estimates,
    durfee_size,
    enumerate_partitions,
    hardy_ramanujan,
    partition_count,
)

__version__ = "0.1.0"
