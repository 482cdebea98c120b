"""Citation-profile indices, total-citation estimators, and exact
Durfee-square partition statistics."""

from .errors import (
    CitestError,
    DegenerateCore,
    EmptyCore,
    GroundTruthUnavailable,
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
from .indices import CoreIndices, compute_core_indices, g_index, h_index
from .shifted import (
    DefectAnalysis,
    ShiftedRow,
    h_defect,
    shifted_ladder,
)
from .estimators import (
    CaseWeights,
    ErrorMetrics,
    EstimateReport,
    Interval,
    IntervalVariants,
    brown_interval,
    error_metrics,
    estimate_report,
    h_na,
    interval_I,
    interval_J,
    interval_variants,
)
from .partitions import (
    DurfeeDistribution,
    count_by_durfee,
    durfee_moment_estimates,
    durfee_size,
    enumerate_partitions,
    partition_count,
)

__version__ = "0.1.0"
