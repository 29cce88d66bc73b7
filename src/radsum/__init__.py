"""radsum: exact probabilities and certified lower bounds for Rademacher sums.

For a unit-norm weight vector x and independent uniform signs eps, the
package computes Pr(|eps . x| <= t) exactly, certifies the universal lower
bound Pr(|eps . x| <= 1) >= 0.36 instance by instance, verifies every link
of the underlying inequality chains numerically, and searches for
near-extremal weight vectors.
"""

from .algebraic import SqrtSum, exact_sqrt, squarefree_decompose
from .bounds import (
    CASE1_FLOOR,
    CASE2_FLOOR,
    THEOREM_FLOOR,
    Case1Data,
    Case2Data,
    Case2Entry,
    Certificate,
    DecompositionReport,
    case1_certificate,
    case2_certificate,
    crossing_point,
    decomposition_check,
    g,
    h,
    hybrid_bound,
    minmax_bound,
    theorem_bound,
    verify_certificate,
)
from .engine import (
    DEFAULT_FULL_LIMIT,
    DEFAULT_MITM_LIMIT,
    PartitionReport,
    PartitionStats,
    SumDistribution,
    admissible_count,
    prefix_partition,
    sum_distribution,
    threshold_probability,
    threshold_probability_naive,
)
from .errors import (
    DegenerateVectorError,
    InputError,
    RadsumError,
    SizeLimitError,
    SoundnessError,
    WrongCaseError,
)
from .explore import (
    EstimateCI,
    LemmaRow,
    LemmaSweepReport,
    SearchResult,
    lemma_sweep,
    minimize_probability,
    monte_carlo,
)
from .moments import TailMoments, tail_moments
from .weights import (
    EXACT,
    FLOAT,
    CaseTag,
    WeightVector,
    canonicalize,
    case_of,
    from_squares,
    parse_weights,
)

__version__ = "0.1.0"

__all__ = [
    "CASE1_FLOOR",
    "CASE2_FLOOR",
    "THEOREM_FLOOR",
    "Case1Data",
    "Case2Data",
    "Case2Entry",
    "CaseTag",
    "Certificate",
    "DecompositionReport",
    "DEFAULT_FULL_LIMIT",
    "DEFAULT_MITM_LIMIT",
    "DegenerateVectorError",
    "EXACT",
    "EstimateCI",
    "FLOAT",
    "InputError",
    "LemmaRow",
    "LemmaSweepReport",
    "PartitionReport",
    "PartitionStats",
    "RadsumError",
    "SearchResult",
    "SizeLimitError",
    "SoundnessError",
    "SqrtSum",
    "SumDistribution",
    "TailMoments",
    "WeightVector",
    "WrongCaseError",
    "admissible_count",
    "canonicalize",
    "case1_certificate",
    "case2_certificate",
    "case_of",
    "crossing_point",
    "decomposition_check",
    "exact_sqrt",
    "from_squares",
    "g",
    "h",
    "hybrid_bound",
    "lemma_sweep",
    "minimize_probability",
    "minmax_bound",
    "monte_carlo",
    "parse_weights",
    "prefix_partition",
    "squarefree_decompose",
    "sum_distribution",
    "tail_moments",
    "theorem_bound",
    "threshold_probability",
    "threshold_probability_naive",
    "verify_certificate",
]
