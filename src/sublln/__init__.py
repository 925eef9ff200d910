"""Worst-case expectations over finitely generated ambiguity sets.

Exact backward-recursion evaluation of ``max_P E_P[phi(S_n / n)]`` for
lattice-supported families, constructed worst-case measures, and a
verification harness for the law-of-large-numbers convergence-rate bounds.
"""

from .ambiguity import (
    AlphaOutOfRange,
    AmbiguityFamily,
    DiscreteDistribution,
    FamilyInvalid,
    LatticeSpec,
    MomentSummary,
    ValidationResult,
    mean_bounds,
    moment_c_alpha,
    moment_summary,
    one_step_expectation,
    upper_variance,
    validate_family,
)
from .engine import (
    DEFAULT_STATE_CAP,
    PolicyIncomplete,
    SelectionPolicy,
    SumSupport,
    SupportOverflow,
    ValueTable,
    expectation_under_policy,
    expectations_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,
    iid_sum_expectations,
    lower_iid_sum_expectation,
    value_table,
)
from .lln_rates import (
    BOUND_TOL,
    ROUND_TOL,
    IntervalMaxResult,
    InvalidInterval,
    LipschitzFunction,
    NonPositiveN,
    RateReport,
    abs_dev,
    clip_to,
    corollary_bound,
    distance_sq_moment,
    fang_bound,
    improved_distance_bound,
    interval_dist_sq,
    interval_distance_phi,
    interval_max,
    linear,
    neg_abs_dev,
    rate_sweep,
    spot_check_lipschitz,
    theorem3_bound,
    verdict,
)
from .measures import (
    ChatterjiReport,
    LowerBoundReport,
    MartingaleDecomposition,
    MuStarOutOfRange,
    PathMeasure,
    POutOfRange,
    Prop2Report,
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_check,
    lower_bound_checks,
    prop2_check,
    sample_paths,
    sample_sum_counts,
    uniform_mixture,
)

__version__ = "0.1.0"
