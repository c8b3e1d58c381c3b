"""Verification toolkit for stochastic-order comparisons of weighted sums
of independent nonnegative random variables.

The package decomposes into vector preorders (majorization), scalar
transform machinery, the generalized gamma family, stochastic-order
decision procedures, and a scenario harness with a CLI on top.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    DomainError,
    InternalError,
    NumericError,
    OrderError,
    ParameterError,
    StochOrderError,
)
from .majorization import (
    MajorizationMode,
    TChain,
    WeightVector,
    as_weight_vector,
    brute_force_majorize,
    check_majorize,
    sort_increasing,
    t_transform_chain,
)
from .transforms import (
    ClosedFormConditions,
    ConditionReport,
    ConditionVariant,
    Direction,
    GridSpec,
    PQRegion,
    Transform,
    check_convexity_conditions,
    classify_pq,
    closed_form_conditions,
    make_exp,
    make_log_shift,
    make_power,
)
from .distributions import (
    DensitySpec,
    GammaPower,
    GeneralizedGamma,
    LogConcavity,
    LogConcavityResult,
    LRResult,
    LRVerdict,
    gamma_power_logconcave,
    log_concavity_classify,
    lr_compare,
    transformed_density,
)
from .orders import (
    NumericCDF,
    OrderVerdict,
    Relation,
    convolve_weighted,
    dkw_epsilon,
    st_compare_empirical,
    st_compare_exact,
)
from .harness import (
    CheckStatus,
    HypothesisCheck,
    HypothesisReport,
    Scenario,
    SuiteConfig,
    SuiteReport,
    TheoremReport,
    check_hypotheses,
    generate_scenario,
    run_counterexample,
    run_scenario,
    run_suite,
    verify_iid_theorem,
    verify_noniid_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
