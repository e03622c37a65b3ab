"""Checkable spectral-order inequalities for Hermitian operators.

Build finite-dimensional Hermitian operators from eigendecompositions, apply
scalar functions through functional calculus, and evaluate a registry of
expectation inequalities whose hypotheses (grid-certified synchrony, spectral
containment, state normalization) are checked rather than assumed.  Random
property suites, a pinned scenario library, and hypothesis-dropping
counterexample searches are included, all reproducible from a single seed.
"""

from .errors import (
    ArgumentOrder,
    ConfigInvalid,
    DimensionMismatch,
    DomainViolation,
    IntervalMismatch,
    NonPositiveSpectrum,
    NormalizationViolation,
    NotHermitian,
    NotSimilarlyOrdered,
    NotUnitState,
    OpineqError,
    SpectrumOutOfInterval,
    UnknownTheorem,
)
from .tolerances import (
    DEFAULT_GRID_N,
    MAX_DIM,
    MAX_GRID_N,
    OPEN_INTERVAL_SHRINK,
    TOL_HERM,
    TOL_NORM,
    TOL_SPEC,
    TOL_UNITARY,
    VIOLATION_FACTOR,
    tol_calc,
    tol_ineq,
    tol_sync,
)
from .spectral import (
    HermitianOperator,
    SpectralInterval,
    SpectralMeasure,
    StateVector,
    apply_function,
    block_diagonal,
    eigenbasis_weights,
    expectation,
    expectation_product,
    from_dense,
)
from .functions import (
    ASYNCHRONOUS,
    GE,
    H_DECREASING,
    H_INCREASING,
    LE,
    MIXED,
    SYNCHRONOUS,
    MonotonicityVerdict,
    ScalarFunction,
    SynchronyVerdict,
    affine,
    classify_monotonicity,
    classify_synchrony,
    constant,
    exp_fn,
    function_from_descriptor,
    identity,
    linear_combination,
    log_fn,
    mono_defect,
    neg_parabola,
    pointwise_product,
    power,
    scan_tr_regions,
    sync_product,
    tabulated,
)
from .functionals import (
    HOLDS,
    HYPOTHESIS_NOT_MET,
    VIOLATED,
    InequalityReport,
    cebysev,
    check_inverse_pair,
    check_mean_point,
    check_sign_bound,
    check_square_bound,
    check_two_operator,
    fmt,
    inverse_pair_hull,
    kantorovich_chain,
    mean_point_sides,
    pompeiu_cebysev,
)
from .ensembles import (
    PER_VECTOR,
    SUM_OF_SQUARES,
    OperatorEnsemble,
    check_ensemble_mean_point,
    check_ensemble_sign_bound,
    check_ensemble_square_bound,
    discrete_chebyshev,
    ensemble_expectation,
    ensemble_expectation_product,
    kantorovich_constant,
    kantorovich_ensemble_chain,
    lift_ensemble,
    similarly_ordered,
)
from .registry import (
    REGISTRY,
    REGISTRY_ORDER,
    TheoremEntry,
    expectation_failures,
    lookup,
    run_scenario,
)
from .serialize import (
    canonical_json,
    ensemble_from_doc,
    interval_from_doc,
    load_json,
    operator_from_doc,
    rows_to_csv,
    scenario_from_doc,
    state_from_doc,
)
from .scenarios import COVERAGE, SCENARIOS, SCENARIOS_BY_NAME, coverage_gaps
from .harness import (
    ASYNC_TRIPLE_POOL,
    DEFAULT_FUNCTION_POOL,
    DEFAULT_THEOREMS,
    FalsifyResult,
    SuiteSummary,
    SYNC_TRIPLE_POOL,
    TheoremTally,
    TrialConfig,
    config_from_doc,
    falsify,
    random_ensemble,
    random_operator,
    random_state,
    run_suite,
    trial_rng,
)

__version__ = "0.1.0"
