"""Numerical toolkit for variation operators of sliding averages over
lacunary scale sequences: operator evaluation, Fourier multiplier sums,
kernel difference bounds, weighted norms, and end-to-end inequality
verification scenarios with deterministic reports.
"""

from .lacunary import (
    LacunarySeq,
    NonPositiveScale,
    NotIncreasing,
    RatioBelowBeta,
    RefinedSeq,
    SequenceError,
    gamma,
    parse_sequence,
    refine,
)
from .gridfn import (
    BadParams,
    EmptyFamily,
    GridFunction,
    GridMismatch,
    Interval,
    IntervalFamily,
    IntervalTooSmall,
    UniformGrid,
    bmo_norm,
    lp_norm,
    make_dyadic_family,
    make_family,
    read_function_csv,
    sup_norm,
    superlevel_measure,
    weak_sup,
    write_function_csv,
)
from .runs import GridRuns, RunFunction
from .avgops import (
    NonPositiveWindow,
    TailTooLarge,
    VariationSpec,
    averages_at,
    default_eval_grid,
    oracle_averages_at,
    scale_stack_at,
    tail_bound,
    variation,
    variation_at,
    variations,
    variations_at,
    vector_variation,
)
from .fourier import (
    BoundViolation,
    EmptyGrid,
    F_eval,
    default_xi_grid,
    fprime,
    fprime_check,
    multiplier_scans,
    multiplier_sums,
    multiplier_tail,
    parse_xi_grid,
)
from .kernel import (
    IdentityViolated,
    KernelSpec,
    PreconditionViolated,
    drlem_check,
    gap_condition_violations,
    hormander_integral,
    indicator_identity,
    indicator_identity_counts,
    kernel_diff_norm,
    kernel_norm,
    shell_integrals,
)
from .weights import (
    NonPositiveWeight,
    Weight,
    WeightSpec,
    a1_constant,
    ap_constant,
    constant_weight,
    parse_weight,
    power_weight,
)
from .cases import CaseResult, Check
from .harness import (
    DEFAULT_THRESHOLDS,
    SCENARIO_KINDS,
    Scenario,
    ScenarioInvalid,
    VerificationReport,
    default_scenario,
    emit_report,
    from_config,
    run_scenario,
)

__version__ = "0.1.0"

