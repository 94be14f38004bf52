"""Memoryless algorithms for generalized k-server on uniform metrics.

Library layout:

* harmonic  - exact arithmetic, the harmonic recursion a(l) and bounds
* chains    - birth-death chains, exact extinction times, named chains
* subsets   - the 2^k subset-state system: build, solve, verify bounds
* simulate  - adaptive adversaries, seeded runs, traces, ratio estimates
* potential - potential-function audit of traces
* cli       - `gkserver` command-line entry point
"""

from .harmonic import (
    alpha,
    alpha_bounds_check,
    alpha_closed_form,
    alpha_table,
    rational_from_str,
    rational_to_str,
)
from .chains import (
    BirthDeathChain,
    binary_chain,
    binary_eet,
    eet_closed_form,
    eet_oracle,
    eet_oracle_table,
    eet_table,
    harmonic_chain,
    harmonic_eet,
    random_chain,
    stationary_and_return_check,
)
from .subsets import (
    MemorylessPolicy,
    SolverError,
    SubsetSolution,
    SubsetSystem,
    build_system,
    check_monotonicity,
    check_subset_alpha_bound,
    competitive_gap,
    lower_bound_hk,
    phi_transform,
    solve_system,
)
from .simulate import (
    ConfigError,
    ExperimentConfig,
    MetricSpec,
    PolicySampler,
    RunSummary,
    StepBudgetExhausted,
    Trace,
    TraceStep,
    estimate_ratio,
    lower_bound_adversary_step,
    memoryless_step,
    n2_adversary_step,
    read_trace_csv,
    run,
    state_histogram,
    transition_counts,
    write_trace_csv,
)
from .potential import (
    PotentialContext,
    TraceReport,
    delta_h,
    expected_drift,
    hamming,
    potential,
    verify_trace,
)

__version__ = "0.1.0"
