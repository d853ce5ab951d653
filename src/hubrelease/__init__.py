"""Release-time optimization for vehicle platooning hubs.

Vehicles accumulate at a hub; a coordinator decides when to release the
current group as one platoon.  This package computes the optimal
occupancy threshold for i.i.d. arrivals, verifies it against a
dynamic-programming solver, and compares release policies by Monte-Carlo
simulation.
"""

__version__ = "0.1.0"

from .arrival import (
    ArrivalDistribution,
    InitialCountDistribution,
    from_pmf,
    poisson_truncated,
    substream,
    zero_truncated_poisson,
)
from .dp import (
    DpConfig,
    DpSolution,
    cap_violation_probability,
    compare_with_threshold,
    solve,
    suggest_max_count,
)
from .ingest import HourlyCounts, parse_counts_csv, parse_pmf_csv, to_lambda
from .policies import (
    NonCausalPolicy,
    PeriodicPolicy,
    PolicyKind,
    SpontaneousPolicy,
    ThresholdPolicy,
    make_policy,
)
from .sim import (
    HourResult,
    MetricsSummary,
    SimConfig,
    SweepRow,
    monte_carlo,
    per_vehicle_utility,
    run_episode_hour,
    sweep,
)
from .stopping import (
    Threshold,
    compute_threshold,
    one_step_lookahead,
    release_condition,
    release_reward,
)

__all__ = [
    "ArrivalDistribution",
    "InitialCountDistribution",
    "from_pmf",
    "poisson_truncated",
    "substream",
    "zero_truncated_poisson",
    "DpConfig",
    "DpSolution",
    "cap_violation_probability",
    "compare_with_threshold",
    "solve",
    "suggest_max_count",
    "HourlyCounts",
    "parse_counts_csv",
    "parse_pmf_csv",
    "to_lambda",
    "NonCausalPolicy",
    "PeriodicPolicy",
    "PolicyKind",
    "SpontaneousPolicy",
    "ThresholdPolicy",
    "make_policy",
    "HourResult",
    "MetricsSummary",
    "SimConfig",
    "SweepRow",
    "monte_carlo",
    "per_vehicle_utility",
    "run_episode_hour",
    "sweep",
    "Threshold",
    "compute_threshold",
    "one_step_lookahead",
    "release_condition",
    "release_reward",
]
