"""Hour-long hub simulation and Monte-Carlo policy comparison.

One sample simulates a fixed number of discrete steps (default 720 steps
of 5 s, one hour).  Vehicles already waiting at step 0 are drawn from a
zero-truncated Poisson; each later step brings a truncated-Poisson batch.
The policy inspects the hub after arrivals land; releasing empties the
hub into one platoon and a fresh episode starts at the next step.  Any
vehicles still waiting at the final step are force-released.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrival import (
    ArrivalDistribution,
    InitialCountDistribution,
    poisson_truncated,
    substream,
    zero_truncated_poisson,
)
from .policies import PolicyKind, make_policy
from .stopping import RewardParams, compute_threshold, release_reward

Z_95 = 1.96  # normal-approximation 95% interval


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo cell: arrival rate, reward parameters, policy."""

    lam: float
    params: RewardParams
    policy: PolicyKind
    horizon_steps: int = 720
    samples: int = 1000
    master_seed: int = 0
    # Rate for the initial-count draw; defaults to the per-step rate lam.
    initial_lam: float | None = None
    include_forced_in_length: bool = True
    # Stream-derivation slot so sweep cells stay order-independent.
    cell_index: int = 0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam!r}")
        if self.initial_lam is not None and self.initial_lam < 0:
            raise ValueError(f"initial_lam must be nonnegative, got {self.initial_lam!r}")
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.master_seed < 0 or self.cell_index < 0:
            raise ValueError("master_seed and cell_index must be nonnegative")


@dataclass(frozen=True, eq=False)
class HourResult:
    """One simulated hour as columns.

    Platoon columns are in release order.  Vehicle columns are in arrival
    order, which is also release order: a release takes everyone waiting.
    """

    # arrivals[0] is the initial count, arrivals[k] the batch landing at step k.
    arrivals: np.ndarray
    platoon_release_step: np.ndarray
    platoon_size: np.ndarray
    platoon_episode_start: np.ndarray
    # True when the horizon-end cleanup released vehicles the policy
    # would have kept waiting.
    platoon_forced: np.ndarray
    vehicle_wait: np.ndarray
    vehicle_is_lead: np.ndarray


@dataclass(frozen=True)
class MetricsSummary:
    """Vehicle-weighted aggregates over all samples of one cell.

    Point estimates pool every vehicle (or platoon) across samples;
    ci_* fields are 95% half-widths of the per-sample means under the
    normal approximation.
    """

    mean_utility: float
    ci_utility: float
    mean_platoon_len: float
    ci_platoon_len: float
    mean_wait_steps: float
    ci_wait_steps: float
    # Alternative accounting: the hour's total episode-level release reward
    # normalized by the number of vehicles served.
    mean_episode_utility: float
    ci_episode_utility: float
    samples: int
    vehicles: int
    platoons: int


@dataclass(frozen=True)
class SweepRow:
    lam: float
    policy: str
    n_star: int | None
    metrics: MetricsSummary


@lru_cache(maxsize=None)
def _arrival_dist(lam: float) -> ArrivalDistribution:
    return poisson_truncated(lam)


@lru_cache(maxsize=None)
def _initial_dist(rate: float) -> InitialCountDistribution:
    if rate == 0.0:
        return InitialCountDistribution.degenerate()
    return zero_truncated_poisson(rate)


def run_episode_hour(config: SimConfig, sample_index: int) -> HourResult:
    """Simulate one sampled hour under the configured policy.

    The stream is keyed by (master_seed, cell_index, sample_index): the
    initial count is drawn first, then one batch per step 1..horizon-1.
    """
    if sample_index < 0:
        raise ValueError(f"sample_index must be nonnegative, got {sample_index}")
    rng = substream(config.master_seed, config.cell_index, sample_index)
    horizon = config.horizon_steps
    init_rate = config.lam if config.initial_lam is None else config.initial_lam
    arrivals = np.empty(horizon, dtype=np.int64)
    arrivals[0] = _initial_dist(init_rate).sample(rng)
    arrivals[1:] = _arrival_dist(config.lam).sample_many(rng, horizon - 1)

    # A release takes everyone waiting, so platoon sizes are differences of
    # the cumulative arrivals at the releases; the last step releases what
    # is left.  Empty releases (fires on an empty hub) form no platoon.
    fires = config.policy.release_steps(arrivals, config.params)
    forced = fires.size == 0 or fires[-1] != horizon - 1
    releases = np.append(fires, horizon - 1) if forced else fires
    size = np.diff(np.cumsum(arrivals)[releases], prepend=0)
    episode_start = np.concatenate(([0], releases[:-1] + 1))
    is_forced = np.zeros(releases.size, dtype=bool)
    is_forced[-1] = forced
    kept = size > 0
    release_step, size = releases[kept], size[kept]
    wait = np.repeat(release_step, size) - np.repeat(np.arange(horizon), arrivals)
    is_lead = np.zeros(wait.size, dtype=bool)
    is_lead[np.cumsum(size) - size] = True
    return HourResult(
        arrivals, release_step, size, episode_start[kept], is_forced[kept], wait, is_lead
    )


def per_vehicle_utility(
    wait: np.ndarray, is_lead: np.ndarray, params: RewardParams
) -> np.ndarray:
    """Follower benefit (leads get none) minus each vehicle's own waiting cost."""
    return np.where(is_lead, 0.0, params.benefit) - params.step_cost * wait


def _half_width(per_sample: np.ndarray) -> float:
    values = per_sample[~np.isnan(per_sample)]
    if values.size < 2:
        return 0.0
    return float(Z_95 * values.std(ddof=1) / math.sqrt(values.size))


def monte_carlo(config: SimConfig) -> MetricsSummary:
    """Run all samples of one cell and aggregate."""
    n_samples = config.samples
    sample_utility = np.empty(n_samples)
    sample_wait = np.empty(n_samples)
    sample_length = np.empty(n_samples)
    sample_episode = np.empty(n_samples)
    utility_sum = 0.0
    wait_sum = 0.0
    episode_utility_sum = 0.0
    length_sum = 0.0
    vehicles_total = 0
    platoons_total = 0
    length_count = 0
    params = config.params
    for i in range(n_samples):
        hour = run_episode_hour(config, i)
        vehicles = hour.vehicle_wait.size
        lengths = hour.platoon_size
        if not config.include_forced_in_length:
            lengths = lengths[~hour.platoon_forced]
        # Float totals are folded by the builtin sum in arrival (vehicles) and
        # release (platoons) order, so results do not move with numpy's
        # pairwise summation.
        utility = sum(
            per_vehicle_utility(hour.vehicle_wait, hour.vehicle_is_lead, params).tolist()
        )
        episode_reward = sum(
            release_reward(
                hour.platoon_size,
                hour.platoon_release_step - hour.platoon_episode_start,
                params,
            ).tolist()
        )
        wait = int(hour.vehicle_wait.sum())
        length = int(lengths.sum())
        sample_utility[i] = utility / vehicles
        sample_wait[i] = wait / vehicles
        sample_length[i] = length / lengths.size if lengths.size else np.nan
        sample_episode[i] = episode_reward / vehicles
        utility_sum += utility
        wait_sum += wait
        length_sum += length
        episode_utility_sum += episode_reward
        vehicles_total += vehicles
        platoons_total += hour.platoon_size.size
        length_count += lengths.size
    return MetricsSummary(
        mean_utility=utility_sum / vehicles_total,
        ci_utility=_half_width(sample_utility),
        mean_platoon_len=length_sum / length_count if length_count else float("nan"),
        ci_platoon_len=_half_width(sample_length),
        mean_wait_steps=wait_sum / vehicles_total,
        ci_wait_steps=_half_width(sample_wait),
        mean_episode_utility=episode_utility_sum / vehicles_total,
        ci_episode_utility=_half_width(sample_episode),
        samples=n_samples,
        vehicles=vehicles_total,
        platoons=platoons_total,
    )


def sweep(
    lambda_grid: Sequence[float],
    policy_names: Sequence[str],
    *,
    params: RewardParams,
    samples: int = 1000,
    horizon_steps: int = 720,
    master_seed: int = 0,
    initial_lam: float | None = None,
    include_forced_in_length: bool = True,
    period_steps: int = 60,
) -> list[SweepRow]:
    """Cross product of rates and policies.

    Every row carries the optimal threshold n_star for its rate.  Cells at
    the same rate share arrival realizations (streams are keyed by the
    rate's grid index), which sharpens policy comparisons.
    """
    if not lambda_grid:
        raise ValueError("lambda_grid must be non-empty")
    if not policy_names:
        raise ValueError("policy_names must be non-empty")
    rows: list[SweepRow] = []
    for cell_index, lam in enumerate(lambda_grid):
        threshold = compute_threshold(_arrival_dist(lam), params.ratio)
        for name in policy_names:
            config = SimConfig(
                lam=lam,
                params=params,
                policy=make_policy(name, threshold.n_star, period_steps),
                horizon_steps=horizon_steps,
                samples=samples,
                master_seed=master_seed,
                initial_lam=initial_lam,
                include_forced_in_length=include_forced_in_length,
                cell_index=cell_index,
            )
            rows.append(SweepRow(lam, name, threshold.n_star, monte_carlo(config)))
    return rows
