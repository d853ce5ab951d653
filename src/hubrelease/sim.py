"""Hour-long hub simulation and Monte-Carlo policy comparison.

One sample simulates a fixed number of discrete steps (default 720 steps
of 5 s, one hour).  Vehicles already waiting at step 0 are drawn from a
zero-truncated Poisson; each later step brings a truncated-Poisson batch.
The policy inspects the hub after arrivals land; releasing empties the
hub into one platoon and a fresh episode starts at the next step.  Any
vehicles still waiting at the final step are force-released.

A cell is simulated as a samples x horizon arrival matrix, a chunk of rows
at a time: the arrivals are drawn once, every policy of the cell's rate
runs on them, and each row's totals are folded in arrival order with the
bits of a per-hour loop.  ``run_episode_hour`` is the one-row view of the
same kernel, ``monte_carlo`` the one-policy view.
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
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam!r}")
        if self.initial_lam is not None and not self.initial_lam >= 0:
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


def _initial_rate(config: SimConfig) -> float:
    return config.lam if config.initial_lam is None else config.initial_lam


@lru_cache(maxsize=None)
def _initial_dist(rate: float) -> InitialCountDistribution:
    if rate == 0.0:
        return InitialCountDistribution.degenerate()
    return zero_truncated_poisson(rate)


# Rows are simulated a chunk at a time.  Each row costs its horizon in
# (sample, step) cells plus its expected vehicles, and a chunk holds at most
# this many of both together; at some 40 bytes of temporaries per cell or
# vehicle that is about a megabyte.  One row is always allowed, whatever its
# size: at 2e4 arrivals per step one hour holds 1.4e7 vehicles and about
# 0.5 GB of temporaries.
_CHUNK_ITEMS = 1 << 15


def _draw_arrivals(config: SimConfig, first: int, stop: int) -> np.ndarray:
    """Arrival matrix of samples first..stop-1, one row per sample.

    Row i comes from the stream keyed by (master_seed, cell_index, i): its
    first uniform draws the initial count, the next horizon-1 one batch per
    step.
    """
    horizon = config.horizon_steps
    uniforms = np.empty((stop - first, horizon))
    for row, i in enumerate(range(first, stop)):
        substream(config.master_seed, config.cell_index, i).random(out=uniforms[row])
    arrivals = np.empty(uniforms.shape, dtype=np.int64)
    arrivals[:, 0] = _initial_dist(_initial_rate(config)).counts_at(uniforms[:, 0])
    arrivals[:, 1:] = _arrival_dist(config.lam).counts_at(uniforms[:, 1:])
    return arrivals


@dataclass(frozen=True, eq=False)
class _Hours:
    """Several simulated hours as HourResult's columns, one hour after another.

    Steps are flat indexes into the row-major arrival matrix, which are the
    hour's own steps for the first row.  ``forced`` is per row: whether the
    row's last platoon was forced.
    """

    vehicles: np.ndarray  # per row
    platoons: np.ndarray  # per row
    forced: np.ndarray  # per row
    release_step: np.ndarray
    size: np.ndarray
    episode_start: np.ndarray
    vehicle_wait: np.ndarray
    vehicle_is_lead: np.ndarray


def _simulate(policy: PolicyKind, arrivals: np.ndarray, cumulative: np.ndarray,
              params: RewardParams) -> _Hours:
    """Every row of the arrival matrix as one hour under ``policy``.

    ``cumulative`` is the running total of ``arrivals`` in row-major order.
    """
    rows, horizon = arrivals.shape
    # A release takes everyone waiting, so platoon sizes are differences of
    # the running total at the releases.  The last step of every hour
    # releases what is left, so a row's first platoon and episode follow
    # the last release of the row before it like any other.  Empty releases
    # (fires on an empty hub) form no platoon.
    releases = policy.fire_mask(cumulative, params)
    fired_last = releases[:, -1].copy()
    releases[:, -1] = True
    fired = np.flatnonzero(releases)
    del releases
    size = np.diff(cumulative.ravel()[fired], prepend=0)
    kept = np.flatnonzero(size)
    step, size = fired[kept], size[kept]
    # An episode starts the step after the fire before it, empty or not.
    episode_start = fired[kept - 1] + 1
    if kept[0] == 0:
        episode_start[0] = 0
    ends = np.arange(1, rows + 1) * horizon
    platoons = np.diff(np.searchsorted(step, ends), prepend=0)
    # A row's last platoon was forced if it left at the last step unfired.
    forced = ~fired_last & (step[np.cumsum(platoons) - 1] == ends - 1)
    wait = np.repeat(step, size) - np.repeat(np.arange(rows * horizon), arrivals.ravel())
    is_lead = np.zeros(wait.size, dtype=bool)
    is_lead[np.cumsum(size) - size] = True
    return _Hours(arrivals.sum(axis=1), platoons, forced, step, size, episode_start,
                  wait, is_lead)


def run_episode_hour(config: SimConfig, sample_index: int) -> HourResult:
    """Simulate one sampled hour under the configured policy.

    The one-row view of the kernel that ``monte_carlo`` runs.  The stream
    is keyed by (master_seed, cell_index, sample_index): the initial count
    is drawn first, then one batch per step 1..horizon-1.
    """
    if sample_index < 0:
        raise ValueError(f"sample_index must be nonnegative, got {sample_index}")
    arrivals = _draw_arrivals(config, sample_index, sample_index + 1)
    cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
    hours = _simulate(config.policy, arrivals, cumulative, config.params)
    is_forced = np.zeros(hours.size.size, dtype=bool)
    is_forced[-1] = hours.forced[0]
    return HourResult(arrivals[0], hours.release_step, hours.size, hours.episode_start,
                      is_forced, hours.vehicle_wait, hours.vehicle_is_lead)


def per_vehicle_utility(
    wait: np.ndarray, is_lead: np.ndarray, params: RewardParams
) -> np.ndarray:
    """Follower benefit (leads get none) minus each vehicle's own waiting cost."""
    return np.where(is_lead, 0.0, params.benefit) - params.step_cost * wait


def _row_folds(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """0.0 + v0 + v1 + ... over each row's run of ``values``, left to right.

    ``values`` holds the rows one after another, counts[r] of them for row
    r.  The runs are laid into a zero-padded matrix behind a zero column and
    summed with cumsum, which adds in order, so each total has the bits of
    ``total = 0.0; total += v`` over the run (and of the builtin ``sum``
    before Python 3.12 made it compensated).
    """
    width = int(counts.max())
    padded = np.zeros((counts.size, width + 1))
    padded[:, 1:][np.arange(width) < counts[:, None]] = values
    return np.cumsum(padded, axis=1, out=padded)[:, -1]


def _half_width(per_sample: np.ndarray) -> float:
    values = per_sample[~np.isnan(per_sample)]
    if values.size < 2:
        return 0.0
    return float(Z_95 * values.std(ddof=1) / math.sqrt(values.size))


class _CellTotals:
    """Per-sample totals of one cell, filled a chunk of rows at a time."""

    def __init__(self, config: SimConfig) -> None:
        n = config.samples
        self.config = config
        self.utility = np.empty(n)
        self.episode = np.empty(n)
        self.wait = np.empty(n, dtype=np.int64)
        self.length = np.empty(n, dtype=np.int64)
        self.length_count = np.empty(n, dtype=np.int64)
        self.vehicles = np.empty(n, dtype=np.int64)
        self.platoons = np.empty(n, dtype=np.int64)

    def add(self, first: int, hours: _Hours) -> None:
        params = self.config.params
        rows = slice(first, first + hours.vehicles.size)
        # Float totals are folded in arrival (vehicles) and release
        # (platoons) order, so results do not move with numpy's pairwise
        # summation.
        self.utility[rows] = _row_folds(
            per_vehicle_utility(hours.vehicle_wait, hours.vehicle_is_lead, params),
            hours.vehicles,
        )
        self.episode[rows] = _row_folds(
            release_reward(hours.size, hours.release_step - hours.episode_start, params),
            hours.platoons,
        )
        self.wait[rows] = np.add.reduceat(
            hours.vehicle_wait, np.cumsum(hours.vehicles) - hours.vehicles
        )
        self.vehicles[rows] = hours.vehicles
        self.platoons[rows] = hours.platoons
        self.length[rows] = hours.vehicles
        self.length_count[rows] = hours.platoons
        if not self.config.include_forced_in_length:
            # At most one platoon per hour is forced: the last.
            last = hours.size[np.cumsum(hours.platoons) - 1]
            self.length[rows] -= np.where(hours.forced, last, 0)
            self.length_count[rows] -= hours.forced

    def summary(self) -> MetricsSummary:
        vehicles = self.vehicles
        n = vehicles.size
        # The pooled totals fold the per-sample totals in sample order.
        utility_sum, episode_sum, wait_sum, length_sum = _row_folds(
            np.concatenate((self.utility, self.episode, self.wait, self.length)),
            np.full(4, n),
        ).tolist()
        has_length = self.length_count > 0
        sample_length = np.full(n, np.nan)
        sample_length[has_length] = self.length[has_length] / self.length_count[has_length]
        vehicles_total = int(vehicles.sum())
        length_count = int(self.length_count.sum())
        return MetricsSummary(
            mean_utility=utility_sum / vehicles_total,
            ci_utility=_half_width(self.utility / vehicles),
            mean_platoon_len=length_sum / length_count if length_count else float("nan"),
            ci_platoon_len=_half_width(sample_length),
            mean_wait_steps=wait_sum / vehicles_total,
            ci_wait_steps=_half_width(self.wait / vehicles),
            mean_episode_utility=episode_sum / vehicles_total,
            ci_episode_utility=_half_width(self.episode / vehicles),
            samples=n,
            vehicles=vehicles_total,
            platoons=int(self.platoons.sum()),
        )


def _simulate_cells(configs: Sequence[SimConfig]) -> list[MetricsSummary]:
    """Metrics of cells that differ only in their policy.

    The arrivals are drawn once, a chunk of samples at a time, and every
    policy runs on the same chunk.
    """
    base = configs[0]
    totals = [_CellTotals(config) for config in configs]
    expected_vehicles = (
        _initial_dist(_initial_rate(base)).mean
        + (base.horizon_steps - 1) * _arrival_dist(base.lam).mean
    )
    chunk = max(1, int(_CHUNK_ITEMS // (base.horizon_steps + expected_vehicles)))
    for first in range(0, base.samples, chunk):
        arrivals = _draw_arrivals(base, first, min(first + chunk, base.samples))
        cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
        for config, cell in zip(configs, totals):
            cell.add(first, _simulate(config.policy, arrivals, cumulative, config.params))
    return [cell.summary() for cell in totals]


def monte_carlo(config: SimConfig) -> MetricsSummary:
    """Run all samples of one cell and aggregate."""
    return _simulate_cells([config])[0]


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
        configs = [
            SimConfig(
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
            for name in policy_names
        ]
        for name, metrics in zip(policy_names, _simulate_cells(configs)):
            rows.append(SweepRow(lam, name, threshold.n_star, metrics))
    return rows
