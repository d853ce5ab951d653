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
from typing import Sequence

import numpy as np

from .arrival import (
    ArrivalDistribution,
    InitialCountDistribution,
    check_rate,
    poisson_truncated,
    substream,
    zero_truncated_poisson,
)
from .policies import PolicyKind, make_policy
from .stopping import check_ratio, compute_threshold, release_reward

Z_95 = 1.96  # normal-approximation 95% interval

# A sampled hour is one row of the arrival matrix: its horizon in (sample,
# step) cells plus, once simulated, its vehicles in several columns.  A row
# is simulated whole, so MAX_ROW_ITEMS bounds the memory of one: it admits
# the 720-step hour at the top rate 2e4 (1.44e7 steps and vehicles, about
# 0.5 GB of temporaries) and not much more.
MAX_ROW_ITEMS = 15_000_000
# A sweep simulates points x samples rows, so MAX_SWEEP_ITEMS bounds
# points x samples x (row items + _SAMPLE_ITEMS).  On a 2-core x86-64 host
# a four-policy sweep spends about 0.21 us per item, so at the limit it runs
# about four minutes; the default reproduction (50 x 1000 rows) is 6% of it.
# _SAMPLE_ITEMS charges each row for what it costs beyond its items: a stream
# of its own (the time of some 120 items) and its per-sample totals, which
# are kept for the whole cell and pooled at its end, at about 340 bytes a
# row at their peak (four policies, one-step horizon).  At 512 the totals of
# a sweep within the limit stay under 0.7 GB even at a one-step horizon.
_SAMPLE_ITEMS = 512
MAX_SWEEP_ITEMS = 1_000_000_000
# Rewards are in units of the benefit, so every per-sample mean utility lies
# in [-ratio * (horizon - 1), 1].  _half_width sums the squared deviations of
# at most MAX_SWEEP_ITEMS / _SAMPLE_ITEMS (about 2e6) such means, which stays
# below the float maximum 1.8e308 while ratio * horizon is below
# sqrt(1.8e308 / 2e6), about 9e150.  The sums of utilities over a row (at
# most MAX_ROW_ITEMS vehicles) or over a sweep (MAX_SWEEP_ITEMS) are smaller.
MAX_HOUR_COST = 1e150


def _row_items(horizon: int, lam: float, initial_lam: float | None) -> float:
    """A sampled hour's steps plus its expected vehicles, taken as initial
    rate + 1 (the zero-truncated mean is below it) plus ``lam`` per later
    step.  A horizon past MAX_ROW_ITEMS is returned before it can meet a
    float."""
    if horizon > MAX_ROW_ITEMS:
        return horizon
    initial = lam if initial_lam is None else initial_lam
    return horizon + initial + 1 + (horizon - 1) * lam


def check_sweep_size(points: int, samples: int, horizon: int, lam: float,
                     initial_lam: float | None) -> None:
    """Refuse a sweep past MAX_ROW_ITEMS or MAX_SWEEP_ITEMS before it allocates.

    ``lam`` is the sweep's largest rate.
    """
    row = _row_items(horizon, lam, initial_lam)
    if row > MAX_ROW_ITEMS:
        raise ValueError(
            f"one sampled hour of {horizon} steps at rate {lam:g} holds more than "
            f"MAX_ROW_ITEMS = {MAX_ROW_ITEMS:.3g} steps and vehicles; use a shorter "
            f"horizon or a lower rate"
        )
    hours = points * samples
    if hours > MAX_SWEEP_ITEMS or hours * (row + _SAMPLE_ITEMS) > MAX_SWEEP_ITEMS:
        raise ValueError(
            f"the sweep needs {points} points x {samples} samples x {row + _SAMPLE_ITEMS:.3g} "
            f"items, more than MAX_SWEEP_ITEMS = {MAX_SWEEP_ITEMS:.3g}; use fewer points or "
            f"samples or a shorter horizon"
        )


@dataclass(frozen=True)
class SimConfig:
    """One Monte-Carlo cell: arrival rate, cost-benefit ratio, policy."""

    lam: float
    ratio: float
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
        check_ratio(self.ratio)
        if self.initial_lam is not None and not self.initial_lam >= 0:
            raise ValueError(f"initial_lam must be nonnegative, got {self.initial_lam!r}")
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.master_seed < 0 or self.cell_index < 0:
            raise ValueError("master_seed and cell_index must be nonnegative")
        check_sweep_size(1, self.samples, self.horizon_steps, self.lam, self.initial_lam)
        if self.ratio * self.horizon_steps > MAX_HOUR_COST:
            raise ValueError(
                f"ratio {self.ratio!r} x horizon_steps {self.horizon_steps} is more than "
                f"MAX_HOUR_COST = {MAX_HOUR_COST:.3g}: the spread of the utilities "
                f"would overflow; use a smaller ratio or a shorter horizon"
            )


@dataclass(frozen=True, eq=False)
class HourResult:
    """Simulated hours as columns, one hour after another.

    Steps are flat indexes into the row-major samples x horizon arrival
    matrix: step k of hour r is r * horizon + k, so for a single hour they
    are its own steps.  Platoon columns are in release order.  Vehicle
    columns are in arrival order, which is also release order: a release
    takes everyone waiting.
    """

    # The arrival matrix flattened: each hour's initial count, then the
    # batch landing at each of its later steps.
    arrivals: np.ndarray
    vehicles: np.ndarray  # per hour
    platoons: np.ndarray  # per hour
    platoon_release_step: np.ndarray
    platoon_size: np.ndarray
    platoon_episode_start: np.ndarray
    # True when the horizon-end cleanup released vehicles the policy
    # would have kept waiting; only an hour's last platoon can be.
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


def _cell_distributions(lam: float, initial_lam: float | None
                        ) -> tuple[InitialCountDistribution, ArrivalDistribution]:
    """The initial-count and per-step batch pmfs of a cell at rate ``lam``."""
    return (zero_truncated_poisson(lam if initial_lam is None else initial_lam),
            poisson_truncated(lam))


# Rows are simulated a chunk at a time.  A chunk holds at most this many
# _row_items together; at some 40 bytes of temporaries per cell or vehicle
# that is about a megabyte.  One row is always allowed; its size is bounded
# by MAX_ROW_ITEMS.
_CHUNK_ITEMS = 1 << 15


def _draw_arrivals(config: SimConfig, distributions: tuple[InitialCountDistribution,
                   ArrivalDistribution], first: int, stop: int) -> np.ndarray:
    """Arrival matrix of samples first..stop-1, one row per sample.

    Row i comes from the stream keyed by (master_seed, cell_index, i): its
    first uniform draws the initial count from the first of the cell's
    ``distributions``, the next horizon-1 one batch per step from the second.
    """
    horizon = config.horizon_steps
    uniforms = np.empty((stop - first, horizon))
    for row, i in enumerate(range(first, stop)):
        substream(config.master_seed, config.cell_index, i).random(out=uniforms[row])
    initial, batch = distributions
    arrivals = np.empty(uniforms.shape, dtype=np.int64)
    arrivals[:, 0] = initial.counts_at(uniforms[:, 0])
    arrivals[:, 1:] = batch.counts_at(uniforms[:, 1:])
    return arrivals


def _simulate(policy: PolicyKind, arrivals: np.ndarray, cumulative: np.ndarray,
              ratio: float) -> HourResult:
    """Every row of the arrival matrix as one hour under ``policy``.

    ``cumulative`` is the running total of ``arrivals`` in row-major order.
    """
    rows, horizon = arrivals.shape
    # A release takes everyone waiting, so platoon sizes are differences of
    # the running total at the releases.  The last step of every hour
    # releases what is left, so a row's first platoon and episode follow
    # the last release of the row before it like any other.  Empty releases
    # (fires on an empty hub) form no platoon.
    releases = policy.fire_mask(cumulative, ratio)
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
    # Every row has a platoon (its initial count is at least one vehicle),
    # and its last was forced if it left at the last step unfired.
    last = np.cumsum(platoons) - 1
    forced = np.zeros(step.size, dtype=bool)
    forced[last] = ~fired_last & (step[last] == ends - 1)
    flat = arrivals.ravel()
    wait = np.repeat(step, size) - np.repeat(np.arange(flat.size), flat)
    is_lead = np.zeros(wait.size, dtype=bool)
    is_lead[np.cumsum(size) - size] = True
    return HourResult(flat, arrivals.sum(axis=1), platoons, step, size, episode_start,
                      forced, wait, is_lead)


def run_episode_hour(config: SimConfig, sample_index: int) -> HourResult:
    """Simulate one sampled hour under the configured policy.

    The one-row view of the kernel that ``monte_carlo`` runs.  The stream
    is keyed by (master_seed, cell_index, sample_index): the initial count
    is drawn first, then one batch per step 1..horizon-1.
    """
    if sample_index < 0:
        raise ValueError(f"sample_index must be nonnegative, got {sample_index}")
    distributions = _cell_distributions(config.lam, config.initial_lam)
    arrivals = _draw_arrivals(config, distributions, sample_index, sample_index + 1)
    cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
    return _simulate(config.policy, arrivals, cumulative, config.ratio)


def per_vehicle_utility(wait: np.ndarray, is_lead: np.ndarray, ratio: float) -> np.ndarray:
    """Follower benefit 1 (leads get none) minus each vehicle's own waiting
    cost, in units of the benefit."""
    return np.where(is_lead, 0.0, 1.0) - ratio * wait


def _row_folds(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """0.0 + v0 + v1 + ... over each row's run of ``values``, left to right.

    ``values`` holds the rows one after another, counts[r] of them for row
    r.  The runs are laid into a zero-padded matrix behind a zero column and
    summed with cumsum, which adds in order, so each total has the bits of
    ``total = 0.0; total += v`` over the run (and of the builtin ``sum``
    before Python 3.12 made it compensated).  The totals are copied out, so
    they do not keep the matrix alive.
    """
    width = int(counts.max())
    padded = np.zeros((counts.size, width + 1))
    padded[:, 1:][np.arange(width) < counts[:, None]] = values
    return np.cumsum(padded, axis=1, out=padded)[:, -1].copy()


def _half_width(per_sample: np.ndarray) -> float:
    values = per_sample[~np.isnan(per_sample)]
    if values.size < 2:
        return 0.0
    return float(Z_95 * values.std(ddof=1) / math.sqrt(values.size))


def _row_totals(config: SimConfig, hours: HourResult) -> tuple[np.ndarray, ...]:
    """Per-row totals of simulated hours: utility, episode reward, wait,
    vehicles, platoons, and the size of the forced platoon when length
    leaves it out (else 0)."""
    # Float totals are folded in arrival (vehicles) and release (platoons)
    # order, so results do not move with numpy's pairwise summation.
    utility = _row_folds(
        per_vehicle_utility(hours.vehicle_wait, hours.vehicle_is_lead, config.ratio),
        hours.vehicles,
    )
    episode = _row_folds(
        release_reward(hours.platoon_size,
                       hours.platoon_release_step - hours.platoon_episode_start, config.ratio),
        hours.platoons,
    )
    wait = np.add.reduceat(hours.vehicle_wait, np.cumsum(hours.vehicles) - hours.vehicles)
    forced = np.zeros_like(hours.platoons)
    if not config.include_forced_in_length:
        last = np.cumsum(hours.platoons) - 1
        forced = np.where(hours.platoon_forced[last], hours.platoon_size[last], 0)
    return utility, episode, wait, hours.vehicles, hours.platoons, forced


def _summary(utility: np.ndarray, episode: np.ndarray, wait: np.ndarray,
             vehicles: np.ndarray, platoons: np.ndarray, forced: np.ndarray) -> MetricsSummary:
    """A cell's metrics from its per-sample totals."""
    n = vehicles.size
    length = vehicles - forced
    length_count = platoons - (forced > 0)
    # The pooled totals fold the per-sample totals in sample order.
    utility_sum, episode_sum, wait_sum, length_sum = _row_folds(
        np.concatenate((utility, episode, wait, length)), np.full(4, n)).tolist()
    has_length = length_count > 0
    sample_length = np.full(n, np.nan)
    sample_length[has_length] = length[has_length] / length_count[has_length]
    vehicles_total = int(vehicles.sum())
    length_count = int(length_count.sum())
    return MetricsSummary(
        mean_utility=utility_sum / vehicles_total,
        ci_utility=_half_width(utility / vehicles),
        mean_platoon_len=length_sum / length_count if length_count else float("nan"),
        ci_platoon_len=_half_width(sample_length),
        mean_wait_steps=wait_sum / vehicles_total,
        ci_wait_steps=_half_width(wait / vehicles),
        mean_episode_utility=episode_sum / vehicles_total,
        ci_episode_utility=_half_width(episode / vehicles),
        samples=n,
        vehicles=vehicles_total,
        platoons=int(platoons.sum()),
    )


def _simulate_cells(configs: Sequence[SimConfig], distributions: tuple[
        InitialCountDistribution, ArrivalDistribution]) -> list[MetricsSummary]:
    """Metrics of cells that differ only in their policy, from their pmfs.

    The arrivals are drawn once, a chunk of samples at a time, and every
    policy runs on the same chunk.
    """
    base = configs[0]
    chunk = max(1, int(_CHUNK_ITEMS // _row_items(base.horizon_steps, base.lam,
                                                   base.initial_lam)))
    totals: list[list[tuple[np.ndarray, ...]]] = [[] for _ in configs]
    for first in range(0, base.samples, chunk):
        arrivals = _draw_arrivals(base, distributions, first, min(first + chunk, base.samples))
        cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
        for config, chunks in zip(configs, totals):
            hours = _simulate(config.policy, arrivals, cumulative, config.ratio)
            chunks.append(_row_totals(config, hours))
    return [_summary(*map(np.concatenate, zip(*chunks))) for chunks in totals]


def monte_carlo(config: SimConfig) -> MetricsSummary:
    """Run all samples of one cell and aggregate."""
    return _simulate_cells([config], _cell_distributions(config.lam, config.initial_lam))[0]


def sweep(
    lambda_grid: Sequence[float],
    policy_names: Sequence[str],
    *,
    ratio: float,
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
    rate's grid index), which sharpens policy comparisons.  Every rate and
    the size of the whole sweep are checked before the first cell runs.
    """
    if not lambda_grid:
        raise ValueError("lambda_grid must be non-empty")
    if not policy_names:
        raise ValueError("policy_names must be non-empty")
    for lam in lambda_grid:
        check_rate(lam)
    check_sweep_size(len(lambda_grid), samples, horizon_steps, max(lambda_grid), initial_lam)
    rows: list[SweepRow] = []
    for cell_index, lam in enumerate(lambda_grid):
        distributions = _cell_distributions(lam, initial_lam)
        threshold = compute_threshold(distributions[1], ratio)
        configs = [
            SimConfig(
                lam=lam,
                ratio=ratio,
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
        for name, metrics in zip(policy_names, _simulate_cells(configs, distributions)):
            rows.append(SweepRow(lam, name, threshold.n_star, metrics))
    return rows
