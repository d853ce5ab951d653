"""Finite-horizon stochastic dynamic program for the release decision.

Backward induction over states (step k, hub count n) with forced release
at the deadline.  This solver never looks at the threshold formula; it is
kept independent on purpose so the two can be checked against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrival import ArrivalDistribution
from .atomic import atomic_writer
from .stopping import Threshold, check_ratio

# An occupancy cap makes the state space finite.  It is only sound when the
# count has effectively no chance of reaching it, so configs are rejected
# unless the probability of exceeding the cap within the horizon stays
# below this bound.
CAP_TOLERANCE = 1e-9
# Largest grid the cap search may sweep or the solver may tabulate: (step,
# count) states, or the solver's (count, batch size) transitions.  The
# solver's value and action tables then take about 270 MB.  It is over
# twenty times the largest grid of the benchmarked settings (rate 2,
# horizon 720: 721 x 1750 solver states), leaves room for a 5000-step cap
# check of certain growth (5000 x 5003), and turns a tiny ratio, a huge
# horizon or a huge rate into an error before anything is allocated.
MAX_STATES = 30_000_000
# Largest number of multiply-adds the cap search may spend: each of its
# horizon steps convolves (bound + 1) counts with the whole pmf, so a search
# within MAX_STATES can still take minutes when the pmf is long (rate 2e4,
# 37 steps: 6e11).  On a 2-core x86-64 host np.convolve does 5e8 to 4e9
# multiply-adds per second, the low end with the longest pmfs, so the limit
# keeps a search to a few seconds at most.  It is 76 times the largest
# benchmarked search (rate 2, horizon 720: 2.6e7) and 40 times the 5000-step
# cap check the tests run (5e7); rate 30 over 720 steps (1.3e9, 0.7 s) and
# a one-step search at rate 2e4 (9e8, 1.6 s) stay inside it.
MAX_CONVOLUTION_WORK = 2_000_000_000


def _check_states(rows: int, cols: int, what: str) -> None:
    if rows * cols > MAX_STATES:
        raise ValueError(
            f"{what} needs {rows} x {cols} = {rows * cols:.3g} states, "
            f"more than MAX_STATES = {MAX_STATES:.3g}; use a shorter horizon, "
            f"a larger ratio, a lower rate or a smaller occupancy cap"
        )


def _check_search(dist: ArrivalDistribution, horizon: int, bound: int, what: str) -> None:
    """Refuse a cap search past MAX_STATES or MAX_CONVOLUTION_WORK before it runs."""
    _check_states(horizon, bound + 2, what)
    work = horizon * (bound + 1) * (dist.support_max + 1)
    if work > MAX_CONVOLUTION_WORK:
        raise ValueError(
            f"{what} needs {horizon} steps x {bound + 1} counts x "
            f"{dist.support_max + 1} batch sizes = {work:.3g} multiply-adds, more "
            f"than MAX_CONVOLUTION_WORK = {MAX_CONVOLUTION_WORK:.3g}; use a shorter "
            f"horizon or a lower rate"
        )


def _search_bound(dist: ArrivalDistribution, horizon: int) -> int:
    # Generous upper bound: mean growth plus a 12-sigma cushion is far past
    # any 1e-9 quantile of a sum of bounded i.i.d. counts.
    spread = 12.0 * np.sqrt(max(horizon * dist.variance, 1.0))
    return int(np.ceil(1 + horizon * dist.mean + spread)) + dist.support_max + 2


@lru_cache(maxsize=1)
def _final_count_tail(dist: ArrivalDistribution, horizon: int, bound: int) -> np.ndarray:
    """tail[c] = P(final count >= c) for c in 0..bound+1, after `horizon`
    arrival draws on top of one vehicle.

    Counts past `bound` are absorbed into one overflow total, which is
    tail[bound + 1] and is added to every entry.  One dp-verify run asks for
    the same tail twice (cap suggestion, then the config's cap check), so
    the last one is kept.  The array is read-only.
    """
    pmf = np.asarray(dist.probabilities)
    probs = np.zeros(bound + 2)
    probs[1] = 1.0
    escaped = 0.0
    for _ in range(horizon):
        full = np.convolve(probs[: bound + 1], pmf)
        escaped += float(full[bound + 1 :].sum())
        probs[: bound + 1] = full[: bound + 1]
    tail = np.cumsum(probs[::-1])[::-1] + escaped
    tail.flags.writeable = False
    return tail


def cap_violation_probability(
    dist: ArrivalDistribution, horizon: int, max_count: int
) -> float:
    """P(count exceeds max_count within `horizon` steps, starting from one vehicle).

    The un-released count is nondecreasing, so this is the chance that one
    initial vehicle plus `horizon` i.i.d. arrival draws end past the cap.
    Computed exactly by repeated convolution with an absorbing overflow bin.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if max_count < 1:
        raise ValueError(f"max_count must be >= 1, got {max_count}")
    if dist.support_max == 0:
        return 0.0
    bound = max(_search_bound(dist, horizon), max_count)
    _check_search(dist, horizon, bound, "the cap check")
    return float(_final_count_tail(dist, horizon, bound)[max_count + 1])


def suggest_max_count(dist: ArrivalDistribution, horizon: int) -> int:
    """Smallest occupancy cap whose violation probability is below CAP_TOLERANCE."""
    if dist.support_max == 0:
        return 1
    bound = _search_bound(dist, horizon)
    _check_search(dist, horizon, bound, "the occupancy-cap search")
    tail = _final_count_tail(dist, horizon, bound)
    if tail[-1] >= CAP_TOLERANCE:
        raise ValueError("search cushion too small for CAP_TOLERANCE")
    return max(int(np.flatnonzero(tail < CAP_TOLERANCE)[0]) - 1, 1)


@dataclass(frozen=True)
class DpConfig:
    """Problem instance for the solver.

    The construction check guarantees the occupancy cap is effectively
    unreachable, so clamping the transition at max_count cannot distort
    the computed actions.
    """

    horizon: int
    max_count: int
    dist: ArrivalDistribution
    ratio: float

    def __post_init__(self) -> None:
        check_ratio(self.ratio)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {self.max_count}")
        _check_states(self.horizon + 1, self.max_count + 1, "the solver")
        _check_states(
            self.max_count, self.dist.support_max + 1, "the solver's transition table"
        )
        violation = cap_violation_probability(self.dist, self.horizon, self.max_count)
        if violation >= CAP_TOLERANCE:
            raise ValueError(
                f"max_count={self.max_count} can be exceeded with probability "
                f"{violation:.3g} >= {CAP_TOLERANCE} within {self.horizon} steps; "
                f"use suggest_max_count()"
            )


@dataclass(frozen=True, eq=False)
class DpSolution:
    """Value and action tables indexed [k, n] for k in 0..horizon, n in 1..max_count.

    Column n = 0 is padding (values NaN, actions False); the hub is never
    empty when a decision is made.  actions[k, n] is True when releasing
    at (k, n) is optimal, with ties resolved toward release.
    """

    config: DpConfig
    values: np.ndarray
    actions: np.ndarray


def solve(config: DpConfig) -> DpSolution:
    """Backward induction; release is forced at k = horizon."""
    horizon, cap, ratio = config.horizon, config.max_count, config.ratio
    probs = np.asarray(config.dist.probabilities)
    xs = np.arange(probs.size)
    n = np.arange(1, cap + 1)
    benefit = (n - 1) / n

    values = np.full((horizon + 1, cap + 1), np.nan)
    actions = np.zeros((horizon + 1, cap + 1), dtype=bool)
    values[horizon, 1:] = benefit - ratio * horizon
    actions[horizon, 1:] = True

    # next_idx[i, j] = state reached from count n[i] after arrival xs[j].
    next_idx = np.minimum(n[:, None] + xs[None, :], cap)
    for k in range(horizon - 1, -1, -1):
        continuation = values[k + 1][next_idx] @ probs
        release_value = benefit - ratio * k
        release = release_value >= continuation
        actions[k, 1:] = release
        values[k, 1:] = np.where(release, release_value, continuation)
    return DpSolution(config, values, actions)


def compare_with_threshold(solution: DpSolution, threshold: Threshold) -> list[tuple[int, int]]:
    """Mismatched (k, n) states between the solver and the threshold rule.

    The threshold rule releases iff n >= n_star (never, when n_star is
    None).  Every step before the deadline is compared; at the deadline
    both force release.  Empty result means the two independently derived
    policies coincide.
    """
    config = solution.config
    if threshold.distribution != config.dist:
        raise ValueError("threshold was computed for a different arrival distribution")
    if threshold.ratio != config.ratio:
        raise ValueError(
            f"threshold ratio {threshold.ratio!r} does not match solver ratio {config.ratio!r}"
        )
    n = np.arange(1, config.max_count + 1)
    if threshold.never_release:
        rule = np.zeros(n.size, dtype=bool)
    else:
        rule = n >= threshold.n_star
    diff = solution.actions[:config.horizon, 1:] != rule[None, :]
    return [(int(k), int(i) + 1) for k, i in np.argwhere(diff)]


def write_action_table(solution: DpSolution, path: str) -> None:
    """Dump the action table as CSV rows (k, n, action) for inspection."""
    with atomic_writer(path) as fh:
        fh.write("k,n,action\r\n")
        for k, row in enumerate(solution.actions[:, 1:]):
            fh.write("".join(
                f"{k},{n},{'release' if act else 'wait'}\r\n"
                for n, act in enumerate(row.tolist(), 1)
            ))
