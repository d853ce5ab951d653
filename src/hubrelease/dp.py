"""Finite-horizon stochastic dynamic program for the release decision.

Backward induction over states (step k, hub count n) with forced release
at the deadline.  This solver never looks at the threshold formula; it is
kept independent on purpose so the two can be checked against each other.
"""
from __future__ import annotations

import math
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
# search of certain growth (5000 x 5018), and turns a tiny ratio, a huge
# horizon or a huge rate into an error before anything is allocated.
MAX_STATES = 30_000_000
# Largest number of multiply-adds the cap search or the solver may spend.
# Each step of either weighs every count by the whole pmf, so a pass within
# MAX_STATES can still take minutes when the pmf is long (a search at rate
# 2e4 over 37 steps: 6e11) or an explicit cap is far above the safe one (a
# 900-step solve at cap 33000 with batches of 0 or 900: 2.7e10).  On a
# 2-core x86-64 host np.convolve does 5e8 to 4e9 multiply-adds per second,
# the low end with the longest pmfs, and the solver 1.7e8 to 4e8, so the
# limit keeps a search to a few seconds and a solve to about ten.  It is 76
# times the largest benchmarked search (rate 2, horizon 720: 2.6e7), 79
# times the largest benchmarked solve (2.5e7) and 40 times the 5000-step cap
# search the tests run (5e7); rate 30 over 720 steps (1.3e9, 0.7 s) and a
# one-step search at rate 2e4 (9e8, 1.6 s) stay inside it.
MAX_CONVOLUTION_WORK = 2_000_000_000
# Rewards are in units of the benefit, so every solver value lies in
# [-ratio * horizon, 1].  A continuation value weighs the next step's values
# by a pmf whose mass is 1 within PMF_SUM_TOL, so its partial sums stay
# below (1 + 1e-12) * (ratio * horizon + 1) in magnitude: finite while
# ratio * horizon is at most 1e308, below the float maximum 1.797e308.  A
# value that overflowed to inf would turn nan where it meets a zero
# probability.
MAX_HORIZON_COST = 1e308


def _check_states(rows: int, cols: int, what: str) -> None:
    if rows * cols > MAX_STATES:
        raise ValueError(
            f"{what} needs {rows} x {cols} = {rows * cols:.3g} states, "
            f"more than MAX_STATES = {MAX_STATES:.3g}; use a shorter horizon, "
            f"a larger ratio, a lower rate or a smaller occupancy cap"
        )


def _check_work(steps: int, counts: int, batches: int, what: str) -> None:
    work = steps * counts * batches
    if work > MAX_CONVOLUTION_WORK:
        raise ValueError(
            f"{what} needs {steps} steps x {counts} counts x {batches} batch sizes = "
            f"{work:.3g} multiply-adds, more than MAX_CONVOLUTION_WORK = "
            f"{MAX_CONVOLUTION_WORK:.3g}; use a shorter horizon, a lower rate or a "
            f"smaller occupancy cap"
        )


def _search_bound(dist: ArrivalDistribution, horizon: int) -> int:
    # Mean growth plus a 12-sigma cushion is far past the 1e-9 quantile of a
    # sum of i.i.d. counts unless a rare batch is far larger than the spread;
    # suggest_max_count widens the search when it is not.  E[X^2] - E[X]^2
    # cancels by at most 5e-11 relative at rates from 1e-6 to 2e4; a cushion
    # does not feel that, and the max absorbs a tiny negative.
    variance = dist.second_moment - dist.mean ** 2
    spread = 12.0 * np.sqrt(max(horizon * variance, 1.0))
    return int(np.ceil(1 + horizon * dist.mean + spread)) + dist.support_max + 2


def _final_count_tail(dist: ArrivalDistribution, horizon: int, bound: int) -> np.ndarray:
    """tail[c] = P(final count >= c) for c in 0..bound+1, after `horizon`
    arrival draws on top of one vehicle.

    Counts past `bound` are absorbed into one overflow total, which is
    tail[bound + 1] and is added to every entry.
    """
    pmf = np.asarray(dist.probabilities)
    probs = np.zeros(bound + 2)
    probs[1] = 1.0
    escaped = 0.0
    for _ in range(horizon):
        full = np.convolve(probs[: bound + 1], pmf)
        escaped += float(full[bound + 1 :].sum())
        probs[: bound + 1] = full[: bound + 1]
    return np.cumsum(probs[::-1])[::-1] + escaped


# One dp-verify run asks twice (for its cap, then in the config's check),
# so the last answer is kept.
@lru_cache(maxsize=1)
def suggest_max_count(dist: ArrivalDistribution, horizon: int) -> int:
    """Smallest occupancy cap that the count passes within `horizon` steps,
    starting from one vehicle, with probability below CAP_TOLERANCE.

    The count never falls, so that is the chance that one vehicle plus
    `horizon` i.i.d. arrival draws end past the cap; it is computed exactly
    by repeated convolution with an absorbing overflow bin, and it never
    rises as the cap grows, so every larger cap is safe too.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if dist.support_max == 0:
        return 1
    bound = _search_bound(dist, horizon)
    while True:
        _check_states(horizon, bound + 2, "the occupancy-cap search")
        _check_work(horizon, bound + 1, dist.support_max + 1, "the occupancy-cap search")
        tail = _final_count_tail(dist, horizon, bound)
        if tail[-1] < CAP_TOLERANCE:
            return max(int(np.flatnonzero(tail < CAP_TOLERANCE)[0]) - 1, 1)
        # A rare large batch can leave more than CAP_TOLERANCE past the
        # cushion ({0: 0.9999, 100: 0.0001} over 100 steps: 1.6e-7 past
        # 224), so the search is run again over twice the counts.  It ends:
        # no count passes 1 + horizon * support_max, and the limits above
        # refuse a bound that grows too far.
        bound *= 2


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
        if self.ratio * self.horizon > MAX_HORIZON_COST:
            raise ValueError(
                f"ratio {self.ratio!r} x horizon {self.horizon} is more than "
                f"MAX_HORIZON_COST = {MAX_HORIZON_COST:.3g}: the solver's values "
                f"would overflow; use a smaller ratio or a shorter horizon"
            )
        if self.max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {self.max_count}")
        _check_states(self.horizon + 1, self.max_count + 1, "the solver")
        _check_states(
            self.max_count, self.dist.support_max + 1, "the solver's transition table"
        )
        _check_work(self.horizon, self.max_count, self.dist.support_max + 1, "the solver")
        safe = suggest_max_count(self.dist, self.horizon)
        if self.max_count < safe:
            raise ValueError(
                f"max_count={self.max_count} can be exceeded with probability "
                f">= {CAP_TOLERANCE} within {self.horizon} steps; the smallest "
                f"safe cap is {safe} (suggest_max_count)"
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


def split_ties(
    solution: DpSolution, mismatches: list[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(real mismatches, ties) among states that compare_with_threshold reported.

    At a tie, releasing and waiting are worth the same up to the rounding
    error of the comparison that solve made there, so both actions are
    optimal and the solver's pick says nothing against the rule.  The gap is
    recomputed at the given states only.
    """
    if not mismatches:
        return [], []
    config = solution.config
    probs = np.asarray(config.dist.probabilities)
    k, n = np.array(mismatches).T
    next_idx = np.minimum(n[:, None] + np.arange(probs.size), config.max_count)
    continuation = solution.values[k[:, None] + 1, next_idx] @ probs
    release_value = (n - 1) / n - config.ratio * k
    # The bound, with u = 2^-53 the unit roundoff.  Solver values lie in
    # [-ratio * horizon, 1], so none exceeds V = max(1, ratio * horizon) in
    # magnitude.
    # - The release value (n - 1)/n - ratio * k is off by at most u for the
    #   division, u * ratio * k for the product and u * V for the
    #   difference: 3 u V.
    # - The continuation is one dot product of the s + 1 next-step values
    #   with the pmf.  In any summation order it is off by at most
    #   gamma * sum_x p_x |v_x| <= gamma * (1 + d) * V, with
    #   gamma = (s + 1) u / (1 - (s + 1) u) and d = |fsum(pmf) - 1|.
    # - The rule's expectation has weights of mass 1; the pmf's extra mass
    #   d moves the continuation from it by up to d * V.
    # Within the sum of the three, the two actions can trade places in exact
    # arithmetic on the same next-step values.  Errors that those values
    # carry from later steps are left out, so no state is excused for them.
    # The subtraction below rounds by at most u times the gap.
    u = np.finfo(float).eps / 2
    terms = probs.size * u
    excess = abs(math.fsum(config.dist.probabilities) - 1.0)
    bound = (3 * u + terms / (1 - terms) * (1 + excess) + excess) * max(
        1.0, config.ratio * config.horizon
    )
    tie = (np.abs(release_value - continuation) <= bound).tolist()
    real = [state for state, t in zip(mismatches, tie) if not t]
    return real, [state for state, t in zip(mismatches, tie) if t]


def write_action_table(solution: DpSolution, path: str) -> None:
    """Dump the action table as CSV rows (k, n, action) for inspection."""
    with atomic_writer(path) as fh:
        fh.write("k,n,action\r\n")
        for k, row in enumerate(solution.actions[:, 1:]):
            fh.write("".join(
                f"{k},{n},{'release' if act else 'wait'}\r\n"
                for n, act in enumerate(row.tolist(), 1)
            ))
