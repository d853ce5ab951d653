"""Finite-horizon stochastic dynamic program for the release decision.

Backward induction over states (step k, hub count n) with forced release
at the deadline.  This solver never looks at the threshold formula; it is
kept independent on purpose so the two can be checked against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDistribution
from .atomic import atomic_writer
from .stopping import Threshold, check_ratio

# An occupancy cap makes the state space finite.  It is only sound when the
# count has effectively no chance of reaching it, so a config's cap is
# raised until the probability of exceeding it within the horizon stays
# below this bound.
CAP_TOLERANCE = 1e-9
# Largest grid the cap search may sweep or the solver may span: (step,
# count) states up to the cap, or the solver's (count, batch size)
# transitions.  The solver stores only the counts its induction reads
# (rate 2, ratio 0.005, horizon 720: 721 x 99 values of 721 x 1675 states),
# but the limits still charge horizon x cap on purpose, so that no input
# moves between accepted and refused while the solver keeps a cap.  It is
# over twenty times the largest grid of the benchmarked settings (rate 2,
# horizon 720: 721 x 1750 states up to the cap), leaves room for a
# 5000-step cap search of certain growth (5000 x 5018), and turns a tiny
# ratio, a huge horizon or a huge rate into an error before anything is
# allocated.
MAX_STATES = 30_000_000
# Largest number of multiply-adds the cap search or the solver may spend,
# charged as one weighing of every count by the whole pmf per step.  A pass
# within MAX_STATES can still take minutes when the pmf is long (a search at
# rate 2e4 over 37 steps: 6e11) or an explicit cap is far above the safe one
# (a 900-step solve at cap 33000 with batches of 0 or 900: 2.7e10).  The
# search squares instead and spends less than its charge, at most 0.88 of
# it on seeded grids of rates, horizons and sparse pmfs.  On a 2-core
# x86-64 host the solver does 1.7e8 to 4e8 multiply-adds per second, so a
# solve at the limit takes about ten seconds, and a search near it a
# fraction of one: rate 30 over 720 steps (1.3e9) 265 ms, rate 1000 over 37
# steps (1.85e9) 244 ms, one step at rate 2e4 (9e8) 1.4 ms, where one
# convolution per step took 470, 293 and 163 ms.  The limit is 76 times the
# largest benchmarked search (rate 2, horizon 720: 2.6e7), 79 times the
# largest benchmarked solve (2.5e7) and 40 times the 5000-step cap search
# the tests run (5e7).
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

    def add(x, y):
        # The law of A + B for independent A and B, each given as (masses at
        # 0..bound, mass past bound).  Counts never fall, so the sum is past
        # bound when A is, when B is, or when the in-range masses convolve
        # past it; every term is nonnegative.
        (a, over_a), (b, over_b) = x, y
        full = np.convolve(a, b)
        over = over_a + over_b * float(a.sum()) + float(full[bound + 1 :].sum())
        return full[: bound + 1], over

    pmf = np.asarray(dist.probabilities)
    # The horizon-th convolution power by repeated squaring, starting from
    # the one-vehicle law: floor(log2 horizon) squarings of the batch law
    # and popcount(horizon) products into the total.
    total = (np.array([0.0, 1.0]), 0.0)
    power = (pmf[: bound + 1], float(pmf[bound + 1 :].sum()))
    for bit in range(int(horizon).bit_length()):
        if bit:
            power = add(power, power)
        if horizon >> bit & 1:
            total = add(total, power)
    probs = np.zeros(bound + 2)
    probs[: total[0].size] = total[0]
    return np.cumsum(probs[::-1])[::-1] + total[1]


def suggest_max_count(dist: ArrivalDistribution, horizon: int) -> int:
    """Smallest occupancy cap that the count passes within `horizon` steps,
    starting from one vehicle, with probability below CAP_TOLERANCE.

    The count never falls, so that is the chance that one vehicle plus
    `horizon` i.i.d. arrival draws end past the cap, and it never rises as
    the cap grows, so every larger cap is safe too.  It is computed from the
    `horizon`-th convolution power of the pmf, taken by repeated squaring
    (13 convolutions at 720 steps) with an absorbing overflow bin that keeps
    the mass past the search bound exactly, in nonnegative terms.
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

    A max_count below suggest_max_count(dist, horizon) is raised to it (so 1
    gives the smallest safe cap): clamping the transition at an effectively
    unreachable cap cannot distort the computed actions.
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
        object.__setattr__(
            self, "max_count", max(self.max_count, suggest_max_count(self.dist, self.horizon))
        )
        _check_states(self.horizon + 1, self.max_count + 1, "the solver")
        _check_states(
            self.max_count, self.dist.support_max + 1, "the solver's transition table"
        )
        _check_work(self.horizon, self.max_count, self.dist.support_max + 1, "the solver")


@dataclass(frozen=True, eq=False)
class DpSolution:
    """Value and action tables indexed [k, n] for k in 0..horizon, kept only
    for the counts that the induction reads and decides.

    actions[k, n] for n in 1..rows is True when releasing at (k, n) is
    optimal, with ties resolved toward release; values[k, n] for n in
    1..width, width = min(rows + s, max_count) with s the largest batch,
    are the optimal values.  rows is the release floor rounded up to a
    multiple of 8 (max_count when the closed form is not used, 0 when
    releasing is optimal from one vehicle on).  Every state (k, n) with n
    past those columns, up to max_count, releases, at (n - 1)/n - ratio * k.
    Column n = 0 is padding (values NaN, actions False); the hub is never
    empty when a decision is made.
    """

    config: DpConfig
    values: np.ndarray
    actions: np.ndarray


def _comparison_bound(config: DpConfig) -> float:
    """Largest rounding error of one release-or-wait comparison in `solve`.

    Within it, the two actions can trade places in exact arithmetic on the
    same next-step values.  With u = 2^-53 the unit roundoff: solver values
    lie in [-ratio * horizon, 1], so none exceeds V = max(1, ratio * horizon)
    in magnitude.
    - The release value (n - 1)/n - ratio * k is off by at most u for the
      division, u * ratio * k for the product and u * V for the
      difference: 3 u V.
    - The continuation is one dot product of the s + 1 next-step values
      with the pmf.  In any summation order it is off by at most
      gamma * sum_x p_x |v_x| <= gamma * (1 + d) * V, with
      gamma = (s + 1) u / (1 - (s + 1) u) and d = |fsum(pmf) - 1|.
    - The rule's expectation has weights of mass 1; the pmf's extra mass
      d moves the continuation from it by up to d * V.
    Errors that the next-step values carry from later steps are left out.
    """
    u = np.finfo(float).eps / 2
    terms = len(config.dist.probabilities) * u
    excess = abs(math.fsum(config.dist.probabilities) - 1.0)
    return (3 * u + terms / (1 - terms) * (1 + excess) + excess) * max(
        1.0, config.ratio * config.horizon
    )


def _release_floor(dist: ArrivalDistribution, ratio: float) -> int:
    """Smallest n >= 1 with ratio * n * (n + s) >= 2 s, s the largest batch.

    From n vehicles one step adds at most s, which raises the benefit
    (n - 1)/n by at most 1/n - 1/(n + s) = s / (n (n + s)), at most ratio/2
    from this n on.  The count never falls, also at a clamp, so from here
    every step of waiting loses at least ratio/2 on every path.  Exact in
    integers for any ratio > 0: the smallest float ratio needs 2 s / ratio
    past the float range.
    """
    s = dist.support_max
    num, den = ratio.as_integer_ratio()
    need = -(-2 * s * den // num)  # n (n + s) >= need
    n = (math.isqrt(s * s + 4 * need) - s) // 2
    while n * (n + s) < need:
        n += 1
    return max(n, 1)


def solve(config: DpConfig) -> DpSolution:
    """Backward induction; release is forced at k = horizon.

    Every state starts at its release value (n - 1)/n - ratio * k, marked
    release, and the induction raises only the states where waiting is
    worth more.  From _release_floor on, release is optimal at every step,
    so the induction runs below it and the tables end where it stops
    reading: the closed form past them is left to the readers.
    """
    horizon, cap, ratio = config.horizon, config.max_count, config.ratio
    probs = np.asarray(config.dist.probabilities)
    # Induction over counts 1..rows, closed form above.  Past the floor
    # waiting loses at least ratio/2 a step in exact arithmetic, and a
    # comparison errs by at most the comparison bound plus the 3 u V error
    # of the next-step release values, together at most twice the bound;
    # when that stays below ratio/2, the float comparison picks release
    # there too, and by induction from the deadline the closed form has the
    # induction's bits.  The BLAS matrix-vector kernels sum a row in another
    # order when it falls in a ragged last group of rows (groups of 4 in
    # OpenBLAS on x86-64), so rows is a multiple of 8 and every row it keeps
    # is summed as in the full-height product.
    rows = cap
    if ratio > 4 * _comparison_bound(config):
        rows = min(-(-(_release_floor(config.dist, ratio) - 1) // 8) * 8, cap)
    # The induction reads the values of counts up to one batch past its
    # rows, and decides only its rows; the rest is the closed form.
    n = np.arange(1, min(rows + probs.size - 1, cap) + 1)
    benefit = (n - 1) / n

    values = np.empty((horizon + 1, n.size + 1))
    values[:, 0] = np.nan
    np.subtract(benefit, ratio * np.arange(horizon + 1)[:, None], out=values[:, 1:])
    actions = np.zeros((horizon + 1, rows + 1), dtype=bool)
    actions[:, 1:] = True

    # next_idx[i, j] = state reached from count n[i] after arrival j.
    next_idx = np.minimum(n[:rows, None] + np.arange(probs.size), cap)
    continuation = np.empty(rows)
    # wait[k] marks the states of step k where waiting is worth more than
    # releasing: the action table's induction block, inverted after the
    # loop.  A state waits iff its release value is below the continuation,
    # and only then takes the continuation, which gives the bits of
    # np.where(release_value >= continuation, release_value, continuation),
    # a signed zero included.  np.maximum would keep the continuation's
    # zero at a tie of -0.0 and +0.0, and a sliding-window view of the next
    # row in place of the gather takes matmul off the BLAS kernel, which
    # sums in another order (the last bit of 49 of 80 rows in a seeded trial).
    wait = actions[:horizon, 1:]
    # Steps k = horizon - 1 down to 0, with the values of step k + 1.
    steps = zip(values[-2::-1, 1 : rows + 1], wait[::-1], values[:0:-1])
    for row, wait_k, after in steps:
        np.matmul(after[next_idx], probs, out=continuation)
        np.less(row, continuation, out=wait_k)
        np.copyto(row, continuation, where=wait_k)
    np.logical_not(wait, out=wait)
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
    # The solver releases past its action block, so there the two differ
    # where the rule waits: below n_star, or everywhere when it never
    # releases.  Those columns are appended as mismatches.
    block = solution.actions.shape[1] - 1
    n_star = config.max_count + 1 if threshold.never_release else threshold.n_star
    width = max(block, min(n_star - 1, config.max_count))
    diff = np.ones((config.horizon, width), dtype=bool)
    np.not_equal(
        solution.actions[: config.horizon, 1:], np.arange(1, block + 1) >= n_star,
        out=diff[:, :block],
    )
    # Flat indices of the fresh row-major table, a thirtieth of argwhere's
    # time on a 720 x 1674 table.
    k, i = np.divmod(np.flatnonzero(diff), width)
    return list(zip(k.tolist(), (i + 1).tolist()))


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
    after = k[:, None] + 1
    next_idx = np.minimum(n[:, None] + np.arange(probs.size), config.max_count)
    # Past the stored columns the next step releases, at the closed form
    # made with solve's operations, so the product sees the full table's bits.
    width = solution.values.shape[1] - 1
    next_values = np.where(
        next_idx <= width,
        solution.values[after, np.minimum(next_idx, width)],
        (next_idx - 1) / next_idx - config.ratio * after,
    )
    continuation = next_values @ probs
    release_value = (n - 1) / n - config.ratio * k
    # Errors that the next-step values carry from later steps are left out
    # of the bound, so no state is excused for them.  The subtraction below
    # rounds by at most u times the gap.
    tie = (np.abs(release_value - continuation) <= _comparison_bound(config)).tolist()
    real = [state for state, t in zip(mismatches, tie) if not t]
    return real, [state for state, t in zip(mismatches, tie) if t]


def write_action_table(solution: DpSolution, path: str) -> None:
    """Dump the action table as CSV rows (k, n, action) for inspection.

    Step k's lines are written as one string: the "n,action" cells of its
    row, each behind "k,".  The cells of the action block are picked from
    two columns of strings made once per table, and picked again only for a
    row unlike the one before; where the solver matches a threshold, every
    row before the deadline is the same.  The counts past the block up to
    max_count release, so their cells are the same in every row.
    """
    actions = solution.actions[:, 1:]
    block = actions.shape[1]
    release = [f"{n},release\r\n" for n in range(1, solution.config.max_count + 1)]
    wait = np.array([f"{n},wait\r\n" for n in range(1, block + 1)], dtype=object)
    release, past = np.array(release[:block], dtype=object), release[block:]
    with atomic_writer(path) as fh:
        fh.write("k,n,action\r\n")
        previous = None
        for k, row in enumerate(actions):
            # Comparing a row's bytes takes a tenth of np.array_equal's time.
            key = row.tobytes()
            if key != previous:
                cells = np.where(row, release, wait).tolist() + past
                previous = key
            fh.write(f"{k}," + f"{k},".join(cells))
