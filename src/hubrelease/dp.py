"""Finite-horizon stochastic dynamic program for the release decision.

Backward induction over states (step k, hub count n) with forced release
at the deadline.  It never looks at the threshold formula, on purpose:
compare_with_threshold checks the two against each other, ties apart.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDistribution
from .atomic import atomic_writer
from .stopping import Threshold, check_ratio

# An occupancy cap makes the state space finite.  It is only sound when the
# count has effectively no chance of reaching it, so a config's cap is
# raised until the probability of exceeding it within the horizon stays
# below this bound, or to the solver's reach, past which it reads no count:
# one cap search, stopped at the reach, decides which comes first.
CAP_TOLERANCE = 1e-9
# Largest grid the cap search may sweep or the solver may span: (step,
# count) states up to the cap, or the solver's (count, batch size)
# transitions.  The solver stores only the counts its induction reads, and
# DpConfig raises a cap no further than those (rate 2, ratio 0.005,
# horizon 720: 721 x 99 states); the limits charge horizon x the cap that
# is used, which an explicit cap past the reach can still make large.  It is
# over twenty times the grid of a dump at the busiest benchmarked rate
# (rate 2.1, horizon 720: 721 x 1753 states up to the safe cap), leaves
# room for a 5000-step cap search of certain growth (5000 x 5018), and
# turns a tiny ratio, a huge horizon or a huge rate into an error before
# anything is allocated.  A horizon whose solver grid cannot hold even
# the smallest cap, (horizon + 1) x 2 states, is refused before any other
# work.
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
# convolution per step took 470, 293 and 163 ms.  The limit is 76 times a
# cap search at rate 2 over 720 steps (2.6e7), which a dump there runs, 79
# times a solve at that search's cap (2.5e7) and 40 times the 5000-step cap
# search the tests run (5e7); the benchmarked solves at their reach are
# charged at most 1.4e6.
MAX_CONVOLUTION_WORK = 2_000_000_000


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


def suggest_max_count(dist: ArrivalDistribution, horizon: int, limit: int | None = None) -> int:
    """Smallest occupancy cap that the count passes within `horizon` steps,
    starting from one vehicle, with probability below CAP_TOLERANCE, or
    `limit` where that cap lies past it: no count past `limit` is read.

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
    top = math.inf if limit is None else limit
    bound = min(_search_bound(dist, horizon), top)
    while True:
        _check_states(horizon, bound + 2, "the occupancy-cap search")
        _check_work(horizon, bound + 1, dist.support_max + 1, "the occupancy-cap search")
        tail = _final_count_tail(dist, horizon, bound)
        if tail[-1] < CAP_TOLERANCE:
            return max(int(np.flatnonzero(tail < CAP_TOLERANCE)[0]) - 1, 1)
        if bound == top:
            return bound
        # A rare large batch can leave more than CAP_TOLERANCE past the
        # cushion ({0: 0.9999, 100: 0.0001} over 100 steps: 1.6e-7 past
        # 224), so the search is run again over twice the counts, or up to
        # the limit.  It ends: no count passes 1 + horizon * support_max,
        # and the limits above refuse a bound that grows too far.
        bound = min(2 * bound, top)


@dataclass(frozen=True)
class DpConfig:
    """Problem instance for the solver.

    max_count is the occupancy cap, where the solver clamps the count.  solve
    reads no count past its reach, rows + s: rows is the release floor less
    one, rounded up to a multiple of 8, and s the largest batch (no reach
    where the closed form is not used).  It tabulates min(rows + s,
    max_count) counts, so every cap at or past the reach gives the same
    tables bit for bit.  A cap at or past the reach is kept; a lower one is
    raised to suggest_max_count(dist, horizon, reach), the smallest safe
    cap or the reach, whichever comes first.  So 1 gives the smaller of the
    two.  Clamping at an effectively unreachable cap cannot distort the
    computed actions.
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
        # Every cap is at least 1: this refuses only horizons no cap fits.
        _check_states(self.horizon + 1, 2, "the solver")
        rows = _induction_rows(self)
        reach = None if rows is None else rows + self.dist.support_max
        if reach is None or self.max_count < reach:
            cap = suggest_max_count(self.dist, self.horizon, reach)
            object.__setattr__(self, "max_count", max(self.max_count, cap))
        _check_states(self.horizon + 1, self.max_count + 1, "the solver")
        _check_states(
            self.max_count, self.dist.support_max + 1, "the solver's transition table"
        )
        _check_work(self.horizon, self.max_count, self.dist.support_max + 1, "the solver")


@dataclass(frozen=True, eq=False)
class DpSolution:
    """Value and action tables indexed [k, n] for k in 0..horizon, kept only
    for the counts that the induction reads and decides.

    The values are net of the cost already spent: values[k, n] is the
    optimal expected reward from (k, n) plus ratio * k, so the deadline
    row is (n - 1)/n and every earlier row follows from the one after it by
    the same map.  actions[k, n] for n in 1..rows is True when releasing at
    (k, n) is optimal, with ties resolved toward release; values[k, n] for
    n in 1..width, width = min(rows + s, max_count) with s the largest
    batch, are the optimal values.  rows is the release floor rounded up to
    a multiple of 8 (max_count when the closed form is not used, 0 when
    releasing is optimal from one vehicle on).  Every state (k, n) with n
    past those columns, up to max_count, releases, at (n - 1)/n, a value
    that no reader computes.  Column n = 0 holds -ratio, the cost of one
    step, which every continuation adds as one more weighed cell; its
    actions are False, since the hub is never empty when a decision is
    made.  settled is the step k at which the induction found row k equal
    to row k + 1, bit for bit, and stopped: every row before it is a copy
    of row k.  It is None when no checked step repeated its successor.
    """

    config: DpConfig
    values: np.ndarray
    actions: np.ndarray
    settled: int | None = None


def _comparison_bound(config: DpConfig) -> float:
    """Largest rounding error of one release-or-wait comparison in `solve`.

    Within it, the two actions can trade places in exact arithmetic on the
    same next-step values.  With u = 2^-53 the unit roundoff and d =
    |fsum(pmf) - 1| the pmf's mass error: solver values lie in [0, W], W =
    (1 + d)^horizon, since the benefit is below 1 and each step weighs the
    values after it by a mass of at most 1 + d.
    - The release value (n - 1)/n is off by at most u.
    - The continuation is one dot product of s + 2 terms: the s + 1
      next-step values weighed by the pmf, and -ratio weighed by 1.  In any
      summation order it is off by at most
      gamma * (sum_x p_x |v_x| + ratio) <= gamma * ((1 + d) * W + ratio),
      with gamma = (s + 2) u / (1 - (s + 2) u).
    - The rule's expectation has weights of mass 1; the pmf's extra mass
      d moves the continuation from it by up to d * W.
    Errors that the next-step values carry from later steps are left out.
    """
    u = np.finfo(float).eps / 2
    terms = (len(config.dist.probabilities) + 1) * u
    excess = abs(math.fsum(config.dist.probabilities) - 1.0)
    top = (1 + excess) ** config.horizon
    return u + terms / (1 - terms) * ((1 + excess) * top + config.ratio) + excess * top


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


def _induction_rows(config: DpConfig) -> int | None:
    """Counts 1..rows that solve runs its induction over before any cap, or
    None where it runs it up to the cap.

    Past the floor a step raises the benefit by at most ratio/2, and a pmf
    of mass 1 + e, e <= PMF_SUM_TOL, the expectation by under e(1 + ratio):
    where ratio > 4e waiting loses over ratio/5 there, and solve stores
    the closed form, release.  A float comparison errs by about (s + 4) u
    + (s + 2) u ratio, u = 2^-53; where ratio/5 may not cover it, below
    6e-16 (s + 4), the floor lies past 2.5e7 and every cap MAX_STATES
    admits.  BLAS kernels sum a row in another order in a ragged last
    group of rows (groups of 4 in OpenBLAS on x86-64), so rows is a
    multiple of 8 and each row kept is summed as in the full product.
    """
    excess = math.fsum(config.dist.probabilities) - 1.0
    if config.ratio > 4 * max(excess, 0.0):
        return -(-(_release_floor(config.dist, config.ratio) - 1) // 8) * 8
    return None


def _continuation_terms(n: np.ndarray, config: DpConfig) -> tuple[np.ndarray, np.ndarray]:
    """(columns, weights) of the continuation E[value(n + X)] - ratio of
    each count in n as one product: row i of columns holds the counts
    reached from n[i] after each batch size, clamped at the cap, and then
    column 0, which holds -ratio and is weighed by 1.0.
    """
    probs = config.dist.probabilities
    columns = np.zeros((n.size, len(probs) + 1), dtype=np.intp)
    np.minimum(n[:, None] + np.arange(len(probs)), config.max_count, out=columns[:, :-1])
    return columns, np.append(probs, 1.0)


def solve(config: DpConfig) -> DpSolution:
    """Backward induction in values net of the elapsed cost; release is
    forced at k = horizon.

    Every state starts at its release value (n - 1)/n, marked release, and
    the induction raises only the states where waiting is worth more.
    Every step applies the same map to the row after it, so once a row
    repeats its successor bit for bit, every earlier row repeats it too:
    rows are compared every 16 steps, and the first repeat fills the rows
    before it and stops.  From _release_floor on, release is optimal at
    every step, so the induction runs below it and the tables end where it
    stops reading: the closed form past them is left to the readers.
    """
    horizon, cap, ratio = config.horizon, config.max_count, config.ratio
    rows = _induction_rows(config)
    rows = cap if rows is None else min(rows, cap)
    # The induction reads the values of counts up to one batch past its
    # rows, and decides only its rows; the rest is the closed form.
    n = np.arange(1, min(rows + config.dist.support_max, cap) + 1)

    values = np.empty((horizon + 1, n.size + 1))
    values[:, 0] = -ratio
    values[:, 1:] = (n - 1) / n
    actions = np.zeros((horizon + 1, rows + 1), dtype=bool)
    actions[:, 1:] = True

    # The step cost rides in the product as one more gathered cell: a fifth
    # array call per step to subtract it would slow the solves that never
    # settle.
    columns, weights = _continuation_terms(n[:rows], config)
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
    settled = None
    # Steps k = horizon - 1 down to 0, with the values of step k + 1, run
    # 16 at a time; a row's bytes are compared after each full 16, which
    # costs less than one step and keeps the loop free of a step counter.
    steps = zip(values[-2::-1, 1 : rows + 1], wait[::-1], values[:0:-1])
    done = 0
    while done < horizon:
        for row, wait_k, after in itertools.islice(steps, 16):
            np.matmul(after[columns], weights, out=continuation)
            np.less(row, continuation, out=wait_k)
            np.copyto(row, continuation, where=wait_k)
        done += 16
        if done <= horizon and row.tobytes() == after[1 : rows + 1].tobytes():
            settled = horizon - done
            values[:settled] = values[settled]
            wait[:settled] = wait_k
            break
    np.logical_not(wait, out=wait)
    return DpSolution(config, values, actions, settled)


def compare_with_threshold(
    solution: DpSolution, threshold: Threshold
) -> list[tuple[int, int, bool]]:
    """(k, n, tie) for each step k before the deadline and count n where
    the solver and the rule "release iff n >= n_star" (never, when n_star
    is None) differ; none means they coincide.  tie marks a state where
    releasing and waiting are worth the same up to the rounding error of
    solve's comparison there: both are optimal.
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
    # releases.  Those columns are appended as differing states.
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
    k, n = np.divmod(np.flatnonzero(diff), width)
    n += 1
    # Past the block, solve releases only where waiting loses more than
    # ratio/5 in exact arithmetic, so a rule that waits there is wrong.  In
    # one step a state of the block reaches only stored counts, up to
    # min(rows + s, max_count).
    tie = np.zeros(k.size, dtype=bool)
    inside = n <= block
    if inside.any():
        k_in, n_in = k[inside], n[inside]
        columns, weights = _continuation_terms(n_in, config)
        continuation = solution.values[k_in[:, None] + 1, columns] @ weights
        # Errors that the next-step values carry from later steps are left
        # out of the bound, so no state is excused for them.  The
        # subtraction rounds by at most u times the gap.
        gap = (n_in - 1) / n_in - continuation
        tie[inside] = np.abs(gap) <= _comparison_bound(config)
    return list(zip(k.tolist(), n.tolist(), tie.tolist()))


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
