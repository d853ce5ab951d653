"""Release reward, the release condition, and the optimal occupancy threshold.

A coordinator watches vehicles accumulate at a hub and picks the step at
which to release them as one platoon.  Rewards are measured in units of
the platooning benefit R a follower earns, so with the cost-benefit ratio
r = c / R of a step's waiting cost c, releasing n vehicles after waiting k
steps is worth

    (n - 1) / n  -  r * k

per vehicle: the lead vehicle gains nothing, each follower gains the full
benefit, and every step of delay costs r.  Other values of R scale every
reward by R and change no decision.  Under i.i.d. arrivals the expected
gain from waiting one more step is

    g(n) = sum_x  x * P(x) / (n^2 + n*x)

which strictly decreases in n, so the stop-or-wait comparison reduces to
an occupancy threshold: release as soon as g(n) has fallen to or below
the cost-benefit ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDistribution

# g(n) <= mean / n^2 keeps n_star near or below sqrt(mean / ratio), and
# compute_threshold rejects ratios that put that past 1e150: every n the
# search evaluates must keep n^2 + n*x a finite float.
_MAX_SQUARED_BOUND = 1e300


def check_ratio(ratio: float) -> None:
    """Refuse a cost-benefit ratio that is negative, nan or infinite."""
    if not 0 <= ratio < math.inf:
        raise ValueError(f"ratio must be nonnegative and finite, got {ratio!r}")


@dataclass(frozen=True)
class Threshold:
    """Result of a threshold computation for one (distribution, ratio) pair.

    ``n_star`` is the smallest occupancy at which releasing is at least as
    good as waiting; ``None`` means waiting is always preferable before the
    deadline (possible only at ratio 0 with a nonzero arrival rate).
    """

    n_star: int | None
    ratio: float
    distribution: ArrivalDistribution

    def __post_init__(self) -> None:
        if self.n_star is not None and self.n_star < 1:
            raise ValueError(f"n_star must be >= 1, got {self.n_star!r}")

    @property
    def never_release(self) -> bool:
        return self.n_star is None


def release_reward(n: int, k: int, ratio: float) -> float:
    """Per-vehicle value, in units of the benefit, of releasing n vehicles
    at step k of an episode.

    Also evaluates elementwise over integer arrays ``n`` and ``k``, with the
    same float operations; array counts are not checked and must be >= 1.
    """
    if isinstance(n, (int, np.integer)) and n < 1:
        raise ValueError(f"cannot release an empty platoon (n={n})")
    return (n - 1) / n - ratio * k


def _waiting_gain(n: int, dist: ArrivalDistribution) -> float:
    # sum_x x*P(x)/(n^2 + n*x); evaluated from the largest x down so the
    # smallest terms accumulate first.  The x = 0 term is zero by definition.
    # The exact integer denominator steps down by n from one x to the next.
    denominator = n * n + n * (dist.support_max + 1)
    total = 0.0
    for term in dist.weighted_counts:
        denominator -= n
        total += term / denominator
    return total


def release_condition(n: int, dist: ArrivalDistribution, ratio: float) -> bool:
    """True when releasing at occupancy n beats waiting one more step.

    Ties release: the comparison is an exact >= with no tolerance band.
    """
    if n < 1:
        raise ValueError(f"occupancy must be >= 1, got {n}")
    check_ratio(ratio)
    return ratio >= _waiting_gain(n, dist)


def compute_threshold(dist: ArrivalDistribution, ratio: float) -> Threshold:
    """Smallest n >= 1 satisfying the release condition.

    The float g is nonincreasing in n (every term is), so once the
    condition fails at some n it fails at every smaller one, and the
    search returns the n a scan from 1 would stop at.  It starts from a
    lower bound: with weights x*P(x)/mean over the counts, Jensen's
    inequality for the convex 1/(n + x) gives

        g(n) >= mean / (n * (n + c)),   c = E[X^2] / E[X],

    so the condition fails at every n below the root of
    n * (n + c) = mean / ratio.  One evaluation checks the largest integer
    below that root.  From there the search gallops upward while the
    condition fails, or, should rounding make it hold at the guess,
    downward while it holds, and bisects the last gap, so an n_star near
    the root costs a handful of evaluations of g.  The first step is about
    guess * 2^-50, a few units in the last place of the float root, so that
    a huge n_star is not approached one count at a time.  At ratio 0 the
    condition can only ever hold when the arrival mean is 0, so a positive
    mean yields the never-release result.
    """
    check_ratio(ratio)
    mean = dist.mean
    if ratio == 0.0:
        return Threshold(None if mean > 0.0 else 1, ratio, dist)
    squared_bound = mean / ratio
    if not squared_bound <= _MAX_SQUARED_BOUND:
        raise ValueError(
            f"ratio {ratio!r} is too small: n_star would be near "
            f"sqrt(mean / ratio) = {math.sqrt(squared_bound):.3g}, past float range"
        )
    lo = 0  # the condition fails at every n <= lo
    hi = None  # and holds at hi
    if mean > 0.0:
        c = dist.second_moment / mean
        # The root of n^2 + c*n - squared_bound, in a form that does not cancel.
        root = 2.0 * squared_bound / (c + math.sqrt(c * c + 4.0 * squared_bound))
        guess = math.ceil(root) - 1
        if guess >= 1:
            if ratio >= _waiting_gain(guess, dist):
                hi = guess
            else:
                lo = guess
    if hi is None:
        step = max(1, lo >> 50)
        while ratio < _waiting_gain(lo + step, dist):
            lo += step
            step *= 2
        hi = lo + step
    else:
        step = max(1, hi >> 50)
        while hi > step and ratio >= _waiting_gain(hi - step, dist):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ratio >= _waiting_gain(mid, dist):
            hi = mid
        else:
            lo = mid
    return Threshold(hi, ratio, dist)


def one_step_lookahead(n: int, k: int, dist: ArrivalDistribution, ratio: float) -> bool:
    """True when releasing now is at least as good as one forced extra step.

    Evaluates the definition directly, as the expected next-step reward
    over the arrival pmf; it must agree with ``release_condition`` for all
    inputs even though the two share no code path.  The cost ``ratio*k``
    of the steps already waited is common to both sides and cancels, so
    both rewards are taken relative to the current step: the result is the
    same for every k, also in floating point, where ``ratio*k`` and
    ``ratio*(k+1)`` would round differently.
    """
    check_ratio(ratio)
    now = release_reward(n, 0, ratio)
    later = 0.0
    probs = dist.probabilities
    for x in range(dist.support_max, -1, -1):
        later += probs[x] * release_reward(n + x, 1, ratio)
    return now >= later
