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

# compute_threshold rejects ratios whose bracket end sqrt(mean / ratio) is
# past 1e150: a few doublings of it must keep n^2 + n*x a finite float.
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
    probs = dist.probabilities
    total = 0.0
    for x in range(dist.support_max, 0, -1):
        total += x * probs[x] / (n * n + n * x)
    return total


def release_condition(n: int, dist: ArrivalDistribution, ratio: float) -> bool:
    """True when releasing at occupancy n beats waiting one more step.

    Ties release: the comparison is an exact >= with no tolerance band.
    """
    if n < 1:
        raise ValueError(f"occupancy must be >= 1, got {n}")
    if not ratio >= 0:
        raise ValueError(f"ratio must be nonnegative, got {ratio!r}")
    return ratio >= _waiting_gain(n, dist)


def compute_threshold(dist: ArrivalDistribution, ratio: float) -> Threshold:
    """Smallest n >= 1 satisfying the release condition.

    g(n) <= mean / n^2 puts n_star in [1, ceil(sqrt(mean / ratio))], and the
    float g is nonincreasing in n (every term is), so bisection over that
    bracket finds the n a scan from 1 would stop at with O(log n_star)
    evaluations of g.  At ratio 0 the condition can only ever hold when the
    arrival mean is 0, so a positive mean yields the never-release result.
    """
    if not ratio >= 0:
        raise ValueError(f"ratio must be nonnegative, got {ratio!r}")
    if ratio == 0.0:
        return Threshold(None if dist.mean > 0.0 else 1, ratio, dist)
    squared_bound = dist.mean / ratio
    if not squared_bound <= _MAX_SQUARED_BOUND:
        raise ValueError(
            f"ratio {ratio!r} is too small: n_star would be near "
            f"sqrt(mean / ratio) = {math.sqrt(squared_bound):.3g}, past float range"
        )
    # Rounding can leave g(hi) a hair above ratio; doubling quarters g.
    hi = max(1, math.ceil(math.sqrt(squared_bound)))
    while not release_condition(hi, dist, ratio):
        hi *= 2
    lo = 0  # the condition fails at every n <= lo and holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if release_condition(mid, dist, ratio):
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
