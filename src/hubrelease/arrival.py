"""Discrete distributions over per-step vehicle arrival counts.

Everything downstream (threshold computation, the dynamic-programming
oracle, the hour simulator) consumes the same finite pmf representation,
so truncation and normalization happen once, here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# Absolute tolerance on an already-constructed pmf summing to 1.
PMF_SUM_TOL = 1e-12
# from_pmf() accepts slightly off-normalized input and rescales it.
PMF_NORMALIZE_TOL = 1e-9
# Relative mass discarded when truncating an infinite support.
TAIL_MASS = 1e-12
# Largest accepted Poisson rate.  A hub never sees anywhere near this many
# vehicles per step, and every truncated pmf stays a few tens of thousands
# of entries long.
MAX_RATE = 2e4
# The end of the truncation bracket at MAX_RATE (see _poisson_head), and so
# the largest count any pmf may hold, from_pmf's included.
MAX_COUNT = int(MAX_RATE + 10.0 * math.sqrt(MAX_RATE)) + 40
# log k! for every count k up to MAX_COUNT.
_LOG_FACTORIAL = np.fromiter(map(math.lgamma, range(1, MAX_COUNT + 2)), float)


@dataclass(frozen=True)
class ArrivalDistribution:
    """Finite pmf over arrival counts 0..support_max.

    ``probabilities[x]`` is the probability of exactly ``x`` arrivals in
    one step.  Trailing zero-probability entries are trimmed so that
    ``support_max`` is the largest count with nonzero mass.
    """

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = [float(p) for p in self.probabilities]
        if not probs:
            raise ValueError("pmf must have at least one entry")
        while len(probs) > 1 and probs[-1] == 0.0:
            probs.pop()
        for x, p in enumerate(probs):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability of count {x} is {p!r}, outside [0, 1]")
        # fsum rounds the exact sum correctly in any order; largest first
        # keeps its list of partial sums short across a pmf that spans from
        # subnormal to near 1.
        total = math.fsum(sorted(probs, reverse=True))
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within {PMF_SUM_TOL}")
        object.__setattr__(self, "probabilities", tuple(probs))

    @property
    def support_max(self) -> int:
        """Largest arrival count with nonzero probability."""
        return len(self.probabilities) - 1

    @cached_property
    def _descending_pass(self) -> tuple[tuple[float, ...], float, float]:
        # One pass from the largest count down: the terms x * P(x), their
        # sum E[X] and the sum of x * x * P(x), E[X^2], each accumulated
        # smallest terms first.
        probs = self.probabilities
        terms = []
        mean = second = 0.0
        for x in range(self.support_max, 0, -1):
            term = x * probs[x]
            terms.append(term)
            mean += term
            second += x * term
        return tuple(terms), mean, second

    @property
    def mean(self) -> float:
        """Expected arrivals per step, summed from large counts down."""
        return self._descending_pass[1]

    @property
    def second_moment(self) -> float:
        """E[X^2], summed from large counts down."""
        return self._descending_pass[2]

    @property
    def weighted_counts(self) -> tuple[float, ...]:
        """x * P(x) for x = support_max down to 1: the terms of the mean."""
        return self._descending_pass[0]

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probabilities))

    def counts_at(self, u: np.ndarray) -> np.ndarray:
        """The count drawn by each uniform in ``u`` (any shape): inverse-cdf lookup."""
        idx = np.searchsorted(self._cumulative, u, side="right")
        return np.minimum(idx, self.support_max)


@dataclass(frozen=True)
class InitialCountDistribution(ArrivalDistribution):
    """Distribution of the count already waiting at step 0; P(0) must be 0."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.probabilities[0] != 0.0:
            raise ValueError("initial count distribution must place zero mass at 0")


def _poisson_head(lam: float, start: int, scale: float) -> np.ndarray:
    """Poisson(lam) pmf over 0..x, for the smallest x >= start with
    P(X > x) / scale < TAIL_MASS; requires lam > 0.

    The pmf is exp(k log(lam) - log k! - lam), evaluated once over a bracket
    0..stop, and each tail P(X > x) is read from a reverse cumulative sum of
    that array.  No count below int(lam) - 1 can be the hit: every
    x <= lam - 1 lies below the Poisson median, which is at least
    lam - ln 2 (Choi, 1994), so P(X > x) > 1/2 there, and with scale <= 1
    the tail is nowhere near TAIL_MASS.  The bracket always holds the hit:
    by Bernstein's inequality P(X >= lam + t) <= exp(-t^2 / (2 (lam + t/3))),
    and at its end, t = 10 sqrt(lam) + 40, the exponent stays above 51 for
    every rate up to MAX_RATE, where -log(TAIL_MASS) = 27.7 is enough.  A
    scale of P(X >= 1) >= 1 - 1/e costs under 0.5 of that from rate 1 up;
    below it, P(X > 40) / P(X >= 1) < lam^40 / 40! is far smaller still.
    The same bound makes the mass past the bracket, which the tails leave
    out, negligible beside TAIL_MASS.
    """
    stop = int(lam + 10.0 * math.sqrt(lam)) + 40
    pmf = np.exp(np.arange(stop + 1) * math.log(lam) - _LOG_FACTORIAL[: stop + 1] - lam)
    first = max(start, int(lam) - 1)
    # P(X > x) for x = first..stop - 1; the float sums only grow as x falls,
    # so the hit's offset from first is the number of tails not below.
    tails = np.cumsum(pmf[:first:-1])[::-1]
    return pmf[: first + np.count_nonzero(tails / scale >= TAIL_MASS) + 1]


def poisson_truncated(lam: float) -> ArrivalDistribution:
    """Poisson(lam) truncated at the smallest x_max with tail < TAIL_MASS, renormalized.

    lam = 0 degenerates to a point mass at zero arrivals.
    """
    if not 0 <= lam <= MAX_RATE:
        raise ValueError(f"rate must be nonnegative and at most {MAX_RATE:g}, got {lam!r}")
    if lam == 0:
        return ArrivalDistribution((1.0,))
    probs = _poisson_head(lam, 0, 1.0)
    probs /= probs.sum()
    return ArrivalDistribution(tuple(probs.tolist()))


def zero_truncated_poisson(lam: float) -> InitialCountDistribution:
    """Poisson(lam) conditioned on being >= 1, truncated and renormalized.

    lam = 0 gives its lam -> 0 limit, a point mass at a single vehicle.
    """
    if not 0 <= lam <= MAX_RATE:
        raise ValueError(f"rate must be nonnegative and at most {MAX_RATE:g}, got {lam!r}")
    if lam == 0:
        return InitialCountDistribution((0.0, 1.0))
    probs = _poisson_head(lam, 1, -math.expm1(-lam))
    probs[0] = 0.0
    probs /= probs.sum()
    return InitialCountDistribution(tuple(probs.tolist()))


def from_pmf(pairs: Iterable[tuple[int, float]]) -> ArrivalDistribution:
    """Build a distribution from (count, probability) pairs.

    Counts must be distinct integers in [0, MAX_COUNT].  A total mass within
    1e-9 of 1 is rescaled exactly to 1; anything further off is rejected.
    """
    seen: dict[int, float] = {}
    for count, prob in pairs:
        count = int(count)
        if count < 0:
            raise ValueError(f"count {count} is negative")
        if count > MAX_COUNT:
            raise ValueError(f"count {count} is more than MAX_COUNT = {MAX_COUNT}, "
                             f"the largest batch a pmf may hold")
        if prob < 0:
            raise ValueError(f"probability {prob!r} for count {count} is negative")
        if math.isnan(prob):
            raise ValueError(f"probability of count {count} is nan")
        if count in seen:
            raise ValueError(f"count {count} appears more than once")
        seen[count] = float(prob)
    if not seen:
        raise ValueError("pmf must have at least one entry")
    total = math.fsum(seen.values())
    if abs(total - 1.0) >= PMF_NORMALIZE_TOL:
        raise ValueError(f"pmf mass sums to {total!r}, not 1 within {PMF_NORMALIZE_TOL}")
    dense = [0.0] * (max(seen) + 1)
    for count, prob in seen.items():
        dense[count] = prob / total
    return ArrivalDistribution(tuple(dense))


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *path).

    Work items (Monte-Carlo samples, sweep cells) each derive their own
    stream, so results do not depend on execution order.
    """
    if master_seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed path entries must be nonnegative integers")
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))
