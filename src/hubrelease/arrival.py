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
from scipy.special import gammaln, pdtrc, xlogy

# Absolute tolerance on an already-constructed pmf summing to 1.
PMF_SUM_TOL = 1e-12
# from_pmf() accepts slightly off-normalized input and rescales it.
PMF_NORMALIZE_TOL = 1e-9
# Default relative mass discarded when truncating an infinite support.
DEFAULT_TAIL_MASS = 1e-12
MAX_TAIL_MASS = 1e-6
# Largest accepted Poisson rate.  A hub never sees anywhere near this many
# vehicles per step, and every truncated pmf stays a few tens of thousands
# of entries long.
MAX_RATE = 2e4


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
        total = math.fsum(probs)
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within {PMF_SUM_TOL}")
        object.__setattr__(self, "probabilities", tuple(probs))

    @property
    def support_max(self) -> int:
        """Largest arrival count with nonzero probability."""
        return len(self.probabilities) - 1

    @cached_property
    def mean(self) -> float:
        """Expected arrivals per step, summed from large counts down."""
        total = 0.0
        for x in range(self.support_max, 0, -1):
            total += x * self.probabilities[x]
        return total

    @cached_property
    def variance(self) -> float:
        m = self.mean
        total = 0.0
        for x in range(self.support_max, -1, -1):
            total += (x - m) ** 2 * self.probabilities[x]
        return total

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probabilities))

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one count; consumes exactly one uniform from ``rng``."""
        return int(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. counts by inverse-cdf lookup."""
        return self.counts_at(rng.random(size))

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

    @classmethod
    def degenerate(cls) -> "InitialCountDistribution":
        """Point mass at a single waiting vehicle (zero-rate limit)."""
        return cls((0.0, 1.0))


def _validate_tail_mass(tail_mass: float) -> None:
    if not (0.0 < tail_mass <= MAX_TAIL_MASS):
        raise ValueError(f"tail_mass must be in (0, {MAX_TAIL_MASS}], got {tail_mass!r}")


# The Poisson pmf and tail are the expressions scipy.stats.poisson evaluates
# (its _logpmf and _sf, clipped to [0, 1] as its public pmf and sf do), so
# they give the same bits without importing scipy.stats, which would double
# the start-up time and memory of every process.
def _poisson_pmf(k: np.ndarray, lam: float) -> np.ndarray:
    """P(X = k) for X ~ Poisson(lam), for integer arrays k >= 0."""
    return np.clip(np.exp(xlogy(k, lam) - gammaln(k + 1) - lam), 0.0, 1.0)


def _poisson_sf(k: np.ndarray, lam: float) -> np.ndarray:
    """P(X > k) for X ~ Poisson(lam), for integer arrays k >= 0."""
    return np.clip(pdtrc(k, lam), 0.0, 1.0)


def _truncation_point(lam: float, tail_mass: float, start: int, scale: float) -> int:
    """Smallest x >= start with P(X > x) / scale < tail_mass, X ~ Poisson(lam).

    Evaluates sf over a bracket at a time, from start upward, so the first
    hit is the one a count-by-count scan would stop at; the first bracket
    already holds it unless tail_mass is far below the default.
    """
    lo, hi = start, int(lam + 10.0 * math.sqrt(lam)) + 40
    while True:
        below = np.flatnonzero(_poisson_sf(np.arange(lo, hi + 1), lam) / scale < tail_mass)
        if below.size:
            return lo + int(below[0])
        lo, hi = hi + 1, 2 * hi


def poisson_truncated(lam: float, tail_mass: float = DEFAULT_TAIL_MASS) -> ArrivalDistribution:
    """Poisson(lam) truncated at the smallest x_max with tail < tail_mass, renormalized.

    lam = 0 degenerates to a point mass at zero arrivals.
    """
    if not 0 <= lam <= MAX_RATE:
        raise ValueError(f"rate must be nonnegative and at most {MAX_RATE:g}, got {lam!r}")
    _validate_tail_mass(tail_mass)
    x_max = _truncation_point(lam, tail_mass, 0, 1.0)
    probs = _poisson_pmf(np.arange(x_max + 1), lam)
    probs /= probs.sum()
    return ArrivalDistribution(tuple(probs))


def zero_truncated_poisson(
    lam: float, tail_mass: float = DEFAULT_TAIL_MASS
) -> InitialCountDistribution:
    """Poisson(lam) conditioned on being >= 1, truncated and renormalized.

    Requires lam > 0; the lam -> 0 limit (a guaranteed single vehicle) must be
    requested explicitly via ``InitialCountDistribution.degenerate()``.
    """
    if not 0 < lam <= MAX_RATE:
        raise ValueError(
            f"rate must be positive and at most {MAX_RATE:g}, got {lam!r}; "
            "use InitialCountDistribution.degenerate() for the zero-rate limit"
        )
    _validate_tail_mass(tail_mass)
    n_max = _truncation_point(lam, tail_mass, 1, -math.expm1(-lam))
    probs = _poisson_pmf(np.arange(n_max + 1), lam)
    probs[0] = 0.0
    probs /= probs.sum()
    return InitialCountDistribution(tuple(probs))


def from_pmf(pairs: Iterable[tuple[int, float]]) -> ArrivalDistribution:
    """Build a distribution from (count, probability) pairs.

    Counts must be distinct nonnegative integers.  A total mass within
    1e-9 of 1 is rescaled exactly to 1; anything further off is rejected.
    """
    seen: dict[int, float] = {}
    for count, prob in pairs:
        count = int(count)
        if count < 0:
            raise ValueError(f"count {count} is negative")
        if prob < 0:
            raise ValueError(f"probability {prob!r} for count {count} is negative")
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
