"""Release policies evaluated by the hour simulator.

Three causal rules (occupancy threshold, fixed period, release-on-sight)
plus a non-causal benchmark that sees the whole future arrival trajectory
of an episode and picks the reward-maximizing release step.

Each policy has one method, ``release_steps(arrivals, params)``: given an
hour's arrival vector (``arrivals[0]`` the initial count, ``arrivals[k]``
the batch landing at step k) it returns the sorted steps at which the
coordinator fires.  A fire empties the hub into one platoon and restarts
the episode clock, so fires on an empty hub are listed too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .stopping import RewardParams, release_reward


@dataclass(frozen=True)
class ThresholdPolicy:
    """Release as soon as the hub count reaches n_star (None: never early)."""

    n_star: int | None

    def __post_init__(self) -> None:
        if self.n_star is not None and self.n_star < 1:
            raise ValueError(f"n_star must be >= 1, got {self.n_star!r}")

    def release_steps(self, arrivals: np.ndarray, params: RewardParams) -> np.ndarray:
        # Jump from release to release: the next fire is the first step whose
        # cumulative arrivals exceed the last release's by n_star.
        cumulative = np.cumsum(arrivals)
        steps = []
        if self.n_star is not None:
            step = int(np.searchsorted(cumulative, self.n_star))
            while step < cumulative.size:
                steps.append(step)
                step = int(np.searchsorted(cumulative, cumulative[step] + self.n_star))
        return np.array(steps, dtype=np.int64)


@dataclass(frozen=True)
class PeriodicPolicy:
    """Release at the last step of every fixed-length interval."""

    period_steps: int

    def __post_init__(self) -> None:
        if self.period_steps < 1:
            raise ValueError(f"period_steps must be >= 1, got {self.period_steps!r}")

    def release_steps(self, arrivals: np.ndarray, params: RewardParams) -> np.ndarray:
        # Steps period-1, 2*period-1, ...: each interval keeps every vehicle
        # that arrived within it, including same-step arrivals.
        return np.arange(self.period_steps - 1, len(arrivals), self.period_steps)


@dataclass(frozen=True)
class SpontaneousPolicy:
    """Release at every step: vehicles depart the moment they arrive."""

    def release_steps(self, arrivals: np.ndarray, params: RewardParams) -> np.ndarray:
        return np.arange(len(arrivals))


@dataclass(frozen=True)
class NonCausalPolicy:
    """Clairvoyant per-episode optimum; an upper bound for causal rules."""

    def release_steps(self, arrivals: np.ndarray, params: RewardParams) -> np.ndarray:
        # Each episode releases at the step, among those with a nonempty hub,
        # that maximizes the episode reward; argmax keeps the earliest of
        # tied steps.  An episode that stays empty to the horizon never fires.
        cumulative = np.cumsum(arrivals)
        # A step d steps after the first nonempty one gains less than benefit
        # and loses d * step_cost, so past d = benefit/step_cost + 1 it is
        # worse than releasing at once by more than step_cost, far above the
        # rounding error; the argmax window stops there.
        reach = cumulative.size
        if params.step_cost > 0 and params.benefit / params.step_cost < reach:
            reach = int(params.benefit / params.step_cost) + 3
        steps = []
        start, released = 0, 0
        while True:
            first = int(np.searchsorted(cumulative, released + 1))
            if first == cumulative.size:
                break
            end = min(first + reach, cumulative.size)
            counts = cumulative[first:end] - released
            waited = np.arange(first - start, end - start)
            step = first + int(np.argmax(release_reward(counts, waited, params)))
            steps.append(step)
            start, released = step + 1, cumulative[step]
        return np.array(steps, dtype=np.int64)


PolicyKind = Union[ThresholdPolicy, PeriodicPolicy, SpontaneousPolicy, NonCausalPolicy]

_BUILDERS = {
    "threshold": lambda n_star, period_steps: ThresholdPolicy(n_star),
    "periodic": lambda n_star, period_steps: PeriodicPolicy(period_steps),
    "spontaneous": lambda n_star, period_steps: SpontaneousPolicy(),
    "non_causal": lambda n_star, period_steps: NonCausalPolicy(),
}

POLICY_NAMES = tuple(_BUILDERS)


def make_policy(name: str, n_star: int | None, period_steps: int) -> PolicyKind:
    """The policy called ``name`` for a cell whose optimal threshold is n_star."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown policy name {name!r}")
    return _BUILDERS[name](n_star, period_steps)
