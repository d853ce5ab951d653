"""Release policies evaluated by the hour simulator.

Three causal rules (occupancy threshold, fixed period, release-on-sight)
plus a non-causal benchmark that sees the whole future arrival trajectory
of an episode and picks the reward-maximizing release step.

Each policy has one method, ``fire_mask(cumulative, params)``.  It takes
a rows x horizon matrix with one simulated hour per row, holding the
running total of arrivals in row-major order: ``cumulative[r, k]`` counts
the vehicles of every earlier row plus those of row r up to step k (its
initial count is the step-0 batch).  It returns a new boolean matrix of
the same shape, True where the coordinator fires.  A fire empties the hub
into one platoon and restarts the episode clock, so fires on an empty hub
are marked too.  The work loops over releases, never over steps: the
running total never falls, so one search of the flattened matrix finds
the next step of every row at once, and a result at or past the end of
its row means that hour has no such step.  ``release_steps`` is the
one-hour view: the sorted fire steps of one arrival vector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .stopping import RewardParams, release_reward


class _OneHourView:
    """``release_steps`` for a policy class that defines ``fire_mask``."""

    def release_steps(self, arrivals: np.ndarray, params: RewardParams) -> np.ndarray:
        """Sorted fire steps of one hour (``arrivals[0]`` the initial count,
        ``arrivals[k]`` the batch landing at step k)."""
        cumulative = np.cumsum(arrivals)[None, :]
        return np.flatnonzero(self.fire_mask(cumulative, params)[0])


def _row_bases(cumulative: np.ndarray) -> np.ndarray:
    """The running total just before each row: the vehicles of earlier rows."""
    return np.concatenate(([0], cumulative[:-1, -1]))


@dataclass(frozen=True)
class ThresholdPolicy(_OneHourView):
    """Release as soon as the hub count reaches n_star (None: never early)."""

    n_star: int | None

    def __post_init__(self) -> None:
        if self.n_star is not None and self.n_star < 1:
            raise ValueError(f"n_star must be >= 1, got {self.n_star!r}")

    def fire_mask(self, cumulative: np.ndarray, params: RewardParams) -> np.ndarray:
        # A fire at step k is followed by one at the first step whose
        # running total exceeds that at k by n_star.  Each round searches
        # the flattened matrix for the next fire of every row still running,
        # so the work grows with the releases, not with the steps.
        rows, horizon = cumulative.shape
        mask = np.zeros((rows, horizon), dtype=bool)
        if self.n_star is None or self.n_star > cumulative[-1, -1]:
            return mask
        flat = cumulative.ravel()
        fire = np.searchsorted(flat, _row_bases(cumulative) + self.n_star)
        end = np.arange(1, rows + 1) * horizon
        flat_mask = mask.ravel()
        while True:
            live = fire < end
            if not live.all():
                fire, end = fire[live], end[live]
                if not fire.size:
                    return mask
            flat_mask[fire] = True
            fire = np.searchsorted(flat, flat[fire] + self.n_star)


@dataclass(frozen=True)
class PeriodicPolicy(_OneHourView):
    """Release at the last step of every fixed-length interval."""

    period_steps: int

    def __post_init__(self) -> None:
        if self.period_steps < 1:
            raise ValueError(f"period_steps must be >= 1, got {self.period_steps!r}")

    def fire_mask(self, cumulative: np.ndarray, params: RewardParams) -> np.ndarray:
        # Steps period-1, 2*period-1, ...: each interval keeps every vehicle
        # that arrived within it, including same-step arrivals.
        mask = np.zeros(cumulative.shape, dtype=bool)
        mask[:, self.period_steps - 1 :: self.period_steps] = True
        return mask


@dataclass(frozen=True)
class SpontaneousPolicy(_OneHourView):
    """Release at every step: vehicles depart the moment they arrive."""

    def fire_mask(self, cumulative: np.ndarray, params: RewardParams) -> np.ndarray:
        return np.ones(cumulative.shape, dtype=bool)


@dataclass(frozen=True)
class NonCausalPolicy(_OneHourView):
    """Clairvoyant per-episode optimum; an upper bound for causal rules."""

    def fire_mask(self, cumulative: np.ndarray, params: RewardParams) -> np.ndarray:
        # Each episode releases at the step, among those with a nonempty hub,
        # that maximizes the episode reward; argmax keeps the earliest of
        # tied steps.  An episode that stays empty to the horizon never fires.
        # One round places the next release of every row still running.
        rows, horizon = cumulative.shape
        # A step d steps after the first nonempty one gains less than benefit
        # and loses d * step_cost, so past d = benefit/step_cost + 1 it is
        # worse than releasing at once by more than step_cost, far above the
        # rounding error; the argmax window stops there.
        reach = horizon
        if params.step_cost > 0 and params.benefit / params.step_cost < reach:
            reach = min(int(params.benefit / params.step_cost) + 3, horizon)
        window = np.arange(reach)
        mask = np.zeros((rows, horizon), dtype=bool)
        flat_mask = mask.ravel()
        flat = cumulative.ravel()
        # Per running row: the flat index of its end and of its episode
        # start, and the running total at its last release.
        end = np.arange(1, rows + 1) * horizon
        origin = end - horizon
        level = _row_bases(cumulative)
        while True:
            # The first step whose hub is nonempty: past the last release.
            first = np.searchsorted(flat, level + 1)
            live = first < end
            if not live.all():
                first, end, origin, level = first[live], end[live], origin[live], level[live]
                if not first.size:
                    return mask
            steps = first[:, None] + window
            if (first + reach > end).any():
                # A window past its row's end repeats the row's last step,
                # whose first column argmax prefers to every repeat.
                steps = np.minimum(steps, end[:, None] - 1)
            reward = release_reward(flat[steps] - level[:, None], steps - origin[:, None],
                                    params)
            fire = first + np.argmax(reward, axis=1)
            flat_mask[fire] = True
            origin, level = fire + 1, flat[fire]


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
        raise ValueError(f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}")
    return _BUILDERS[name](n_star, period_steps)
