"""Release policies evaluated by the hour simulator.

Two causal rules (occupancy threshold, fixed period) plus a non-causal
benchmark that sees the whole future arrival trajectory of an episode and
picks the reward-maximizing release step.  Release on sight is the
periodic rule with a period of one step.

Each policy has one method, ``fire_mask(cumulative, ratio)``.  It takes
a rows x horizon matrix with one simulated hour per row, holding the
running total of arrivals in row-major order: ``cumulative[r, k]`` counts
the vehicles of every earlier row plus those of row r up to step k (its
initial count is the step-0 batch).  It returns a new boolean matrix of
the same shape, True where the coordinator fires.  A fire empties the hub
into one platoon and restarts the episode clock, so fires on an empty hub
are marked too.  The threshold and non-causal rules share one loop over
releases, never over steps: the running total never falls, so one search
of the flattened matrix finds the next candidate step of every row at
once, and a result at or past the end of its row means that hour has no
such step.  The fire steps of one arrival vector ``a`` are
``np.flatnonzero(policy.fire_mask(np.cumsum(a)[None, :], ratio)[0])``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .stopping import release_reward


def _release_rounds(cumulative: np.ndarray, need: int,
                    choose: Callable[..., np.ndarray] | None = None) -> np.ndarray:
    """Fire mask of a rule that fires once the hub holds ``need`` vehicles.

    Each round places the next fire of every row still running: the first
    step whose running total is ``need`` above the total at the row's last
    fire.  ``choose(first, end, origin, level)``, if given, may move each of
    those fires later within its episode; per running row it gets the flat
    index of that step, of the row's end and of its episode start, and the
    running total at its last fire.
    """
    rows, horizon = cumulative.shape
    mask = np.zeros((rows, horizon), dtype=bool)
    flat_mask = mask.ravel()
    flat = cumulative.ravel()
    if need > flat[-1]:  # no row reaches it; level + need could pass int64
        return mask
    end = np.arange(1, rows + 1) * horizon
    origin = end - horizon
    level = np.concatenate(([0], cumulative[:-1, -1]))
    while True:
        fire = np.searchsorted(flat, level + need)
        live = fire < end
        if not live.all():
            fire, end, origin, level = fire[live], end[live], origin[live], level[live]
            if not fire.size:
                return mask
        if choose is not None:
            fire = choose(fire, end, origin, level)
        flat_mask[fire] = True
        origin, level = fire + 1, flat[fire]


@dataclass(frozen=True)
class ThresholdPolicy:
    """Release as soon as the hub count reaches n_star (None: never early)."""

    n_star: int | None

    def __post_init__(self) -> None:
        if self.n_star is not None and self.n_star < 1:
            raise ValueError(f"n_star must be >= 1, got {self.n_star!r}")

    def fire_mask(self, cumulative: np.ndarray, ratio: float) -> np.ndarray:
        # A fire at step k is followed by one at the first step whose
        # running total exceeds that at k by n_star.
        if self.n_star is None:
            return np.zeros(cumulative.shape, dtype=bool)
        return _release_rounds(cumulative, self.n_star)


@dataclass(frozen=True)
class PeriodicPolicy:
    """Release at the last step of every fixed-length interval."""

    period_steps: int

    def __post_init__(self) -> None:
        if self.period_steps < 1:
            raise ValueError(f"period_steps must be >= 1, got {self.period_steps!r}")

    def fire_mask(self, cumulative: np.ndarray, ratio: float) -> np.ndarray:
        # Steps period-1, 2*period-1, ...: each interval keeps every vehicle
        # that arrived within it, including same-step arrivals.
        mask = np.zeros(cumulative.shape, dtype=bool)
        mask[:, self.period_steps - 1 :: self.period_steps] = True
        return mask


@dataclass(frozen=True)
class NonCausalPolicy:
    """Clairvoyant per-episode optimum: each episode releases at its best step.

    It maximizes each episode's reward greedily, not the hour's total, so
    it does not bound what a causal rule earns in an hour: on an episode
    metric whose clock starts at the first arrival it falls below the
    threshold rule.
    """

    def fire_mask(self, cumulative: np.ndarray, ratio: float) -> np.ndarray:
        # Each episode releases at the step, among those with a nonempty hub,
        # that maximizes the episode reward; argmax keeps the earliest of
        # tied steps.  An episode that stays empty to the horizon never fires.
        horizon = cumulative.shape[1]
        # A step d steps after the first nonempty one gains less than the
        # benefit 1 and loses d * ratio, so past d = 1/ratio + 1 it is worse
        # than releasing at once by more than ratio, far above the rounding
        # error; the argmax window stops there.
        reach = horizon
        if ratio > 0 and 1.0 / ratio < reach:
            reach = min(int(1.0 / ratio) + 3, horizon)
        window = np.arange(reach)
        flat = cumulative.ravel()

        def best(first, end, origin, level):
            # A window past its row's end repeats the row's last step, whose
            # first column argmax prefers to every repeat.
            steps = np.minimum(first[:, None] + window, end[:, None] - 1)
            reward = release_reward(flat[steps] - level[:, None], steps - origin[:, None], ratio)
            return first + np.argmax(reward, axis=1)

        # Each round starts from the first step whose hub is nonempty.
        return _release_rounds(cumulative, 1, best)


PolicyKind = Union[ThresholdPolicy, PeriodicPolicy, NonCausalPolicy]

_BUILDERS = {
    "threshold": lambda n_star, period_steps: ThresholdPolicy(n_star),
    "periodic": lambda n_star, period_steps: PeriodicPolicy(period_steps),
    # Release on sight fires at every step, empty ones included.
    "spontaneous": lambda n_star, period_steps: PeriodicPolicy(1),
    "non_causal": lambda n_star, period_steps: NonCausalPolicy(),
}

POLICY_NAMES = tuple(_BUILDERS)


def make_policy(name: str, n_star: int | None, period_steps: int) -> PolicyKind:
    """The policy called ``name`` for a cell whose optimal threshold is n_star."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}")
    return _BUILDERS[name](n_star, period_steps)
