"""Per-policy release steps, including the clairvoyant benchmark."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubrelease.policies import (
    POLICY_NAMES,
    NonCausalPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
    make_policy,
)
from hubrelease.stopping import release_reward

RATIO = 0.01


def fires(policy, arrivals, ratio=RATIO) -> list[int]:
    cumulative = np.cumsum(np.array(arrivals, dtype=np.int64))[None, :]
    steps = np.flatnonzero(policy.fire_mask(cumulative, ratio)[0])
    assert np.all(np.diff(steps) > 0)
    return steps.tolist()


class TestThresholdDecision:
    def test_releases_at_or_above_threshold(self):
        # Hub counts 3, 5, 6 | 2, 4, 9: fires once 6 is reached, counting afresh.
        assert fires(ThresholdPolicy(6), [3, 2, 1, 2, 2, 5]) == [2, 5]
        assert fires(ThresholdPolicy(6), [3, 2, 0, 0]) == []

    def test_one_batch_can_overshoot_the_threshold(self):
        assert fires(ThresholdPolicy(2), [1, 4, 0, 1, 1]) == [1, 4]

    def test_empty_hub_never_releases(self):
        assert fires(ThresholdPolicy(1), [0, 0, 0]) == []
        assert fires(ThresholdPolicy(1), [1, 0, 0, 1]) == [0, 3]

    def test_never_release_sentinel(self):
        assert fires(ThresholdPolicy(None), [10_000, 5, 5]) == []

    @pytest.mark.parametrize("n_star", [2**64, 10**150])
    def test_a_threshold_past_int64_never_fires(self, n_star):
        # A tiny ratio gives such thresholds; the running total plus one of
        # them would overflow int64.
        cumulative = np.cumsum(np.full((3, 4), 5, dtype=np.int64)).reshape(3, 4)
        assert not ThresholdPolicy(n_star).fire_mask(cumulative, 0.0).any()

    def test_policy_validates_threshold(self):
        with pytest.raises(ValueError, match="n_star"):
            ThresholdPolicy(0)


class TestPeriodicDecision:
    def test_fires_at_interval_ends(self):
        assert fires(PeriodicPolicy(60), [0] * 240) == [59, 119, 179, 239]

    def test_last_step_of_the_hour_fires_with_default_grid(self):
        assert fires(PeriodicPolicy(60), [1] * 720)[-1] == 719

    def test_period_one_fires_every_step(self):
        assert fires(PeriodicPolicy(1), [0] * 10) == list(range(10))

    def test_period_longer_than_the_hour_never_fires(self):
        assert fires(PeriodicPolicy(60), [1] * 59) == []

    def test_invalid_arguments_rejected(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="period"):
                PeriodicPolicy(bad)


def test_spontaneous_always_releases():
    # Every step fires, an empty hub included: each fire restarts the clock.
    policy = make_policy("spontaneous", 6, 60)
    assert fires(policy, [1, 0, 0, 3]) == [0, 1, 2, 3]


class TestNonCausalDecision:
    def test_waits_for_the_late_arrival(self):
        # One vehicle present, arrivals 1,0,1: per-step rewards are
        # 0, 0.49, 0.48, 0.63667; the last step wins.
        assert fires(NonCausalPolicy(), [1, 1, 0, 1]) == [3]

    def test_quits_while_ahead(self):
        # Same trajectory, but a 60x waiting cost: rewards 0, -0.1, -0.7, -1.13,
        # so the first episode releases at once and the next ones do the same.
        assert fires(NonCausalPolicy(), [1, 1, 0, 1], 0.6) == [0, 1, 3]

    def test_no_arrivals_releases_at_once(self):
        # Constant count 1: reward 0 at step 0 beats -c*t everywhere after.
        assert fires(NonCausalPolicy(), [1, 0, 0, 0]) == [0]

    def test_free_waiting_rides_to_the_horizon(self):
        assert fires(NonCausalPolicy(), [1, 1, 1, 1], 0.0) == [3]

    def test_ties_release_earliest(self):
        # Count stops growing: rewards tie from step 1 on.
        assert fires(NonCausalPolicy(), [1, 1, 0, 0], 0.0) == [1]

    def test_empty_trajectory_forces_horizon_end(self):
        # An episode that stays empty never fires; the simulator's forced
        # release at the last step has nothing left to take.
        assert fires(NonCausalPolicy(), [0, 0, 0]) == []
        assert fires(NonCausalPolicy(), [1, 0, 0]) == [0]

    def test_skips_empty_prefix(self):
        assert fires(NonCausalPolicy(), [0, 0, 1, 0]) == [2]

    def test_result_is_offset_by_episode_start(self):
        # An empty prefix charges every candidate step the same extra wait,
        # so the choice only shifts by the prefix length.
        base = fires(NonCausalPolicy(), [1, 1, 0, 1])[0]
        assert fires(NonCausalPolicy(), [0] * 11 + [1, 1, 0, 1])[0] == base + 11

    def test_each_episode_is_scored_on_its_own_clock(self):
        # Step 0 releases (waiting for the pair at step 3 costs more than the
        # benefit); the second episode starts at step 1 and waits for its pair.
        assert fires(NonCausalPolicy(), [1, 0, 0, 1, 1, 0], 0.2) == [0, 4]


def full_window_non_causal(arrivals, ratio):
    """Reference: each episode's argmax over every remaining step of the hour."""
    cumulative = np.cumsum(arrivals)
    steps = []
    start, released = 0, 0
    while True:
        first = int(np.searchsorted(cumulative, released + 1))
        if first == cumulative.size:
            return steps
        counts = cumulative[first:] - released
        waited = np.arange(first - start, cumulative.size - start)
        step = first + int(np.argmax(release_reward(counts, waited, ratio)))
        steps.append(step)
        start, released = step + 1, int(cumulative[step])


@pytest.mark.parametrize("step_cost", [0.0, 1e-15, 0.005, 0.05, 0.4, 3.0])
@pytest.mark.parametrize("benefit", [1.0, 250.0, 1e300])
def test_bounded_window_matches_full_window(step_cost, benefit):
    # Ratios of a cost and a benefit in any unit: from 0 and subnormal
    # through windows of 86 and 628 steps to ones shorter than an episode.
    ratio = step_cost / benefit
    rng = np.random.default_rng(11)
    for rate in (0.01, 1.0 / 6.0, 0.5, 2.0):
        for horizon in (1, 2, 5, 60, 720):
            arrivals = rng.poisson(rate, size=horizon)
            arrivals[0] = max(arrivals[0], int(rng.integers(0, 2)))
            assert fires(NonCausalPolicy(), arrivals, ratio) == full_window_non_causal(
                arrivals, ratio
            ), (rate, horizon)


def padded_non_causal_mask(cumulative, ratio):
    """Reference: ``NonCausalPolicy.fire_mask`` scoring a window -inf past its row.

    Windows read a copy of the flat matrix padded with its last total, and
    columns past the row's end can never win.  Also says whether any window
    crossed its row's end.
    """
    rows, horizon = cumulative.shape
    reach = horizon
    if ratio > 0 and 1.0 / ratio < reach:
        reach = min(int(1.0 / ratio) + 3, horizon)
    mask = np.zeros((rows, horizon), dtype=bool)
    flat_mask = mask.ravel()
    flat = np.concatenate((cumulative.ravel(), np.full(reach, cumulative[-1, -1])))
    end = np.arange(1, rows + 1) * horizon
    origin = end - horizon
    level = np.concatenate(([0], cumulative[:-1, -1]))
    crossed = False
    while True:
        first = np.searchsorted(flat, level + 1)
        live = first < end
        first, end, origin, level = first[live], end[live], origin[live], level[live]
        if not first.size:
            return mask, crossed
        steps = first[:, None] + np.arange(reach)
        reward = release_reward(flat[steps] - level[:, None], steps - origin[:, None], ratio)
        past = steps >= end[:, None]
        crossed = crossed or bool(past.any())
        reward[past] = -np.inf
        fire = first + np.argmax(reward, axis=1)
        flat_mask[fire] = True
        origin, level = fire + 1, flat[fire]


@pytest.mark.parametrize("ratio", [0.0, 0.005, 0.4])
def test_rows_match_the_padded_window_reference(ratio):
    rng = np.random.default_rng(5)
    crossings = 0
    for rate, horizon, rows in ((0.05, 30, 40), (0.5, 12, 25), (1.0 / 6.0, 300, 12),
                                (2.0, 720, 6)):
        arrivals = rng.poisson(rate, size=(rows, horizon))
        arrivals[::2, 0] += 1  # some rows open with a vehicle waiting, as simulated
        cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
        expected, crossed = padded_non_causal_mask(cumulative, ratio)
        crossings += crossed
        got = NonCausalPolicy().fire_mask(cumulative, ratio)
        assert np.array_equal(got, expected), (rate, horizon)
    assert crossings >= 2


def test_subnormal_ratio_keeps_the_full_window():
    # 1 / ratio overflows to inf; the window must not be cut.
    arrivals = np.array([1, 0, 0, 2, 0, 1], dtype=np.int64)
    assert fires(NonCausalPolicy(), arrivals, 5e-324) == full_window_non_causal(
        arrivals, 5e-324
    )


def test_policy_names_are_stable():
    assert POLICY_NAMES == ("threshold", "periodic", "spontaneous", "non_causal")
    assert make_policy("threshold", 6, 60) == ThresholdPolicy(6)
    assert make_policy("periodic", 6, 60) == PeriodicPolicy(60)
    assert make_policy("spontaneous", 6, 60) == PeriodicPolicy(1)
    assert make_policy("non_causal", 6, 60) == NonCausalPolicy()
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("optimal", 6, 60)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.integers(1, 4),
    st.floats(1e-4, 0.5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_clairvoyant_choice_dominates_every_single_release(arrivals, n0, ratio):
    """Whatever step any causal rule picks, the clairvoyant reward is >= its reward."""
    counts = list(itertools.accumulate([n0] + arrivals))
    best_step = fires(NonCausalPolicy(), [n0] + arrivals, ratio)[0]
    best = release_reward(counts[best_step], best_step, ratio)
    for step, count in enumerate(counts):
        assert best >= release_reward(count, step, ratio)
