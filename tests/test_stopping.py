"""Reward, release condition, threshold, and one-step lookahead."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hubrelease.stopping as stopping
from hubrelease.arrival import MAX_RATE, from_pmf, poisson_truncated
from hubrelease.stopping import (
    Threshold,
    _waiting_gain,
    compute_threshold,
    one_step_lookahead,
    release_condition,
    release_reward,
)

BERNOULLI = from_pmf([(0, 0.5), (1, 0.5)])
SINGLE = from_pmf([(1, 1.0)])
EMPTY_STEPS = from_pmf([(0, 1.0)])


class TestReleaseReward:
    def test_lone_vehicle_at_start_is_worthless(self):
        assert release_reward(1, 0, 0.005) == 0.0

    def test_six_vehicles_after_ten_steps(self):
        value = release_reward(6, 10, 0.005)
        assert value == pytest.approx(5.0 / 6.0 - 0.05, abs=1e-15)

    def test_empty_platoon_rejected(self):
        # Scalar counts of any integer type, numpy's too, which would
        # otherwise divide by zero.
        for n in (0, -2, np.int64(0), np.int32(0), np.uint8(0)):
            with pytest.raises(ValueError, match="empty"):
                release_reward(n, 3, 0.005)


class TestReleaseCondition:
    def test_bernoulli_holds_from_three(self):
        # Expected relative gain: 0.5/(n^2+n); 1/12 > 0.05 at n=2, 1/24 <= 0.05 at n=3.
        assert not release_condition(2, BERNOULLI, 0.05)
        assert release_condition(3, BERNOULLI, 0.05)

    def test_single_arrival_per_step_boundary(self):
        # Gain 1/(n^2+n): 1/182 > 0.005 at n=13, 1/210 <= 0.005 at n=14.
        assert not release_condition(13, SINGLE, 0.005)
        assert release_condition(14, SINGLE, 0.005)

    def test_exact_tie_releases(self):
        # Gain at n=2 is exactly 1/12 for the Bernoulli pmf.
        assert release_condition(2, BERNOULLI, 1.0 / 12.0)

    def test_no_arrivals_releases_immediately(self):
        assert release_condition(1, EMPTY_STEPS, 0.0)

    def test_occupancy_below_one_rejected(self):
        with pytest.raises(ValueError, match="occupancy"):
            release_condition(0, BERNOULLI, 0.05)

    def test_negative_ratio_rejected(self):
        for bad in (-0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="ratio"):
                release_condition(1, BERNOULLI, bad)


class TestComputeThreshold:
    def test_reference_operating_point(self):
        threshold = compute_threshold(poisson_truncated(1.0 / 6.0), 0.005)
        assert threshold.n_star == 6

    def test_bernoulli(self):
        assert compute_threshold(BERNOULLI, 0.05).n_star == 3

    def test_single_arrivals(self):
        assert compute_threshold(SINGLE, 0.005).n_star == 14

    def test_zero_rate_releases_at_once(self):
        assert compute_threshold(EMPTY_STEPS, 0.005).n_star == 1

    def test_zero_ratio_with_arrivals_never_releases(self):
        threshold = compute_threshold(BERNOULLI, 0.0)
        assert threshold.never_release
        assert threshold.n_star is None

    def test_zero_ratio_without_arrivals_releases_at_once(self):
        assert compute_threshold(EMPTY_STEPS, 0.0).n_star == 1

    def test_negative_ratio_rejected(self):
        # NaN compares false with everything, so the scan would never stop.
        for bad in (-0.005, math.nan, math.inf):
            with pytest.raises(ValueError, match="ratio"):
                compute_threshold(BERNOULLI, bad)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_star"):
            Threshold(0, 0.005, BERNOULLI)


def definition_gain(n, dist):
    """g(n) = sum_x x * P(x) / (n^2 + n*x), term by term from the largest x."""
    probs = dist.probabilities
    total = 0.0
    for x in range(dist.support_max, 0, -1):
        total += x * probs[x] / (n * n + n * x)
    return total


def linear_scan_threshold(dist, ratio):
    """Reference: the scan from n = 1 that the search replaces."""
    n = 1
    while ratio < definition_gain(n, dist):
        n += 1
    return n


_RANDOM = np.random.default_rng(7)
SCAN_RATES = [0.0, 1e-9, 1.0 / 6.0, 0.5, 2.0, 10.0, 100.0, 1000.0] + [
    float(r) for r in 10.0 ** _RANDOM.uniform(-6.0, 3.0, size=6)
]
SCAN_RATIOS = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 0.1, 0.5, 1.0]
# Keeps each reference scan (about n_star * support float terms) short.
SCAN_BUDGET = 3e5


class TestThresholdAgainstLinearScan:
    @pytest.mark.parametrize("lam", SCAN_RATES)
    def test_bisection_stops_where_the_scan_stops(self, lam):
        dist = poisson_truncated(lam)
        for ratio in SCAN_RATIOS:
            n_star = compute_threshold(dist, ratio).n_star
            if math.sqrt(dist.mean / ratio) * (dist.support_max + 1) <= SCAN_BUDGET:
                assert n_star == linear_scan_threshold(dist, ratio), ratio
            # Past the budget, the scan's stopping rule is checked locally.
            assert release_condition(n_star, dist, ratio)
            assert n_star == 1 or not release_condition(n_star - 1, dist, ratio)

    @pytest.mark.parametrize("dist", [poisson_truncated(1.0 / 6.0), poisson_truncated(30.0),
                                      BERNOULLI, SINGLE, from_pmf([(0, 0.9), (7, 0.1)])])
    def test_exact_tie_releases_at_that_occupancy(self, dist):
        for n in (*range(1, 41), 97, 1000, 123457):
            assert compute_threshold(dist, _waiting_gain(n, dist)).n_star == n

    def test_tiny_ratio_at_the_reference_rate(self):
        # The scan takes about a second to get here; the bisection, microseconds.
        dist = poisson_truncated(1.0 / 6.0)
        n_star = compute_threshold(dist, 1e-12).n_star
        assert n_star == 408248
        assert release_condition(n_star, dist, 1e-12)
        assert not release_condition(n_star - 1, dist, 1e-12)

    @pytest.mark.parametrize("ratio", [5e-324, 1e-310, 1e-301])
    def test_ratio_past_float_range_rejected(self, ratio):
        with pytest.raises(ValueError, match="too small"):
            compute_threshold(poisson_truncated(1.0), ratio)

    def test_tiny_ratio_without_arrivals_releases_at_once(self):
        assert compute_threshold(EMPTY_STEPS, 5e-324).n_star == 1

    def test_smallest_accepted_ratio_terminates(self):
        dist = poisson_truncated(1.0)
        ratio = dist.mean / 1e300
        n_star = compute_threshold(dist, ratio).n_star
        assert release_condition(n_star, dist, ratio)
        assert not release_condition(n_star - 1, dist, ratio)


@pytest.fixture
def gain_calls(monkeypatch):
    """The occupancies at which compute_threshold evaluates g, in order."""
    calls = []

    def counting(n, dist):
        calls.append(n)
        return _waiting_gain(n, dist)

    monkeypatch.setattr(stopping, "_waiting_gain", counting)
    return calls


_SEARCH = np.random.default_rng(20261018)
SEARCH_RATES = [1e-3, 0.01, 1.0 / 6.0, 2.0, 1000.0, MAX_RATE] + [
    float(r) for r in 10.0 ** _SEARCH.uniform(-3.0, math.log10(MAX_RATE), size=10)
]
# Per rate, 12 log-uniform n_star targets from 1 to 1e4, each with a
# jitter of up to a factor 2 on the ratio that aims at it.
SEARCH_TARGETS = 10.0 ** _SEARCH.uniform(0.0, 4.0, size=(len(SEARCH_RATES), 12))
SEARCH_JITTER = 2.0 ** _SEARCH.uniform(-1.0, 1.0, size=(len(SEARCH_RATES), 12))
# Scan only where n_star * (support_max + 1) float terms stay this few.
SEARCH_SCAN_BUDGET = 3e5


def gallop_bound(guess):
    """Evaluations of g the search from a huge guess may take.

    The float root is good to a few units in its last place, so n_star lies
    within 7 first steps s = guess >> 50 of the guess: one evaluation at
    the guess, at most 3 in the gallop (s, 3s and 7s from the guess) and a
    bisection of its last gap, at most 4s wide, bit_length(s) + 2 more.
    """
    return (guess >> 50).bit_length() + 6


class TestJensenStartedSearch:
    """The search from the Jensen lower bound stops where the scan from 1 stops.

    Evaluations: one at the guess; then, when the condition fails there,
    the gallop upward from step 1 and the bisection of its last gap take
    2 * bit_length(n_star - guess) - 1 more.  For a Poisson pmf the weights
    x * P(x) / mean make the count 1 + Poisson(lam), with variance lam, so
    g(n) <= mean / (n (n + c)) * (1 + lam / ((n + 1) (n + c))), and that is
    below the ratio one past the root: n_star is at most 2 above the guess
    (3 if rounding moves the guess down one), so at most 4 evaluations.
    When the condition holds at the guess (rounding put it at or past
    n_star), the search gallops downward from the guess with the same
    first step and bisects the last gap instead.
    """

    @pytest.mark.parametrize("index", range(len(SEARCH_RATES)))
    def test_poisson_grid_matches_the_scan_in_four_evaluations(self, index, gain_calls):
        dist = poisson_truncated(SEARCH_RATES[index])
        c = dist.second_moment / dist.mean
        for m, jitter in zip(SEARCH_TARGETS[index], SEARCH_JITTER[index]):
            ratio = float(dist.mean / (m * (m + c)) * jitter)
            gain_calls.clear()
            n_star = compute_threshold(dist, ratio).n_star
            assert len(gain_calls) <= 4, (ratio, n_star, gain_calls)
            if n_star * (dist.support_max + 1) <= SEARCH_SCAN_BUDGET:
                assert n_star == linear_scan_threshold(dist, ratio), ratio
            assert ratio >= definition_gain(n_star, dist)
            assert n_star == 1 or ratio < definition_gain(n_star - 1, dist)

    def test_the_grid_reaches_large_thresholds(self):
        dist = poisson_truncated(0.01)
        n_star = compute_threshold(dist, 1e-10).n_star
        assert n_star > 9000
        assert n_star == linear_scan_threshold(dist, 1e-10)

    def test_exact_tie_at_the_jensen_root(self, gain_calls):
        # One positive count makes the Jensen bound exact: g(3) = 0.5 / 12
        # is the ratio itself, and ties release.
        assert _waiting_gain(3, BERNOULLI) == 1.0 / 24.0
        assert compute_threshold(BERNOULLI, 1.0 / 24.0).n_star == 3
        assert len(gain_calls) <= 4

    def test_ties_at_or_past_the_guess_take_two_evaluations(self, gain_calls):
        # At ratio g(n) the float root lands within rounding of n, so the
        # guess is n - 1, where the condition fails, or n itself, where it
        # holds; the gallop's first step, up or down, then closes the gap.
        for n in range(1, 3000):
            ratio = _waiting_gain(n, BERNOULLI)
            gain_calls.clear()
            assert compute_threshold(BERNOULLI, ratio).n_star == n
            assert len(gain_calls) <= 2, (n, gain_calls)
        # At n = 22 the float root lands just past 22: the guess is n_star.
        gain_calls.clear()
        compute_threshold(BERNOULLI, _waiting_gain(22, BERNOULLI))
        assert gain_calls == [22, 21]
        assert linear_scan_threshold(BERNOULLI, _waiting_gain(22, BERNOULLI)) == 22

    def test_zero_mean_and_zero_ratio(self, gain_calls):
        assert compute_threshold(EMPTY_STEPS, 0.005).n_star == 1
        assert gain_calls == [1]
        gain_calls.clear()
        assert compute_threshold(EMPTY_STEPS, 0.0).n_star == 1
        assert compute_threshold(BERNOULLI, 0.0).never_release
        assert gain_calls == []

    def test_huge_threshold_costs_no_more_than_the_bisection(self, gain_calls):
        # The float guess is good to about 53 bits of a 147-digit n_star, so
        # the gallop's first step is scaled to that precision.  Here the guess
        # lands past n_star, so the search gallops down from it.
        dist = poisson_truncated(MAX_RATE)
        n_star = compute_threshold(dist, 1e-290).n_star
        assert n_star == int(
            "14142135623730636589642560066285071893370137880073000421399308184386"
            "69102036048901259444917659081421140743322645263656242690043569985456"
            "908535933056"
        )
        assert gain_calls[0] > n_star
        assert len(gain_calls) <= gallop_bound(gain_calls[0])
        assert 1e-290 >= definition_gain(n_star, dist)
        assert 1e-290 < definition_gain(n_star - 1, dist)

    def test_huge_threshold_above_the_guess_gallops_from_a_scaled_step(self, gain_calls):
        # Here the float guess falls short of n_star by about n_star * 2^-53;
        # a gallop from step 1 would take about 2 * 431 evaluations.
        dist = poisson_truncated(2.0)
        n_star = compute_threshold(dist, 1e-290).n_star
        assert gain_calls[0] < n_star
        assert len(gain_calls) <= gallop_bound(gain_calls[0])
        assert 1e-290 >= definition_gain(n_star, dist)
        assert 1e-290 < definition_gain(n_star - 1, dist)

    @pytest.mark.parametrize("dist", [poisson_truncated(1.0 / 6.0), poisson_truncated(MAX_RATE),
                                      BERNOULLI, from_pmf([(0, 0.9), (7, 0.1)])])
    def test_waiting_gain_is_the_definition_bit_for_bit(self, dist):
        for n in (1, 2, 3, 17, 408248, 10**12, 10**147):
            assert _waiting_gain(n, dist) == definition_gain(n, dist)


class TestOneStepLookahead:
    RATIO = 0.005

    def test_agrees_with_release_condition_exhaustively(self):
        dist = poisson_truncated(1.0 / 6.0)
        for n in range(1, 101):
            expected = release_condition(n, dist, self.RATIO)
            for k in (0, 7, 500):
                assert one_step_lookahead(n, k, dist, self.RATIO) is expected

    def test_flip_happens_at_the_threshold(self):
        dist = poisson_truncated(1.0 / 6.0)
        assert not one_step_lookahead(5, 0, dist, self.RATIO)
        assert one_step_lookahead(6, 0, dist, self.RATIO)

    @pytest.mark.parametrize("ratio", [math.nan, -0.1])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            one_step_lookahead(3, 0, poisson_truncated(0.1), ratio)


@st.composite
def pmf_and_ratio(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    counts = draw(
        st.lists(st.integers(0, 20), min_size=size, max_size=size, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
    total = sum(weights)
    dist = from_pmf([(c, w / total) for c, w in zip(counts, weights)])
    ratio = draw(
        st.floats(min_value=1e-5, max_value=0.5, allow_nan=False, allow_infinity=False)
    )
    return dist, ratio


@given(pmf_and_ratio())
@settings(max_examples=150, deadline=None)
def test_release_condition_monotone_in_occupancy(case):
    dist, ratio = case
    held = False
    for n in range(1, 201):
        now = release_condition(n, dist, ratio)
        assert now or not held, f"condition flipped back off at n={n}"
        held = held or now


@given(pmf_and_ratio())
@example((from_pmf([(1, 1.0)]), 0.49999999999999994))
@settings(max_examples=100, deadline=None)
def test_lookahead_is_step_invariant(case):
    dist, ratio = case
    for n in (1, 2, 3, 5, 9, 17, 33, 80):
        base = one_step_lookahead(n, 0, dist, ratio)
        assert one_step_lookahead(n, 7, dist, ratio) is base
        assert one_step_lookahead(n, 500, dist, ratio) is base


@given(pmf_and_ratio())
@settings(max_examples=150, deadline=None)
def test_threshold_minimal_and_consistent_with_lookahead(case):
    dist, ratio = case
    threshold = compute_threshold(dist, ratio)
    n_star = threshold.n_star
    assert n_star is not None  # ratio > 0 always terminates
    assert release_condition(n_star, dist, ratio)
    if n_star > 1:
        assert not release_condition(n_star - 1, dist, ratio)
    assert one_step_lookahead(n_star, 11, dist, ratio)
    if n_star > 1:
        assert not one_step_lookahead(n_star - 1, 11, dist, ratio)


@given(pmf_and_ratio(), st.floats(min_value=1.1, max_value=50.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_threshold_never_increases_with_ratio(case, factor):
    dist, ratio = case
    low = compute_threshold(dist, ratio).n_star
    high = compute_threshold(dist, min(ratio * factor, 1.0)).n_star
    assert high <= low


def test_threshold_never_decreases_with_poisson_rate():
    ratio = 0.005
    last = 0
    for lam in np.linspace(0.0, 1.0 / 6.0, 30):
        n_star = compute_threshold(poisson_truncated(float(lam)), ratio).n_star
        assert n_star >= last
        last = n_star
