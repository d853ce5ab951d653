"""Distribution construction, truncation, and sampling."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

from hubrelease.arrival import (
    _LOG_FACTORIAL,
    MAX_COUNT,
    MAX_RATE,
    PMF_SUM_TOL,
    TAIL_MASS,
    ArrivalDistribution,
    InitialCountDistribution,
    _poisson_head,
    from_pmf,
    poisson_truncated,
    substream,
    zero_truncated_poisson,
)

LAM = 1.0 / 6.0


@pytest.fixture
def rng():
    return np.random.default_rng(seed=42)


class TestPoissonTruncated:
    def test_zero_count_probability_matches_closed_form(self):
        dist = poisson_truncated(LAM)
        # Renormalization shifts mass by less than the 1e-12 tail.
        assert dist.probabilities[0] == pytest.approx(math.exp(-LAM), abs=1e-11)

    def test_mean_close_to_rate(self):
        for lam in (0.0, 1e-4, 0.01, LAM, 0.5, 1.0):
            assert poisson_truncated(lam).mean == pytest.approx(lam, abs=1e-9)

    def test_zero_rate_is_point_mass_at_zero(self):
        dist = poisson_truncated(0.0)
        assert dist.probabilities == (1.0,)
        assert dist.support_max == 0

    def test_support_covers_requested_tail(self):
        dist = poisson_truncated(LAM)
        assert pdtrc(dist.support_max, LAM) < TAIL_MASS
        assert pdtrc(dist.support_max - 1, LAM) >= TAIL_MASS

    @pytest.mark.parametrize("bad", [-0.1, -5.0, math.nan, math.inf])
    def test_negative_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_truncated(bad)


class TestZeroTruncatedPoisson:
    def test_single_vehicle_probability_matches_closed_form(self):
        dist = zero_truncated_poisson(LAM)
        expected = LAM / (math.exp(LAM) - 1.0)
        assert dist.probabilities[1] == pytest.approx(expected, abs=1e-9)

    def test_no_mass_at_zero(self):
        assert zero_truncated_poisson(LAM).probabilities[0] == 0.0

    def test_mean_matches_closed_form(self):
        for lam in (0.05, LAM, 0.8):
            expected = lam / -math.expm1(-lam)
            assert zero_truncated_poisson(lam).mean == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("bad", [-0.2, math.nan, math.inf])
    def test_negative_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="nonnegative"):
            zero_truncated_poisson(bad)

    def test_zero_rate_is_single_vehicle(self):
        # The lam -> 0 limit, as poisson_truncated(0) is the point mass at 0.
        dist = zero_truncated_poisson(0.0)
        assert isinstance(dist, InitialCountDistribution)
        assert dist.probabilities == (0.0, 1.0)
        assert dist.mean == 1.0

    def test_initial_distribution_rejects_mass_at_zero(self):
        with pytest.raises(ValueError, match="zero mass at 0"):
            InitialCountDistribution((0.5, 0.5))


def poisson_tail(k, lam):
    """Reference: P(X > k) for X ~ Poisson(lam), scipy's regularized incomplete gamma."""
    return np.clip(pdtrc(k, lam), 0.0, 1.0)


def scalar_truncation(lam, start, scale):
    """Reference: the count-by-count scan with one scalar tail per count."""
    x = start
    while poisson_tail(x, lam) / scale >= TAIL_MASS:
        x += 1
    return x


def scalar_pmf(lam, x_max):
    """Reference: exp(k log(lam) - log k! - lam), one count at a time."""
    return np.exp([k * math.log(lam) - math.lgamma(k + 1) - lam for k in range(x_max + 1)])


def scalar_poisson_truncated(lam):
    if lam == 0:
        return (1.0,)
    probs = scalar_pmf(lam, scalar_truncation(lam, 0, 1.0))
    return tuple(probs / probs.sum())


def scalar_zero_truncated_poisson(lam):
    probs = scalar_pmf(lam, scalar_truncation(lam, 1, -math.expm1(-lam)))
    probs[0] = 0.0
    return tuple(probs / probs.sum())


_RANDOM = np.random.default_rng(20240611)
# Landmarks (subnormal and tiny rates divide the zero-truncated tail by a
# tiny P(X >= 1)), then seeded log-uniform rates.
REFERENCE_RATES = [0.0, 5e-324, 1e-300, 1e-9, 1.0 / 6.0, 0.5, 2.0, 10.0, 100.0, 1000.0,
                   2000.0] + [
    float(r) for r in 10.0 ** _RANDOM.uniform(-6.0, 3.0, size=44)
]


class TestTruncationAgainstScalarLoop:
    """The bracketed array search stops where the scalar scan stops, and the
    array pmf has the bits of the same expression taken count by count."""

    @pytest.mark.parametrize("lam", REFERENCE_RATES)
    def test_poisson_pmf_is_bit_identical(self, lam):
        assert poisson_truncated(lam).probabilities == scalar_poisson_truncated(lam)

    @pytest.mark.parametrize("lam", [r for r in REFERENCE_RATES if r > 0])
    def test_zero_truncated_pmf_is_bit_identical(self, lam):
        got = zero_truncated_poisson(lam).probabilities
        assert got == scalar_zero_truncated_poisson(lam)

    def test_the_one_bracket_holds_both_truncation_points(self):
        # The bracket ends at lam + 10 sqrt(lam) + 40; its last count must
        # already have a tail below TAIL_MASS, plain and zero-truncated, at
        # every rate up to MAX_RATE.
        lam = np.linspace(0.0, MAX_RATE, 200_001)
        stop = (lam + 10.0 * np.sqrt(lam)).astype(np.int64) + 40
        tail = poisson_tail(stop, lam)
        assert np.all(tail < TAIL_MASS)
        positive = lam > 0
        assert np.all(tail[positive] / -np.expm1(-lam[positive]) < TAIL_MASS)
        for rate in (MAX_RATE, float(lam[1]), 5e-324):
            poisson_truncated(rate)
            zero_truncated_poisson(rate)


def truncation_point(lam, start, scale):
    return _poisson_head(lam, start, scale).size - 1


def full_bracket(lam, start, scale):
    """Reference: the first hit over the whole bracket from start, tails from pdtrc."""
    stop = int(lam + 10.0 * math.sqrt(lam)) + 40
    below = np.flatnonzero(poisson_tail(np.arange(start, stop + 1), lam) / scale < TAIL_MASS)
    return start + int(below[0])


# Landmarks, integers and their neighbours (where int(lam) - 1 moves), then a
# log grid up to the largest rate.
BRACKET_RATES = [5e-324, 1e-300, 0.5, 1.0, 1.0 - 1e-16, 2.0, 2.0 + 4e-16, 3.0, 1000.0,
                 MAX_RATE] + [float(r) for r in np.geomspace(1e-6, MAX_RATE, 400)]


def test_median_started_bracket_finds_the_full_brackets_hit():
    for lam in BRACKET_RATES:
        x_max = truncation_point(lam, 0, 1.0)
        assert x_max == full_bracket(lam, 0, 1.0), lam
        assert poisson_truncated(lam).support_max == x_max, lam
        # The skipped counts have tails above 1/2, as the median bound says.
        skipped = int(lam) - 2
        if skipped >= 0:
            assert poisson_tail(skipped, lam) > 0.5, lam
        scale = -math.expm1(-lam)
        n_max = truncation_point(lam, 1, scale)
        assert n_max == full_bracket(lam, 1, scale), lam
        assert zero_truncated_poisson(lam).support_max == n_max, lam


def median_started_bracket(lam, start, scale):
    """Reference: the first hit from max(start, int(lam) - 1), tails from pdtrc."""
    return full_bracket(lam, max(start, int(lam) - 1), scale)


# A log grid and seeded log-uniform rates over the whole accepted range.
TRUNCATION_RATES = [float(r) for r in np.geomspace(1e-6, MAX_RATE, 4000)] + [
    float(r) for r in 10.0 ** np.random.default_rng(20261019).uniform(
        -6.0, math.log10(MAX_RATE), size=4000)
]


def test_truncation_points_match_the_incomplete_gamma_tails_on_a_grid():
    # The tails summed from the pmf stop where pdtrc's tails stop, plain and
    # zero-truncated.  The helper is called directly: building both
    # distributions at 8000 rates would take seconds.
    for lam in TRUNCATION_RATES:
        for start, scale in ((0, 1.0), (1, -math.expm1(-lam))):
            assert truncation_point(lam, start, scale) == median_started_bracket(
                lam, start, scale), (lam, start)


def decimal_poisson_pmf(lam, size):
    """Reference: P(X = k) for k < size at 50 digits, by the recurrence
    P(k) = P(k - 1) * lam / k from P(0) = exp(-lam); no logarithm involved."""
    with localcontext() as ctx:
        ctx.prec = 50
        rate = Decimal(lam)
        probs = [(-rate).exp()]
        for k in range(1, size):
            probs.append(probs[-1] * rate / k)
        return probs


U = 2.0**-53
SMALLEST_SUBNORMAL = 2.0**-1074


def pmf_error_bound(lam, k):
    """Relative error bound of exp(k * log(lam) - log k! - lam) in floats.

    With a = k |ln lam| and b = ln k!, the exponent y picks up at most:
    - 2u a from log(lam), within 1 ulp (<= 2u |ln lam|), times k;
    - u a from rounding the product k * log(lam);
    - 5 ulp(b) + 1e-15 <= 10u b + 1e-15 from math.lgamma, the accuracy
      CPython's own tests require of it;
    - u (a + b) and u (a + b + lam) from rounding the two subtractions.
    That is |dy| <= u (5a + 12b + lam) + 1e-15; each term bounds its
    quantity from above, which covers the second-order terms in u.  numpy's
    exp is within 1 ulp (<= 2u relative), as its own accuracy tests
    require, so the result is exp(y + dy) (1 + e) with |e| <= 2u, off from
    exp(y) by at most expm1(|dy|) + 2u exp(|dy|) relative.  A subnormal
    result adds one subnormal ulp of absolute error, which
    assert_pmf_within_bound allows separately.
    """
    dy = U * (5.0 * k * abs(math.log(lam)) + 12.0 * math.lgamma(k + 1.0) + lam) + 1e-15
    return math.expm1(dy) + 2.0 * U * math.exp(dy)


def assert_pmf_within_bound(lam):
    head = _poisson_head(lam, 0, 1.0)
    reference = decimal_poisson_pmf(lam, head.size)
    for k, (got, ref) in enumerate(zip(head.tolist(), reference)):
        error = float(abs(Decimal(got) - ref))
        assert error <= pmf_error_bound(lam, k) * float(ref) + SMALLEST_SUBNORMAL, (lam, k)


@pytest.mark.parametrize(
    "lam", [5e-324, 1e-300, 1e-9, 1.0 / 6.0, 0.5, 2.0, 10.0, 100.0, 1000.0, MAX_RATE]
)
def test_pmf_within_the_derived_bound_at_landmark_rates(lam):
    assert_pmf_within_bound(lam)


def test_pmf_within_the_derived_bound_at_log_uniform_rates():
    for lam in 10.0 ** np.random.default_rng(410).uniform(-12.0, math.log10(MAX_RATE), size=40):
        assert_pmf_within_bound(float(lam))


def poisson_pair(lam):
    """The Poisson pmf at lam and, for lam > 0, its zero-truncated one."""
    return [poisson_truncated(lam)] + ([zero_truncated_poisson(lam)] if lam > 0 else [])


def mass_check_accepts(probs):
    """Reference: the tolerance test on math.fsum in arrival order."""
    return abs(math.fsum(probs) - 1.0) <= PMF_SUM_TOL


def test_mass_check_decides_as_fsum_in_arrival_order():
    rng = np.random.default_rng(1018)
    decided = {True: 0, False: 0}
    for case in range(3000):
        size = int(rng.integers(1, 60))
        # Masses that span many binades, like a wide Poisson pmf's.
        probs = 10.0 ** rng.uniform(-300.0, 0.0, size=size) * rng.random(size)
        probs = (probs / math.fsum(probs)).tolist()
        # Move the exact total to just inside or outside 1 +- PMF_SUM_TOL.
        target = 1.0 + rng.choice([-1.0, 1.0]) * PMF_SUM_TOL * (1.0 + rng.uniform(-1e-3, 1e-3))
        big = int(np.argmax(probs))
        probs[big] += target - math.fsum(probs)
        if not 0.0 <= probs[big] <= 1.0:
            continue
        expected = mass_check_accepts(probs)
        decided[expected] += 1
        try:
            ArrivalDistribution(tuple(probs))
        except ValueError as exc:
            assert not expected and "sums to" in str(exc), probs
        else:
            assert expected, probs
    assert min(decided.values()) > 500


@pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-9, LAM, 2.0, 1000.0, MAX_RATE])
def test_poisson_constructors_pass_the_mass_check(lam):
    for dist in poisson_pair(lam):
        assert mass_check_accepts(dist.probabilities)
        assert all(type(p) is float for p in dist.probabilities)


@pytest.mark.parametrize("bad", [MAX_RATE * (1 + 1e-12), 1e6, 1e300])
def test_rate_above_limit_rejected_before_any_array(bad):
    with pytest.raises(ValueError, match="at most"):
        poisson_truncated(bad)
    with pytest.raises(ValueError, match="at most"):
        zero_truncated_poisson(bad)


def test_rate_at_limit_accepted():
    assert poisson_truncated(MAX_RATE).mean == pytest.approx(MAX_RATE, rel=1e-9)


class TestFromPmf:
    def test_dense_layout_and_trimming(self):
        dist = from_pmf([(3, 0.25), (0, 0.75)])
        assert dist.probabilities == (0.75, 0.0, 0.0, 0.25)
        assert dist.support_max == 3

    def test_small_deviation_is_rescaled(self):
        dist = from_pmf([(0, 0.5 + 1e-10), (1, 0.5)])
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            from_pmf([(0, 0.5), (1, 0.6)])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            from_pmf([(-1, 1.0)])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            from_pmf([(0, 1.2), (1, -0.2)])

    def test_nan_probability_rejected_at_its_own_count(self):
        # nan passes a "< 0" test; taken into the total it would make every
        # entry nan, and count 0 would be blamed.
        with pytest.raises(ValueError, match="^probability of count 3 is nan$"):
            from_pmf([(0, 0.5), (3, float("nan"))])
        with pytest.raises(ValueError, match="^probability of count 0 is nan$"):
            from_pmf([(0, float("nan")), (3, 0.5)])

    def test_duplicate_count_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            from_pmf([(2, 0.5), (2, 0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            from_pmf([])

    def test_count_past_the_limit_rejected(self):
        # Refused before the dense pmf of 10**12 + 1 entries is allocated.
        with pytest.raises(ValueError, match=r"^count 1000000000000 is more than MAX_COUNT"):
            from_pmf([(10**12, 1.0)])

    def test_largest_count_is_the_end_of_the_bracket_at_the_top_rate(self):
        # Every Poisson pmf fits: its truncation ends inside the bracket.
        assert len(poisson_truncated(MAX_RATE).probabilities) <= MAX_COUNT + 1
        assert _LOG_FACTORIAL.size == MAX_COUNT + 1
        assert from_pmf([(MAX_COUNT, 1.0)]).support_max == MAX_COUNT
        with pytest.raises(ValueError, match=f"MAX_COUNT = {MAX_COUNT}"):
            from_pmf([(0, 0.5), (MAX_COUNT + 1, 0.5)])


class TestValidation:
    def test_empty_pmf_rejected(self):
        with pytest.raises(ValueError, match="^pmf must have at least one entry$"):
            ArrivalDistribution(())

    def test_sum_tolerance_is_tight(self):
        with pytest.raises(ValueError, match="sums to"):
            ArrivalDistribution((0.5, 0.5 + 1e-9))

    def test_probability_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ArrivalDistribution((1.5, -0.5))

    def test_trailing_zeros_trimmed(self):
        dist = ArrivalDistribution((0.5, 0.5, 0.0, 0.0))
        assert dist.support_max == 1


class TestSampling:
    def test_bitwise_reproducible_under_fixed_seed(self):
        dist = poisson_truncated(LAM)
        a = dist.counts_at(substream(7, 3, 1).random(500))
        b = dist.counts_at(substream(7, 3, 1).random(500))
        assert np.array_equal(a, b)

    def test_streams_differ_across_sample_index(self):
        dist = poisson_truncated(0.5)
        a = dist.counts_at(substream(7, 3, 1).random(500))
        b = dist.counts_at(substream(7, 3, 2).random(500))
        assert not np.array_equal(a, b)

    def test_fair_coin_mean(self, rng):
        dist = from_pmf([(0, 0.5), (1, 0.5)])
        draws = dist.counts_at(rng.random(1_000_000))
        assert draws.mean() == pytest.approx(0.5, abs=2e-3)

    def test_draws_stay_on_support(self, rng):
        dist = from_pmf([(1, 0.3), (4, 0.7)])
        draws = dist.counts_at(rng.random(10_000))
        assert set(np.unique(draws)) <= {1, 4}

    def test_point_mass_always_draws_it(self, rng):
        dist = from_pmf([(2, 1.0)])
        assert np.all(dist.counts_at(rng.random(1000)) == 2)

    def test_negative_seed_path_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            substream(3, -1)


@st.composite
def weighted_pmfs(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    counts = draw(
        st.lists(st.integers(0, 24), min_size=size, max_size=size, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
    total = sum(weights)
    return [(c, w / total) for c, w in zip(counts, weights)]


@given(weighted_pmfs())
@settings(max_examples=200)
def test_from_pmf_always_yields_valid_distribution(pairs):
    dist = from_pmf(pairs)
    assert abs(math.fsum(dist.probabilities) - 1.0) <= 1e-12
    assert all(0.0 <= p <= 1.0 for p in dist.probabilities)
    assert dist.probabilities[dist.support_max] > 0.0
    expected_mean = sum(c * p for c, p in pairs)
    assert dist.mean == pytest.approx(expected_mean, rel=1e-9, abs=1e-12)


def descending_mean(probs):
    """Reference: the mean's loop from the largest count down."""
    total = 0.0
    for x in range(len(probs) - 1, 0, -1):
        total += x * probs[x]
    return total


@given(weighted_pmfs())
@settings(max_examples=200)
def test_mean_is_the_descending_loop_bit_for_bit(pairs):
    dist = from_pmf(pairs)
    probs = dist.probabilities
    assert dist.mean == descending_mean(probs)
    assert dist.weighted_counts == tuple(x * probs[x] for x in range(dist.support_max, 0, -1))
    expected_second = math.fsum(x * x * p for x, p in enumerate(probs))
    assert dist.second_moment == pytest.approx(expected_second, rel=1e-13)


@pytest.mark.parametrize("lam", [0.0, 1e-300, LAM, 2.0, 1000.0, MAX_RATE])
def test_poisson_mean_is_the_descending_loop_bit_for_bit(lam):
    for dist in poisson_pair(lam):
        assert dist.mean == descending_mean(dist.probabilities)
