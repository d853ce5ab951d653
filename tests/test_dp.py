"""Backward-induction solver against brute force, invariants, and the threshold rule."""
import hashlib
import itertools
import math

import numpy as np
import pytest

import hubrelease.dp as dp
from hubrelease.arrival import from_pmf, poisson_truncated
from hubrelease.dp import (
    CAP_TOLERANCE,
    DpConfig,
    cap_violation_probability,
    compare_with_threshold,
    solve,
    suggest_max_count,
    write_action_table,
)
from hubrelease.stopping import Threshold, compute_threshold, release_reward

BERNOULLI = from_pmf([(0, 0.5), (1, 0.5)])


def brute_force_value(dist, horizon, ratio, n0):
    """Max expected reward over every stop-or-wait assignment to reachable states.

    Exhaustive: enumerates all 2^(number of pre-deadline reachable states)
    policies and, for each, the full tree of arrival realizations.  Only
    viable at toy sizes; exists to check the solver from a second route.
    """
    support = [(x, p) for x, p in enumerate(dist.probabilities) if p > 0]
    reachable = [{n0}]
    for _ in range(horizon):
        reachable.append({n + x for n in reachable[-1] for x, _ in support})
    free_states = [(k, n) for k in range(horizon) for n in sorted(reachable[k])]

    def value(policy, k, n):
        if k == horizon or policy[(k, n)]:
            return release_reward(n, k, ratio)
        return sum(p * value(policy, k + 1, n + x) for x, p in support)

    best = -np.inf
    best_release_at_start = None
    for bits in itertools.product((False, True), repeat=len(free_states)):
        policy = dict(zip(free_states, bits))
        v = value(policy, 0, n0)
        if v > best:
            best = v
            best_release_at_start = policy[(0, n0)]
    return best, best_release_at_start


class TestSolveAgainstBruteForce:
    RATIO = 0.2

    def test_matches_exhaustive_policy_enumeration(self):
        config = DpConfig(3, 12, BERNOULLI, self.RATIO)
        solution = solve(config)
        best, release_at_start = brute_force_value(BERNOULLI, 3, self.RATIO, 1)
        assert solution.values[0, 1] == pytest.approx(best, abs=1e-12)
        assert bool(solution.actions[0, 1]) == release_at_start

    def test_frozen_value_at_the_start_state(self):
        # Hand-computed backward induction for Bernoulli(1/2), R=1, c=0.2,
        # three steps, one vehicle present: the start value is 7/80.
        solution = solve(DpConfig(3, 12, BERNOULLI, self.RATIO))
        assert solution.values[0, 1] == pytest.approx(7.0 / 80.0, abs=1e-12)
        assert not solution.actions[0, 1]

    def test_brute_force_agrees_on_asymmetric_pmf(self):
        dist = from_pmf([(0, 0.3), (2, 0.7)])
        config = DpConfig(3, 12, dist, 0.09)
        solution = solve(config)
        for n0 in (1, 2, 3):
            best, release = brute_force_value(dist, 3, 0.09, n0)
            assert solution.values[0, n0] == pytest.approx(best, abs=1e-12)
            assert bool(solution.actions[0, n0]) == release


class TestSolutionInvariants:
    def _solution(self, lam=1.0 / 6.0, ratio=0.005, horizon=80):
        dist = poisson_truncated(lam)
        cap = suggest_max_count(dist, horizon)
        return solve(DpConfig(horizon, cap, dist, ratio))

    def test_terminal_values_equal_forced_release_reward(self):
        solution = self._solution()
        horizon = solution.config.horizon
        n = np.arange(1, solution.config.max_count + 1)
        expected = (n - 1) / n - 0.005 * horizon
        assert np.array_equal(solution.values[horizon, 1:], expected)
        assert solution.actions[horizon, 1:].all()

    def test_value_dominates_immediate_release(self):
        solution = self._solution()
        n = np.arange(1, solution.config.max_count + 1)
        for k in range(solution.config.horizon + 1):
            release_value = (n - 1) / n - 0.005 * k
            assert (solution.values[k, 1:] >= release_value).all()

    def test_waiting_one_step_costs_at_most_the_step_cost(self):
        solution = self._solution()
        values = solution.values[:, 1:]
        assert (values[:-1] >= values[1:] - 0.005 - 1e-12).all()

    def test_release_regions_are_upward_closed(self):
        solution = self._solution()
        actions = solution.actions[:, 1:]
        # Once release is optimal at n it stays optimal at n+1.
        assert (actions[:, 1:] >= actions[:, :-1]).all()

    def test_actions_stationary_before_deadline(self):
        solution = self._solution()
        actions = solution.actions[:-1, 1:]
        assert (actions == actions[0]).all()


class TestThresholdComparison:
    def test_matches_threshold_rule(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 120)
        solution = solve(DpConfig(120, cap, dist, 0.005))
        threshold = compute_threshold(dist, 0.005)
        assert threshold.n_star == 6
        assert compare_with_threshold(solution, threshold) == []

    def test_corrupted_threshold_reports_mismatches(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 60)
        solution = solve(DpConfig(60, cap, dist, 0.005))
        corrupted = Threshold(7, 0.005, dist)
        mismatches = compare_with_threshold(solution, corrupted)
        assert mismatches
        # The disagreement is exactly the column the corruption moved.
        assert {n for _, n in mismatches} == {6}
        assert {k for k, _ in mismatches} == set(range(60))

    def test_distribution_mismatch_rejected(self):
        dist = poisson_truncated(1.0 / 6.0)
        solution = solve(DpConfig(30, 60, dist, 0.005))
        other = compute_threshold(poisson_truncated(0.1), 0.005)
        with pytest.raises(ValueError, match="distribution"):
            compare_with_threshold(solution, other)

    def test_ratio_mismatch_rejected(self):
        dist = poisson_truncated(1.0 / 6.0)
        solution = solve(DpConfig(30, 60, dist, 0.005))
        threshold = compute_threshold(dist, 0.01)
        with pytest.raises(ValueError, match="ratio"):
            compare_with_threshold(solution, threshold)


class TestOccupancyCap:
    def test_violation_probability_for_sure_growth(self):
        # One arrival every step: the count is 1 + k, so a cap of 10 is
        # passed at step 10 with certainty.
        single = from_pmf([(1, 1.0)])
        assert cap_violation_probability(single, 9, 10) == 0.0
        assert cap_violation_probability(single, 10, 10) == pytest.approx(1.0)

    def test_violation_probability_no_arrivals(self):
        assert cap_violation_probability(from_pmf([(0, 1.0)]), 720, 1) == 0.0

    def test_suggest_max_count_is_minimal(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 720)
        assert cap_violation_probability(dist, 720, cap) < CAP_TOLERANCE
        assert cap_violation_probability(dist, 720, cap - 1) >= CAP_TOLERANCE

    @pytest.mark.parametrize("ratio", [-0.1, math.nan, math.inf])
    def test_config_rejects_a_bad_ratio(self, ratio):
        with pytest.raises(ValueError, match="^ratio must be nonnegative and finite"):
            DpConfig(3, 12, BERNOULLI, ratio)

    def test_config_rejects_a_cost_past_the_float_range(self):
        # The deadline value -ratio * horizon must stay finite: as -inf, a
        # zero probability inside the support would make it nan.
        values = solve(DpConfig(1, 12, BERNOULLI, dp.MAX_HORIZON_COST)).values
        assert np.isfinite(values[:, 1:]).all()
        with pytest.raises(ValueError, match=r"^ratio 1e\+308 x horizon 5 .*MAX_HORIZON_COST"):
            DpConfig(5, 12, BERNOULLI, 1e308)

    def test_config_rejects_reachable_cap(self):
        dist = poisson_truncated(1.0 / 6.0)
        with pytest.raises(ValueError, match="exceeded"):
            DpConfig(720, 60, dist, 0.005)

    def test_config_accepts_suggested_cap(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 720)
        config = DpConfig(720, cap, dist, 0.005)
        assert config.max_count == cap


def never(what):
    def refuse(*args):
        raise AssertionError(f"{what} ran")

    return refuse


class TestStateLimit:
    def test_cap_search_past_the_limit_is_refused_before_it_runs(self, monkeypatch):
        monkeypatch.setattr(dp, "_final_count_tail", never("the cap search"))
        single = from_pmf([(1, 1.0)])
        with pytest.raises(ValueError, match="occupancy-cap search needs.*MAX_STATES"):
            suggest_max_count(single, 10**6)
        with pytest.raises(ValueError, match="cap check needs.*MAX_STATES"):
            cap_violation_probability(single, 10, dp.MAX_STATES)

    def test_convolution_work_past_the_limit_is_refused_before_it_runs(self, monkeypatch):
        # Rate 2e4 over 37 steps: 37 x 771330 counts is inside MAX_STATES, but
        # each step convolves with 21004 batch sizes, 6e11 multiply-adds.
        monkeypatch.setattr(dp, "_final_count_tail", never("the cap search"))
        dist = poisson_truncated(2e4)
        with pytest.raises(ValueError,
                           match="occupancy-cap search needs 37 steps.*MAX_CONVOLUTION_WORK"):
            suggest_max_count(dist, 37)
        with pytest.raises(ValueError, match="cap check needs 37 steps.*MAX_CONVOLUTION_WORK"):
            cap_violation_probability(dist, 37, 800_000)

    def test_largest_benchmarked_and_tested_searches_stay_inside_the_work_limit(self):
        # perfbench's largest cap search (rate 2, 720 steps) and the 5000-step
        # check of TestSharedCapTail, with the bounds the searches use.
        dist = poisson_truncated(2.0)
        bound = dp._search_bound(dist, 720)
        assert 720 * (bound + 1) * (dist.support_max + 1) * 50 < dp.MAX_CONVOLUTION_WORK
        single = from_pmf([(1, 1.0)])
        bound = max(dp._search_bound(single, 5000), 5001)
        assert 5000 * (bound + 1) * 2 * 20 < dp.MAX_CONVOLUTION_WORK

    def test_solver_grid_is_bounded_at_construction(self):
        # No arrivals: the cap check is free, so only the limit decides.
        empty = from_pmf([(0, 1.0)])
        at_limit = dp.MAX_STATES // 2 - 1
        assert DpConfig(at_limit, 1, empty, 0.005).horizon == at_limit
        with pytest.raises(ValueError, match="solver needs.*MAX_STATES"):
            DpConfig(at_limit + 1, 1, empty, 0.005)

    def test_transition_table_is_bounded_before_the_cap_check(self, monkeypatch):
        # At rate 2e4 the default cap of a one-step solve is 21202 counts,
        # each with 21004 batch sizes: 4.5e8 transitions, 3.6 GB of indices.
        monkeypatch.setattr(dp, "cap_violation_probability", never("the cap check"))
        dist = poisson_truncated(2e4)
        with pytest.raises(ValueError, match="transition table needs 21202 x 21004"):
            DpConfig(1, 21202, dist, 0.005)


def absorbed_past_cap(dist, horizon, cap):
    """Reference: the mass that passes `cap`, absorbed step by step."""
    pmf = np.asarray(dist.probabilities)
    probs = np.zeros(cap + 1)
    probs[1] = 1.0
    absorbed = 0.0
    for _ in range(horizon):
        full = np.convolve(probs, pmf)
        absorbed += float(full[cap + 1 :].sum())
        probs = full[: cap + 1]
    return absorbed


class TestSharedCapTail:
    @pytest.mark.parametrize("lam,horizon", [(1.0 / 6.0, 720), (2.0, 90), (0.01, 30)])
    def test_violation_matches_absorbing_reference(self, lam, horizon):
        dist = poisson_truncated(lam)
        suggested = suggest_max_count(dist, horizon)
        for cap in (1, max(suggested - 5, 1), suggested, suggested + 3, 5 * suggested):
            expected = absorbed_past_cap(dist, horizon, cap)
            got = cap_violation_probability(dist, horizon, cap)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), cap

    def test_cap_past_the_search_bound_widens_it(self):
        dist = poisson_truncated(0.5)
        cap = 10 * dp._search_bound(dist, 20)
        assert cap_violation_probability(dist, 20, cap) == absorbed_past_cap(dist, 20, cap)
        single = from_pmf([(1, 1.0)])
        assert cap_violation_probability(single, 5000, 5000) == 1.0
        assert cap_violation_probability(single, 5000, 5001) == 0.0

    def test_cap_suggestion_and_config_check_share_one_pass(self, monkeypatch):
        calls = []
        convolve = np.convolve

        def counting(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)

        dist = poisson_truncated(0.5)
        dp._final_count_tail.cache_clear()
        monkeypatch.setattr(dp.np, "convolve", counting)
        cap = suggest_max_count(dist, 200)
        DpConfig(200, cap, dist, 0.005)
        assert len(calls) == 200


# sha256 of `dp-verify --lambda 1/6 --ratio 0.005 --horizon 720 --dump-actions`,
# recorded before the table writer stopped going through the csv module.
REFERENCE_ACTIONS_SHA256 = "9d3f06e025999b515daab334ca1efcf82fcc4a7a80a0812621a9c4f58e849125"


def test_reference_action_table_bytes_are_pinned(tmp_path):
    dist = poisson_truncated(1.0 / 6.0)
    threshold = compute_threshold(dist, 0.005)
    cap = max(suggest_max_count(dist, 720), threshold.n_star + dist.support_max)
    path = tmp_path / "actions.csv"
    write_action_table(solve(DpConfig(720, cap, dist, 0.005)), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REFERENCE_ACTIONS_SHA256


def test_action_table_dump_round_trips(tmp_path):
    dist = poisson_truncated(0.1)
    solution = solve(DpConfig(5, 40, dist, 0.005))
    path = tmp_path / "actions.csv"
    write_action_table(solution, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,n,action"
    assert len(lines) == 1 + 6 * 40
    k, n, action = lines[1].split(",")
    assert (k, n) == ("0", "1")
    assert action in ("release", "wait")
    threshold = compute_threshold(dist, 0.005)
    for line in lines[1:]:
        k, n, action = line.split(",")
        if int(k) < 5:
            expected = "release" if int(n) >= threshold.n_star else "wait"
            assert action == expected
