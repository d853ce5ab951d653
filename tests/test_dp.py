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
    compare_with_threshold,
    solve,
    split_ties,
    suggest_max_count,
    write_action_table,
)
from hubrelease.stopping import Threshold, compute_threshold, release_reward

BERNOULLI = from_pmf([(0, 0.5), (1, 0.5)])
# A rare batch far larger than the spread of the count: three batches of
# 100 in 100 steps have probability 1.6e-7, and their count 301 lies past
# the cap search's 12-sigma bound of 224, so the search must widen.
RARE_FAR_BATCH = from_pmf([(0, 0.9999), (100, 0.0001)])


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

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_corrupted_threshold_has_no_state_excused_as_a_tie(self, shift):
        dist = poisson_truncated(1.0 / 6.0)
        solution = solve(DpConfig(60, suggest_max_count(dist, 60), dist, 0.005))
        corrupted = Threshold(6 + shift, 0.005, dist)
        mismatches = compare_with_threshold(solution, corrupted)
        assert len(mismatches) == 60
        assert split_ties(solution, mismatches) == (mismatches, [])

    def test_exact_tie_is_split_off_as_indifferent(self):
        # g(3) = 1/24 exactly for {0: .5, 1: .5}, so at n = 3 releasing and
        # waiting are worth the same, and the solver's float pick is noise.
        ratio = 0.041666666666666664
        threshold = compute_threshold(BERNOULLI, ratio)
        assert threshold.n_star == 3
        solution = solve(DpConfig(100, 80, BERNOULLI, ratio))
        mismatches = compare_with_threshold(solution, threshold)
        assert len(mismatches) == 48
        assert {n for _, n in mismatches} == {3}
        assert split_ties(solution, mismatches) == ([], mismatches)

    def test_a_matching_run_recomputes_nothing(self):
        dist = poisson_truncated(1.0 / 6.0)
        config = DpConfig(30, 60, dist, 0.005)
        # Tables that would fail any recomputation: none is done.
        assert split_ties(dp.DpSolution(config, None, None), []) == ([], [])

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
    @pytest.mark.parametrize("dist,horizon", [
        (poisson_truncated(1.0 / 6.0), 720),
        (poisson_truncated(2.0), 90),
        (poisson_truncated(0.01), 30),
        (RARE_FAR_BATCH, 100),
    ])
    def test_suggested_cap_is_the_smallest_safe_one(self, dist, horizon):
        cap = suggest_max_count(dist, horizon)
        assert absorbed_past_cap(dist, horizon, cap) < CAP_TOLERANCE
        assert absorbed_past_cap(dist, horizon, cap - 1) >= CAP_TOLERANCE

    def test_sure_growth_is_passed_with_certainty(self):
        # One arrival every step: the count ends at exactly 5001.
        single = from_pmf([(1, 1.0)])
        assert suggest_max_count(single, 5000) == 5001
        assert absorbed_past_cap(single, 5000, 5001) == 0.0
        assert absorbed_past_cap(single, 5000, 5000) == 1.0

    def test_no_arrivals_need_a_cap_of_one(self):
        empty = from_pmf([(0, 1.0)])
        assert suggest_max_count(empty, 720) == 1
        assert absorbed_past_cap(empty, 720, 1) == 0.0
        assert DpConfig(720, 1, empty, 0.005).max_count == 1

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_suggestion_rejects_a_horizon_below_one(self, horizon):
        with pytest.raises(ValueError, match="^horizon must be >= 1"):
            suggest_max_count(BERNOULLI, horizon)

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
        cap = suggest_max_count(dist, 720)
        with pytest.raises(ValueError,
                           match=rf"exceeded.*smallest safe cap is {cap} \(suggest_max_count\)$"):
            DpConfig(720, 60, dist, 0.005)
        with pytest.raises(ValueError, match=f"^max_count={cap - 1} can be exceeded"):
            DpConfig(720, cap - 1, dist, 0.005)

    def test_config_accepts_suggested_cap(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 720)
        config = DpConfig(720, cap, dist, 0.005)
        assert config.max_count == cap

    def test_config_accepts_the_caps_the_overflow_probability_allows(self):
        # Before the check compared caps with suggest_max_count, DpConfig
        # accepted a cap exactly when the chance of passing it, computed by
        # absorbing the overflow step by step, was below CAP_TOLERANCE.
        # Caps from 1 to twice the search bound, over Poisson and explicit
        # pmfs and short to long horizons, are accepted and refused as then.
        rng = np.random.default_rng(15)
        dists = [poisson_truncated(lam) for lam in (1e-6, 0.05, 1.0 / 6.0, 1.9)]
        dists.append(RARE_FAR_BATCH)
        for _ in range(4):
            counts = np.sort(rng.choice(np.arange(8), size=int(rng.integers(2, 5)),
                                        replace=False))
            weights = rng.random(counts.size) + 0.01
            dists.append(from_pmf(list(zip(counts.tolist(), (weights / weights.sum()).tolist()))))
        cases = 0
        for dist in dists:
            for horizon in (1, 7, 90):
                suggested = suggest_max_count(dist, horizon)
                bound = dp._search_bound(dist, horizon)
                caps = {1, 2, bound, 2 * bound, *range(max(suggested - 2, 1), suggested + 3)}
                for cap in sorted(caps):
                    safe = absorbed_past_cap(dist, horizon, cap) < CAP_TOLERANCE
                    try:
                        DpConfig(horizon, cap, dist, 0.005)
                        accepted = True
                    except ValueError as exc:
                        assert "can be exceeded" in str(exc)
                        accepted = False
                    assert accepted == safe, (dist, horizon, cap)
                    cases += 1
        assert cases >= 200

    def test_search_bound_from_the_moments_is_the_two_pass_bound(self):
        # The cushion's variance was once a second pass over the pmf; it is
        # now E[X^2] - E[X]^2 from the mean's pass.  Over log-uniform rates
        # and sparse pmfs with far, rare batches, both give the same bound,
        # so the cap search runs over the same counts.
        def two_pass_bound(dist, horizon):
            m = dist.mean
            variance = 0.0
            for x in range(dist.support_max, -1, -1):
                variance += (x - m) ** 2 * dist.probabilities[x]
            spread = 12.0 * np.sqrt(max(horizon * variance, 1.0))
            return int(np.ceil(1 + horizon * dist.mean + spread)) + dist.support_max + 2

        rng = np.random.default_rng(17)
        rates = [1e-6, 1.0 / 6.0, 2.0, 2e4, *(10.0 ** rng.uniform(-6, np.log10(2e4), 396))]
        dists = [poisson_truncated(float(lam)) for lam in rates]
        dists.append(RARE_FAR_BATCH)
        for _ in range(60):
            counts = np.sort(rng.choice(np.arange(1000), size=int(rng.integers(2, 6)),
                                        replace=False))
            weights = 10.0 ** rng.uniform(-13, 0, counts.size)
            dists.append(from_pmf(list(zip(counts.tolist(),
                                           (weights / weights.sum()).tolist()))))
        cases = 0
        for dist in dists:
            for horizon in (1, 2, 7, 30, 90, 360, 720, 2000, 5000):
                assert dp._search_bound(dist, horizon) == two_pass_bound(dist, horizon), (
                    dist.support_max, dist.mean, horizon)
                cases += 1
        assert cases >= 4000


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
        with pytest.raises(ValueError, match="occupancy-cap search needs.*MAX_STATES"):
            DpConfig(10**6, 1, single, 0.005)

    def test_convolution_work_past_the_limit_is_refused_before_it_runs(self, monkeypatch):
        # Rate 2e4 over 37 steps: 37 x 771330 counts is inside MAX_STATES, but
        # each step convolves with 21004 batch sizes, 6e11 multiply-adds.
        monkeypatch.setattr(dp, "_final_count_tail", never("the cap search"))
        dist = poisson_truncated(2e4)
        with pytest.raises(ValueError,
                           match="occupancy-cap search needs 37 steps.*MAX_CONVOLUTION_WORK"):
            suggest_max_count(dist, 37)
        with pytest.raises(ValueError,
                           match="occupancy-cap search needs 37 steps.*MAX_CONVOLUTION_WORK"):
            DpConfig(37, 1000, dist, 0.005)

    def test_solver_work_past_the_limit_is_refused_before_the_cap_check(self, monkeypatch):
        # The batch of 900 is so rare that the safe cap is 1, and 901 x 33001
        # states fit in MAX_STATES, but the solve would weigh 33000 counts by
        # 901 batch sizes at each of 900 steps: 2.7e10 multiply-adds, minutes.
        monkeypatch.setattr(dp, "suggest_max_count", never("the cap check"))
        sparse = from_pmf([(0, 1 - 1e-13), (900, 1e-13)])
        with pytest.raises(ValueError, match=r"^the solver needs 900 steps x 33000 counts "
                                             r"x 901 batch sizes = 2.68e\+10 .*"
                                             r"MAX_CONVOLUTION_WORK"):
            DpConfig(900, 33000, sparse, 0.01)

    def test_largest_benchmarked_and_tied_solves_stay_inside_the_work_limit(self):
        # perfbench's largest solve (rate 2 moved up 5%, 720 steps, at its
        # safe cap) and the 264-tie solve of the CLI tests (rate 0.05, ratio
        # 1e-12, 90 steps, at n_star plus the largest batch).
        dist = poisson_truncated(2.1)
        cap = suggest_max_count(dist, 720)
        assert cap == 1752
        assert 720 * cap * (dist.support_max + 1) * 50 < dp.MAX_CONVOLUTION_WORK
        dist = poisson_truncated(0.05)
        cap = compute_threshold(dist, 1e-12).n_star + dist.support_max
        assert 90 * cap * (dist.support_max + 1) * 10 < dp.MAX_CONVOLUTION_WORK

    def test_largest_benchmarked_and_tested_searches_stay_inside_the_work_limit(self):
        # perfbench's largest cap search (rate 2, 720 steps) and the 5000-step
        # search of TestOccupancyCap, with the bounds the searches use.
        dist = poisson_truncated(2.0)
        bound = dp._search_bound(dist, 720)
        assert 720 * (bound + 1) * (dist.support_max + 1) * 50 < dp.MAX_CONVOLUTION_WORK
        single = from_pmf([(1, 1.0)])
        bound = dp._search_bound(single, 5000)
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
        monkeypatch.setattr(dp, "suggest_max_count", never("the cap search"))
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


class TestSharedCapSearch:
    def test_cap_suggestion_and_config_check_share_one_pass(self, monkeypatch):
        calls = []
        convolve = np.convolve

        def counting(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)

        dist = poisson_truncated(0.5)
        suggest_max_count.cache_clear()
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
