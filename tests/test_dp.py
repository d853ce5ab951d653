"""Backward-induction solver against brute force, invariants, and the threshold rule."""
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hubrelease.dp as dp
from hubrelease.arrival import from_pmf, poisson_truncated
from hubrelease.dp import (
    CAP_TOLERANCE,
    DpConfig,
    DpSolution,
    compare_with_threshold,
    solve,
    suggest_max_count,
    write_action_table,
)
from hubrelease.stopping import Threshold, _waiting_gain, compute_threshold, release_reward

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
        # Values are net of the elapsed cost: the reward plus ratio * k.
        solution = self._solution()
        horizon = solution.config.horizon
        n = np.arange(1, solution.config.max_count + 1)
        assert np.array_equal(solution.values[horizon, 1:], (n - 1) / n)
        assert solution.actions[horizon, 1:].all()

    def test_value_dominates_immediate_release(self):
        solution = self._solution()
        n = np.arange(1, solution.config.max_count + 1)
        for k in range(solution.config.horizon + 1):
            release_value = (n - 1) / n - 0.005 * k
            reward = solution.values[k, 1:] - 0.005 * k
            assert (reward >= release_value).all()

    def test_waiting_one_step_costs_at_most_the_step_cost(self):
        solution = self._solution()
        steps = np.arange(solution.config.horizon + 1)[:, None]
        rewards = solution.values[:, 1:] - 0.005 * steps
        assert (rewards[:-1] >= rewards[1:] - 0.005 - 1e-12).all()

    def test_release_regions_are_upward_closed(self):
        solution = self._solution()
        actions = solution.actions[:, 1:]
        # Once release is optimal at n it stays optimal at n+1.
        assert (actions[:, 1:] >= actions[:, :-1]).all()

    def test_actions_stationary_before_deadline(self):
        solution = self._solution()
        actions = solution.actions[:-1, 1:]
        assert (actions == actions[0]).all()


def argwhere_mismatches(solution, threshold):
    """compare_with_threshold's listing by 2-D argwhere, kept as its oracle."""
    config = solution.config
    n = np.arange(1, config.max_count + 1)
    if threshold.never_release:
        rule = np.zeros(n.size, dtype=bool)
    else:
        rule = n >= threshold.n_star
    diff = solution.actions[:config.horizon, 1:] != rule[None, :]
    return [(int(k), int(i) + 1) for k, i in np.argwhere(diff)]


def split_ties(solution, mismatches):
    """(real mismatches, ties) among the listed states: the verdict's former
    second pass, kept as compare_with_threshold's oracle for the tie flags.

    The gap is recomputed at every listed state, in values net of the
    elapsed cost; past the stored value columns the next step releases, at
    the closed form (n - 1)/n.
    """
    if not mismatches:
        return [], []
    config = solution.config
    probs = np.asarray(config.dist.probabilities)
    k, n = np.array(mismatches).T
    next_idx = np.minimum(n[:, None] + np.arange(probs.size), config.max_count)
    width = solution.values.shape[1] - 1
    next_values = np.where(
        next_idx <= width,
        solution.values[k[:, None] + 1, np.minimum(next_idx, width)],
        (next_idx - 1) / next_idx,
    )
    continuation = np.append(next_values, np.full((k.size, 1), -config.ratio), axis=1) @ (
        np.append(probs, 1.0))
    tie = (np.abs((n - 1) / n - continuation) <= dp._comparison_bound(config)).tolist()
    real = [state for state, t in zip(mismatches, tie) if not t]
    return real, [state for state, t in zip(mismatches, tie) if t]


def two_step_verdict(solution, threshold):
    """compare_with_threshold's triples by the former two steps: argwhere over
    the action table up to the cap, then split_ties."""
    config = solution.config
    actions = np.ones((config.horizon + 1, config.max_count + 1), dtype=bool)
    actions[:, : solution.actions.shape[1]] = solution.actions
    listed = argwhere_mismatches(DpSolution(config, None, actions), threshold)
    tied = set(split_ties(solution, listed)[1])
    return [(k, n, (k, n) in tied) for k, n in listed]


def states(verdict):
    return [(k, n) for k, n, _ in verdict]


def ties(verdict):
    return [(k, n) for k, n, tie in verdict if tie]


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
        assert {n for _, n, _ in mismatches} == {6}
        assert {k for k, _, _ in mismatches} == set(range(60))
        assert ties(mismatches) == []

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_corrupted_threshold_has_no_state_excused_as_a_tie(self, shift):
        dist = poisson_truncated(1.0 / 6.0)
        solution = solve(DpConfig(60, suggest_max_count(dist, 60), dist, 0.005))
        corrupted = Threshold(6 + shift, 0.005, dist)
        mismatches = compare_with_threshold(solution, corrupted)
        assert len(mismatches) == 60
        assert ties(mismatches) == []
        assert mismatches == two_step_verdict(solution, corrupted)

    def test_an_exact_tie_releases_as_the_rule_does(self):
        # g(3) = 1/24 exactly for {0: .5, 1: .5}, so at n = 3 releasing and
        # waiting are worth the same.  Net of the elapsed cost the float
        # continuation equals the release value 2/3 at every step, and the
        # solver breaks the tie toward release, as the rule does.
        ratio = 0.041666666666666664
        threshold = compute_threshold(BERNOULLI, ratio)
        assert threshold.n_star == 3
        solution = solve(DpConfig(100, 80, BERNOULLI, ratio))
        assert compare_with_threshold(solution, threshold) == []
        assert (solution.values[:, 3] == 2 / 3).all()

    def test_float_ties_are_flagged_as_indifferent(self):
        # The ratio is g(6) for rate 0.1, so at n = 6 releasing and waiting
        # tie; the solver's float continuation lands just above the release
        # value and waits, within the comparison bound.
        dist = poisson_truncated(0.1)
        ratio = 0.0023515178869356894
        assert ratio == _waiting_gain(6, dist)
        threshold = compute_threshold(dist, ratio)
        assert threshold.n_star == 6
        solution = solve(DpConfig(30, threshold.n_star + dist.support_max, dist, ratio))
        mismatches = compare_with_threshold(solution, threshold)
        assert states(mismatches) == [(k, 6) for k in range(30)]
        assert ties(mismatches) == states(mismatches)
        assert mismatches == two_step_verdict(solution, threshold)

    def test_a_match_reads_no_values(self):
        dist = poisson_truncated(1.0 / 6.0)
        solution = solve(DpConfig(30, 60, dist, 0.005))
        # No value table: a tie flag computed anyway would fail on it.
        blind = DpSolution(solution.config, None, solution.actions)
        assert compare_with_threshold(blind, compute_threshold(dist, 0.005)) == []

    def test_never_release_threshold_flags_every_release_before_the_deadline(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 40)
        solution = solve(DpConfig(40, cap, dist, 0.005))
        never = Threshold(None, 0.005, dist)
        assert never.never_release
        # The solver releases from n_star = 6 at every step before the
        # deadline, where both force release and nothing is compared.
        got = compare_with_threshold(solution, never)
        assert got == [(k, n, False) for k in range(40) for n in range(6, cap + 1)]
        assert got == two_step_verdict(solution, never)

    # Horizon 1 and cap 1, a one-row and a one-column table, and wider ones.
    @pytest.mark.parametrize("horizon, cap", [
        (1, 1), (1, 9), (4, 1), (7, 13), (60, 40), (120, 193),
    ])
    def test_flat_indices_list_what_argwhere_lists(self, horizon, cap):
        rng = np.random.default_rng(2220 + horizon * 1000 + cap)
        n_star = int(rng.integers(1, cap + 1))
        actions = threshold_table(horizon, cap, n_star)
        # The corners of the compared block, and seeded states inside it.
        flips = {(0, 1), (0, cap), (horizon - 1, 1), (horizon - 1, cap)}
        flips |= set(zip(rng.integers(0, horizon, 20).tolist(),
                         rng.integers(1, cap + 1, 20).tolist()))
        for k, n in flips:
            actions[k, n - 1] = not actions[k, n - 1]
        # The deadline row, where both force release, is never compared.
        actions[horizon, rng.integers(0, cap, 3)] = False
        actions[horizon, [0, cap - 1]] = False
        solution = hand_built(actions)
        dist = solution.config.dist
        threshold = Threshold(n_star, 0.005, dist)
        # The hand-built values are NaN, so no state is a tie.
        got = compare_with_threshold(solution, threshold)
        assert got == [(k, n, False) for k, n in sorted(flips)]
        assert states(got) == argwhere_mismatches(solution, threshold)
        assert all(type(k) is int and type(n) is int and type(t) is bool for k, n, t in got)
        never = Threshold(None, 0.005, dist)
        assert states(compare_with_threshold(solution, never)) == argwhere_mismatches(
            solution, never)
        matching = hand_built(threshold_table(horizon, cap, n_star))
        assert compare_with_threshold(matching, threshold) == []
        assert argwhere_mismatches(matching, threshold) == []

    def test_a_solved_table_lists_what_argwhere_lists(self):
        dist = poisson_truncated(2.0)
        solution = solve(DpConfig(90, suggest_max_count(dist, 90), dist, 0.005))
        for n_star in (None, 1, 18, 20, 60):
            threshold = Threshold(n_star, 0.005, dist)
            got = compare_with_threshold(solution, threshold)
            assert states(got) == argwhere_mismatches(full_solution(solution), threshold)
            assert got == two_step_verdict(solution, threshold)
            assert all(type(k) is int and type(n) is int and type(t) is bool
                       for k, n, t in got)
        # The solver releases from n* = 19 on, so a rule from 60 on differs
        # at 41 counts of every step.
        assert len(compare_with_threshold(solution, Threshold(60, 0.005, dist))) == 90 * 41

    def test_thresholds_past_the_block_list_and_flag_as_the_full_tables(self):
        # The solver stores actions up to its induction rows and releases
        # past them, so a rule that waits there differs in those columns too;
        # their next-step values lie past the stored ones.
        dist = poisson_truncated(2.0)
        tied = 0
        for config in (
            DpConfig(90, suggest_max_count(dist, 90), dist, 0.005),
            DpConfig(100, 80, BERNOULLI, 0.041666666666666664),
        ):
            solution = solve(config)
            rows = solution.actions.shape[1] - 1
            assert rows == induction_rows(config) < solution.values.shape[1] - 1 < config.max_count
            full = DpSolution(config, *full_table_solve(config))
            # The value columns past the stored ones, poisoned: the verdict
            # reads none of them.
            width = solution.values.shape[1]
            poisoned = full.values.copy()
            poisoned[:, width:] = np.nan
            poisoned = DpSolution(config, poisoned, solution.actions)
            for n_star in (rows + 5, None):
                threshold = Threshold(n_star, config.ratio, config.dist)
                got = compare_with_threshold(solution, threshold)
                assert states(got) == argwhere_mismatches(full, threshold)
                assert got == two_step_verdict(solution, threshold)
                assert got == two_step_verdict(full, threshold)
                assert got == compare_with_threshold(poisoned, threshold)
                assert any(n > rows for _, n, _ in got)
                assert all(not tie for _, n, tie in got if n > rows)
                tied += len(ties(got))
        # Both rules wait at n = 3, where the solver releases at all 100
        # steps at an exact tie: 2 x 100.
        assert tied == 200

    def test_the_former_two_steps_give_the_same_triples(self):
        # Seeded Poisson and sparse pmfs, each against its own rule, the
        # rule moved by one either way, a rule past the block and one that
        # never releases.  Every second ratio is g(m) for a small m, where
        # releasing and waiting tie at n = m.
        rng = np.random.default_rng(26)
        dists = [poisson_truncated(float(lam)) for lam in 10.0 ** rng.uniform(-3, 0.7, 12)]
        dists += sparse_pmfs(rng, 12, 30)
        checked = tied = 0
        for i, dist in enumerate(dists):
            horizon = int(10.0 ** rng.uniform(0, np.log10(200)))
            ratio = float(10.0 ** rng.uniform(-4, 0))
            if i % 2:
                ratio = _waiting_gain(int(rng.integers(1, 12)), dist)
            n_star = compute_threshold(dist, ratio).n_star
            # At least the safe cap, so that a rule that never releases
            # differs at every count up to it, as when DpConfig searched for
            # the safe cap on every call.
            cap = max(n_star + dist.support_max, suggest_max_count(dist, horizon))
            config = DpConfig(horizon, cap, dist, ratio)
            solution = solve(config)
            rows = solution.actions.shape[1] - 1
            for rule in (n_star, n_star - 1, n_star + 1, rows + 5, None):
                if rule is not None and rule < 1:
                    continue
                threshold = Threshold(rule, ratio, dist)
                got = compare_with_threshold(solution, threshold)
                assert got == two_step_verdict(solution, threshold), (config, rule)
                checked += len(got)
                tied += len(ties(got))
        assert checked > 100_000 and tied > 500

    def test_the_tiny_ratio_tie_repro_gives_the_two_step_triples(self):
        dist = poisson_truncated(0.05)
        threshold = compute_threshold(dist, 1e-12)
        solution = solve(DpConfig(90, threshold.n_star + dist.support_max, dist, 1e-12))
        got = compare_with_threshold(solution, threshold)
        assert len(ties(got)) == len(got) == 387
        assert got == two_step_verdict(solution, threshold)

    def test_the_tie_bound_is_pinned_on_both_sides(self):
        # No arrivals and one count: the continuation at n = 1 is the next
        # value minus the ratio, exact when the two lie within a factor of 2
        # of each other, so a hand-set next value puts the gap |0 -
        # continuation| anywhere.  A gap just inside the bound is a tie, one
        # just outside a real mismatch: a bound half as large or a thousand
        # times larger fails here.
        ratio = 2.0 ** -30
        empty = from_pmf([(0, 1.0)])
        config = DpConfig(2, 1, empty, ratio)
        bound = dp._comparison_bound(config)
        # u for the release value, and the two-term product's gamma times
        # its magnitudes: the next value, at most 1, and the ratio.
        u = 2.0 ** -53
        assert bound == pytest.approx(u + 2 * u / (1 - 2 * u) * (1 + ratio), rel=1e-12, abs=0)
        inside, outside = ratio + bound * (1 - 2 ** -10), ratio + bound * (1 + 2 ** -10)
        assert 0.5 * bound < inside - ratio <= bound < outside - ratio < 1e3 * bound
        values = np.array([[-ratio, 0.0], [-ratio, inside], [-ratio, outside]])
        actions = np.array([[False, True]] * 3)
        solution = DpSolution(config, values, actions)
        # The rule waits at n = 1; the table releases there at steps 0 and 1.
        got = compare_with_threshold(solution, Threshold(2, ratio, empty))
        assert got == [(0, 1, True), (1, 1, False)]

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

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_config_rejects_a_horizon_below_one(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon must be >= 1, got {horizon}$"):
            DpConfig(horizon, 12, BERNOULLI, 0.005)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_config_rejects_a_cap_below_one(self, cap):
        with pytest.raises(ValueError, match=f"^max_count must be >= 1, got {cap}$"):
            DpConfig(30, cap, BERNOULLI, 0.005)

    @pytest.mark.parametrize("ratio", [-0.1, math.nan, math.inf])
    def test_config_rejects_a_bad_ratio(self, ratio):
        with pytest.raises(ValueError, match="^ratio must be nonnegative and finite"):
            DpConfig(3, 12, BERNOULLI, ratio)

    def test_a_cost_near_the_float_maximum_solves_with_finite_values(self):
        # Values net of the elapsed cost lie in [0, (1 + d)^horizon], d the
        # pmf's mass error: no cost over the horizon can overflow them, and
        # a zero probability inside the support never meets an inf.
        gap = from_pmf([(0, 0.5), (2, 0.5)])
        for dist in (BERNOULLI, gap):
            solution = solve(DpConfig(5, 12, dist, 1.79e308))
            assert np.isfinite(solution.values).all()
            threshold = compute_threshold(dist, 1.79e308)
            assert compare_with_threshold(solution, threshold) == []

    def test_config_raises_a_reachable_cap_to_the_reach(self):
        # At rate 1/6 over 720 steps the safe cap is 192, but the solver
        # reads counts only up to 64 (56 induction rows and a batch of 8), so
        # a lower cap is raised to 64 and a cap from 64 on is kept.
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 720)
        assert (cap, solver_reach(DpConfig(720, cap, dist, 0.005))) == (192, 64)
        assert DpConfig(720, 1, dist, 0.005).max_count == 64
        assert DpConfig(720, 60, dist, 0.005).max_count == 64
        assert DpConfig(720, 64, dist, 0.005).max_count == 64
        assert DpConfig(720, cap - 1, dist, 0.005).max_count == cap - 1

    def test_config_accepts_suggested_cap(self):
        dist = poisson_truncated(1.0 / 6.0)
        cap = suggest_max_count(dist, 720)
        config = DpConfig(720, cap, dist, 0.005)
        assert config.max_count == cap

    def test_config_accepts_the_caps_the_overflow_probability_allows(self):
        # DpConfig keeps a cap at or past the solver's reach, and a lower
        # cap exactly when the chance of passing it, computed by absorbing
        # the overflow step by step, is below CAP_TOLERANCE.  It raises any
        # other to the reach where the safe cap is at least that high, and
        # else to suggest_max_count, where that chance is below it.  Caps
        # from 1 to twice the search bound, over Poisson and explicit pmfs
        # and short to long horizons, at ratio 0.005 (reach 25 to 260).
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
                reach = solver_reach(DpConfig(horizon, suggested, dist, 0.005))
                caps |= {reach - 1, reach, reach + 1} - {0}
                for cap in sorted(caps):
                    safe = absorbed_past_cap(dist, horizon, cap) < CAP_TOLERANCE
                    config = DpConfig(horizon, cap, dist, 0.005)
                    if cap >= reach:
                        assert config.max_count == cap, (dist, horizon, cap)
                        continue
                    if suggested < reach:
                        assert config.max_count == max(cap, suggested), (dist, horizon, cap)
                        assert absorbed_past_cap(dist, horizon, config.max_count) < CAP_TOLERANCE
                    else:
                        # The reach, or the safe cap past it where the reach
                        # lies past the search's first bound: the same tables.
                        assert config.max_count in (reach, suggested), (dist, horizon, cap)
                    assert (config.max_count == cap) == safe, (dist, horizon, cap)
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
        # One arrival a step: the solver reads counts up to 25 (24 induction
        # rows and one batch), and the count passes them for sure, so over
        # 10**6 steps the cap is 25 and 10**6 x 26 solver states fit.  Over
        # 2 x 10**6 steps the tail that proves it, charged as a search over
        # 25 counts, does not.
        single = from_pmf([(1, 1.0)])
        config = DpConfig(10**6, 1, single, 0.005)
        assert config.max_count == 25
        assert (config.horizon + 1) * (config.max_count + 1) <= dp.MAX_STATES
        monkeypatch.setattr(dp, "_final_count_tail", never("the cap search"))
        with pytest.raises(ValueError, match="occupancy-cap search needs.*MAX_STATES"):
            suggest_max_count(single, 10**6)
        with pytest.raises(ValueError, match=r"^the occupancy-cap search needs 2000000 x 27 "
                                             r"= 5.4e\+07 states, .*MAX_STATES"):
            DpConfig(2 * 10**6, 1, single, 0.005)

    def test_convolution_work_past_the_limit_is_refused_before_it_runs(self, monkeypatch):
        # Rate 2e4 over 37 steps: 37 x 771330 counts is inside MAX_STATES, but
        # each step convolves with 21004 batch sizes, 6e11 multiply-adds.  A
        # config's tail up to the solver's reach, 21395 counts, is charged
        # 1.7e10.
        monkeypatch.setattr(dp, "_final_count_tail", never("the cap search"))
        dist = poisson_truncated(2e4)
        with pytest.raises(ValueError,
                           match="occupancy-cap search needs 37 steps x 771330 counts.*"
                                 "MAX_CONVOLUTION_WORK"):
            suggest_max_count(dist, 37)
        with pytest.raises(ValueError,
                           match="occupancy-cap search needs 37 steps x 21396 counts.*"
                                 "MAX_CONVOLUTION_WORK"):
            DpConfig(37, 1000, dist, 0.005)

    def test_solver_work_past_the_limit_is_refused_at_construction(self):
        # The batch of 900 is so rare that the safe cap is 1, and 901 x 33001
        # states fit in MAX_STATES, but the solve would weigh 33000 counts by
        # 901 batch sizes at each of 900 steps: 2.7e10 multiply-adds, minutes.
        # The cap search runs first, within its own limits.
        sparse = from_pmf([(0, 1 - 1e-13), (900, 1e-13)])
        with pytest.raises(ValueError, match=r"^the solver needs 900 steps x 33000 counts "
                                             r"x 901 batch sizes = 2.68e\+10 .*"
                                             r"MAX_CONVOLUTION_WORK"):
            DpConfig(900, 33000, sparse, 0.01)

    def test_largest_benchmarked_and_tied_solves_stay_inside_the_work_limit(self):
        # The largest solve a benchmarked rate can ask for (rate 2 moved up
        # 5%, 720 steps, at the safe cap that a dump there lists) and the
        # 387-tie solve of the CLI tests (rate 0.05, ratio 1e-12, 90 steps,
        # at n_star plus the largest batch).
        dist = poisson_truncated(2.1)
        cap = suggest_max_count(dist, 720)
        assert cap == 1752
        assert 720 * cap * (dist.support_max + 1) * 50 < dp.MAX_CONVOLUTION_WORK
        dist = poisson_truncated(0.05)
        cap = compute_threshold(dist, 1e-12).n_star + dist.support_max
        assert 90 * cap * (dist.support_max + 1) * 10 < dp.MAX_CONVOLUTION_WORK

    def test_largest_benchmarked_and_tested_searches_stay_inside_the_work_limit(self):
        # The cap search of a dump at rate 2 over 720 steps and the 5000-step
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

    def test_transition_table_is_bounded_at_construction(self):
        # At rate 2e4 the default cap of a one-step solve is 21202 counts,
        # each with 21004 batch sizes: 4.5e8 transitions, 3.6 GB of indices.
        # The cap search runs first, within its own limits.
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
    def test_a_config_runs_one_cap_search(self, monkeypatch):
        calls = []
        convolve = np.convolve

        def counting(*args, **kwargs):
            calls.append(1)
            return convolve(*args, **kwargs)

        dist = poisson_truncated(0.5)
        monkeypatch.setattr(dp.np, "convolve", counting)
        # Over 200 steps the count passes the solver's reach (75) with
        # certainty: one tail up to it, 200 = 0b11001000 giving 7 squarings
        # and 3 products, and no search.
        config = DpConfig(200, 1, dist, 0.005)
        assert config.max_count == 75
        assert len(calls) == 10
        # Over 20 steps the reach lies past the search's first bound (62),
        # where a tail up to it would cost more than the search: one search,
        # 20 = 0b10100 giving 4 squarings and 2 products.
        assert dp._search_bound(dist, 20) == 62
        calls.clear()
        config = DpConfig(20, 1, dist, 0.005)
        assert len(calls) == 6
        calls.clear()
        assert suggest_max_count(dist, 20) == config.max_count
        assert len(calls) == 6


def solver_reach(config):
    """The last count solve reads at a cap past it, rows + s by solve's own
    rule, or None where its induction runs up to the cap."""
    if config.ratio > 4 * dp._comparison_bound(config):
        floor = dp._release_floor(config.dist, config.ratio)
        return -(-(floor - 1) // 8) * 8 + config.dist.support_max
    return None


def counting_searches(monkeypatch):
    """A list that gets one entry per suggest_max_count call DpConfig makes."""
    calls = []
    search = dp.suggest_max_count

    def counting(dist, horizon):
        calls.append((dist, horizon))
        return search(dist, horizon)

    monkeypatch.setattr(dp, "suggest_max_count", counting)
    return calls


class TestCapUpToTheReach:
    def test_any_cap_from_the_reach_on_gives_the_same_tables(self, monkeypatch):
        # The cap DpConfig derives from 1 against the safe cap, which
        # DpConfig keeps: the same values, actions and settled step, byte
        # for byte.  Where DpConfig ran no search, the search's cap is at
        # least the reach.  Seeded Poisson rates 1e-3 to 50, sparse pmfs and
        # a rare far batch, ratios 1e-6 to 0.3 and horizons 1 to 5000; a
        # config past the limits, or whose solve would be charged more than
        # 4e6 multiply-adds, is not solved, to keep the test short.
        rng = np.random.default_rng(28)
        dists = [poisson_truncated(float(lam)) for lam in 10.0 ** rng.uniform(-3, np.log10(50), 30)]
        dists += [RARE_FAR_BATCH, *sparse_pmfs(rng, 12, 120)]
        searches = counting_searches(monkeypatch)
        solved = moved = 0
        for dist in dists:
            for _ in range(2):
                horizon = int(10.0 ** rng.uniform(0, np.log10(5000)))
                ratio = float(10.0 ** rng.uniform(-6, np.log10(0.3)))
                searches.clear()
                try:
                    derived = DpConfig(horizon, 1, dist, ratio)
                    searched = bool(searches)
                    safe = suggest_max_count(dist, horizon)
                except ValueError:
                    continue
                if not searched:
                    assert safe >= solver_reach(derived), (dist.support_max, horizon, ratio)
                    assert derived.max_count == max(solver_reach(derived), 1)
                if horizon * derived.max_count * (dist.support_max + 1) > 4e6:
                    continue
                a, b = solve(derived), solve(DpConfig(horizon, safe, dist, ratio))
                assert a.values.tobytes() == b.values.tobytes(), (dist.support_max, horizon, ratio)
                assert a.actions.tobytes() == b.actions.tobytes(), (dist.support_max, horizon, ratio)
                assert a.settled == b.settled
                solved += 1
                moved += derived.max_count != b.config.max_count
        assert solved >= 60 and moved >= 20

    @pytest.mark.parametrize("horizon, safe", [(23, 24), (24, 25), (25, 26)])
    def test_the_search_runs_where_the_safe_cap_is_below_the_reach(
            self, monkeypatch, horizon, safe):
        # Bernoulli arrivals at ratio 0.005: the solver reads counts up to 25
        # (24 induction rows and one batch).  Over h steps the count ends at
        # h + 1 with probability 2^-h, above CAP_TOLERANCE, so the safe cap
        # is h + 1: one below the reach, at it and one past it.
        assert suggest_max_count(BERNOULLI, horizon) == safe
        searches = counting_searches(monkeypatch)
        config = DpConfig(horizon, 1, BERNOULLI, 0.005)
        assert solver_reach(config) == 25
        assert dp._safe_cap_reaches(BERNOULLI, horizon, 25) == (safe >= 25)
        assert config.max_count == min(safe, 25)
        assert len(searches) == (safe < 25)

    def test_the_certificate_needs_its_margin(self, monkeypatch):
        # Two arrivals a step with probability 1e-3, else none: over 3 steps
        # the count ends at 7 with probability 1e-9, CAP_TOLERANCE itself.
        # Counts are odd, so the search ends at 7 or at 5 as the tolerance
        # moves by a hair; the certificate takes 7 only once the tail clears
        # the tolerance by the margin.
        pair = from_pmf([(0, 1 - 1e-3), (2, 1e-3)])
        assert dp._final_count_tail(pair, 3, 7)[7] == pytest.approx(1e-9, rel=1e-12)
        for scale, search, certified in ((1 + 2 * dp.CERTIFICATE_MARGIN, 5, False),
                                         (1 + dp.CERTIFICATE_MARGIN / 2, 5, False),
                                         (1.0, 7, False),
                                         (1 / (1 + dp.CERTIFICATE_MARGIN / 2), 7, False),
                                         (1 / (1 + 2 * dp.CERTIFICATE_MARGIN), 7, True)):
            monkeypatch.setattr(dp, "CAP_TOLERANCE", 1e-9 * scale)
            assert suggest_max_count(pair, 3) == search, scale
            assert dp._safe_cap_reaches(pair, 3, 7) == certified, scale


def step_by_step_tail(dist, horizon, bound):
    """Reference: the final-count tail by one convolution per step."""
    pmf = np.asarray(dist.probabilities)
    probs = np.zeros(bound + 2)
    probs[1] = 1.0
    escaped = 0.0
    for _ in range(horizon):
        full = np.convolve(probs[: bound + 1], pmf)
        escaped += float(full[bound + 1 :].sum())
        probs[: bound + 1] = full[: bound + 1]
    return np.cumsum(probs[::-1])[::-1] + escaped


def sparse_pmfs(rng, count, largest):
    """Seeded pmfs with a few batches up to `largest` and weights down to 1e-7."""
    dists = []
    for _ in range(count):
        batches = np.sort(rng.choice(np.arange(1, largest + 1),
                                     size=int(rng.integers(1, 4)), replace=False))
        weights = 10.0 ** rng.uniform(-7, 0, batches.size)
        idle = rng.uniform(0.5, 0.9999)
        dists.append(from_pmf([(0, idle)] + list(zip(
            batches.tolist(), (weights / weights.sum() * (1 - idle)).tolist()))))
    return dists


class TestCapSearchBySquaring:
    # Largest relative difference allowed between the two tails, on entries
    # that the step-by-step reference puts above 1e-300.  Both add
    # nonnegative terms only, so neither cancels; 2.2e-13 was the worst seen
    # over 3475 (pmf, horizon) configs.
    TAIL_RTOL = 1e-11

    def test_same_caps_and_tails_as_one_convolution_per_step(self, monkeypatch):
        rng = np.random.default_rng(19)
        rates = [1e-4, 0.01, 1.0 / 6.0, 2.0, 30.0, *(10.0 ** rng.uniform(-4, 1.5, 6))]
        dists = [poisson_truncated(float(lam)) for lam in rates]
        dists += [RARE_FAR_BATCH, from_pmf([(1, 1.0)]), *sparse_pmfs(rng, 8, 120)]
        cases = []
        for dist in dists:
            for horizon in (1, 2, 3, 7, 64, 100, 255, 720):
                if dist.mean * horizon < 2000:
                    cases.append((dist, horizon))
        cases.append((from_pmf([(1, 1.0)]), 5000))
        for dist, horizon in cases:
            cap = suggest_max_count(dist, horizon)
            with monkeypatch.context() as m:
                m.setattr(dp, "_final_count_tail", step_by_step_tail)
                assert suggest_max_count(dist, horizon) == cap, (dist.support_max, horizon)
            bound = dp._search_bound(dist, horizon)
            got = dp._final_count_tail(dist, horizon, bound)
            want = step_by_step_tail(dist, horizon, bound)
            assert got.shape == want.shape
            seen = want > 1e-300
            assert np.all(np.abs(got - want)[seen] <= self.TAIL_RTOL * want[seen]), (
                dist.support_max, horizon)
            assert np.all(got[~seen] <= 1e-290)
        assert len(cases) >= 140

    def test_search_work_stays_inside_what_the_limit_charges(self, monkeypatch):
        # _check_work charges a search horizon x (bound + 1) x (support + 1)
        # multiply-adds, the cost of one convolution per step.  The squarings
        # and products convolve arrays that the bound truncates; on this grid
        # they spend at most about 0.8 of the charge (searches of up to 1e8
        # multiply-adds, so that the test stays short).
        work = []
        convolve = np.convolve

        def measuring(a, b, *args):
            work.append(len(a) * len(b))
            return convolve(a, b, *args)

        monkeypatch.setattr(dp.np, "convolve", measuring)
        rng = np.random.default_rng(20)
        dists = [poisson_truncated(float(lam)) for lam in 10.0 ** rng.uniform(-4, 1.5, 12)]
        dists += [RARE_FAR_BATCH, from_pmf([(1, 1.0)]), *sparse_pmfs(rng, 8, 200)]
        worst = 0.0
        for dist in dists:
            for horizon in (1, 2, 3, 7, 30, 90, 255, 256, 720, 1023):
                bound = dp._search_bound(dist, horizon)
                charged = horizon * (bound + 1) * (dist.support_max + 1)
                if charged > 10**8:
                    continue
                work.clear()
                dp._final_count_tail(dist, horizon, bound)
                assert sum(work) <= charged, (dist.support_max, horizon)
                worst = max(worst, sum(work) / charged)
        assert worst > 0.5


def full_table_solve(config):
    """Reference: backward induction in values net of the elapsed cost over
    every count up to the cap, at every step, with no stop.

    The continuation is solve's one product, with the step cost as a last
    cell of -ratio weighed by 1.0, so its bits are solve's.
    """
    horizon, cap, ratio = config.horizon, config.max_count, config.ratio
    probs = np.asarray(config.dist.probabilities)
    n = np.arange(1, cap + 1)
    benefit = (n - 1) / n

    values = np.empty((horizon + 1, cap + 1))
    values[:, 0] = -ratio
    actions = np.zeros((horizon + 1, cap + 1), dtype=bool)
    values[horizon, 1:] = benefit
    actions[horizon, 1:] = True

    next_idx = np.zeros((cap, probs.size + 1), dtype=np.intp)
    next_idx[:, :-1] = np.minimum(n[:, None] + np.arange(probs.size), cap)
    weights = np.append(probs, 1.0)
    for k in range(horizon - 1, -1, -1):
        continuation = values[k + 1][next_idx] @ weights
        release = benefit >= continuation
        actions[k, 1:] = release
        values[k, 1:] = np.where(release, benefit, continuation)
    return values, actions


def actions_by_reward(config):
    """Second reference: the action table of backward induction in the
    rewards themselves, as solve ran before its values were net of the
    elapsed cost, over every count up to the cap.  Only the values of one
    step are kept."""
    horizon, cap, ratio = config.horizon, config.max_count, config.ratio
    probs = np.asarray(config.dist.probabilities)
    n = np.arange(1, cap + 1)
    benefit = (n - 1) / n

    actions = np.zeros((horizon + 1, cap + 1), dtype=bool)
    actions[horizon, 1:] = True
    values = np.empty(cap + 1)
    values[1:] = benefit - ratio * horizon

    next_idx = np.minimum(n[:, None] + np.arange(probs.size), cap)
    for k in range(horizon - 1, -1, -1):
        continuation = values[next_idx] @ probs
        release_value = benefit - ratio * k
        release = release_value >= continuation
        actions[k, 1:] = release
        values[1:] = np.where(release, release_value, continuation)
    return actions


def assert_reward_actions_differ_only_at_ties(solution):
    """The reward induction's actions equal solve's at every state where
    solve's values do not show a tie: where solve differs from the
    threshold rule there, compare_with_threshold flags it, and where solve
    agrees with the rule, split_ties' recomputation of the same gap does.
    Returns the number of states where the two differ."""
    config = solution.config
    horizon = config.horizon
    actions = np.ones((horizon, config.max_count + 1), dtype=bool)
    actions[:, : solution.actions.shape[1]] = solution.actions[:horizon]
    differ = [(int(k), int(n)) for k, n in np.argwhere(
        actions != actions_by_reward(config)[:horizon])]
    if differ:
        real, _ = split_ties(solution, differ)
        assert real == [], (config, real[:5])
        threshold = compute_threshold(config.dist, config.ratio)
        flagged = {(k, n): tie for k, n, tie in compare_with_threshold(solution, threshold)}
        assert all(flagged.get(state, True) for state in differ), config
    return len(differ)


def table_digests(values, actions):
    return hashlib.sha256(values.tobytes()).hexdigest(), hashlib.sha256(actions.tobytes()).hexdigest()


def full_tables(solution):
    """The (horizon + 1) x (max_count + 1) tables: solve's stored columns, and
    release at (n - 1)/n past them, made with solve's operations."""
    config = solution.config
    n = np.arange(1, config.max_count + 1)
    values = np.empty((config.horizon + 1, n.size + 1))
    values[:, 1:] = (n - 1) / n
    values[:, : solution.values.shape[1]] = solution.values
    actions = np.ones(values.shape, dtype=bool)
    actions[:, : solution.actions.shape[1]] = solution.actions
    return values, actions


def full_solution(solution):
    return DpSolution(solution.config, *full_tables(solution))


def largest_benchmarked_config():
    """Rate 2 over 720 steps at ratio 0.005, with dp-verify's cap of 1674."""
    dist = poisson_truncated(2.0)
    threshold = compute_threshold(dist, 0.005)
    cap = max(suggest_max_count(dist, 720), threshold.n_star + dist.support_max)
    return DpConfig(720, cap, dist, 0.005)


def traced_solve(config):
    """(solution, tracemalloc peak of the solve in bytes)."""
    tracemalloc.start()
    try:
        solution = solve(config)
        return solution, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def induction_rows(config):
    """The counts solve runs its induction over, by solve's own rule."""
    if config.ratio > 4 * dp._comparison_bound(config):
        floor = dp._release_floor(config.dist, config.ratio)
        return min(-(-(floor - 1) // 8) * 8, config.max_count)
    return config.max_count


def closed_form_runs(config):
    return induction_rows(config) < config.max_count


class TestClosedFormReleaseRegion:
    def test_floor_is_the_smallest_count_of_the_bound(self):
        for dist in (BERNOULLI, RARE_FAR_BATCH, poisson_truncated(2.0), from_pmf([(0, 1.0)])):
            s = dist.support_max
            for ratio in (5e-324, 1e-300, 1e-12, 0.005, 1.0 / 24.0, 0.3, 1.0, 1e308):
                floor = dp._release_floor(dist, ratio)
                exact = Fraction(ratio)
                assert floor >= 1
                assert exact * floor * (floor + s) >= 2 * s
                if floor > 1:
                    assert exact * (floor - 1) * (floor - 1 + s) < 2 * s
        # The figure the bound was stated with: 48 = 2s / ratio for Bernoulli.
        assert dp._release_floor(BERNOULLI, 1.0 / 24.0) == 7

    def test_same_bits_as_the_full_table(self):
        rng = np.random.default_rng(21)
        configs = [
            # The exact tie of the CLI tests at n = 3, where the closed form
            # starts at 8.
            DpConfig(100, 80, BERNOULLI, 0.041666666666666664),
            DpConfig(720, 192, poisson_truncated(1.0 / 6.0), 0.005),
            DpConfig(720, 1674, poisson_truncated(2.0), 0.005),
            DpConfig(3, 12, BERNOULLI, 0.0),
            DpConfig(3, 12, BERNOULLI, 5e-324),
            DpConfig(50, 60, poisson_truncated(0.3), 0.0),
            DpConfig(720, 1, from_pmf([(0, 1.0)]), 0.005),
            DpConfig(5, 1, from_pmf([(0, 1.0)]), 0.0),
            DpConfig(100, suggest_max_count(RARE_FAR_BATCH, 100), RARE_FAR_BATCH, 0.01),
        ]
        dists = [poisson_truncated(float(lam)) for lam in 10.0 ** rng.uniform(-3, 0.7, 60)]
        dists += sparse_pmfs(rng, 40, 30)
        for dist in dists:
            horizon = int(10.0 ** rng.uniform(0, np.log10(400)))
            ratio = float(10.0 ** rng.uniform(-6, 0))
            cap = suggest_max_count(dist, horizon) + int(rng.integers(0, 40))
            configs.append(DpConfig(horizon, cap, dist, ratio))
        differing = 0
        for config in configs:
            solution = solve(config)
            assert table_digests(*full_tables(solution)) == table_digests(
                *full_table_solve(config)), config
            differing += assert_reward_actions_differ_only_at_ties(solution)
        # The reward induction waits at 48 of the exact tie's steps at n = 3.
        assert differing == 48
        assert closed_form_runs(configs[0]) and closed_form_runs(configs[1])
        assert not any(closed_form_runs(c) for c in configs[3:5])
        assert sum(map(closed_form_runs, configs)) >= 40

    def test_same_bits_at_the_tiny_ratio_tie_repro(self):
        # 387 ties near n* = 223607, and no checked row repeats its successor.
        dist = poisson_truncated(0.05)
        config = DpConfig(90, compute_threshold(dist, 1e-12).n_star + dist.support_max,
                          dist, 1e-12)
        assert not closed_form_runs(config)
        solution = solve(config)
        assert solution.settled is None
        assert assert_reward_actions_differ_only_at_ties(solution) > 0
        got = table_digests(solution.values, solution.actions)
        del solution
        assert got == table_digests(*full_table_solve(config))

    def test_same_bits_where_the_transition_clamps_at_the_cap(self):
        # Short horizons let the cap sit just above n* + s, so counts of the
        # induction reach past the cap in one step and next_idx clamps them;
        # caps above the induction's rows keep a closed-form region too.
        configs = []
        for dist, ratio in [
            (poisson_truncated(2.0), 0.05),
            (poisson_truncated(2.0), 0.5),
            (poisson_truncated(20.0), 0.05),
            (BERNOULLI, 1.0 / 24.0),
            (from_pmf([(0, 0.5), (3, 0.25), (7, 0.25)]), 0.1),
        ]:
            s = dist.support_max
            for horizon in (1, 2, 3):
                rows = induction_rows(DpConfig(horizon, 4096, dist, ratio))
                low = max(compute_threshold(dist, ratio).n_star + s,
                          suggest_max_count(dist, horizon))
                configs += [DpConfig(horizon, cap, dist, ratio)
                            for cap in range(low, rows + s + 2)]
        # The floor rounds up to the cap itself at a wide pmf (s = 59): the
        # induction covers every count, and each clamps past row 69.
        wide = DpConfig(3, 128, poisson_truncated(20.0), 0.005)
        assert induction_rows(wide) == wide.max_count
        configs.append(wide)
        differing = {}
        for config in configs:
            solution = solve(config)
            assert table_digests(*full_tables(solution)) == table_digests(
                *full_table_solve(config)), config
            differing[config] = assert_reward_actions_differ_only_at_ties(solution)
        # Both pmfs tie exactly at n = 3: g(3) = 1/24 for Bernoulli and 0.1
        # for {0: .5, 3: .25, 7: .25}.  The reward induction waits at one
        # such state in 30 of these solves.
        tied = [c for c, d in differing.items() if d]
        assert {c.dist.support_max for c in tied} == {1, 7}
        assert [differing[c] for c in tied] == [1] * 30
        clamped = [c for c in configs if induction_rows(c) + c.dist.support_max > c.max_count]
        assert sum(map(closed_form_runs, clamped)) >= 40

    def test_an_empty_induction_block(self, tmp_path):
        # Release is optimal from one vehicle on, so no count is induced: the
        # tables hold the padding column and the values of one batch.
        wide = from_pmf([(0, 0.25), (3, 0.5), (7, 0.25)])
        for config in (
            DpConfig(5, 1, from_pmf([(0, 1.0)]), 0.005),
            DpConfig(5, 50, from_pmf([(0, 1.0)]), 0.005),
            DpConfig(5, 6, BERNOULLI, 1.0),
            DpConfig(30, suggest_max_count(wide, 30), wide, 7.0),
        ):
            solution = solve(config)
            width = min(config.dist.support_max, config.max_count)
            assert solution.actions.shape == (config.horizon + 1, 1)
            assert solution.values.shape == (config.horizon + 1, width + 1)
            full = DpSolution(config, *full_table_solve(config))
            assert table_digests(*full_tables(solution)) == table_digests(
                full.values, full.actions)
            for n_star in (1, 3, None):
                threshold = Threshold(n_star, config.ratio, config.dist)
                got = compare_with_threshold(solution, threshold)
                assert states(got) == argwhere_mismatches(full, threshold)
                assert got == two_step_verdict(solution, threshold)
            path = tmp_path / "actions.csv"
            write_action_table(solution, str(path))
            assert path.read_bytes() == per_state_action_table(full)

    def test_the_largest_benchmarked_solve_allocates_only_its_tables(self):
        # Besides its tables the solve holds about 0.15 MB, mostly numpy's
        # buffers for the prefill; a temporary as large as a table up to
        # the cap, such as a prefill computed before it is copied in, would
        # take 9.7 MB more.
        solution, peak = traced_solve(largest_benchmarked_config())
        assert solution.config.max_count == 1674
        assert peak < solution.values.nbytes + solution.actions.nbytes + 1e6

    def test_the_largest_benchmarked_solve_peaks_below_a_megabyte(self):
        # Values for the 80 induced counts and one batch of 18 past them,
        # 0.57 MB, and actions for the 80, 0.06 MB: tables up to the cap of
        # 1674 would take 10.9 MB.
        solution, peak = traced_solve(largest_benchmarked_config())
        assert solution.values.shape == (721, 99) and solution.actions.shape == (721, 81)
        assert peak < 1e6


class TestFixedPoint:
    """Every induction step applies the same map to the values after it, so
    solve stops where a row repeats its successor."""

    def test_a_busy_hour_settles_near_the_deadline(self):
        # The benchmarked rate 2 over an hour: the values stop changing
        # within 48 steps of the deadline, where the check every 16 steps
        # finds them at step 672.  A solve that ran every step would
        # report no settled step.
        solution = solve(largest_benchmarked_config())
        assert solution.settled is not None and solution.settled >= 600
        settled = solution.settled
        assert (solution.values[:settled] == solution.values[settled]).all()
        assert (solution.actions[:settled] == solution.actions[settled]).all()

    def test_row_zero_does_not_depend_on_the_horizon(self):
        # The map never reads k, so a settled solve has the same first row
        # at a horizon twice as long.
        dist = poisson_truncated(1.0)
        cap = compute_threshold(dist, 0.005).n_star + dist.support_max
        short, long = (solve(DpConfig(h, cap, dist, 0.005)) for h in (180, 360))
        assert short.settled is not None and long.settled is not None
        assert long.settled - short.settled == 180
        assert short.values[0].tobytes() == long.values[0].tobytes()
        assert short.actions[0].tobytes() == long.actions[0].tobytes()

    def test_no_repeat_leaves_settled_empty(self):
        # Fewer than 16 steps are never checked, and at rate 0.05 the values
        # still change 90 steps before the deadline.
        dist = poisson_truncated(0.05)
        assert solve(DpConfig(15, 1, dist, 0.005)).settled is None
        assert solve(DpConfig(90, 1, dist, 0.01)).settled is None


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


def per_state_action_table(solution):
    """The action table as one f-string per state, the writer's reference."""
    return ("k,n,action\r\n" + "".join(
        f"{k},{n},{'release' if act else 'wait'}\r\n"
        for k, row in enumerate(solution.actions[:, 1:])
        for n, act in enumerate(row.tolist(), 1)
    )).encode()


def hand_built(actions):
    """A solution whose (horizon + 1) x max_count action table is `actions`."""
    actions = np.asarray(actions, dtype=bool)
    table = np.zeros((actions.shape[0], actions.shape[1] + 1), dtype=bool)
    table[:, 1:] = actions
    config = DpConfig(actions.shape[0] - 1, actions.shape[1], from_pmf([(0, 1.0)]), 0.005)
    return DpSolution(config, np.full(table.shape, np.nan), table)


def threshold_table(horizon, cap, n_star):
    actions = np.broadcast_to(np.arange(1, cap + 1) >= n_star, (horizon + 1, cap)).copy()
    actions[horizon] = True
    return actions


class TestActionTableWriter:
    """The row-at-a-time writer gives the per-state writer's bytes."""

    def written(self, tmp_path, solution):
        path = tmp_path / "actions.csv"
        write_action_table(solution, str(path))
        return path.read_bytes()

    # Horizon 1 and cap 1; caps where n gains a digit; horizons where k does.
    @pytest.mark.parametrize("horizon, cap", [
        (1, 1), (1, 9), (3, 1), (2, 9), (2, 10), (2, 99), (2, 100), (2, 101),
        (9, 4), (10, 4), (11, 12), (99, 3), (100, 3), (101, 11),
    ])
    def test_threshold_all_release_and_all_wait_tables(self, tmp_path, horizon, cap):
        for actions in (
            threshold_table(horizon, cap, (cap + 1) // 2),
            np.ones((horizon + 1, cap), dtype=bool),
            np.zeros((horizon + 1, cap), dtype=bool),
        ):
            solution = hand_built(actions)
            assert self.written(tmp_path, solution) == per_state_action_table(solution)

    def test_random_tables_whose_rows_alternate_and_repeat(self, tmp_path):
        rng = np.random.default_rng(2121)
        repeats = changes = 0
        for _ in range(20):
            horizon = int(rng.integers(1, 130))
            cap = int(rng.integers(1, 130))
            # Rows drawn from a pool of three, in runs of one to four.
            pool = rng.random((3, cap)) < rng.uniform(0.1, 0.9)
            picks = np.repeat(rng.integers(0, 3, size=horizon + 1),
                              rng.integers(1, 5, size=horizon + 1))
            actions = pool[picks[: horizon + 1]]
            changed = (actions[1:] != actions[:-1]).any(axis=1)
            repeats += int((~changed).sum())
            changes += int(changed.sum())
            solution = hand_built(actions)
            assert self.written(tmp_path, solution) == per_state_action_table(solution)
        assert repeats > 100 and changes > 100

    def test_random_tables_with_every_row_drawn_afresh(self, tmp_path):
        rng = np.random.default_rng(2122)
        for horizon, cap in [(1, 1), (1, 7), (12, 1), (40, 33), (105, 101)]:
            solution = hand_built(rng.random((horizon + 1, cap)) < 0.5)
            assert self.written(tmp_path, solution) == per_state_action_table(solution)

    def test_a_solved_table_at_rate_2(self, tmp_path):
        dist = poisson_truncated(2.0)
        threshold = compute_threshold(dist, 0.005)
        cap = max(suggest_max_count(dist, 90), threshold.n_star + dist.support_max)
        solution = solve(DpConfig(90, cap, dist, 0.005))
        assert self.written(tmp_path, solution) == per_state_action_table(
            full_solution(solution))

    def test_the_largest_benchmarked_table_is_written_in_little_memory(self, tmp_path):
        # Rate 2 over 720 steps: a 20.7 MB table.  The writer holds about a
        # row at a time, 0.2-0.4 MB of Python allocations; one string for
        # the whole file would take over 20 MB.
        solution = solve(largest_benchmarked_config())
        cap = solution.config.max_count
        path = tmp_path / "actions.csv"
        tracemalloc.start()
        try:
            write_action_table(solution, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cap == 1674 and path.stat().st_size > 20e6
        assert peak < 2e6
