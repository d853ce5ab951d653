"""Hour simulation semantics, determinism, and Monte-Carlo aggregation."""
import dataclasses
import functools
import math
import operator
import sys

import numpy as np
import pytest

from hubrelease import sim
from hubrelease.policies import (
    NonCausalPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
    make_policy,
)
from hubrelease.sim import (
    HourResult,
    SimConfig,
    monte_carlo,
    per_vehicle_utility,
    run_episode_hour,
    sweep,
)
from hubrelease.stopping import release_reward

RATIO = 0.005
OPERATING = SimConfig(lam=1.0 / 6.0, ratio=RATIO, policy=ThresholdPolicy(6),
                      samples=20, master_seed=99)


def config(policy, lam=1.0 / 6.0, **kwargs):
    kwargs.setdefault("samples", 20)
    kwargs.setdefault("master_seed", 99)
    return SimConfig(lam=lam, ratio=RATIO, policy=policy, **kwargs)


def same_hour(a: HourResult, b: HourResult) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(HourResult)
    )


class TestHourSemantics:
    def test_conservation_every_vehicle_released_once(self):
        for policy in (ThresholdPolicy(6), PeriodicPolicy(60), PeriodicPolicy(1),
                       NonCausalPolicy()):
            result = run_episode_hour(config(policy), 0)
            assert result.vehicle_wait.size == result.arrivals.sum()
            assert result.platoon_size.sum() == result.arrivals.sum()

    def test_exactly_one_lead_per_platoon_and_it_arrived_first(self):
        result = run_episode_hour(OPERATING, 3)
        # Vehicles are in arrival order, so each platoon's members are one
        # run whose first vehicle must be its only lead.
        starts = np.cumsum(result.platoon_size) - result.platoon_size
        assert np.flatnonzero(result.vehicle_is_lead).tolist() == starts.tolist()
        members = np.cumsum(result.vehicle_is_lead) - 1
        release = result.platoon_release_step[members]
        arrival = np.repeat(np.arange(result.arrivals.size), result.arrivals)
        assert np.array_equal(release - result.vehicle_wait, arrival)
        assert np.all(np.diff(release) >= 0)

    def test_release_never_precedes_arrival(self):
        result = run_episode_hour(OPERATING, 1)
        assert np.all(result.vehicle_wait >= 0)

    def test_zero_rate_single_forced_release_at_the_last_step(self):
        cfg = config(ThresholdPolicy(6), lam=0.0)
        result = run_episode_hour(cfg, 0)
        assert result.arrivals[0] == 1 and result.arrivals.sum() == 1
        assert result.platoon_release_step.tolist() == [cfg.horizon_steps - 1]
        assert result.platoon_size.tolist() == [1]
        assert result.platoon_forced.tolist() == [True]

    def test_threshold_crossing_sets_platoon_size(self):
        result = run_episode_hour(OPERATING, 7)
        hour_max_batch = max(result.arrivals[1:])
        crossing = ~result.platoon_forced & (result.platoon_release_step != 0)
        assert crossing.any()
        assert np.all(6 <= result.platoon_size[crossing])
        assert np.all(result.platoon_size[crossing] <= 5 + hour_max_batch)

    def test_spontaneous_releases_vehicles_the_step_they_arrive(self):
        result = run_episode_hour(config(PeriodicPolicy(1)), 2)
        assert np.all(result.vehicle_wait == 0)

    def test_periodic_wait_stays_below_the_period(self):
        result = run_episode_hour(config(PeriodicPolicy(60)), 4)
        assert np.all(result.vehicle_wait < 60)

    def test_periodic_release_count_fills_the_hour(self):
        # With lam = 1 every 60-step interval is occupied almost surely.
        result = run_episode_hour(config(PeriodicPolicy(60), lam=1.0), 0)
        assert result.platoon_release_step.tolist() == list(range(59, 720, 60))
        assert not result.platoon_forced.any()

    def test_episode_clock_resets_after_each_release(self):
        result = run_episode_hour(OPERATING, 5)
        previous_release = -1
        for start, release in zip(result.platoon_episode_start,
                                  result.platoon_release_step):
            assert start == previous_release + 1
            assert release >= start
            previous_release = release

    def test_empty_fires_restart_the_episode_clock(self):
        # Periodic fires on an empty hub still start a new episode.
        result = run_episode_hour(config(PeriodicPolicy(60), lam=0.01), 0)
        assert np.all(result.platoon_episode_start % 60 == 0)
        assert np.all(result.platoon_release_step - result.platoon_episode_start < 60)

    def test_never_release_threshold_forces_one_end_platoon(self):
        result = run_episode_hour(config(ThresholdPolicy(None)), 0)
        assert result.platoon_forced.tolist() == [True]
        assert result.platoon_size.tolist() == [result.arrivals.sum()]

    def test_bitwise_deterministic_under_fixed_seed(self):
        a = run_episode_hour(OPERATING, 11)
        b = run_episode_hour(OPERATING, 11)
        assert same_hour(a, b)

    def test_samples_differ(self):
        assert not same_hour(run_episode_hour(OPERATING, 0), run_episode_hour(OPERATING, 1))

    def test_cell_index_separates_streams(self):
        base = run_episode_hour(OPERATING, 0)
        other = run_episode_hour(dataclasses.replace(OPERATING, cell_index=5), 0)
        assert not same_hour(base, other)

    def test_initial_rate_override(self):
        # Forcing the zero-rate limit pins the initial count to one vehicle.
        cfg = dataclasses.replace(OPERATING, initial_lam=0.0)
        for i in range(10):
            assert run_episode_hour(cfg, i).arrivals[0] == 1


def _best_release(arrivals, start, ratio):
    """Earliest reward-maximizing step of the episode from `start`, by scan."""
    best, best_reward, count = None, 0.0, 0
    for step in range(start, len(arrivals)):
        count += arrivals[step]
        if count >= 1:
            reward = release_reward(count, step - start, ratio)
            if best is None or reward > best_reward:
                best, best_reward = step, reward
    return best


def step_loop_hour(arrivals, policy, ratio):
    """Reference: decide step by step and record every platoon and vehicle."""
    horizon = len(arrivals)
    target = _best_release(arrivals, 0, ratio)
    pending, episode_start, platoons, vehicles = [], 0, [], []
    for k in range(horizon):
        pending.extend([k] * arrivals[k])
        if isinstance(policy, ThresholdPolicy):
            fire = policy.n_star is not None and len(pending) >= policy.n_star
        elif isinstance(policy, PeriodicPolicy):
            fire = (k + 1) % policy.period_steps == 0
        else:
            fire = k == target
        last = k == horizon - 1
        if (fire or last) and pending:
            platoons.append((k, len(pending), episode_start, not fire))
            vehicles.extend((k - a, i == 0) for i, a in enumerate(pending))
            pending = []
        if fire:
            episode_start = k + 1
            target = _best_release(arrivals, k + 1, ratio)
    return platoons, vehicles


def simulate_rows(cfg, samples):
    """Rows 0..samples-1 of cfg's arrival matrix, simulated together."""
    distributions = sim._cell_distributions(cfg.lam, cfg.initial_lam)
    arrivals = sim._draw_arrivals(cfg, distributions, 0, samples)
    cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
    return arrivals, sim._simulate(cfg.policy, arrivals, cumulative, cfg.ratio)


def split_hours(hours: HourResult) -> list:
    """Each hour of an HourResult as (platoons, vehicles), in its own steps.

    Platoons and vehicles are listed as ``step_loop_hour`` lists them.
    """
    rows = hours.vehicles.size
    horizon = hours.arrivals.size // rows
    assert np.array_equal(hours.vehicles, hours.arrivals.reshape(rows, horizon).sum(axis=1))
    assert hours.platoons.sum() == hours.platoon_size.size
    assert hours.vehicles.sum() == hours.vehicle_wait.size
    out, platoon, vehicle = [], 0, 0
    for r, (n_platoons, n_vehicles) in enumerate(
            zip(hours.platoons.tolist(), hours.vehicles.tolist())):
        p = slice(platoon, platoon + n_platoons)
        v = slice(vehicle, vehicle + n_vehicles)
        out.append((
            list(zip((hours.platoon_release_step[p] - r * horizon).tolist(),
                     hours.platoon_size[p].tolist(),
                     (hours.platoon_episode_start[p] - r * horizon).tolist(),
                     hours.platoon_forced[p].tolist())),
            list(zip(hours.vehicle_wait[v].tolist(), hours.vehicle_is_lead[v].tolist())),
        ))
        platoon, vehicle = platoon + n_platoons, vehicle + n_vehicles
    return out


STEP_LOOP_POLICIES = [
    ThresholdPolicy(3), ThresholdPolicy(1), ThresholdPolicy(None),
    PeriodicPolicy(7), PeriodicPolicy(1),
    PeriodicPolicy(90),  # fires on the last step of the 90-step hour
    NonCausalPolicy(),
]


class TestAgainstStepLoop:
    @pytest.mark.parametrize("policy", STEP_LOOP_POLICIES)
    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0])
    def test_columns_match_the_per_step_simulation(self, policy, lam):
        cfg = config(policy, lam=lam, horizon_steps=90)
        for i in range(5):
            hour = run_episode_hour(cfg, i)
            assert split_hours(hour) == [step_loop_hour(hour.arrivals.tolist(), policy, RATIO)]

    @pytest.mark.parametrize("policy", STEP_LOOP_POLICIES)
    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5, 2.0])
    def test_every_row_of_a_matrix_matches_the_per_step_simulation(self, policy, lam):
        cfg = config(policy, lam=lam, horizon_steps=90)
        arrivals, hours = simulate_rows(cfg, 6)
        assert np.array_equal(hours.arrivals, arrivals.ravel())
        for row_arrivals, hour in zip(arrivals.tolist(), split_hours(hours)):
            assert step_loop_hour(row_arrivals, policy, RATIO) == hour


# (policy, rate, config overrides): the edges of the cell kernel.
KERNEL_CASES = [
    (ThresholdPolicy(6), 1.0 / 6.0, {}),
    (ThresholdPolicy(2), 1.5, {"initial_lam": 0.0}),
    (ThresholdPolicy(None), 0.3, {}),
    (ThresholdPolicy(None), 0.3, {"include_forced_in_length": False}),
    (ThresholdPolicy(40), 0.05, {"horizon_steps": 45, "include_forced_in_length": False}),
    (PeriodicPolicy(60), 0.05, {"initial_lam": 3.0}),
    (PeriodicPolicy(100), 0.5, {"horizon_steps": 45}),
    (PeriodicPolicy(100), 0.5, {"horizon_steps": 45, "include_forced_in_length": False}),
    (PeriodicPolicy(1), 0.7, {"include_forced_in_length": False}),
    (NonCausalPolicy(), 1.0 / 6.0, {}),
    (NonCausalPolicy(), 0.2, {"ratio": 0.0}),
    (NonCausalPolicy(), 0.5, {"ratio": 0.15, "initial_lam": 0.01}),
] + [
    (policy, lam, extra)
    for policy in (ThresholdPolicy(6), PeriodicPolicy(7), PeriodicPolicy(1),
                   NonCausalPolicy())
    for lam, extra in ((0.0, {}), (0.4, {"horizon_steps": 1}),
                       (0.4, {"horizon_steps": 1, "include_forced_in_length": False}))
]


def kernel_config(policy, lam, extra, samples=11):
    return dataclasses.replace(config(policy, lam=lam, samples=samples), **extra)


def per_hour_summary(cfg):
    """Reference: the per-hour loop over run_episode_hour, with explicit left folds."""
    fold = functools.partial(functools.reduce, operator.add)
    ratio = cfg.ratio
    utility, wait, length, episode = [], [], [], []
    vehicles = platoons = length_count = 0
    sample_utility, sample_wait, sample_length, sample_episode = [], [], [], []
    for i in range(cfg.samples):
        hour = run_episode_hour(cfg, i)
        n = hour.vehicle_wait.size
        lengths = hour.platoon_size
        if not cfg.include_forced_in_length:
            lengths = lengths[~hour.platoon_forced]
        u = fold(per_vehicle_utility(hour.vehicle_wait, hour.vehicle_is_lead,
                                     ratio).tolist(), 0.0)
        e = fold(release_reward(hour.platoon_size,
                                hour.platoon_release_step - hour.platoon_episode_start,
                                ratio).tolist(), 0.0)
        w, l = int(hour.vehicle_wait.sum()), int(lengths.sum())
        utility.append(u)
        wait.append(w)
        length.append(l)
        episode.append(e)
        sample_utility.append(u / n)
        sample_wait.append(w / n)
        sample_length.append(l / lengths.size if lengths.size else math.nan)
        sample_episode.append(e / n)
        vehicles += n
        platoons += hour.platoon_size.size
        length_count += lengths.size
    half = sim._half_width
    return sim.MetricsSummary(
        mean_utility=fold(utility, 0.0) / vehicles,
        ci_utility=half(np.array(sample_utility)),
        mean_platoon_len=fold(length, 0.0) / length_count if length_count else math.nan,
        ci_platoon_len=half(np.array(sample_length)),
        mean_wait_steps=fold(wait, 0.0) / vehicles,
        ci_wait_steps=half(np.array(sample_wait)),
        mean_episode_utility=fold(episode, 0.0) / vehicles,
        ci_episode_utility=half(np.array(sample_episode)),
        samples=cfg.samples,
        vehicles=vehicles,
        platoons=platoons,
    )


def chunk_items(cfg, rows):
    """A value of sim._CHUNK_ITEMS that makes chunks of `rows` rows for cfg."""
    return (rows + 0.5) * sim._row_items(cfg.horizon_steps, cfg.lam, cfg.initial_lam)


class TestCellKernel:
    @pytest.mark.parametrize("policy,lam,extra", KERNEL_CASES)
    def test_rows_together_match_each_row_alone(self, policy, lam, extra):
        cfg = kernel_config(policy, lam, extra)
        arrivals, hours = simulate_rows(cfg, cfg.samples)
        for i, hour in enumerate(split_hours(hours)):
            alone = run_episode_hour(cfg, i)
            assert np.array_equal(arrivals[i], alone.arrivals)
            assert [hour] == split_hours(alone)

    @pytest.mark.parametrize("policy,lam,extra", KERNEL_CASES)
    def test_metrics_equal_the_per_hour_fold(self, policy, lam, extra):
        cfg = kernel_config(policy, lam, extra)
        assert repr(monte_carlo(cfg)) == repr(per_hour_summary(cfg))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("policy,lam,extra", KERNEL_CASES)
    def test_chunking_leaves_every_bit(self, monkeypatch, rows, policy, lam, extra):
        cfg = kernel_config(policy, lam, extra)
        whole = repr(monte_carlo(cfg))
        chunks = []
        draw = sim._draw_arrivals

        def spy(config, distributions, first, stop):
            chunks.append(stop - first)
            return draw(config, distributions, first, stop)

        monkeypatch.setattr(sim, "_draw_arrivals", spy)
        monkeypatch.setattr(sim, "_CHUNK_ITEMS", 1 if rows == 1 else chunk_items(cfg, rows))
        assert repr(monte_carlo(cfg)) == whole
        assert chunks == [rows] * (cfg.samples // rows) + [cfg.samples % rows] * (
            cfg.samples % rows > 0)

    def test_sweep_draws_each_rate_once_and_matches_single_cells(self, monkeypatch):
        draws = []
        draw = sim._draw_arrivals

        def spy(config, distributions, first, stop):
            draws.append(config.cell_index)
            return draw(config, distributions, first, stop)

        monkeypatch.setattr(sim, "_draw_arrivals", spy)
        rows = sweep([0.0, 0.1, 0.4], ["threshold", "periodic", "spontaneous",
                                        "non_causal"],
                     ratio=RATIO, samples=7, horizon_steps=50, master_seed=4,
                     initial_lam=0.2, include_forced_in_length=False, period_steps=9)
        assert draws == [0, 1, 2]
        monkeypatch.setattr(sim, "_draw_arrivals", draw)
        for row in rows:
            cfg = SimConfig(
                lam=row.lam, ratio=RATIO,
                policy=make_policy(row.policy, row.n_star, 9), horizon_steps=50,
                samples=7, master_seed=4, initial_lam=0.2, include_forced_in_length=False,
                cell_index=[0.0, 0.1, 0.4].index(row.lam),
            )
            assert repr(row.metrics) == repr(monte_carlo(cfg))

    def test_rows_without_an_unforced_platoon_have_no_length(self):
        cfg = kernel_config(ThresholdPolicy(None), 0.3, {"include_forced_in_length": False})
        metrics = monte_carlo(cfg)
        assert math.isnan(metrics.mean_platoon_len)
        assert metrics.ci_platoon_len == 0.0
        assert metrics.platoons == cfg.samples


class TestNonCausalHour:
    def test_every_episode_beats_the_threshold_rule_pathwise(self):
        cfg = config(NonCausalPolicy())
        for i in range(10):
            result = run_episode_hour(cfg, i)
            arrivals = result.arrivals.tolist()
            for start, release, size in zip(result.platoon_episode_start.tolist(),
                                            result.platoon_release_step.tolist(),
                                            result.platoon_size.tolist()):
                chosen = release_reward(size, release - start, RATIO)
                # Any feasible single release in the episode window scores <= chosen.
                count = 0
                for step in range(start, release + 1):
                    count += arrivals[step]
                    if count >= 1:
                        alternative = release_reward(count, step - start, RATIO)
                        assert chosen >= alternative

    def test_kept_vehicles_match_episode_arrivals(self):
        result = run_episode_hour(config(NonCausalPolicy()), 6)
        for start, release, size in zip(result.platoon_episode_start,
                                        result.platoon_release_step,
                                        result.platoon_size):
            assert size == result.arrivals[start:release + 1].sum()


class TestUtilityAccounting:
    def test_lead_gets_no_benefit(self):
        utility = per_vehicle_utility(np.array([7]), np.array([True]), RATIO)
        assert utility.tolist() == [pytest.approx(-0.035)]

    def test_follower_gets_full_benefit_minus_wait(self):
        utility = per_vehicle_utility(np.array([40]), np.array([False]), RATIO)
        assert utility.tolist() == [pytest.approx(1.0 - 0.2)]

    def test_instant_release_is_free(self):
        utility = per_vehicle_utility(np.array([0]), np.array([False]), RATIO)
        assert utility.tolist() == [1.0]

    def test_platoon_episode_reward_uses_episode_clock(self):
        # Three vehicles released at step 30 of an episode that began at step 10.
        assert release_reward(3, 30 - 10, RATIO) == pytest.approx(2 / 3 - 0.1)
        cfg = config(PeriodicPolicy(60), lam=0.05, samples=1)
        hour = run_episode_hour(cfg, 0)
        assert hour.platoon_episode_start[1:].min() > 0
        rewards = [
            release_reward(int(size), int(release - start), RATIO)
            for size, release, start in zip(hour.platoon_size,
                                            hour.platoon_release_step,
                                            hour.platoon_episode_start)
        ]
        expected = sum(rewards) / hour.vehicle_wait.size
        assert monte_carlo(cfg).mean_episode_utility == expected


class TestMonteCarlo:
    def test_spontaneous_wait_is_exactly_zero(self):
        metrics = monte_carlo(config(PeriodicPolicy(1), samples=50))
        assert metrics.mean_wait_steps == 0.0
        assert metrics.ci_wait_steps == 0.0

    def test_spontaneous_platoon_length_matches_conditional_mean(self):
        lam = 1.0 / 6.0
        metrics = monte_carlo(config(PeriodicPolicy(1), samples=400))
        expected = lam / -math.expm1(-lam)  # E[X | X >= 1]
        assert abs(metrics.mean_platoon_len - expected) <= 3 * max(
            metrics.ci_platoon_len, 1e-3
        )

    def test_periodic_low_rate_episode_reward_is_negative(self):
        # At low rates mostly-single platoons pay 59 steps of waiting for
        # almost no platooning gain, so the coordinator reward per release
        # is negative even once occasional pair-ups push the per-vehicle
        # metric back above zero.
        metrics = monte_carlo(config(PeriodicPolicy(60), lam=0.01, samples=150))
        assert metrics.mean_episode_utility < 0.0
        assert metrics.mean_utility > 0.0

    def test_periodic_zero_rate_utility_is_negative_under_both_accountings(self):
        metrics = monte_carlo(config(PeriodicPolicy(60), lam=0.0, samples=20))
        assert metrics.mean_utility == pytest.approx(-0.005 * 59)
        assert metrics.mean_episode_utility == pytest.approx(-0.005 * 59)

    def test_periodic_beats_threshold_per_vehicle_near_step_boundary(self):
        # Characterization: around rate 0.146 (where n_star drops to 5) the
        # periodic policy gathers ~9 vehicles per release, so its higher
        # follower share beats the threshold rule on the per-vehicle metric
        # even though the threshold rule wins the episode reward it actually
        # optimizes.  Shared arrival streams make the contrast sharp.
        lam = 7.0 / 48.0
        thr = monte_carlo(config(ThresholdPolicy(5), lam=lam, samples=400))
        per = monte_carlo(config(PeriodicPolicy(60), lam=lam, samples=400))
        assert per.mean_utility - thr.mean_utility > per.ci_utility + thr.ci_utility
        assert (
            thr.mean_episode_utility - per.mean_episode_utility
            > thr.ci_episode_utility + per.ci_episode_utility
        )

    def test_zero_rate_threshold_utility_zero(self):
        # n_star = 1 releases the lone vehicle at step 0.
        metrics = monte_carlo(config(ThresholdPolicy(1), lam=0.0, samples=5))
        assert metrics.mean_utility == 0.0
        assert metrics.mean_platoon_len == 1.0
        assert metrics.mean_wait_steps == 0.0
        assert metrics.vehicles == 5 and metrics.platoons == 5

    def test_totals_count_all_samples(self):
        cfg = config(ThresholdPolicy(6), samples=12)
        metrics = monte_carlo(cfg)
        direct_vehicles = sum(
            run_episode_hour(cfg, i).vehicle_wait.size for i in range(12)
        )
        assert metrics.vehicles == direct_vehicles
        assert metrics.samples == 12

    def test_forced_releases_can_be_dropped_from_length(self):
        keep = monte_carlo(config(ThresholdPolicy(6), samples=40))
        drop = monte_carlo(
            config(ThresholdPolicy(6), samples=40, include_forced_in_length=False)
        )
        # Forced horizon-end platoons are short, so dropping them raises the mean.
        assert drop.mean_platoon_len > keep.mean_platoon_len
        assert drop.mean_utility == keep.mean_utility

    def test_interval_shrinks_with_more_samples(self):
        small = monte_carlo(config(ThresholdPolicy(6), samples=20))
        large = monte_carlo(config(ThresholdPolicy(6), samples=320))
        assert large.ci_utility < small.ci_utility


class TestSweep:
    def test_rows_cover_the_grid_in_order(self):
        rows = sweep([0.0, 0.1], ["threshold", "spontaneous"], ratio=RATIO,
                     samples=5, horizon_steps=60, master_seed=1)
        assert [(r.lam, r.policy) for r in rows] == [
            (0.0, "threshold"), (0.0, "spontaneous"),
            (0.1, "threshold"), (0.1, "spontaneous"),
        ]

    def test_threshold_column_matches_direct_computation(self):
        from hubrelease.arrival import poisson_truncated
        from hubrelease.stopping import compute_threshold

        rows = sweep([0.05, 1.0 / 6.0], ["periodic"], ratio=RATIO,
                     samples=3, horizon_steps=60, master_seed=1)
        for row in rows:
            expected = compute_threshold(poisson_truncated(row.lam), RATIO)
            assert row.n_star == expected.n_star

    def test_same_rate_cells_share_arrivals(self):
        # Streams are keyed by the rate's grid position, not the policy.
        lam = 1.0 / 6.0
        a = run_episode_hour(
            SimConfig(lam=lam, ratio=RATIO, policy=ThresholdPolicy(6),
                      samples=1, master_seed=5, cell_index=2), 0)
        b = run_episode_hour(
            SimConfig(lam=lam, ratio=RATIO, policy=PeriodicPolicy(60),
                      samples=1, master_seed=5, cell_index=2), 0)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_invalid_policy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            sweep([0.1], ["optimal"], ratio=RATIO, samples=2, horizon_steps=30,
                  master_seed=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep([], ["threshold"], ratio=RATIO)

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ValueError, match="^policy_names must be non-empty$"):
            sweep([0.1], [], ratio=RATIO)


class TestConfigValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            SimConfig(lam=-0.1, ratio=RATIO, policy=ThresholdPolicy(6))

    @pytest.mark.parametrize("field", ["lam", "initial_lam"])
    def test_nan_rate_rejected(self, field):
        kwargs = {"lam": 0.1, field: math.nan}
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative"):
            SimConfig(ratio=RATIO, policy=ThresholdPolicy(6), **kwargs)

    @pytest.mark.parametrize("ratio", [-0.1, math.nan, math.inf])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="^ratio must be nonnegative and finite"):
            SimConfig(lam=0.1, ratio=ratio, policy=ThresholdPolicy(6))

    def test_hour_cost_is_bounded(self):
        # At the limit the widest spread of per-sample means, squared and
        # summed over the most samples a sweep holds, stays finite.
        most = sim.MAX_SWEEP_ITEMS // sim._SAMPLE_ITEMS
        assert most * (sim.MAX_HOUR_COST + 1) ** 2 < sys.float_info.max
        SimConfig(lam=0.1, ratio=1e147, policy=ThresholdPolicy(6), horizon_steps=1000)
        with pytest.raises(ValueError, match="^ratio 1e\\+149 x horizon_steps 50.*MAX_HOUR_COST"):
            SimConfig(lam=0.1, ratio=1e149, policy=ThresholdPolicy(6), horizon_steps=50,
                      samples=1)

    def test_largest_hour_cost_gives_finite_metrics(self):
        # An hour's cost of 5e149, just inside the limit: nothing overflows.
        rows = sweep([0.3], ["threshold", "periodic", "spontaneous", "non_causal"],
                     ratio=1e148, samples=5, horizon_steps=50, period_steps=7)
        for row in rows:
            assert all(math.isfinite(v) for v in dataclasses.astuple(row.metrics)), row

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(lam=0.1, ratio=RATIO, policy=ThresholdPolicy(6),
                      horizon_steps=0)

    def test_bad_sample_count_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            SimConfig(lam=0.1, ratio=RATIO, policy=ThresholdPolicy(6), samples=0)

    @pytest.mark.parametrize("field", ["master_seed", "cell_index"])
    def test_negative_stream_key_rejected(self, field):
        with pytest.raises(ValueError, match="^master_seed and cell_index must be nonnegative$"):
            SimConfig(lam=0.1, ratio=RATIO, policy=ThresholdPolicy(6), **{field: -1})

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ValueError, match="sample_index"):
            run_episode_hour(OPERATING, -1)

    def test_the_top_rate_hour_is_one_accepted_row(self):
        # 720 steps at rate 2e4: 1.44e7 steps and vehicles (not simulated here).
        SimConfig(lam=2e4, ratio=RATIO, policy=ThresholdPolicy(6), samples=1)
        SimConfig(lam=2e4, ratio=RATIO, policy=ThresholdPolicy(6), samples=1,
                  initial_lam=2e4)

    @pytest.mark.parametrize("horizon", [10**9, 10**400])
    def test_oversize_row_rejected(self, horizon):
        with pytest.raises(ValueError, match="MAX_ROW_ITEMS"):
            SimConfig(lam=0.1, ratio=RATIO, policy=ThresholdPolicy(6),
                      horizon_steps=horizon, samples=1)
        with pytest.raises(ValueError, match="MAX_ROW_ITEMS"):
            SimConfig(lam=2e4, ratio=RATIO, policy=ThresholdPolicy(6),
                      horizon_steps=750, samples=1)

    def test_sample_count_is_bounded_by_the_sweep_limit(self):
        # One step at rate 0: a row of 1 step and at most 1 + 1 vehicles.
        most = sim.MAX_SWEEP_ITEMS // (2 + sim._SAMPLE_ITEMS)
        SimConfig(lam=0.0, ratio=RATIO, policy=ThresholdPolicy(6), horizon_steps=1,
                  samples=most)
        for samples in (most + 1, 10**12, 10**400):
            with pytest.raises(ValueError, match="MAX_SWEEP_ITEMS"):
                SimConfig(lam=0.0, ratio=RATIO, policy=ThresholdPolicy(6),
                          horizon_steps=1, samples=samples)

    def test_sweep_size_counts_every_point(self):
        sim.check_sweep_size(50, 1000, 720, 1.0 / 6.0, None)
        with pytest.raises(ValueError, match="MAX_SWEEP_ITEMS"):
            sim.check_sweep_size(10**10, 1000, 720, 1.0 / 6.0, None)


class TestDistributionCaches:
    @pytest.mark.parametrize("initial_lam", [None, 0.0, 0.3])
    def test_a_sweep_builds_each_rate_once(self, monkeypatch, initial_lam):
        # The threshold and the simulated cells of a rate share its pmf.
        built = []
        build = sim.poisson_truncated

        def spy(lam):
            built.append(lam)
            return build(lam)

        monkeypatch.setattr(sim, "poisson_truncated", spy)
        grid = [0.0, 0.1, 0.2, 0.4]
        sweep(grid, ["threshold", "periodic"], ratio=RATIO, samples=3, horizon_steps=5,
              initial_lam=initial_lam)
        assert built == grid
