"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1-4, 6 and 8-10 are exact; 5 and 7 are Monte-Carlo shape and
ordering checks at 200 samples with 95% confidence-interval slack.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hubrelease.arrival import (
    ArrivalDistribution,
    poisson_truncated,
    substream,
    zero_truncated_poisson,
)
from hubrelease.cli import main
from hubrelease.dp import DpConfig, compare_with_threshold, solve, suggest_max_count
from hubrelease.ingest import HourlyCounts, to_lambda
from hubrelease.policies import (
    NonCausalPolicy,
    PeriodicPolicy,
    ThresholdPolicy,
)
from hubrelease import sim
from hubrelease.sim import HourResult, SimConfig, sweep
from hubrelease.stopping import (
    compute_threshold,
    one_step_lookahead,
    release_condition,
    release_reward,
)

RATIO = 0.005
HORIZON = 720
SAMPLES = 200
SEED = 2026
REFERENCE_RATE = 1.0 / 6.0

# Rates where the policy-ordering clause applies (all >= 0.02) plus the
# low-rate points where periodic release must lose money.
ORDERING_RATES = [float(v) for v in np.linspace(0.0, REFERENCE_RATE, 9)[1:]]
LOW_RATES = [0.0, 0.005, 0.01]
COMPARISON_RATES = LOW_RATES + ORDERING_RATES

SHAPE_GRID = [float(v) for v in np.linspace(0.0, REFERENCE_RATE, 100)]

ALL_POLICIES = ["threshold", "periodic", "spontaneous", "non_causal"]


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def comparison_rows():
    rows = sweep(
        COMPARISON_RATES,
        ALL_POLICIES,
        ratio=RATIO,
        samples=SAMPLES,
        horizon_steps=HORIZON,
        master_seed=SEED,
    )
    return {(row.lam, row.policy): row.metrics for row in rows}


@pytest.fixture(scope="module")
def shape_rows():
    rows = sweep(
        SHAPE_GRID,
        ["threshold", "spontaneous"],
        ratio=RATIO,
        samples=SAMPLES,
        horizon_steps=HORIZON,
        master_seed=SEED + 1,
    )
    threshold_rows = [row for row in rows if row.policy == "threshold"]
    spontaneous_rows = [row for row in rows if row.policy == "spontaneous"]
    return threshold_rows, spontaneous_rows


def test_criterion_01_reference_threshold():
    threshold = compute_threshold(poisson_truncated(REFERENCE_RATE), RATIO)
    _report(
        1,
        "threshold at the reference operating point",
        threshold.n_star == 6,
        f"n_star={threshold.n_star}, expected 6",
    )


def test_criterion_02_dp_oracle_equivalence():
    rates = [float(v) for v in np.linspace(0.01, REFERENCE_RATE, 7)]
    ratios = [0.001, 0.005, 0.02]
    configurations = 0
    mismatched = 0
    for lam in rates:
        dist = poisson_truncated(lam)
        cap = suggest_max_count(dist, HORIZON)
        for ratio in ratios:
            solution = solve(DpConfig(HORIZON, cap, dist, ratio))
            threshold = compute_threshold(dist, ratio)
            mismatched += len(compare_with_threshold(solution, threshold))
            configurations += 1
    _report(
        2,
        "dynamic-programming action table equals the threshold rule",
        configurations >= 20 and mismatched == 0,
        f"{configurations} configurations, {mismatched} mismatched states",
    )


def _random_distribution(rng: np.random.Generator) -> ArrivalDistribution:
    size = int(rng.integers(2, 7))
    counts = np.sort(rng.choice(np.arange(10), size=size, replace=False))
    weights = rng.random(size) + 0.05
    dense = [0.0] * (int(counts[-1]) + 1)
    total = math.fsum(weights)
    for count, weight in zip(counts, weights):
        dense[int(count)] = weight / total
    return ArrivalDistribution(tuple(dense))


def test_criterion_03_monotone_stopping_properties():
    rng = np.random.default_rng(424242)
    checked = 0
    violations = 0
    for _ in range(200):
        dist = _random_distribution(rng)
        ratio = float(10.0 ** rng.uniform(-4.0, -0.5))
        released = False
        for n in range(1, 1001):
            now = release_condition(n, dist, ratio)
            if released and not now:
                violations += 1
            released = released or now
        for n in (1, 2, 3, 5, 9, 17, 33, 80, 250, 1000):
            base = one_step_lookahead(n, 0, dist, ratio)
            if any(one_step_lookahead(n, k, dist, ratio) != base for k in (7, 500)):
                violations += 1
        checked += 1
    _report(
        3,
        "release condition monotone in occupancy, look-ahead step-invariant",
        checked == 200 and violations == 0,
        f"{checked} randomized distributions, {violations} violations",
    )


def test_criterion_04_threshold_monotone_in_rate_and_ratio():
    rate_grid = np.linspace(0.0, REFERENCE_RATE, 50)
    violations = 0
    for ratio in (0.0025, 0.005, 0.01):
        stars = [
            compute_threshold(poisson_truncated(float(lam)), ratio).n_star
            for lam in rate_grid
        ]
        violations += sum(a > b for a, b in zip(stars, stars[1:]))
    dist = poisson_truncated(REFERENCE_RATE)
    ratio_grid = np.geomspace(1e-4, 0.5, 50)
    stars = [compute_threshold(dist, float(r)).n_star for r in ratio_grid]
    violations += sum(a < b for a, b in zip(stars, stars[1:]))
    _report(
        4,
        "n_star nondecreasing in rate, nonincreasing in cost-benefit ratio",
        violations == 0,
        f"3 rate grids and 1 ratio grid scanned, {violations} inversions",
    )


def test_criterion_05_policy_utility_ordering(comparison_rows):
    # Known red, kept strict on purpose.  Under the per-vehicle accounting
    # the periodic policy's larger platoons genuinely edge out the threshold
    # rule near rate 0.146 (the rule optimizes the episode reward, not the
    # per-vehicle average), and periodic utility turns positive between
    # rates 0.005 and 0.01.  The episode-reward accounting flips both signs
    # but breaks the clairvoyant ordering instead, so no accounting passes
    # every clause; see README "Known deviations" and the characterization
    # tests in test_sim.py.
    failures = []
    for lam in ORDERING_RATES:
        for better, worse in (
            ("non_causal", "threshold"),
            ("threshold", "periodic"),
            ("threshold", "spontaneous"),
        ):
            a = comparison_rows[(lam, better)]
            b = comparison_rows[(lam, worse)]
            if a.mean_utility + a.ci_utility < b.mean_utility - b.ci_utility:
                failures.append(
                    f"{better} {a.mean_utility:.4f} < "
                    f"{worse} {b.mean_utility:.4f} at rate {lam:.4f}"
                )
    for lam in LOW_RATES:
        metrics = comparison_rows[(lam, "periodic")]
        if metrics.mean_utility >= 0.0:
            failures.append(
                f"periodic utility {metrics.mean_utility:+.4f} >= 0 at rate {lam}"
            )
    _report(
        5,
        "mean utility ordering with periodic losing money at low rates",
        not failures,
        f"{len(ORDERING_RATES)} ordered rate points, "
        f"{len(LOW_RATES)} low-rate sign checks"
        + (f"; deviations: {'; '.join(failures)}" if failures else ""),
    )


def test_criterion_06_clairvoyant_pathwise_dominance():
    arrival = poisson_truncated(REFERENCE_RATE)
    initial = zero_truncated_poisson(REFERENCE_RATE)
    n_star = compute_threshold(arrival, RATIO).n_star
    episodes = 1000
    dominated = 0
    for index in range(episodes):
        rng = substream(4242, index)
        first = int(initial.counts_at(rng.random(1))[0])
        batches = arrival.counts_at(rng.random(HORIZON - 1))
        counts = first + np.concatenate(([0], np.cumsum(batches)))
        reached = np.nonzero(counts >= n_star)[0]
        release_step = int(reached[0]) if reached.size else HORIZON - 1
        rule_reward = release_reward(int(counts[release_step]), release_step, RATIO)
        arrivals = np.concatenate(([first], batches))
        mask = NonCausalPolicy().fire_mask(np.cumsum(arrivals)[None, :], RATIO)
        best_step = int(np.flatnonzero(mask[0])[0])
        best_reward = release_reward(int(counts[best_step]), best_step, RATIO)
        if best_reward >= rule_reward:
            dominated += 1
    _report(
        6,
        "clairvoyant episode reward dominates the threshold rule pathwise",
        dominated == episodes,
        f"{dominated}/{episodes} episodes dominated",
    )


def test_criterion_07_length_steps_and_wait_shape(shape_rows):
    threshold_rows, spontaneous_rows = shape_rows
    stars = [row.n_star for row in threshold_rows]
    lengths = [row.metrics.mean_platoon_len for row in threshold_rows]
    waits = [row.metrics.mean_wait_steps for row in threshold_rows]
    wait_cis = [row.metrics.ci_wait_steps for row in threshold_rows]

    increments = {i for i in range(len(stars) - 1) if stars[i + 1] > stars[i]}
    jumps = {
        i
        for i in range(len(lengths) - 1)
        if abs(lengths[i + 1] - lengths[i]) > 0.5
    }
    stray_jumps = {
        i for i in jumps if not any(abs(i - j) <= 1 for j in increments)
    }
    missed_increments = {
        i for i in increments if not any(abs(i - j) <= 1 for j in jumps)
    }

    wait_violations = 0
    for i in range(len(waits) - 1):
        if stars[i + 1] != stars[i]:
            continue
        if waits[i + 1] > waits[i] + wait_cis[i] + wait_cis[i + 1]:
            wait_violations += 1

    nonzero_wait_cells = sum(
        1
        for row in spontaneous_rows
        if row.metrics.mean_wait_steps != 0.0 or row.metrics.ci_wait_steps != 0.0
    )

    ok = (
        not stray_jumps
        and not missed_increments
        and wait_violations == 0
        and nonzero_wait_cells == 0
    )
    _report(
        7,
        "platoon length steps with n_star, wait decreasing per segment",
        ok,
        f"{len(increments)} n_star increments, {len(jumps)} length jumps, "
        f"{len(stray_jumps)} stray, {len(missed_increments)} missed, "
        f"{wait_violations} wait inversions, "
        f"{nonzero_wait_cells} nonzero spontaneous-wait cells",
    )


def _hours_violating_conservation(result: HourResult, arrivals: np.ndarray) -> np.ndarray:
    """Per hour of ``result``, whether any conservation clause fails there.

    ``result`` is the kernel's output for the samples x horizon matrix
    ``arrivals``, one hour per row.  Vehicles are listed in arrival order;
    each one's platoon is rebuilt from the lead flags and its arrival step
    from the arrival matrix, independently of the platoon columns.  A
    clause that fails at a vehicle or a platoon marks the hour it belongs
    to.
    """
    rows, horizon = arrivals.shape
    flat = arrivals.ravel()
    arrived = arrivals.sum(axis=1)
    bad = np.zeros(rows, dtype=bool)
    if result.vehicle_wait.size != flat.sum() or result.vehicle_is_lead.size != flat.sum():
        bad[:] = True
        return bad
    sizes = result.platoon_size
    releases = result.platoon_release_step
    starts = result.platoon_episode_start
    hour = releases // horizon
    bad[np.bincount(hour, weights=sizes, minlength=rows) != arrived] = True
    bad[np.bincount(hour, minlength=rows) != result.platoons] = True
    first_vehicle = np.cumsum(arrived) - arrived
    bad[~result.vehicle_is_lead[first_vehicle]] = True
    arrival_steps = np.repeat(np.arange(flat.size), flat)
    vehicle_hour = arrival_steps // horizon
    platoon = np.cumsum(result.vehicle_is_lead) - 1
    # A vehicle before the first lead, or past as many leads as platoons.
    stray = (platoon < 0) | (platoon >= sizes.size)
    bad[vehicle_hour[stray]] = True
    platoon = np.clip(platoon, 0, sizes.size - 1)
    bad[hour[np.bincount(platoon, minlength=sizes.size) != sizes]] = True
    bad[vehicle_hour[result.vehicle_wait != releases[platoon] - arrival_steps]] = True
    bad[vehicle_hour[result.vehicle_wait < 0]] = True
    bad[hour[1:][np.diff(releases) <= 0]] = True
    bad[hour[(starts > releases) | (starts < hour * horizon)]] = True
    window = np.cumsum(flat)
    window_arrivals = window[releases] - np.where(starts > 0, window[starts - 1], 0)
    bad[hour[window_arrivals != sizes]] = True
    return bad


def test_criterion_08_conservation_across_the_sweep():
    # Every policy of a rate runs on the rate's arrival matrix through the
    # sweep's kernel, one row per sampled hour, as a sweep cell does.
    hours = 0
    violations = 0
    for cell_index, lam in enumerate(COMPARISON_RATES):
        n_star = compute_threshold(poisson_truncated(lam), RATIO).n_star
        policies = (
            ThresholdPolicy(n_star),
            PeriodicPolicy(60),
            PeriodicPolicy(1),
            NonCausalPolicy(),
        )
        config = SimConfig(
            lam=lam,
            ratio=RATIO,
            policy=policies[0],
            horizon_steps=HORIZON,
            samples=SAMPLES,
            master_seed=SEED,
            cell_index=cell_index,
        )
        distributions = sim._cell_distributions(lam, None)
        arrivals = sim._draw_arrivals(config, distributions, 0, SAMPLES)
        cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
        for policy in policies:
            result = sim._simulate(policy, arrivals, cumulative, RATIO)
            hours += result.vehicles.size
            violations += int(_hours_violating_conservation(result, arrivals).sum())
    _report(
        8,
        "vehicle conservation and one lead per platoon on every hour",
        violations == 0,
        f"{hours} simulated hours, {violations} violations",
    )


def test_criterion_08_check_marks_the_hour_of_a_corrupted_column():
    config = SimConfig(lam=REFERENCE_RATE, ratio=RATIO, policy=ThresholdPolicy(6),
                       horizon_steps=HORIZON, samples=5, master_seed=SEED)
    distributions = sim._cell_distributions(REFERENCE_RATE, None)
    arrivals = sim._draw_arrivals(config, distributions, 0, 5)
    cumulative = np.cumsum(arrivals).reshape(arrivals.shape)
    result = sim._simulate(config.policy, arrivals, cumulative, RATIO)
    assert not _hours_violating_conservation(result, arrivals).any()
    is_lead = result.vehicle_is_lead
    vehicle_hour = np.repeat(np.arange(arrivals.size), arrivals.ravel()) // HORIZON
    # The lead of a platoon of two or more vehicles in hour 2, after the
    # hour's first platoon.
    lead = int(np.flatnonzero(is_lead[1:-1] & ~is_lead[2:] & (vehicle_hour[:-2] == 2))[0]) + 1
    moved = is_lead.copy()
    moved[lead], moved[lead + 1] = False, True
    late = result.vehicle_wait.copy()
    late[lead + 1] += 1
    # The first platoon of hour 3 leaves a step later than it did.
    delayed = result.platoon_release_step.copy()
    delayed[np.searchsorted(delayed, 3 * HORIZON)] += 1
    for corrupted, hour in (
        (dataclasses.replace(result, vehicle_is_lead=moved), 2),
        (dataclasses.replace(result, vehicle_wait=late), 2),
        (dataclasses.replace(result, platoon_release_step=delayed), 3),
    ):
        assert np.flatnonzero(_hours_violating_conservation(corrupted, arrivals)).tolist() == [hour]


def test_criterion_09_count_calibration():
    lam = to_lambda(HourlyCounts(10, 330.0), 120.0 / 330.0, 5.0)
    error = abs(lam - REFERENCE_RATE)
    _report(
        9,
        "hourly-count calibration reproduces the reference rate",
        error <= 1e-12,
        f"lambda={lam!r}, |error|={error:.3e}",
    )


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    argv = [
        "sweep", "--lambda-min", "0", "--lambda-max", "0.1", "--points", "4",
        "--samples", "25", "--horizon", "120", "--seed", "123",
        "--out", str(tmp_path / "sweep.csv"),
    ]
    first_code = main(list(argv))
    first = (tmp_path / "sweep.csv").read_bytes()
    second_code = main(list(argv))
    second = (tmp_path / "sweep.csv").read_bytes()
    capsys.readouterr()
    _report(
        10,
        "repeated sweep runs with a fixed seed are byte-identical",
        first_code == 0 and second_code == 0 and first == second,
        f"{len(first)} bytes vs {len(second)} bytes",
    )
