"""The three benchmark workloads: inputs drawn from a seed, one pass, output checks.

Each workload is built inside its own working directory, where it writes
the inputs it needs (that is the set-up the benchmark times).  A pass
calls the user's entry points through a ``Session``, which times and
records every invocation as an op; the checks here mark an op failed
instead of raising, so a wrong output is counted, not fatal.

Every seed gives inputs of the same mix and cost: the seed perturbs
values within a fixed design rather than drawing the design itself, so
that runs on different seeds measure the same work.  Each pass makes an
odd number of distinct calls of each kind, so that a latency median falls
on one call rather than between two calls of different cost.
"""
from __future__ import annotations

import csv
import math
import random
from collections import defaultdict

from session import Op, Session

POLICIES = ("threshold", "periodic", "spontaneous", "non_causal")
REFERENCE_RATE = repr(1.0 / 6.0)
REFERENCE_RATIO = "0.005"
CI_COLUMNS = ("ci_utility", "ci_platoon_len", "ci_wait_steps")


def log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_match(op: Op) -> None:
    if not op.stdout.startswith("MATCH "):
        op.fail(f"dp-verify did not print MATCH: {op.stdout[:200]!r}")


def check_threshold(op: Op, expected: str | None = None) -> int | None:
    """Parse ``n_star,<n>``; when ``expected`` is given it must be that value."""
    text = op.stdout.strip()
    if op.failed:
        return None
    if not text.startswith("n_star,"):
        op.fail(f"threshold printed {text!r}")
        return None
    value = text.split(",", 1)[1]
    if expected is not None and value != expected:
        op.fail(f"threshold printed n_star {value}, sweep row has {expected}")
        return None
    if value == "never":
        return None
    try:
        n_star = int(value)
    except ValueError:
        op.fail(f"threshold printed {text!r}")
        return None
    if n_star < 1:
        op.fail(f"threshold printed n_star {n_star} < 1")
    return n_star


def check_sweep(session: Session, op: Op, path: str, samples: int, ratio: str,
                stride: int = 1, offset: int = 0) -> None:
    """Invariants of a four-policy sweep CSV that hold for every seed.

    Policies at one rate share their arrivals, so their vehicle counts must
    be identical; every CI is finite; the n_star column must equal what the
    ``threshold`` subcommand prints for that rate (one CLI call for each
    rate whose index is ``offset`` modulo ``stride``).
    """
    if op.failed:
        return
    try:
        rows = read_rows(path)
        by_rate: dict[str, dict[str, dict[str, str]]] = defaultdict(dict)
        for row in rows:
            by_rate[row["lambda"]][row["policy"]] = row
        for i, (lam, cells) in enumerate(by_rate.items()):
            if tuple(sorted(cells)) != tuple(sorted(POLICIES)):
                op.fail(f"rate {lam}: policies {sorted(cells)}")
            if len({c["vehicles"] for c in cells.values()}) != 1:
                op.fail(f"rate {lam}: vehicle counts differ across policies")
            if len({c["n_star"] for c in cells.values()}) != 1:
                op.fail(f"rate {lam}: n_star differs across policies")
            for cell in cells.values():
                if not all(math.isfinite(float(cell[c])) for c in CI_COLUMNS):
                    op.fail(f"rate {lam} {cell['policy']}: CI not finite")
            if i % stride == offset:
                n_star = next(iter(cells.values()))["n_star"]
                check_threshold(session.cli(["threshold", "--lambda", lam, "--ratio", ratio]),
                                n_star)
        op.hours = len(rows) * samples
        op.vehicles = sum(int(r["vehicles"]) for r in rows)
        op.platoons = sum(int(r["platoons"]) for r in rows)
    except (OSError, KeyError, ValueError) as exc:
        op.fail(f"unreadable {path}: {exc!r}")


class ReproduceFigures:
    """``scripts/reproduce_figures.py`` with its default grids and fewer samples.

    The workload seed is the script's ``--seed``.  Most of the time goes to
    the simulator's per-step loop at low arrival density.  Each pass checks
    the sweep's n_star column at one in CHECK_STRIDE rates, rotating, so
    that CLI threshold calls stay a small share of the pass and every rate
    is checked every CHECK_STRIDE passes.
    """

    name = "reproduce_figures"
    outputs = ("thresholds.csv", "policy_sweep.csv", "policy_sweep.csv.manifest.json")
    CHECK_STRIDE = 10

    def __init__(self, seed: int, smoke: bool) -> None:
        self.passes = 0
        self.samples = 1 if smoke else 8
        self.argv = ["--out-dir", ".", "--samples", str(self.samples), "--seed", str(seed)]
        if smoke:
            self.argv += ["--points", "3", "--threshold-points", "4"]

    def run_pass(self, session: Session) -> dict[str, Op]:
        first = len(session.ops)
        main = session.script(self.argv)
        # The script's own CLI calls are recorded before the script returns.
        nested = {op.kind: op for op in session.ops[first:-1]}
        if "dp-verify" in nested:
            check_match(nested["dp-verify"])
        else:
            main.fail("reproduce_figures ran no dp-verify")
        self._check_curves(main)
        if "sweep" in nested:
            check_sweep(session, nested["sweep"], "policy_sweep.csv", self.samples,
                        REFERENCE_RATIO, self.CHECK_STRIDE, self.passes % self.CHECK_STRIDE)
        else:
            main.fail("reproduce_figures ran no sweep")
        self.passes += 1
        return dict.fromkeys(self.outputs, main)

    @staticmethod
    def _check_curves(main: Op) -> None:
        """n_star never falls as the rate rises, nor rises as the ratio rises."""
        if main.failed:
            return
        curves: dict[float, list[int]] = defaultdict(list)
        try:
            for row in read_rows("thresholds.csv"):
                curves[float(row["ratio"])].append(int(row["n_star"]))
        except (OSError, KeyError, ValueError) as exc:
            main.fail(f"unreadable thresholds.csv: {exc!r}")
            return
        ordered = [curves[r] for r in sorted(curves)]
        for curve in ordered:
            if any(b < a for a, b in zip(curve, curve[1:])):
                main.fail("threshold curve decreases in the rate")
        for low, high in zip(ordered, ordered[1:]):
            if any(h > l for l, h in zip(low, high)):
                main.fail("threshold curve increases in the ratio")


class PeakHour:
    """Ingest a seeded diurnal truck profile, then sweep its busiest hours.

    Per-step rates at the busy hours run from about 0.5 to 2 arrivals, so
    per-vehicle work in the simulator dominates.  The threshold for every
    hour and a solver check at the three busiest are part of the pass.
    """

    name = "peak_hour"
    outputs = ("rates.csv", "rates.csv.manifest.json", "sweep.csv", "sweep.csv.manifest.json")
    STOP_FRACTION = "0.3636"
    STEP_SECONDS = "5"
    # Target arrivals per step for each hour of the day; the seed scales
    # each hour by up to 3% either way.
    PROFILE = (0.08, 0.06, 0.05, 0.06, 0.10, 0.20, 0.42, 1.30, 2.00, 1.10, 0.60, 0.45,
               0.42, 0.40, 0.44, 0.55, 0.80, 1.60, 0.90, 0.40, 0.30, 0.22, 0.15, 0.10)
    BUSY_HOURS = 8

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        per_rate = 3600.0 / (float(self.STOP_FRACTION) * float(self.STEP_SECONDS))
        self.counts = [round(lam * per_rate * rng.uniform(0.97, 1.03)) for lam in self.PROFILE]
        with open("counts.csv", "w", newline="") as fh:
            fh.write("hour,count\n")
            fh.writelines(f"{h},{c}\n" for h, c in enumerate(self.counts))
        self.seed = seed
        self.points, self.samples, self.verified = (2, 1, 1) if smoke else (5, 24, 3)

    def run_pass(self, session: Session) -> dict[str, Op]:
        ingest = session.cli(["ingest", "--file", "counts.csv", "--stop-fraction",
                              self.STOP_FRACTION, "--step-seconds", self.STEP_SECONDS,
                              "--out", "rates.csv"])
        rates = self._check_rates(ingest)
        if not rates:
            return dict.fromkeys(self.outputs, ingest)
        for rate in rates:
            check_threshold(session.cli(["threshold", "--lambda", rate, "--ratio",
                                         REFERENCE_RATIO]))
        busiest = sorted(rates, key=float, reverse=True)[: self.BUSY_HOURS]
        for rate in busiest[: self.verified]:
            check_match(session.cli(["dp-verify", "--lambda", rate, "--ratio",
                                     REFERENCE_RATIO, "--horizon", "720"]))
        sweep = session.cli([
            "sweep", "--lambda-min", min(busiest, key=float),
            "--lambda-max", max(busiest, key=float), "--points", str(self.points),
            "--ratio", REFERENCE_RATIO, "--samples", str(self.samples),
            "--seed", str(self.seed), "--out", "sweep.csv",
        ])
        check_sweep(session, sweep, "sweep.csv", self.samples, REFERENCE_RATIO)
        return {"rates.csv": ingest, "rates.csv.manifest.json": ingest,
                "sweep.csv": sweep, "sweep.csv.manifest.json": sweep}

    def _check_rates(self, ingest: Op) -> list[str]:
        """Rates as printed, each equal to count * stop fraction * step / 3600."""
        if ingest.failed:
            return []
        try:
            got = [r["lambda"] for r in read_rows("rates.csv")]
        except (OSError, KeyError) as exc:
            ingest.fail(f"unreadable rates.csv: {exc!r}")
            return []
        expected = [
            repr(float(c) * float(self.STOP_FRACTION) * float(self.STEP_SECONDS) / 3600.0)
            for c in self.counts
        ]
        if got != expected:
            ingest.fail("ingested rates differ from count * stop fraction * step / 3600")
            return []
        return got


class SolverGrid:
    """Threshold and solver calls over wide parameter ranges, no simulation.

    Threshold calls cross rates up to 1e3 with ratios spread, in log scale,
    from the lowest ratio that keeps one linear threshold scan under about
    SCAN_BUDGET inner steps up to 0.1; the two anchors add the largest rate
    and the smallest ratio (n_star 4082) to the reference point.  Solver calls cross rate, ratio
    and horizon, plus seed-drawn explicit pmfs, with ratios high enough
    that n_star lies well inside the solver's occupancy range.  The
    reference point is verified once with ``--dump-actions``.

    The grid itself is fixed so that every seed has the same mix of cheap
    and costly calls; the seed moves each rate and ratio by up to 5% and
    draws the pmfs.
    """

    name = "solver_grid"
    outputs = ("actions.csv", "actions.csv.manifest.json")
    SCAN_BUDGET = 4e5
    THRESHOLD_RATES = (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
    RATIO_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)
    ANCHORS = (("1000.0", "0.01"), (REFERENCE_RATE, "1e-08"), (REFERENCE_RATE, REFERENCE_RATIO))
    VERIFY_RATES = (0.05, 0.2, 0.8, 2.0)
    VERIFY_HORIZONS = (90, 360, 720)
    # (number of counts with mass, horizon) of each explicit pmf.
    PMF_SHAPES = ((2, 720), (3, 90), (4, 180), (5, 360))

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)

        def jitter(x: float) -> float:
            return x * rng.uniform(0.95, 1.05)

        self.threshold_args = [["--lambda", lam, "--ratio", ratio] for lam, ratio in self.ANCHORS]
        for rate in self.THRESHOLD_RATES[: 1 if smoke else None]:
            support = rate + 8.0 * math.sqrt(rate) + 10.0
            lowest = max(1e-8, rate * (support / self.SCAN_BUDGET) ** 2)
            for level in self.RATIO_LEVELS:
                self.threshold_args.append(["--lambda", repr(jitter(rate)), "--ratio",
                                            repr(jitter(log_between(lowest, 0.1, level)))])
        self.verify_args = []
        configs = [(r, h) for r in self.VERIFY_RATES for h in self.VERIFY_HORIZONS]
        for i, (rate, horizon) in enumerate(configs[: 1 if smoke else None]):
            rate = jitter(rate)
            level = self.RATIO_LEVELS[1 + i % 3]
            ratio = jitter(log_between(self._lowest_ratio(rate, horizon), 0.05, level))
            self.verify_args.append(["--lambda", repr(rate), "--ratio", repr(ratio),
                                     "--horizon", str(horizon)])
        for i, (size, horizon) in enumerate(self.PMF_SHAPES[: 1 if smoke else None]):
            weights = [rng.expovariate(1.0) for _ in range(size)]
            total = math.fsum(weights)
            probs = [w / total for w in weights]
            path = f"pmf_{i}.csv"
            with open(path, "w", newline="") as fh:
                fh.write("count,probability\n")
                fh.writelines(f"{x},{p!r}\n" for x, p in enumerate(probs))
            mean = math.fsum(x * p for x, p in enumerate(probs))
            ratio = log_between(self._lowest_ratio(mean, horizon), 0.05, rng.random())
            self.verify_args.append(["--pmf-file", path, "--ratio", repr(ratio),
                                     "--horizon", str(horizon)])

    @staticmethod
    def _lowest_ratio(mean: float, horizon: int) -> float:
        # n_star is about sqrt(mean / ratio); keep it under a quarter of the
        # expected count at the horizon.
        return min(max(1e-4, 16.0 * mean / (1.0 + mean * horizon) ** 2), 0.05)

    def run_pass(self, session: Session) -> dict[str, Op]:
        for args in self.threshold_args:
            op = session.cli(["threshold", *args])
            n_star = check_threshold(op)
            # g(n) <= mean / n^2 <= rate / n^2 bounds the scan.
            bound = math.ceil(math.sqrt(float(args[1]) / float(args[3]))) + 1
            if n_star is not None and n_star > bound:
                op.fail(f"n_star {n_star} above the bound {bound}")
        for args in self.verify_args:
            check_match(session.cli(["dp-verify", *args]))
        dump = session.cli(["dp-verify", "--lambda", REFERENCE_RATE, "--ratio",
                            REFERENCE_RATIO, "--horizon", "720",
                            "--dump-actions", "actions.csv"])
        check_match(dump)
        return dict.fromkeys(self.outputs, dump)


WORKLOADS = {w.name: w for w in (ReproduceFigures, PeakHour, SolverGrid)}
