"""One workload in a fresh process: set up, measure, check, report.

Started by run.py in the worker's own empty directory inside the
checkout.  It imports the package from the checkout's ``src``, builds the
workload's inputs, prints ``READY`` (the end of set-up), and with
``--setup-only`` stops there.  Otherwise it runs passes in a closed loop
for ``--seconds``, then one more pass at the recorded seed whose output
digests must match ``reference_digests.json``, and writes its figures as
JSON to ``--result``.

With ``--trace 1`` passes alternate between untraced and traced, so the
tracing overhead is measured on the same process and inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from session import Session
from tracer import Tracer, installed
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDED_SEED = 0
# Counters reported per traced pass as they were counted.
COUNTERS = (
    "arrival.poisson_truncated.support", "arrival.sample_many.draws", "stopping.g_evals",
    "dp.solve.states", "dp.convolutions", "dp.compare.mismatches",
    "dp.write_action_table.rows",
)


def load_program():
    """Import the package and the reproduction script from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    import hubrelease
    import hubrelease.cli

    if not Path(hubrelease.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported hubrelease from {hubrelease.__file__}, not {ROOT / 'src'}")
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return hubrelease.cli, script


def clear_caches() -> None:
    """Empty the package's memo caches so every pass starts as a new process would."""
    for name, module in list(sys.modules.items()):
        if name == "hubrelease" or name.startswith("hubrelease."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples above it.

    With fewer than 21 samples that value would fall below the median, and
    the median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Pass:
    traced: bool
    ops: list
    output_bytes: int
    # Mean calibration-kernel time just before and just after the pass.
    kernel_s: float = REFERENCE_S

    @property
    def scale(self) -> float:
        """Factor from raw seconds in this pass to seconds at reference speed."""
        return REFERENCE_S / self.kernel_s

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops if not op.nested)

    def sweep_rate(self) -> float:
        """Simulated hours per scaled second of sweep time, 0 with no sweep."""
        sweeps = [op for op in self.ops if op.kind == "sweep"]
        seconds = sum(op.seconds for op in sweeps) * self.scale
        return sum(op.hours for op in sweeps) / seconds if seconds else 0.0


def run_pass(workload, session) -> Pass:
    first = len(session.ops)
    outputs = workload.run_pass(session)
    ops = session.ops[first:]
    written = sum(os.path.getsize(f) for f in outputs if os.path.exists(f))
    return Pass(False, ops, written + sum(len(op.stdout.encode()) for op in ops))


def measure(workload, session, script, seconds: float, trace: bool):
    tracer = Tracer()
    passes: list[Pass] = []
    plain = session.cli_main, session.script_main
    kernel_s = kernel_seconds()
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or (trace and len(passes) < 2)):
        clear_caches()
        if trace and len(passes) % 2 == 1:
            with installed(tracer, script) as (session.cli_main, session.script_main):
                result = run_pass(workload, session)
            session.cli_main, session.script_main = plain
            result.traced = True
        else:
            result = run_pass(workload, session)
        after = kernel_seconds()
        result.kernel_s = (kernel_s + after) / 2
        kernel_s = after
        passes.append(result)
    return passes, tracer


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """Times scaled to reference speed (see calibrate.py); raw medians kept in samples."""
    metrics = {"wall_s": statistics.median(p.wall * p.scale for p in passes)}
    samples = {
        "wall_s": {"n": len(passes), "stat": "median",
                   "raw_median": statistics.median(p.wall for p in passes)},
        "kernel_ms": [p.kernel_s * 1e3 for p in passes],
    }
    for kind, prefix in (("threshold", "threshold"), ("dp-verify", "verify")):
        ms = [op.seconds * 1e3 * p.scale for p in passes for op in p.ops if op.kind == kind]
        raw = [op.seconds * 1e3 for p in passes for op in p.ops if op.kind == kind]
        value, pct = tail(ms)
        metrics[f"{prefix}_p50_ms"] = statistics.median(ms)
        metrics[f"{prefix}_tail_ms"] = value
        samples[f"{prefix}_p50_ms"] = {"n": len(ms), "stat": "p50",
                                       "raw": statistics.median(raw)}
        samples[f"{prefix}_tail_ms"] = {"n": len(ms), "stat": f"p{pct:.4g}",
                                        "raw": tail(raw)[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples


def per_layer(passes: list[Pass], tracer, names: list[str]) -> tuple[dict, dict]:
    """Per-pass means over the traced passes for every name in ``names``.

    ``<span>.self_ms`` and ``<span>.calls`` read 0 for a span that never ran;
    every other name is derived below.  Every span that ran must be listed,
    so the listed self times add up to the traced pass time.
    """
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    unlisted = {f"{span}.self_ms" for span in tracer.self_ns} - set(names)
    if unlisted:
        raise SystemExit(f"spans missing from BENCHMARK.json: {sorted(unlisted)}")
    derived = {name: tracer.counts[name] / n for name in COUNTERS}
    cells = [ns / 1e6 for ns in tracer.durations["sim.aggregate"]]
    cell_tail, cell_pct = tail(cells) if cells else (0.0, 0.0)
    derived["sim.cell_p50_ms"] = statistics.median(cells) if cells else 0.0
    derived["sim.cell_tail_ms"] = cell_tail
    vehicles = sum(op.vehicles for p in traced for op in p.ops)
    derived["sim.vehicles"] = vehicles / n
    derived["sim.platoons"] = sum(op.platoons for p in traced for op in p.ops) / n
    derived["sim.records_per_vehicle"] = (
        tracer.counts["sim.records"] / vehicles if vehicles else 0.0
    )
    releases = tracer.calls["policies.decide_non_causal"]
    scanned = tracer.counts["policies.non_causal.steps_scanned"]
    derived["policies.non_causal.steps_scanned_per_release"] = (
        scanned / releases if releases else 0.0
    )
    derived["cli.output_bytes"] = sum(p.output_bytes for p in traced) / n
    derived["sim_hours_per_s"] = statistics.median(p.sweep_rate() for p in plain)
    derived["trace.pass_ms"] = sum(p.wall for p in traced) / n * 1e3
    derived["trace.overhead_frac"] = (
        statistics.median(p.wall * p.scale for p in traced)
        / statistics.median(p.wall * p.scale for p in plain) - 1.0
    )
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "self_ms":
            metrics[name] = tracer.self_ns.get(span, 0) / 1e6 / n
        elif field == "calls":
            metrics[name] = tracer.calls[span] / n
        else:
            metrics[name] = derived[name]
    samples = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "sim.cell_tail_ms": {"n": len(cells), "stat": f"p{cell_pct:.4g}"},
        "self_ms_sum": sum(tracer.self_ns.values()) / 1e6 / n,
    }
    return metrics, samples


def reference_digests(workload_cls, smoke: bool, session) -> dict[str, str]:
    """Run one pass at the recorded seed; an output whose digest differs fails its op."""
    os.mkdir("reference")
    os.chdir("reference")
    clear_caches()
    outputs = workload_cls(RECORDED_SEED, smoke).run_pass(session)
    digests = {}
    for path in outputs:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha256(fh.read()).hexdigest()
    with open(BENCH_DIR / "reference_digests.json") as fh:
        recorded = json.load(fh)["smoke" if smoke else "full"][workload_cls.name]
    for path, op in outputs.items():
        if digests.get(path) != recorded.get(path):
            op.fail(f"{path}: sha256 differs from reference_digests.json at seed {RECORDED_SEED}")
    os.chdir("..")
    return digests


def library_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()

    cli, script = load_program()
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed, args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    session = Session(cli.main, script.main)
    script.cli_main = session.nested_cli
    passes, tracer = measure(workload, session, script, args.seconds, bool(args.trace))
    if args.trace:
        with open(ROOT / "BENCHMARK.json") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics, samples = per_layer(passes, tracer, names)
    else:
        metrics, samples = end_to_end(passes)
    digests = reference_digests(workload_cls, args.smoke, session)
    failures = [f"{op.kind}: {op.error}" for op in session.ops if op.failed]
    result = {
        "metrics": metrics,
        "samples": samples,
        "attempted": len(session.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "digests": digests,
        "facts": library_facts(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
