#!/usr/bin/env python3
"""Benchmark the hubrelease entry points on one workload.

    python3 perfbench/run.py --workload reproduce_figures --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  Each measurement runs in a fresh single-threaded worker process
(BLAS threads pinned to 1).  With ``--trace 0`` the last line of output
holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones; the line before it records machine facts, the source
revision, sample counts and any failed checks.  ``--smoke`` runs tiny
inputs for the benchmark's own tests.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, kernel_seconds
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
REQUIRED = ("BENCHMARK.json", "src/hubrelease/__init__.py", "scripts/reproduce_figures.py")
# Set-up-only processes started besides the measuring worker, whose own
# set-up is the last sample; setup_s is the median.
SETUP_REPEATS = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker process, timed from its start until it prints READY."""

    def __init__(self, argv: list[str], cwd: Path, deadline: float) -> None:
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        cwd.mkdir(parents=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=cwd,
                                     env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0.0))
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.stop()
            raise BenchError(f"worker {' '.join(argv)} did not get ready")

    def wait(self, deadline: float) -> None:
        try:
            self.proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker ran past the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def stop(self) -> None:
        """Kill the worker if it is still running, and wait for it to end."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(root: Path) -> str:
    """Digest of the package and script sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "scripts").rglob("*.py")]):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
    }


def run(args: argparse.Namespace, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        base.append("--smoke")
    setups = []  # (raw seconds, calibration kernel seconds just before)
    result_path = work / "result.json"
    argvs = [[*base, "--seconds", "0", "--trace", "0", "--setup-only"]] * (
        0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    )
    argvs.append([*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--result", str(result_path)])
    for i, argv in enumerate(argvs):
        kernel_s = kernel_seconds()
        worker = Worker(argv, work / str(i), deadline)
        try:
            setups.append((worker.setup_s, kernel_s))
            worker.wait(deadline)
        finally:
            worker.stop()
    with open(result_path) as fh:
        result = json.load(fh)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(
            raw * REFERENCE_S / kernel_s for raw, kernel_s in setups
        )
        result["samples"]["setup_s"] = {"n": len(setups), "stat": "median",
                                        "raw_and_kernel_s": setups}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a hubrelease checkout; missing {missing}",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    facts = machine_facts(root)
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    values = result["metrics"]
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    facts.update(result["facts"])
    print(json.dumps({"details": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "samples": result["samples"],
        "failures": result["failures"], "reference_digests": result["digests"],
    }}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
