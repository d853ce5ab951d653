#!/usr/bin/env python3
"""Reproduce the headline experiments at full scale.

Writes under --out-dir (default results/):
  thresholds.csv     n_star over a dense arrival-rate grid for several
                     cost-benefit ratios (the step curves)
  policy_sweep.csv   four-policy Monte-Carlo comparison over the rate grid,
                     with a .manifest.json sidecar recording the parameters

and first checks the threshold rule against the backward-induction solver
at the reference operating point (rate 1/6, ratio 0.005, 720 steps).

At the default 1000 samples the whole run takes about 8 s on a 2-core
x86-64 host (Python 3.11, numpy 2.4); pass --samples 200 for a quick look.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from hubrelease.arrival import poisson_truncated
from hubrelease.atomic import atomic_writer
from hubrelease.cli import main as cli_main
from hubrelease.stopping import compute_threshold

REFERENCE_RATE = 1.0 / 6.0


def write_threshold_curves(path: Path, points: int, ratios: tuple[float, ...]) -> None:
    grid = [float(lam) for lam in np.linspace(0.0, REFERENCE_RATE, points)]
    dists = [poisson_truncated(lam) for lam in grid]
    with atomic_writer(str(path)) as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "ratio", "n_star"])
        for ratio in ratios:
            for lam, dist in zip(grid, dists):
                writer.writerow([repr(lam), repr(ratio), compute_threshold(dist, ratio).n_star])
    print(f"wrote {len(ratios) * points} threshold points to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--samples", type=int, default=1000,
                        help="Monte-Carlo samples per (rate, policy) cell")
    parser.add_argument("--points", type=int, default=50,
                        help="arrival-rate grid points for the policy sweep")
    parser.add_argument("--threshold-points", type=int, default=200,
                        help="rate grid points for the threshold curves")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_threshold_curves(
        out_dir / "thresholds.csv", args.threshold_points, (0.0025, 0.005, 0.01)
    )

    code = cli_main([
        "dp-verify", "--lambda", str(REFERENCE_RATE), "--ratio", "0.005", "--horizon", "720",
    ])
    if code != 0:
        print("solver disagrees with the threshold rule, aborting", file=sys.stderr)
        return code

    return cli_main([
        "sweep",
        "--lambda-min", "0", "--lambda-max", str(REFERENCE_RATE),
        "--points", str(args.points),
        "--ratio", "0.005",
        "--samples", str(args.samples),
        "--seed", str(args.seed),
        "--report-episode-utility",
        "--out", str(out_dir / "policy_sweep.csv"),
    ])


if __name__ == "__main__":
    sys.exit(main())
