"""Command-line entry points.

Subcommands: ``threshold`` (print the optimal occupancy), ``sweep``
(Monte-Carlo policy comparison over an arrival-rate grid), ``dp-verify``
(check the threshold rule against the backward-induction solver) and
``ingest`` (convert hourly traffic counts to per-step rates).

Exit codes: 0 success, 1 domain error (bad values, files, or a verify
mismatch), 2 usage error.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .arrival import MAX_RATE, ArrivalDistribution, from_pmf, poisson_truncated
from .atomic import atomic_writer
from .dp import DpConfig, compare_with_threshold, solve, suggest_max_count, write_action_table
from .ingest import parse_counts_csv, parse_pmf_csv, to_lambda
from .policies import POLICY_NAMES
from .sim import SweepRow, check_sweep_size, sweep
from .stopping import compute_threshold

SWEEP_COLUMNS = (
    "lambda,policy,n_star,mean_utility,ci_utility,mean_platoon_len,"
    "ci_platoon_len,mean_wait_steps,ci_wait_steps,vehicles,platoons"
)


def _fmt(value: float) -> str:
    return repr(float(value))


def _n_star_text(n_star: int | None) -> str:
    return "never" if n_star is None else str(n_star)


def _write_manifest(out_path: str, subcommand: str, parameters: dict) -> None:
    manifest = {
        "tool": "hubrelease",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "output": out_path,
    }
    with atomic_writer(out_path + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _distribution(args: argparse.Namespace) -> ArrivalDistribution:
    if args.pmf_file is not None:
        return from_pmf(parse_pmf_csv(args.pmf_file))
    return poisson_truncated(args.lam)


def _add_distribution_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--lambda", dest="lam", type=float, help="per-step Poisson arrival rate"
    )
    group.add_argument(
        "--pmf-file",
        help="count,probability CSV giving the arrival pmf explicitly",
    )


def cmd_threshold(args: argparse.Namespace) -> int:
    threshold = compute_threshold(_distribution(args), args.ratio)
    print(f"n_star,{_n_star_text(threshold.n_star)}")
    return 0


def cmd_dp_verify(args: argparse.Namespace) -> int:
    dist = _distribution(args)
    threshold = compute_threshold(dist, args.ratio)
    if threshold.never_release:
        raise ValueError(
            f"dp-verify cannot check ratio {args.ratio!r}: with no waiting cost and "
            f"arrivals of mean {dist.mean!r} the rule never releases, and the solver's "
            "occupancy cap makes releasing and waiting tie at the cap"
        )
    # The solver clamps counts at the cap, so the cap must also leave room
    # for one batch on top of n_star for the two rules to compare.  DpConfig
    # raises it only as far as the solver reads; the dump lists every count
    # up to the cap, so only there is the cap searched for a safe one.
    cap = threshold.n_star + dist.support_max
    if args.dump_actions is not None:
        cap = max(cap, suggest_max_count(dist, args.horizon))
    config = DpConfig(args.horizon, cap, dist, args.ratio)
    solution = solve(config)
    differing = compare_with_threshold(solution, threshold)
    mismatches = [(k, n) for k, n, tie in differing if not tie]
    if args.dump_actions is not None:
        write_action_table(solution, args.dump_actions)
        _write_manifest(
            args.dump_actions,
            "dp-verify",
            {
                "lambda": args.lam,
                "pmf_file": args.pmf_file,
                "ratio": args.ratio,
                "horizon": args.horizon,
                "max_count": config.max_count,
            },
        )
    ties = len(differing) - len(mismatches)
    if ties:
        print(f"{ties} indifferent states: releasing and waiting tie within "
              "the solver's rounding error", file=sys.stderr)
    if not mismatches:
        print(f"MATCH n_star={threshold.n_star} states={args.horizon}x{config.max_count}")
        return 0
    for k, n in mismatches[:50]:
        rule = n >= threshold.n_star
        dp_action = "release" if not rule else "wait"
        print(f"MISMATCH k={k} n={n} dp={dp_action} rule={'release' if rule else 'wait'}")
    print(f"{len(mismatches)} mismatched states")
    return 1


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    lines = [SWEEP_COLUMNS]
    for row in rows:
        m = row.metrics
        lines.append(
            ",".join(
                [
                    _fmt(row.lam),
                    row.policy,
                    _n_star_text(row.n_star),
                    _fmt(m.mean_utility),
                    _fmt(m.ci_utility),
                    _fmt(m.mean_platoon_len),
                    _fmt(m.ci_platoon_len),
                    _fmt(m.mean_wait_steps),
                    _fmt(m.ci_wait_steps),
                    str(m.vehicles),
                    str(m.platoons),
                ]
            )
        )
    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if not 0 <= args.lambda_min <= args.lambda_max <= MAX_RATE:
        raise ValueError(f"need 0 <= lambda-min <= lambda-max <= {MAX_RATE:g}")
    if args.initial_lam is not None and not 0 <= args.initial_lam <= MAX_RATE:
        raise ValueError(
            f"--initial-lambda must be a rate in [0, {MAX_RATE:g}], got {args.initial_lam!r}"
        )
    # sweep checks this too, but only after np.linspace builds the grid.
    check_sweep_size(args.points, args.samples, args.horizon, args.lambda_max,
                     args.initial_lam)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    grid = [float(v) for v in np.linspace(args.lambda_min, args.lambda_max, args.points)]
    if not 0 < args.step_seconds < math.inf:
        raise ValueError(
            f"step_seconds must be positive and finite, got {args.step_seconds!r}"
        )
    # Refused before the simulation, which can take minutes.
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    for path in (args.out, args.out + ".manifest.json"):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    rows = sweep(
        grid,
        policies,
        ratio=args.ratio,
        samples=args.samples,
        horizon_steps=args.horizon,
        master_seed=args.seed,
        initial_lam=args.initial_lam,
        include_forced_in_length=not args.exclude_forced_length,
        period_steps=args.period,
    )
    write_sweep_csv(rows, args.out)
    _write_manifest(
        args.out,
        "sweep",
        {
            "lambda_min": args.lambda_min,
            "lambda_max": args.lambda_max,
            "points": args.points,
            "ratio": args.ratio,
            "policies": policies,
            "samples": args.samples,
            "horizon": args.horizon,
            "seed": args.seed,
            "step_seconds": args.step_seconds,
            "initial_lambda": args.initial_lam,
            "exclude_forced_length": args.exclude_forced_length,
            "period": args.period,
        },
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.report_episode_utility:
        print("lambda,policy,mean_episode_utility")
        for row in rows:
            print(f"{_fmt(row.lam)},{row.policy},{_fmt(row.metrics.mean_episode_utility)}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    counts = parse_counts_csv(args.file)
    lines = ["hour,lambda"]
    for row in counts:
        lam = to_lambda(row, args.stop_fraction, args.step_seconds)
        lines.append(f"{row.hour_of_day},{_fmt(lam)}")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with atomic_writer(args.out) as fh:
            fh.write(text)
        _write_manifest(
            args.out,
            "ingest",
            {
                "file": args.file,
                "stop_fraction": args.stop_fraction,
                "step_seconds": args.step_seconds,
            },
        )
        print(f"wrote {len(counts)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubrelease",
        description="Optimal release thresholds and policy simulation for platooning hubs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_threshold = sub.add_parser(
        "threshold", help="print the optimal release occupancy n_star"
    )
    _add_distribution_args(p_threshold)
    p_threshold.add_argument("--ratio", type=float, required=True,
                             help="cost-benefit ratio per step")
    p_threshold.set_defaults(func=cmd_threshold)

    p_verify = sub.add_parser(
        "dp-verify",
        help="check the threshold rule against the backward-induction solver",
    )
    _add_distribution_args(p_verify)
    p_verify.add_argument("--ratio", type=float, required=True)
    p_verify.add_argument("--horizon", type=int, default=720)
    p_verify.add_argument("--dump-actions", default=None,
                          help="write the k,n,action table to this CSV")
    p_verify.set_defaults(func=cmd_dp_verify)

    p_sweep = sub.add_parser(
        "sweep", help="Monte-Carlo policy comparison over an arrival-rate grid"
    )
    p_sweep.add_argument("--lambda-min", type=float, default=0.0)
    p_sweep.add_argument("--lambda-max", type=float, default=1.0 / 6.0)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--ratio", type=float, default=0.005)
    p_sweep.add_argument("--policies", default=",".join(POLICY_NAMES))
    p_sweep.add_argument("--period", type=int, default=60,
                         help="periodic-policy interval in steps")
    p_sweep.add_argument("--samples", type=int, default=1000)
    p_sweep.add_argument("--horizon", type=int, default=720)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--step-seconds", type=float, default=5.0,
                         help="step length recorded in the manifest; "
                              "it labels the output and changes no result")
    p_sweep.add_argument("--initial-lambda", dest="initial_lam", type=float,
                         default=None,
                         help="rate for the initial-count draw (default: the cell rate)")
    p_sweep.add_argument("--exclude-forced-length", action="store_true",
                         help="drop horizon-end forced releases from length stats")
    p_sweep.add_argument("--report-episode-utility", action="store_true",
                         help="also print episode-reward utility per cell")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ingest = sub.add_parser(
        "ingest", help="convert hour,count traffic data to per-step rates"
    )
    p_ingest.add_argument("--file", required=True, help="hour,count CSV")
    p_ingest.add_argument("--stop-fraction", type=float, required=True,
                          help="fraction of counted vehicles that stop at the hub")
    p_ingest.add_argument("--step-seconds", type=float, default=5.0)
    p_ingest.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p_ingest.set_defaults(func=cmd_ingest)
    return parser


# Built once, at import: a parser costs more than a threshold call, and
# parse_args leaves it unchanged.
PARSER = build_parser()


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Join ``--opt -1e-3`` into ``--opt=-1e-3``, also for -inf and -nan.

    argparse reads a token that starts with "-" as an option name unless it
    looks like -1 or -.5, so ``--ratio -1e-3`` would stop at "expected one
    argument".  No option name parses as a number, so a token that does is
    a value, and joined to its option it reaches the option's range check.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and len(prev) > 2 and "=" not in prev
                and token.startswith("-") and _is_number(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = PARSER.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
