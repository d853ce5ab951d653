"""End-to-end runs of the command-line interface, in process."""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import hubrelease.cli as cli
import hubrelease.dp as dp
from hubrelease.atomic import atomic_writer
from hubrelease.cli import SWEEP_COLUMNS, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_in_child(argvs: list[list[str]], cwd, prelude: str = "", timeout: float = 30) -> list:
    """[exit code, stderr] of each argv, run by ``main`` in one fresh process.

    The timeout turns a regression to a hang or a huge allocation into a
    test failure instead of a stalled suite.  ``prelude`` runs first, after
    ``hubrelease.cli`` is imported as ``cli``.  What ``main`` prints to
    stdout is dropped.
    """
    child = (
        "import contextlib, io, json, sys\n"
        "import hubrelease.cli as cli\n"
        + prelude +
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "        out.append([cli.main(argv), err.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, json.dumps(argvs)],
        capture_output=True, text=True, env=child_env(), cwd=cwd, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


# Prelude for run_in_child: an address-space limit of 2 GiB, so that a
# missing size check fails with MemoryError instead of filling the machine,
# and ``main`` reporting any error it lets through as exit code None with its
# traceback on stderr.
GUARDED_MAIN = (
    "import resource, traceback\n"
    "resource.setrlimit(resource.RLIMIT_AS,\n"
    "                   (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
    "unguarded = cli.main\n"
    "def guarded(argv):\n"
    "    try:\n"
    "        return unguarded(argv)\n"
    "    except Exception:\n"
    "        traceback.print_exc()\n"
    "cli.main = guarded\n"
)

BERNOULLI_PMF = "count,probability\n0,0.5\n1,0.5\n"


def never_search(*args):
    raise AssertionError("the occupancy-cap search ran")


class TestThreshold:
    def test_reference_operating_point(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--lambda", str(1.0 / 6.0), "--ratio", "0.005"
        )
        assert code == 0
        assert out == "n_star,6\n"

    def test_zero_ratio_never_releases(self, capsys):
        code, out, _ = run(capsys, "threshold", "--lambda", "0.1", "--ratio", "0")
        assert code == 0
        assert out == "n_star,never\n"

    def test_pmf_file_input(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(BERNOULLI_PMF)
        code, out, _ = run(
            capsys, "threshold", "--pmf-file", str(pmf), "--ratio", "0.05"
        )
        assert code == 0
        assert out == "n_star,3\n"

    def test_lambda_and_pmf_file_conflict(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--lambda", "0.1", "--pmf-file", "x.csv",
            "--ratio", "0.005",
        )
        assert code == 2
        assert "not allowed with" in err

    def test_missing_ratio_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "threshold", "--lambda", "0.1")
        assert code == 2

    def test_negative_rate_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "threshold", "--lambda", "-1", "--ratio", "0.005")
        assert code == 1
        assert err.startswith("error:")
        # Non-finite values are refused up front instead of looping forever.
        for argv, word in (
            (["threshold", "--lambda", "0.1", "--ratio", "nan"], "ratio"),
            (["threshold", "--lambda", "0.1", "--ratio", "inf"], "ratio"),
            (["threshold", "--lambda", "inf", "--ratio", "0.005"], "rate"),
            (["threshold", "--lambda", "nan", "--ratio", "0.005"], "rate"),
            (["dp-verify", "--lambda", "0.1", "--ratio", "nan"], "ratio"),
            (["dp-verify", "--lambda", "0.1", "--ratio", "inf"], "ratio"),
            (["sweep", "--ratio", "nan", "--out", str(tmp_path / "e.csv")], "ratio"),
            (["sweep", "--ratio", "inf", "--out", str(tmp_path / "f.csv")], "ratio"),
            (["sweep", "--lambda-max", "inf", "--out", str(tmp_path / "a.csv")],
             "lambda-max"),
            (["sweep", "--lambda-min", "nan", "--out", str(tmp_path / "b.csv")],
             "lambda-min"),
            (["sweep", "--initial-lambda", "nan", "--points", "1",
              "--out", str(tmp_path / "c.csv")], "--initial-lambda must be a rate"),
            (["sweep", "--initial-lambda", "inf", "--points", "1",
              "--out", str(tmp_path / "d.csv")], "--initial-lambda must be a rate"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error:") and word in err, argv

    def test_huge_rates_and_tiny_ratios_exit_1_promptly(self, tmp_path):
        cases = [
            (["threshold", "--lambda", "1e300", "--ratio", "0.005"], "rate"),
            (["threshold", "--lambda", "20000.5", "--ratio", "0.005"], "rate"),
            (["dp-verify", "--lambda", "1e300", "--ratio", "0.005"], "rate"),
            (["threshold", "--lambda", "0.1", "--ratio", "5e-324"], "too small"),
            (["dp-verify", "--lambda", "1", "--ratio", "1e-305"], "too small"),
            (["sweep", "--lambda-max", "1e300", "--out", "never.csv"], "lambda-max"),
            # An hour's waiting cost of 5e308 would overflow the utilities.
            (["sweep", "--points", "2", "--samples", "2", "--horizon", "5",
              "--ratio", "1e308", "--out", "never.csv"], "ratio 1e+308 x horizon_steps 5"),
        ]
        results = run_in_child([argv for argv, _ in cases], tmp_path)
        for (argv, word), (code, err) in zip(cases, results):
            assert code == 1, argv
            assert err.startswith("error:") and word in err, argv
            assert "Warning" not in err, argv
        assert not (tmp_path / "never.csv").exists()

    def test_a_huge_cost_over_the_horizon_verifies(self, capsys, tmp_path):
        # The solver's values are net of the elapsed cost, so 1e308 x 5,
        # past the float range, never appears, and the zero probability of
        # count 1 never meets an infinite value.  Release is optimal from
        # one vehicle on, so the solver reads counts up to one batch, 2, and
        # the cap is n* + 2.
        (tmp_path / "gap.csv").write_text("count,probability\n0,0.5\n2,0.5\n")
        code, out, err = run(capsys, "dp-verify", "--pmf-file", str(tmp_path / "gap.csv"),
                             "--ratio", "1e308", "--horizon", "5")
        assert (code, out, err) == (0, "MATCH n_star=1 states=5x3\n", "")

    @pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan", "-1E5", "-1"])
    def test_negative_values_reach_the_range_checks(self, capsys, tmp_path, value):
        # argparse would take "-1e-3", "-inf" and "-nan" for option names.
        out = str(tmp_path / "never.csv")
        for argv, word in (
            (["threshold", "--lambda", "0.1", "--ratio", value], "ratio"),
            (["threshold", "--lambda", value, "--ratio", "0.005"], "rate"),
            (["dp-verify", "--lambda", "0.1", "--ratio", value], "ratio"),
            (["dp-verify", "--lambda", value, "--ratio", "0.005"], "rate"),
            (["sweep", "--lambda-min", value, "--out", out], "lambda-min"),
            (["sweep", "--ratio", value, "--out", out], "ratio"),
            (["sweep", "--step-seconds", value, "--out", out], "step_seconds"),
            (["sweep", "--initial-lambda", value, "--points", "1", "--out", out],
             "--initial-lambda must be a rate in [0, 20000]"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error:") and word in err, argv
        assert not (tmp_path / "never.csv").exists()

    def test_negative_value_after_a_flag_stays_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--exclude-forced-length", "-1e-3",
            "--out", str(tmp_path / "never.csv"),
        )
        assert code == 2
        assert "-1e-3" in err

    def test_a_nan_probability_names_its_own_count(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("count,probability\n0,0.5\n3,nan\n")
        code, out, err = run(capsys, "threshold", "--pmf-file", str(pmf), "--ratio", "0.005")
        assert code == 1
        assert out == ""
        assert err == "error: probability of count 3 is nan\n"

    @pytest.mark.parametrize("prob", ["inf", "1.5"])
    def test_a_probability_past_one_names_its_own_count(self, capsys, tmp_path, prob):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(f"count,probability\n0,0.5\n3,{prob}\n")
        code, out, err = run(capsys, "threshold", "--pmf-file", str(pmf), "--ratio", "0.005")
        assert code == 1
        assert out == ""
        assert err == f"error: probability of count 3 is {float(prob)!r}, outside [0, 1]\n"

    def test_missing_pmf_file_is_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "threshold", "--pmf-file", str(tmp_path / "nope.csv"),
            "--ratio", "0.005",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("count", [3_000_000, 10**12])
    def test_a_huge_count_is_refused_before_the_pmf_is_built(self, tmp_path, count):
        # A dense pmf up to 10**12 would be an 8 TB list; the child's 2 GiB
        # address-space limit turns any attempt into a traceback.
        (tmp_path / "pmf.csv").write_text(f"count,probability\n0,0.5\n{count},0.5\n")
        [[code, err]] = run_in_child(
            [["threshold", "--pmf-file", "pmf.csv", "--ratio", "0.005"]], tmp_path,
            prelude=GUARDED_MAIN)
        assert code == 1
        assert err == (f"error: count {count} is more than MAX_COUNT = 21454, "
                       "the largest batch a pmf may hold\n")


class TestDpVerify:
    def test_match_at_small_scale(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(BERNOULLI_PMF)
        code, out, _ = run(
            capsys, "dp-verify", "--pmf-file", str(pmf), "--ratio", "0.05",
            "--horizon", "60",
        )
        assert code == 0
        assert out.startswith("MATCH n_star=3 states=60x")

    def test_a_rare_far_batch_gets_a_cap(self, capsys, tmp_path):
        # Three batches of 100 in 100 steps have probability 1.6e-7, so the
        # safe cap lies past 300, but the cap is the solver's reach: 4424
        # induction rows and one batch, below 1 + 100 x 100.
        pmf = tmp_path / "pmf.csv"
        pmf.write_text("count,probability\n0,0.9999\n100,0.0001\n")
        code, out, _ = run(
            capsys, "dp-verify", "--pmf-file", str(pmf), "--ratio", "0.00001",
            "--horizon", "100",
        )
        assert code == 0
        assert out == "MATCH n_star=10 states=100x4524\n"

    @pytest.mark.parametrize("lam, match", [
        ("2", "MATCH n_star=19 states=720x98\n"),
        ("1.6", "MATCH n_star=17 states=720x97\n"),
        ("1.3", "MATCH n_star=16 states=720x87\n"),
    ])
    def test_busy_hours_verify_with_no_cap_search(self, capsys, monkeypatch, lam, match):
        # The cap is the counts the solver reads, its induction rows and one
        # batch, far below the safe caps here, 1126 to 1674: no tail of the
        # cap search is read at all.
        monkeypatch.setattr(dp, "_final_count_tail", never_search)
        monkeypatch.setattr(cli, "suggest_max_count", never_search)
        code, out, err = run(capsys, "dp-verify", "--lambda", lam, "--ratio", "0.005",
                             "--horizon", "720")
        assert (code, out, err) == (0, match, "")

    @pytest.mark.xfail(strict=True, reason=(
        "g(11) equals the ratio, and P(X = 0) is near 1: the waiting value at "
        "n = 11 feeds on itself through the P(X = 0) self-loop, so its rounding "
        "error grows past the one-step tie bound and the tie reads as a mismatch"))
    def test_an_exact_tie_with_a_heavy_self_loop_matches(self, capsys):
        code, out, _ = run(capsys, "dp-verify", "--lambda", "0.009958887832738262",
                           "--ratio", "7.538836412806666e-05", "--horizon", "40")
        assert "MISMATCH" not in out
        assert code == 0

    def test_the_cap_is_not_an_option(self, capsys):
        # The cap is derived from the pmf, the horizon and n_star, never chosen.
        code, out, err = run(capsys, "dp-verify", "--lambda", "0.1", "--ratio", "0.005",
                             "--max-count", "10")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --max-count 10" in err

    def test_smallest_usable_cap_matches(self, capsys):
        # n* = 100 sits far above the safe cap here, and n* plus the largest
        # batch, 104, below the solver's reach, so the derived cap is the
        # reach: 112 induction rows and one batch.
        code, out, _ = run(
            capsys, "dp-verify", "--lambda", "0.01", "--ratio", "1e-6", "--horizon", "30",
        )
        assert code == 0
        assert out == "MATCH n_star=100 states=30x121\n"

    @pytest.mark.parametrize("argv,ties", [
        # g(3) equals the ratio exactly: at n = 3 both actions are optimal,
        # and the solver's float values tie exactly too, so it releases as
        # the rule does and nothing is reported.
        (["--pmf-file", "PMF", "--ratio", "0.041666666666666664", "--horizon", "100"], 0),
        # g(6) equals the ratio: the solver's continuation lands just above
        # the release value at n = 6 and waits at all 30 steps.
        (["--lambda", "0.1", "--ratio", "0.0023515178869356894", "--horizon", "30"], 30),
        # g(n) - ratio near n* = 223607 is far below the rounding of values
        # near 1.  Which of the states next to n* the solver's rounding flips
        # depends on the last bits of the pmf, so the count moves with them.
        (["--lambda", "0.05", "--ratio", "1e-12", "--horizon", "90"], 387),
    ])
    def test_float_ties_are_reported_as_indifferent(self, capsys, tmp_path, argv, ties):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(BERNOULLI_PMF)
        argv = [str(pmf) if token == "PMF" else token for token in argv]
        code, out, err = run(capsys, "dp-verify", *argv)
        assert code == 0
        assert out.startswith("MATCH ") and out.count("\n") == 1
        assert err == (f"{ties} indifferent states: releasing and waiting tie within "
                       "the solver's rounding error\n" if ties else "")

    def test_dump_actions_writes_table_and_manifest(self, capsys, tmp_path):
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(BERNOULLI_PMF)
        table = tmp_path / "actions.csv"
        code, _, _ = run(
            capsys, "dp-verify", "--pmf-file", str(pmf), "--ratio", "0.05",
            "--horizon", "30", "--dump-actions", str(table),
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "k,n,action"
        assert all(line.endswith(("release", "wait")) for line in lines[1:])
        manifest = json.loads((tmp_path / "actions.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "dp-verify"
        assert manifest["parameters"]["horizon"] == 30

    @pytest.mark.parametrize("lam, horizon", [("0.05", "90"), ("0.2", "30")])
    def test_a_dump_runs_one_cap_search(self, capsys, monkeypatch, tmp_path, lam, horizon):
        # The safe cap lies below the solver's reach here.  The dump runs the
        # search for its listing, and DpConfig runs none of its own.
        calls = []
        search = dp.suggest_max_count

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(dp, "suggest_max_count", counting)
        monkeypatch.setattr(cli, "suggest_max_count", counting)
        code, out, _ = run(capsys, "dp-verify", "--lambda", lam, "--ratio", "0.005",
                           "--horizon", horizon, "--dump-actions", str(tmp_path / "a.csv"))
        assert code == 0 and out.startswith("MATCH ")
        assert len(calls) == 1

    # Rates 0.01-1 by ratios 1e-6-1e-3 by horizons 30/90/360.  With only the
    # overflow-safe cap, 27 of these had n_star above the cap, where the
    # solver's clamp made it disagree with the rule.
    @pytest.mark.parametrize("lam", ["0.01", "0.05", "0.2", "1"])
    @pytest.mark.parametrize("ratio", ["1e-6", "1e-5", "1e-4", "1e-3"])
    @pytest.mark.parametrize("horizon", ["30", "90", "360"])
    def test_default_cap_leaves_room_above_n_star(self, capsys, lam, ratio, horizon):
        code, out, _ = run(
            capsys, "dp-verify", "--lambda", lam, "--ratio", ratio, "--horizon", horizon
        )
        assert code == 0, out
        n_star = int(out.split("n_star=")[1].split()[0])
        cap = int(out.split("x")[-1])
        assert cap > n_star

    def test_state_limit_is_checked_before_any_table(self, tmp_path):
        cases = [
            # n_star = 408248 at this ratio: 721 x 408257 solver states.
            (["dp-verify", "--lambda", "0.16666666666666666", "--ratio", "1e-12"],
             "the solver needs 721 x 408257"),
            # The solver reads counts up to 86 here, but not over 10**6 steps.
            (["dp-verify", "--lambda", "1", "--ratio", "0.005",
              "--horizon", "1000000"], "the solver needs 1000001 x 87 "),
            # No cap fits a solver grid of 10**9 steps: refused before the
            # reach or the search.
            (["dp-verify", "--lambda", "1", "--ratio", "0.005",
              "--horizon", "1000000000"], "the solver needs 1000000001 x 2 "),
            (["dp-verify", "--lambda", "0", "--ratio", "0.005",
              "--horizon", "100000000"], "the solver needs"),
            # A one-step solve, but 21202 counts x 21004 batch sizes.
            (["dp-verify", "--lambda", "20000", "--ratio", "0.005", "--horizon", "1"],
             "the solver's transition table needs 21202 x 21004"),
        ]
        # The cap search and the solver are guarded in the child, so that a
        # missing check fails the test before it allocates or loops over a
        # grid past the limit.
        guards = (
            "import hubrelease.dp as dp\n"
            "tail, solve = dp._final_count_tail, cli.solve\n"
            "def guarded_tail(dist, horizon, bound):\n"
            "    assert horizon * (bound + 2) <= dp.MAX_STATES, 'cap search past the limit'\n"
            "    return tail(dist, horizon, bound)\n"
            "def guarded_solve(config):\n"
            "    assert (config.horizon + 1) * (config.max_count + 1) <= dp.MAX_STATES, "
            "'solve past the limit'\n"
            "    assert config.max_count * (config.dist.support_max + 1) <= dp.MAX_STATES, "
            "'transitions past the limit'\n"
            "    return solve(config)\n"
            "dp._final_count_tail, cli.solve = guarded_tail, guarded_solve\n"
        )
        results = run_in_child([argv for argv, _ in cases], tmp_path, guards)
        for (argv, words), (code, err) in zip(cases, results):
            assert code == 1, argv
            assert err.startswith("error:") and words in err, argv
            assert "MAX_STATES" in err, argv

    def test_a_huge_horizon_is_refused_without_a_traceback(self, capsys):
        # This pmf's mass is off by 3.3e-16, and the solver's rounding bound
        # raises 1 + 3.3e-16 to the horizon-th power, past the float range
        # at 10**19 steps.  No cap fits that solver grid, so it is refused
        # first.
        code, out, err = run(capsys, "dp-verify", "--lambda", "2.0892961308540396",
                             "--ratio", "0.005", "--horizon", "10000000000000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: the solver needs 10000000000000000001 x 2 = 2e+19 states")
        assert err.count("\n") == 1 and "MAX_STATES" in err

    def test_convolution_work_is_checked_before_the_cap_search(self, tmp_path):
        # The solver reads counts up to 21395, one batch past its 392
        # induction rows: 37 x 21396 states fit in MAX_STATES, but the
        # transitions of 21395 counts by 21004 batch sizes do not, and are
        # refused before any table is built.
        guards = (
            "import hubrelease.dp as dp\n"
            "solve = cli.solve\n"
            "def guarded_solve(config):\n"
            "    assert config.max_count * (config.dist.support_max + 1) <= dp.MAX_STATES, "
            "'transitions past the limit'\n"
            "    return solve(config)\n"
            "cli.solve = guarded_solve\n"
        )
        argv = ["dp-verify", "--lambda", "20000", "--ratio", "0.005", "--horizon", "37"]
        [(code, err)] = run_in_child([argv], tmp_path, guards)
        assert code == 1
        assert err.startswith("error: the solver's transition table needs 21395 x 21004")
        assert "MAX_STATES" in err

    def test_solver_work_is_checked_before_the_solve(self, tmp_path):
        # The derived cap n* + 76 = 273922 fits in MAX_STATES, and the cap
        # search is cheap, but the solve would weigh 273922 counts by 77
        # batch sizes at each of 100 steps: past MAX_CONVOLUTION_WORK.
        guards = (
            "import hubrelease.dp as dp\n"
            "solve = cli.solve\n"
            "def guarded_solve(config):\n"
            "    work = config.horizon * config.max_count * (config.dist.support_max + 1)\n"
            "    assert work <= dp.MAX_CONVOLUTION_WORK, 'solve past the limit'\n"
            "    return solve(config)\n"
            "cli.solve = guarded_solve\n"
        )
        argv = ["dp-verify", "--lambda", "30", "--ratio", "4e-10", "--horizon", "100"]
        [(code, err)] = run_in_child([argv], tmp_path, guards)
        assert code == 1
        assert err.startswith("error: the solver needs 100 steps x 273922 counts x 77 batch")
        assert "MAX_CONVOLUTION_WORK" in err

    def test_ratio_zero_with_arrivals_is_refused(self, capsys):
        # The rule never releases; at the solver's cap, releasing and
        # waiting tie, so a solve would report false mismatches there.
        code, out, err = run(
            capsys, "dp-verify", "--lambda", "0.1", "--ratio", "0", "--horizon", "5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: dp-verify cannot check ratio 0.0:")
        assert "never releases" in err
        assert err.count("\n") == 1

    def test_ratio_zero_without_arrivals_still_matches(self, capsys):
        code, out, _ = run(
            capsys, "dp-verify", "--lambda", "0", "--ratio", "0", "--horizon", "5"
        )
        assert code == 0
        assert out.startswith("MATCH n_star=1 states=5x")

    # Release is optimal from one vehicle on, so the solver's induction
    # block is empty and every state is the closed form.  The MATCH lines
    # and sha256s of the dumps were recorded while the solver still
    # tabulated every count up to the cap.
    @pytest.mark.parametrize("pmf, argv, match, dump_sha", [
        (None, ["--lambda", "0", "--ratio", "0.005"], "MATCH n_star=1 states=5x1\n",
         "e360d5015a9db903d6187a5c19c8422192ba28893909a9d5b0774dcec9a81561"),
        (BERNOULLI_PMF, ["--ratio", "1"], "MATCH n_star=1 states=5x6\n",
         "9e3abe570ef73a96874f2014cc9999640d973275daec73104a73f98c6647195e"),
        ("count,probability\n0,0.25\n3,0.5\n7,0.25\n", ["--ratio", "7"],
         "MATCH n_star=1 states=5x36\n",
         "ae7f2099e1dc95419413a248e2e05c54e1dced14c58bfbc2fd6b04da23503697"),
    ])
    def test_an_empty_induction_block_keeps_its_output(
            self, capsys, tmp_path, pmf, argv, match, dump_sha):
        if pmf is not None:
            (tmp_path / "pmf.csv").write_text(pmf)
            argv = ["--pmf-file", str(tmp_path / "pmf.csv"), *argv]
        table = tmp_path / "actions.csv"
        code, out, err = run(capsys, "dp-verify", *argv, "--horizon", "5",
                             "--dump-actions", str(table))
        assert (code, out, err) == (0, match, "")
        assert hashlib.sha256(table.read_bytes()).hexdigest() == dump_sha
        assert table.read_bytes().startswith(b"k,n,action\r\n0,1,release\r\n")

    def test_disagreement_reporting(self, capsys, tmp_path, monkeypatch):
        # The solver and the rule genuinely agree, so fake a disagreement,
        # next to a tie, to pin the failure-path output contract.
        monkeypatch.setattr(cli, "compare_with_threshold",
                            lambda *a, **k: [(4, 5, True), (4, 6, False)])
        pmf = tmp_path / "pmf.csv"
        pmf.write_text(BERNOULLI_PMF)
        code, out, err = run(
            capsys, "dp-verify", "--pmf-file", str(pmf), "--ratio", "0.05",
            "--horizon", "20",
        )
        assert code == 1
        assert out == "MISMATCH k=4 n=6 dp=wait rule=release\n1 mismatched states\n"
        assert err == ("1 indifferent states: releasing and waiting tie within "
                       "the solver's rounding error\n")


class TestSweep:
    def sweep_args(self, out_path, *extra: str) -> list[str]:
        return [
            "sweep", "--lambda-min", "0", "--lambda-max", "0.05", "--points", "3",
            "--samples", "4", "--horizon", "40", "--seed", "7",
            "--out", str(out_path), *extra,
        ]

    @pytest.mark.parametrize("value", ["0", "nan", "inf"])
    def test_step_label_must_be_positive_and_finite(self, capsys, tmp_path, value):
        # The manifest must stay strict JSON, which has no NaN or Infinity.
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, *self.sweep_args(out_path, "--step-seconds", value))
        assert code == 1
        assert "step_seconds must be positive and finite" in err
        assert not out_path.exists()

    def test_csv_schema_and_shape(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *self.sweep_args(out_path))
        assert code == 0
        assert "wrote 12 rows" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == SWEEP_COLUMNS
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[1] == "threshold"
        assert first[2].isdigit() or first[2] == "never"

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run(capsys, *self.sweep_args(out_path))
        csv_once = out_path.read_bytes()
        manifest_once = (tmp_path / "sweep.csv.manifest.json").read_bytes()
        run(capsys, *self.sweep_args(out_path))
        assert out_path.read_bytes() == csv_once
        assert (tmp_path / "sweep.csv.manifest.json").read_bytes() == manifest_once

    def test_manifest_records_parameters_without_timestamps(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        run(capsys, *self.sweep_args(out_path))
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["tool"] == "hubrelease"
        assert manifest["subcommand"] == "sweep"
        assert manifest["parameters"]["seed"] == 7
        assert manifest["parameters"]["points"] == 3
        assert not any("time" in key or "date" in key for key in manifest)

    def test_policy_subset_and_order(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, *self.sweep_args(out_path, "--policies", "spontaneous,threshold")
        )
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines[:2]] == [
            "spontaneous", "threshold",
        ]

    def test_unknown_policy_is_domain_error(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(capsys, *self.sweep_args(out_path, "--policies", "psychic"))
        assert code == 1
        assert "psychic" in err

    def test_oversize_sweeps_exit_1_before_allocating(self, tmp_path):
        # Unchecked, these would ask numpy for 7.45 GiB of uniforms, 7.28 TiB
        # of per-sample totals and a 74.5 GiB rate grid.
        cases = [
            (["--horizon", "1000000000"], "MAX_ROW_ITEMS"),
            (["--samples", str(10**12)], "MAX_SWEEP_ITEMS"),
            (["--points", str(10**10)], "MAX_SWEEP_ITEMS"),
        ]
        argvs = [["sweep", *extra, "--out", "never.csv"] for extra, _ in cases]
        results = run_in_child(argvs, tmp_path, GUARDED_MAIN)
        for (argv, word), (code, err) in zip(cases, results):
            assert code == 1, (argv, err)
            assert err.startswith("error:") and word in err, argv
        assert not list(tmp_path.iterdir())

    def test_zero_points_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--points", "0", "--out", str(out_path)
        )
        assert code == 1
        assert "points" in err

    def test_episode_utility_report(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            *self.sweep_args(out_path, "--policies", "periodic",
                             "--report-episode-utility"),
        )
        assert code == 0
        report = out.splitlines()
        start = report.index("lambda,policy,mean_episode_utility")
        assert len(report[start + 1:]) == 3
        assert all(line.split(",")[1] == "periodic" for line in report[start + 1:])

    # sha256 of the CSV and of the episode-utility report, recorded before the
    # simulator was rewritten on arrays; any change to a simulated bit fails.
    PINNED_SWEEPS = [
        (
            ["--exclude-forced-length"],
            "c0857cdb625c029d5b5098b1d1302642898c729362102a0a389df63e458620f2",
            "74c5210cc0fdef6909e97e68939ed8d7ddd206dbb63a3b6543a75fbfd65464db",
        ),
        (
            ["--initial-lambda", "0"],
            "74b199bdefaa8effccf1252dd95adde3867e0b362d43b0df497c41a3529862d0",
            "f99ae5a0adda74a4d154470d64631fe909beeec8960983effb989529ddc6f679",
        ),
    ]

    @pytest.mark.parametrize("extra,csv_sha,report_sha", PINNED_SWEEPS,
                             ids=["exclude-forced-length", "initial-lambda-0"])
    def test_output_bytes_are_pinned(self, capsys, tmp_path, extra, csv_sha, report_sha):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--lambda-min", "0", "--lambda-max", "2",
            "--points", "5", "--policies", "threshold,periodic,spontaneous,non_causal",
            "--period", "7", "--horizon", "120", "--samples", "12", "--seed", "31",
            "--report-episode-utility", *extra, "--out", str(out_path),
        )
        assert code == 0
        report = out[out.index("lambda,policy,mean_episode_utility"):]
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(report.encode()).hexdigest() == report_sha


class TestIngest:
    def test_stdout_output(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n8,330\n")
        code, out, _ = run(
            capsys, "ingest", "--file", str(counts),
            "--stop-fraction", str(120.0 / 330.0),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hour,lambda"
        hour, lam = lines[1].split(",")
        assert hour == "8"
        assert float(lam) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_file_output_with_manifest(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n0,0\n8,330\n")
        out_path = tmp_path / "rates.csv"
        code, out, _ = run(
            capsys, "ingest", "--file", str(counts), "--stop-fraction", "0.5",
            "--out", str(out_path),
        )
        assert code == 0
        assert "wrote 2 rows" in out
        assert out_path.read_text().splitlines()[0] == "hour,lambda"
        manifest = json.loads((tmp_path / "rates.csv.manifest.json").read_text())
        assert manifest["parameters"]["stop_fraction"] == 0.5

    @pytest.mark.parametrize("value", ["-1e-3", "-inf", "-nan", "nan", "inf"])
    def test_ingest_rejects_bad_step_and_fraction(self, capsys, tmp_path, value):
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n0,100\n")
        for argv, word in (
            (["ingest", "--file", str(counts), "--stop-fraction", value],
             "stop_fraction"),
            (["ingest", "--file", str(counts), "--stop-fraction", "0.5",
              "--step-seconds", value], "step_seconds"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error:") and word in err, argv

    def test_malformed_file_is_domain_error(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\nnoon,12\n")
        code, _, err = run(
            capsys, "ingest", "--file", str(counts), "--stop-fraction", "0.5"
        )
        assert code == 1
        assert "line 2" in err

    def test_errors_name_the_file_line_past_a_quoted_newline(self, capsys, tmp_path):
        # The first record spans lines 2 and 3, so "9,x" is on line 4.
        counts = tmp_path / "counts.csv"
        counts.write_text('hour,count\n"8\n",330\n9,x\n')
        code, out, err = run(
            capsys, "ingest", "--file", str(counts), "--stop-fraction", "0.5"
        )
        assert (code, out) == (1, "")
        assert err == "error: line 4: count 'x' is not numeric\n"

    @pytest.mark.parametrize("argv,header", [
        (["ingest", "--file", "big.csv", "--stop-fraction", "0.5"], "hour,count"),
        (["threshold", "--pmf-file", "big.csv", "--ratio", "0.005"], "count,probability"),
    ])
    def test_an_oversized_field_is_a_domain_error(self, tmp_path, argv, header):
        # The csv module refuses a field past its size limit with csv.Error,
        # which is neither ValueError nor OSError.
        (tmp_path / "big.csv").write_text(f"{header}\n0,{'9' * 200_000}\n")
        done = subprocess.run([sys.executable, "-m", "hubrelease", *argv],
                              capture_output=True, text=True, env=child_env(),
                              cwd=tmp_path, timeout=60)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert re.fullmatch(r"error: line 2: field larger than field limit \(\d+\)\n",
                            done.stderr), done.stderr


def numeric_options() -> list[tuple[str, str]]:
    """(subcommand, option) for every option the parser reads as a number."""
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action.option_strings[0])
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    ]


# Small settings for each subcommand; one numeric option at a time is
# replaced by an edge value.
SMALL_RUNS = {
    "threshold": ["--lambda", "0.1", "--ratio", "0.005"],
    "dp-verify": ["--lambda", "0.1", "--ratio", "0.005", "--horizon", "5"],
    "sweep": ["--points", "2", "--samples", "2", "--horizon", "5", "--out", "sweep.csv"],
    "ingest": ["--file", "counts.csv", "--stop-fraction", "0.5", "--out", "rates.csv"],
}
EDGE_VALUES = ["nan", "inf", "-inf", "0", "5e-324", "1e308", "-1", str(10**18)]


def test_every_numeric_option_ends_promptly_without_a_traceback(tmp_path):
    options = numeric_options()
    assert len(options) == 17
    (tmp_path / "counts.csv").write_text("hour,count\n8,330\n")
    argvs = []
    for name, option in options:
        for value in EDGE_VALUES:
            small = dict(zip(SMALL_RUNS[name][::2], SMALL_RUNS[name][1::2]))
            small[option] = value
            argvs.append([name, *(token for pair in small.items() for token in pair)])
    results = run_in_child(argvs, tmp_path, GUARDED_MAIN, timeout=60)
    for argv, (code, err) in zip(argvs, results):
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert "Warning" not in err, (argv, err)


class TestAtomicOutput:
    def test_a_completed_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_writer(str(path)) as fh:
            fh.write("new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_an_error_mid_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(str(path)) as fh:
                fh.write("half a fi")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "out.csv").mkdir()
        with pytest.raises(OSError):
            with atomic_writer(str(tmp_path / "out.csv")) as fh:
                fh.write("data\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("argv", [
        ["dp-verify", "--lambda", "0.5", "--ratio", "0.005", "--horizon", "30",
         "--dump-actions", "OUT"],
        ["sweep", "--points", "2", "--samples", "2", "--horizon", "5", "--out", "OUT"],
        ["ingest", "--file", "COUNTS", "--stop-fraction", "0.5", "--out", "OUT"],
    ])
    @pytest.mark.parametrize("make_target", ["missing directory", "directory"])
    def test_a_failed_write_names_the_output_path(self, capsys, tmp_path, argv, make_target):
        # The temporary file beside the output is the writer's own business:
        # an error that cannot open it, or cannot replace the output with
        # it, names the path the user gave.
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n8,330\n")
        if make_target == "directory":
            target = tmp_path / "out.csv"
            target.mkdir()
        else:
            target = tmp_path / "no" / "such" / "out.csv"
        argv = [{"OUT": str(target), "COUNTS": str(counts)}.get(a, a) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: [Errno ")
        assert err.endswith(f": {str(target)!r}\n")
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", *(
            ["out.csv"] if make_target == "directory" else [])]

    def test_a_stale_temporary_file_is_left_alone(self, capsys, tmp_path, monkeypatch):
        # A run killed mid-write leaves its temporary file behind; a later
        # run with the same process id writes beside it instead of failing.
        monkeypatch.setattr(os, "getpid", lambda: 7)
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n8,330\n")
        stale = [tmp_path / "rates.csv.7.tmp", tmp_path / "rates.csv.7.1.tmp"]
        for path in stale:
            path.write_text("half a fi")
        out = tmp_path / "rates.csv"
        code, _, err = run(capsys, "ingest", "--file", str(counts), "--stop-fraction", "0.5",
                           "--out", str(out))
        assert (code, err) == (0, "")
        assert out.read_text() == "hour,lambda\n8,0.22916666666666666\n"
        assert [path.read_text() for path in stale] == ["half a fi"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts.csv", "rates.csv", "rates.csv.7.1.tmp", "rates.csv.7.tmp",
            "rates.csv.manifest.json"]
        plain = tmp_path / "plain.csv"
        with open(plain, "w"):
            pass
        assert out.stat().st_mode == plain.stat().st_mode

    def test_sweep_into_a_missing_directory_is_refused_before_simulating(
            self, capsys, tmp_path, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("simulated before checking the output directory")

        monkeypatch.setattr(cli, "sweep", sweep)
        target = tmp_path / "nodir" / "x.csv"
        code, out, err = run(capsys, "sweep", "--points", "3", "--samples", "200",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directory", ["x.csv", "x.csv.manifest.json"])
    def test_sweep_onto_a_directory_is_refused_before_simulating(
            self, capsys, tmp_path, monkeypatch, directory):
        # Without the check the grid is simulated first, and with only the
        # manifest a directory the CSV is written with no manifest beside it.
        def sweep(*args, **kwargs):
            raise AssertionError("simulated before checking the output paths")

        monkeypatch.setattr(cli, "sweep", sweep)
        (tmp_path / directory).mkdir()
        target = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--points", "3", "--samples", "200",
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path / directory)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == [directory]

    def test_an_error_while_writing_the_action_table_keeps_the_old_one(
            self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "actions.csv"
        argv = ["dp-verify", "--lambda", "0.1", "--ratio", "0.005", "--horizon", "20",
                "--dump-actions", str(table)]
        assert run(capsys, *argv)[0] == 0
        before = table.read_bytes()

        @contextlib.contextmanager
        def disk_fills_after_the_header(path):
            with atomic_writer(path) as fh:
                write = fh.write

                def write_header_only(text):
                    if text != "k,n,action\r\n":
                        raise OSError("no space left on device")
                    return write(text)

                fh.write = write_header_only
                yield fh

        monkeypatch.setattr(dp, "atomic_writer", disk_fills_after_the_header)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "no space left" in err
        assert table.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "actions.csv", "actions.csv.manifest.json"]


class TestParser:
    def test_parser_is_built_once_and_reused(self, capsys, tmp_path, monkeypatch):
        # Built at import; main parses every command line with that parser.
        def build_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        parser = cli.PARSER
        assert run(capsys, "threshold", "--lambda", "0.5", "--ratio", "0.005")[0] == 0
        assert run(capsys, "threshold", "--lambda", "0.1", "--ratio", "nan")[0] == 1
        code, out, _ = run(capsys, "threshold", "--pmf-file", str(tmp_path / "no.csv"),
                           "--ratio", "0.01")
        assert code == 1
        assert run(capsys, "threshold", "--lambda", "0.16666666666666666",
                   "--ratio", "0.005")[1] == "n_star,6\n"
        assert run(capsys, "dp-verify", "--lambda", "0.16666666666666666",
                   "--ratio", "0.005")[1] == "MATCH n_star=6 states=720x64\n"
        assert run(capsys, "sweep", "--points", "2", "--samples", "2", "--horizon", "5",
                   "--out", str(tmp_path / "sweep.csv"))[0] == 0
        counts = tmp_path / "counts.csv"
        counts.write_text("hour,count\n8,330\n")
        assert run(capsys, "ingest", "--file", str(counts), "--stop-fraction", "0.5")[0] == 0
        assert run(capsys, "dp-verify", "--lambda", "0.1")[0] == 2
        assert cli.PARSER is parser

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == cli.__version__

    def test_module_prints_its_version(self):
        done = subprocess.run([sys.executable, "-m", "hubrelease", "--version"],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert done.returncode == 0
        assert done.stdout == f"{cli.__version__}\n"

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_module_runs_as_a_program(self):
        done = subprocess.run(
            [sys.executable, "-m", "hubrelease", "threshold",
             "--lambda", str(1.0 / 6.0), "--ratio", "0.005"],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "n_star,6\n"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # The package depends on numpy alone: with every scipy import made to
        # fail, each entry point still runs, and no scipy module is loaded.
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        with open(os.path.join(root, "README.md")) as readme:
            [example] = re.findall(r"```python\n(.*?)```", readme.read(), re.S)
        (tmp_path / "pmf.csv").write_text(BERNOULLI_PMF)
        child = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import importlib.util\n"
            "import hubrelease.cli as cli\n"
            "spec = importlib.util.spec_from_file_location('reproduce_figures', sys.argv[1])\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "for argv in (['threshold', '--lambda', '0.5', '--ratio', '0.005'],\n"
            "             ['dp-verify', '--pmf-file', 'pmf.csv', '--ratio', '0.05',\n"
            "              '--horizon', '30', '--dump-actions', 'actions.csv'],\n"
            "             ['sweep', '--points', '2', '--samples', '2', '--horizon', '60',\n"
            "              '--out', 'sweep.csv']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "exec(sys.argv[2])\n"
            "print([m for m, module in sys.modules.items()\n"
            "       if m.split('.')[0] == 'scipy' and module is not None])\n"
        )
        script = os.path.join(root, "scripts", "reproduce_figures.py")
        done = subprocess.run(
            [sys.executable, "-c", child, script, example],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "actions.csv").exists() and (tmp_path / "sweep.csv").exists()

    def test_entrypoint_propagates_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["hubrelease", "threshold", "--lambda", "-1", "--ratio", "0"]
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.entrypoint()
        assert excinfo.value.code == 1


class TestReadmeExamples:
    def test_the_examples_print_what_the_readme_shows(self, capsys, monkeypatch, tmp_path):
        # Each indented `$ hubrelease threshold` and `$ hubrelease dp-verify`
        # example, against the lines under it up to the next blank line.  The
        # sweep example runs 50,000 hours and the ingest example reads a file
        # the README does not give, so neither is run.  The half.csv example
        # reads {0: 0.5, 1: 0.5} from the working directory.
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        with open(os.path.join(root, "README.md")) as readme:
            examples = re.findall(r"^    \$ hubrelease (threshold|dp-verify)( .*)\n((?:    .*\n)*)",
                                  readme.read(), re.M)
        assert [command for command, _, _ in examples] == ["threshold"] + ["dp-verify"] * 3
        (tmp_path / "half.csv").write_text(BERNOULLI_PMF)
        monkeypatch.chdir(tmp_path)
        for command, args, printed in examples:
            code, out, err = run(capsys, command, *shlex.split(args))
            assert code == 0, args
            assert err + out == printed.replace("\n    ", "\n")[4:], args
