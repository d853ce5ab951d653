"""The reproduction script: its threshold curves and the order of its runs."""
from __future__ import annotations

import csv

import pytest

from hubrelease.arrival import poisson_truncated
from hubrelease.stopping import compute_threshold
from test_names_in_use import load_script


def test_threshold_curves_build_each_rates_pmf_once(tmp_path, monkeypatch):
    script = load_script()
    built = []

    def counting(lam):
        built.append(lam)
        return poisson_truncated(lam)

    monkeypatch.setattr(script, "poisson_truncated", counting)
    path = tmp_path / "thresholds.csv"
    script.write_threshold_curves(path, 7, (0.0025, 0.01))
    assert len(built) == len(set(built)) == 7
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "ratio", "n_star"]
    assert len(rows) == 1 + 2 * 7
    for lam, ratio, n_star in rows[1:]:
        expected = compute_threshold(poisson_truncated(float(lam)), float(ratio)).n_star
        assert n_star == str(expected)


@pytest.mark.parametrize("verify_code,runs", [(0, ["dp-verify", "sweep"]), (1, ["dp-verify"])])
def test_the_run_always_checks_the_rule_before_the_sweep(tmp_path, monkeypatch, verify_code,
                                                         runs):
    script = load_script()
    calls = []

    def recording(argv):
        calls.append(argv[0])
        return verify_code if argv[0] == "dp-verify" else 0

    monkeypatch.setattr(script, "cli_main", recording)
    assert script.main(["--out-dir", str(tmp_path), "--threshold-points", "2"]) == verify_code
    assert calls == runs
