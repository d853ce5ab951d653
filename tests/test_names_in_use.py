"""Names used outside the package, by the README and the benchmark's tracer, still exist."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import hubrelease
import hubrelease.arrival as arrival
import hubrelease.cli as cli
import hubrelease.dp as dp
import hubrelease.sim as sim
from test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]

# Wrapped by the tracer although the package no longer has them; they go
# with the tracer repair (ROADMAP direction 1).  dp-verify calls
# cli.suggest_max_count only for --dump-actions, whose listing needs the safe
# cap; any other search runs inside DpConfig and reads in the dp.cap_check span.
STALE = {("sim", "decide_non_causal"), ("arrival.ArrivalDistribution", "sample_many")}


def load_script():
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names() -> list[tuple[str, str]]:
    """(owner, attribute) of every ``patch(owner, "attribute", ...)`` call in
    perfbench/tracer.py, with a loop variable expanded to its owners."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    loops = {
        node.target.id: [ast.unparse(owner) for owner in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "patch"):
            owner, attr = ast.unparse(node.args[0]), node.args[1].value
            names += [(each, attr) for each in loops.get(owner, [owner])]
    return names


def test_every_name_the_tracer_patches_exists():
    # The tracer skips a name it cannot find, so a rename would silently
    # empty its span (dp.cap_check, dp.solve, ...) instead of failing.
    modules = {"arrival": arrival, "cli": cli, "dp": dp, "sim": sim, "script": load_script()}
    names = patched_names()
    assert ("cli", "DpConfig") in names
    assert len(names) >= 20
    missing = set()
    for owner, attr in names:
        first, *rest = owner.split(".")
        target = modules[first]
        for part in rest:
            target = getattr(target, part)
        if not hasattr(target, attr):
            missing.add((owner, attr))
    assert missing <= STALE


def test_readme_library_example_runs_without_warnings(tmp_path):
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert len(done.stdout.split()) == 3


def test_the_package_holds_no_memo_caches():
    # perfbench/worker.py empties every module-level callable with a
    # cache_clear before each pass, so a new cache changes what a pass
    # measures.  The callables are found the way it finds them.
    caches = set()
    for module in pkgutil.iter_modules(hubrelease.__path__):
        if module.name == "__main__":  # runs the command line on import
            continue
        loaded = importlib.import_module(f"hubrelease.{module.name}")
        for value in vars(loaded).values():
            if callable(getattr(value, "cache_clear", None)):
                caches.add(f"{value.__module__.removeprefix('hubrelease.')}.{value.__qualname__}")
    assert caches == set()
