"""Times and records every entry-point invocation of a benchmark run."""
from __future__ import annotations

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass
class Op:
    """One invocation of ``cli.main`` or the reproduction script's ``main``.

    ``nested`` marks a CLI call made by the script rather than by the
    benchmark, so its time is already inside the script's op.
    """

    kind: str
    seconds: float
    stdout: str
    error: str | None
    nested: bool
    # Filled in by the sweep checks: simulated hours, vehicles, platoons.
    hours: int = 0
    vehicles: int = 0
    platoons: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None

    def fail(self, reason: str) -> None:
        if self.error is None:
            self.error = reason


class Session:
    """Calls the entry points with captured output; each call becomes an ``Op``.

    ``cli_main`` and ``script_main`` are swapped for traced versions during
    a traced pass.
    """

    def __init__(self, cli_main: Callable, script_main: Callable) -> None:
        self.cli_main = cli_main
        self.script_main = script_main
        self.ops: list[Op] = []

    def cli(self, argv: Sequence[str], nested: bool = False) -> Op:
        return self._call(argv[0], self.cli_main, list(argv), nested)

    def script(self, argv: Sequence[str]) -> Op:
        return self._call("reproduce_figures", self.script_main, list(argv), False)

    def nested_cli(self, argv: Sequence[str]) -> int | None:
        """Stands in for ``cli_main`` inside the reproduction script."""
        return 1 if self.cli(argv, nested=True).failed else 0

    def _call(self, kind: str, fn: Callable, argv: list[str], nested: bool) -> Op:
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = fn(argv)
            # A failed invocation is counted, and the run goes on.
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        op = Op(kind, seconds, out.getvalue(), error, nested)
        self.ops.append(op)
        return op
