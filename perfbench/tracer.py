"""Span timing around calls into the hubrelease layers.

Every wrapper lives here, outside the package: a traced pass replaces
each public function where its caller looks it up (for example
``hubrelease.sim.run_episode_hour``, which ``monte_carlo`` reads from its
module globals) and puts the original back afterwards.  Per-step helpers
(``decide_threshold``, ``decide_periodic``, ``per_vehicle_utility``) are not
wrapped; their cost shows in the self time of their caller.

A span's self time is its duration minus the durations of the spans it
directly contains, so the self times of all spans add up to the duration
of the outermost spans, with nothing counted twice.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Sim policy classes by name; a policy class the table lacks is reported
# under its lowercased class name.
POLICY_LABELS = {
    "ThresholdPolicy": "threshold",
    "PeriodicPolicy": "periodic",
    "SpontaneousPolicy": "spontaneous",
    "NonCausalPolicy": "non_causal",
}

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("sim.aggregate",)


class Tracer:
    """Accumulates span self times, call counts, and counters in memory."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)
        # One entry per open span: time spent in its direct children.
        self._child_ns: list[int] = []

    def wrap(
        self,
        name: str | Callable[[tuple, dict], str],
        fn: Callable,
        on_result: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as a span; ``name`` may derive the span name from the call."""
        perf = time.perf_counter_ns
        stack = self._child_ns
        keep = name in KEEP_DURATIONS

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = perf()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, args, kwargs, result)
                return result
            finally:
                elapsed = perf() - start
                children = stack.pop()
                span = name if isinstance(name, str) else name(args, kwargs)
                self.self_ns[span] += elapsed - children
                self.calls[span] += 1
                if keep:
                    self.durations[span].append(elapsed)
                if stack:
                    stack[-1] += elapsed

        return traced


class _CountingNumpy:
    """Stands in for ``numpy`` inside ``hubrelease.dp`` to count convolutions."""

    def __init__(self, numpy_module: Any, tracer: Tracer) -> None:
        self._np = numpy_module
        self._tracer = tracer

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._np, attr)

    def convolve(self, *args: Any, **kwargs: Any) -> Any:
        self._tracer.counts["dp.convolutions"] += 1
        return self._np.convolve(*args, **kwargs)


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs[key]


def _count_support(t: Tracer, args: tuple, kwargs: dict, dist: Any) -> None:
    t.counts["arrival.poisson_truncated.support"] += dist.support_max + 1


def _count_draws(t: Tracer, args: tuple, kwargs: dict, draws: Any) -> None:
    t.counts["arrival.sample_many.draws"] += len(draws)


def _count_g_evals(t: Tracer, args: tuple, kwargs: dict, threshold: Any) -> None:
    # The linear scan evaluates g(n) for n = 1..n_star; computed from the
    # result rather than counted inside the scan.
    t.counts["stopping.g_evals"] += threshold.n_star or 0


def _count_states(t: Tracer, args: tuple, kwargs: dict, solution: Any) -> None:
    config = solution.config
    t.counts["dp.solve.states"] += config.horizon * config.max_count


def _count_mismatches(t: Tracer, args: tuple, kwargs: dict, mismatches: Any) -> None:
    t.counts["dp.compare.mismatches"] += len(mismatches)


def _count_rows(t: Tracer, args: tuple, kwargs: dict, _: Any) -> None:
    config = _arg(args, kwargs, 0, "solution").config
    t.counts["dp.write_action_table.rows"] += (config.horizon + 1) * config.max_count


def _count_records(t: Tracer, args: tuple, kwargs: dict, hour: Any) -> None:
    t.counts["sim.records"] += len(getattr(hour, "vehicles", ())) + len(
        getattr(hour, "platoons", ())
    )


def _count_scanned(t: Tracer, args: tuple, kwargs: dict, _: Any) -> None:
    t.counts["policies.non_causal.steps_scanned"] += len(_arg(args, kwargs, 1, "counts"))


def _episode_span(args: tuple, kwargs: dict) -> str:
    policy = type(_arg(args, kwargs, 0, "config").policy).__name__
    return f"sim.run_episode_hour.{POLICY_LABELS.get(policy, policy.lower())}"


@contextmanager
def installed(tracer: Tracer, script: Any) -> Iterator[tuple[Callable, Callable]]:
    """Patch every traced name, yield traced ``cli.main`` and script ``main``, restore.

    ``script`` is the loaded ``scripts/reproduce_figures.py`` module.
    """
    import hubrelease.arrival as arrival
    import hubrelease.cli as cli
    import hubrelease.dp as dp
    import hubrelease.sim as sim

    w = tracer.wrap
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        if hasattr(owner, attr):
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    for owner in (cli, sim, script):
        patch(owner, "poisson_truncated",
              lambda f: w("arrival.poisson_truncated", f, _count_support))
        patch(owner, "compute_threshold",
              lambda f: w("stopping.compute_threshold", f, _count_g_evals))
    patch(sim, "substream", lambda f: w("arrival.substream", f))
    patch(arrival.ArrivalDistribution, "sample_many",
          lambda f: w("arrival.sample_many", f, _count_draws))
    patch(cli, "suggest_max_count", lambda f: w("dp.suggest_max_count", f))
    patch(cli, "DpConfig", lambda f: w("dp.cap_check", f))
    patch(cli, "solve", lambda f: w("dp.solve", f, _count_states))
    patch(cli, "compare_with_threshold", lambda f: w("dp.compare", f, _count_mismatches))
    patch(cli, "write_action_table", lambda f: w("dp.write_action_table", f, _count_rows))
    patch(dp, "np", lambda f: _CountingNumpy(f, tracer))
    patch(sim, "monte_carlo", lambda f: w("sim.aggregate", f))
    patch(sim, "run_episode_hour", lambda f: w(_episode_span, f, _count_records))
    patch(sim, "decide_non_causal",
          lambda f: w("policies.decide_non_causal", f, _count_scanned))
    patch(cli, "parse_counts_csv", lambda f: w("ingest.parse_counts_csv", f))
    patch(cli, "build_parser", lambda f: w("cli.build_parser", f))
    patch(cli, "write_sweep_csv", lambda f: w("cli.write_sweep_csv", f))
    try:
        yield w("cli.main", cli.main), w("reproduce_figures.main", script.main)
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
