"""Interpreter-speed calibration for the time metrics.

The CPUs this benchmark was written on are shared with other machines'
work: the same code runs up to half again slower for minutes at a time.
A fixed pure-Python kernel is timed next to every measurement, and each
time metric is scaled by ``REFERENCE_S / kernel time``: it is reported in
seconds at the CPU speed at which the kernel takes ``REFERENCE_S``.  A
change to the program moves the scaled times as it moves the raw ones; a
change in the speed of the host does not.  The raw times and the kernel
times are recorded next to every result.
"""
from __future__ import annotations

import time

# The kernel's best time on the machine the baseline was taken on (an Intel
# Xeon with 2 cores), when nothing else competed for its CPU.
REFERENCE_S = 0.006


def _kernel() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def kernel_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` timings of the kernel."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
