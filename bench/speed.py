"""CPU-speed calibration, so timings survive a host whose speed drifts.

On a shared virtual machine the same work can take twice as long from
one minute to the next.  ``calibrate`` times a fixed stdlib loop shaped
like the program's work (exact fractions, tuple keys, dict inserts, a
keyed sort); ``scaled`` converts a wall time measured next to it into
seconds at the reference speed, ``REFERENCE_S`` being the loop's usual
time on the 2-vCPU VM where ``baseline.json`` was measured (CPython
3.11.7).  The loop uses nothing from validus, so a change to the
program cannot move it.  Scaling follows a uniform slowdown of the CPU,
and contention for caches and memory only in part.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.018


def _loop() -> float:
    start = perf_counter()
    cells = {}
    for i in range(4000):
        cells[(str(i), i % 13)] = Fraction(i, 7) + Fraction(1, 3)
    ordered = sorted(cells.items(), key=lambda kv: (kv[1], kv[0]))
    sum(v for _, v in ordered[:500])
    return perf_counter() - start


def calibrate(repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs of the loop, in seconds."""
    return min(_loop() for _ in range(repeats))


def scaled(wall_s: float, calibration_s: float) -> float:
    """``wall_s`` in seconds at the reference speed."""
    return wall_s * REFERENCE_S / calibration_s
