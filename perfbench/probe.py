"""Speed probe: how fast the CPU runs Python while one op runs.

On a shared host the same op takes anywhere from 1x to 1.8x its fastest
time, and the speed changes within seconds; a probe run before or after an
op, or on the other CPU, does not track it. So the probe runs inside the op
process itself: a SIGALRM every INTERVAL_S runs one fixed slice of pure
Python work and records its start and duration. The slice builds small
integer tuples and counts them in a dict, as e8nine's hot loops do; of the
kernels tried it tracked e8nine's speed best (a slice of Bareiss
determinants left twice the spread). It is the benchmark's own code, so no
change to e8nine can speed it up. The mean slice time over an op's window,
divided by REF_SLICE_S, is how much slower than the reference the machine
ran then; run.py divides the op's time by it.

The slices cost about 1.5% of an op, the same on every commit.
"""

from __future__ import annotations

import atexit
import json
import signal
import time

CLOCK = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes
INTERVAL_S = 0.02
# Median of one_slice() in a tight loop on a 2-vCPU Xeon VM at 2.1 GHz, CPython 3.11.
REF_SLICE_S = 2.6e-4


def _vectors(count: int, n: int = 8, seed: int = 12345) -> list[tuple[int, ...]]:
    x, out = seed, []
    for _ in range(count):
        v = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            v.append((x >> 16) % 5 - 2)
        out.append(tuple(v))
    return out


VECTORS = _vectors(16)
OFFSETS = VECTORS[:8]


def one_slice() -> float:
    """Seconds for one fixed slice: vector sums as tuples, counted in a dict."""
    t0 = CLOCK()
    seen: dict[tuple[int, ...], int] = {}
    for v in VECTORS:
        for w in OFFSETS:
            s = tuple(a + b for a, b in zip(v, w))
            seen[s] = seen.get(s, 0) + 1
    return CLOCK() - t0


def install(out_path: str) -> None:
    """Start probing this process; write [[start, seconds], ...] at exit."""
    slices: list[tuple[float, float]] = []

    def on_alarm(signum, frame):
        start = CLOCK()
        slices.append((start, one_slice()))

    def dump():
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(out_path, "w") as fh:
            json.dump(slices, fh)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    atexit.register(dump)


def slowdown(slices: list, t0: float, t1: float) -> tuple[float, float]:
    """(mean slice / REF_SLICE_S, total probe seconds) over the window [t0, t1].

    A window without a slice (shorter than INTERVAL_S) counts as reference speed.
    """
    inside = [d for s, d in slices if t0 <= s and s + d <= t1]
    if not inside:
        return 1.0, 0.0
    total = sum(inside)
    return total / len(inside) / REF_SLICE_S, total
