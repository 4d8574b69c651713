"""A fixed piece of work, timed around and during every unit to gauge the host's speed.

On a shared VM the speed of a core swings by up to 1.6x, in phases from
milliseconds to minutes, and the two cores swing independently.  Timing a
short fixed piece of work on the same core just before a unit, every
``PERIOD_S`` while it runs (from a timer signal) and just after it tells how
fast the core ran for that unit; the benchmark divides the unit's time by
it.  The work does not touch ``diskcover``, so a change to the package moves
the ratio by exactly its own effect.  It mixes the kinds of work the
workloads do: Python float arithmetic over point tuples (hull, spiral scan),
big-integer masks (the oracle's search) and small numpy arrays (k-means, the
spiral).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import Callable

import numpy as np

# Scale of the normalised times: the median time of the reference work while
# gauging the three workloads on a 2-core x86 VM (Python 3.11.7, numpy
# 2.4.6), 0.21 to 0.30 ms by workload.  Sampled between the package's own
# work it runs colder, and so about twice as slow, as in a tight loop.  With
# it the normalised times read roughly as seconds on that VM.
NOMINAL_S = 0.00026
# Sampling period while a unit runs, and timings taken before and after it.
PERIOD_S = 0.02
BRACKET = 3

_rng = np.random.default_rng(1)
_ARRAY = _rng.random((60, 2))
_POINTS = [(float(x), float(y)) for x, y in _rng.random((80, 2))]
_WINDOW = (1 << 32) - 1


def work() -> int:
    """The reference work; returns a checksum that never changes."""
    pts = sorted(_POINTS)
    turns = 0
    for (ax, ay), (bx, by), (cx, cy) in zip(pts, pts[1:], pts[2:]):
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0:
            turns += 1
    mask = 0
    for i, (x, y) in enumerate(pts):
        if x < y:
            mask |= 1 << i
    bits = sum((mask >> s & _WINDOW).bit_count() for s in range(0, 64, 2))
    a = _ARRAY
    d = np.hypot(a[:, None, 0] - a[None, :, 0], a[:, None, 1] - a[None, :, 1])
    return turns + bits + int((d < 0.1).sum())


CHECKSUM = work()


def _timed() -> float:
    t0 = perf_counter()
    value = work()
    t1 = perf_counter()
    if value != CHECKSUM:
        raise RuntimeError(f"reference work returned {value}, expected {CHECKSUM}")
    return t1 - t0


def run_gauged(fn: Callable[[], object]) -> tuple[object, float, float]:
    """Run ``fn()``; return its result, its seconds and its reference ratio.

    The seconds leave out the time spent in the sampling handler; the ratio
    is those seconds over the median time of the reference work taken
    before, during and after the call.
    """
    samples = [_timed() for _ in range(BRACKET)]
    spent = 0.0

    def sample(signum, frame) -> None:
        nonlocal spent
        t0 = perf_counter()
        work()
        samples.append(perf_counter() - t0)
        spent += perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            t = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    samples += [_timed() for _ in range(BRACKET)]
    t -= spent
    return out, t, t / statistics.median(samples)
