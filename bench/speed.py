"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed shifts by up to
50% for a minute or more.  While a timed call runs, a ``SIGALRM`` handler
runs a fixed chunk of NumPy work (a 64x64 five-point stencil, the kind of
work the program does) every ``INTERVAL_S`` seconds and times it.  The
chunks sample the machine's speed evenly over the same interval as the
call, so the call's time scaled by ``REFERENCE_CHUNK_S / mean chunk time``
no longer depends on how fast the machine happened to be.  The chunks'
own time is taken out of the call's wall time first.

A chunk only runs when the interpreter is between bytecodes; it touches no
state of the program, so the program's outputs are unchanged (the benchmark
checks that its ledgers are byte-identical from run to run).
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
CHUNK_STEPS = 200
# Mean chunk time on the baseline machine (2-vCPU Intel Xeon VM at
# 2.1 GHz, NumPy 2.4.6) in its fast state.  Only the ratio to the measured
# chunk time matters; this constant fixes the unit of the scaled times.
REFERENCE_CHUNK_S = 0.010

_FIELD = np.random.default_rng(0).standard_normal((64, 64))


def chunk() -> float:
    """Run one fixed chunk of work; return its wall time in seconds."""
    t0 = time.perf_counter()
    u = _FIELD.copy()
    for _ in range(CHUNK_STEPS):
        p = np.pad(u, 1)
        lap = p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4 * u
        u = u + 1e-3 * lap - 1e-4 * u * np.abs(u)
    return time.perf_counter() - t0


class Probe:
    """Runs chunks every ``INTERVAL_S`` seconds while a call runs."""

    def __init__(self):
        self.chunks: list = []  # (start, seconds)

    def _handler(self, signum, frame):
        self.chunks.append((time.perf_counter(), chunk()))

    def run(self, call):
        """Return (result, wall seconds of the call less the chunks' time,
        scale to reference seconds)."""
        self.chunks = []
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = time.perf_counter()
            result = call()
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        chunks = [s for start, s in self.chunks if start < t1]
        wall = t1 - t0 - sum(chunks)
        return result, wall, scale(chunks or [chunk() for _ in range(3)])


def scale(chunks) -> float:
    """Factor that turns seconds at the measured speed into reference
    seconds."""
    return REFERENCE_CHUNK_S * len(chunks) / sum(chunks)
