"""Host speed meter: adjusts measured times for the machine's speed at the time.

On a shared host the same code runs up to twice as slow while neighbours
are busy, in phases of seconds to minutes, so raw times of one run
disagree with those of the next far beyond any useful bound.  While a run
measures, an interval timer runs fixed probes in this process and thread,
between the program's bytecodes, so a probe never runs at the same time as
the program's own work.

``adjust(t0, t1, kind)`` returns the time the interval [t0, t1] would have
taken at nominal speed: the raw time minus the probes' own time inside the
interval, divided by the slowdown of probe ``kind`` averaged over the
interval (widened to at least MIN_WINDOW_S for short ops).

Contention slows different code differently, so each op names the probe
most like its own work: ``int``, a pure-Python integer loop like the scan
loops (the default); ``mixed``, the same loop plus lookups in tiny numpy
tables, like linalg on small codes and the CLI's table handling (the
algebra and verify ops); ``bulk``, one pass
over a 4 MiB array, for the headline search, which streams arrays of a
million candidates.  No probe's speed depends on what the program leaves
in the caches: ``int`` and ``mixed`` stay in registers and L1, and the
``bulk`` array is twice the 2 MiB per-core L2 of the host the benchmark
was defined on, so it is read from L3 on every tick whatever the program
did before.  CHANGES.md records, per workload, the spread each probe left
over seeded runs.

An op that runs worker processes is run inside ``paused()``: the timer is
stopped, so no probe competes with the program's own workers or measures
their load, and the op is adjusted by the ticks just before and after it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

MIN_WINDOW_S = 0.5

_TABLE = np.arange(16, dtype=np.uint8).reshape(4, 4) ^ 5
_ROW = np.arange(32, dtype=np.uint8) & 3


def probe_int() -> int:
    acc = 0
    x = 0x9E3779B97F4A7C15
    for i in range(600):
        x ^= x << 3 & 0xFFFFFFFFFFFFFFFF
        acc += (x >> (i & 31)).bit_count()
    return acc


def probe_mixed() -> int:
    acc = probe_int()
    for _ in range(20):
        acc += int(_TABLE[_ROW, _ROW[::-1]].sum())
    return acc


def probe_bulk(_words=[]) -> int:
    if not _words:
        _words.append(np.arange(1 << 19, dtype=np.uint64))
    return int(np.bitwise_count(_words[0] ^ np.uint64(0x9E3779B97F4A7C15)).min())


TICK_S = 0.005
# probe -> (function, median duration at nominal speed, ticks between runs),
# measured on the 2-core host where the benchmark was defined; only the
# scale of adjusted times depends on the durations, never their ratios
PROBES = {
    "int": (probe_int, 0.000125, 1),
    "mixed": (probe_mixed, 0.000215, 1),
    "bulk": (probe_bulk, 0.001, 10),
}


class SpeedMeter:
    """Ticks every ``tick`` seconds; each probe kind runs on every n-th tick."""

    def __init__(self, kinds=("int",), tick: float = TICK_S):
        self.kinds = sorted(set(kinds))
        self.tick = tick
        self.ticks = 0
        self.starts: dict[str, list[float]] = {k: [] for k in self.kinds}
        self.durations: dict[str, list[float]] = {k: [] for k in self.kinds}
        self._prefix: dict[str, list[float]] = {}

    def _run(self, kind: str) -> None:
        t = time.perf_counter()
        PROBES[kind][0]()
        self.starts[kind].append(t)
        self.durations[kind].append(time.perf_counter() - t)

    def _tick(self, signum, frame):
        for k in self.kinds:
            if self.ticks % PROBES[k][2] == 0:
                self._run(k)
        self.ticks += 1

    def _edge(self):  # samples at the edges, so even a short interval has some
        for _ in range(5):
            for k in self.kinds:
                self._run(k)

    def __enter__(self):
        self._edge()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._edge()
        for k, ds in self.durations.items():
            prefix = [0.0]
            for d in ds:
                prefix.append(prefix[-1] + d)
            self._prefix[k] = prefix
        return False

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)

    def _between(self, kind: str, t0: float, t1: float) -> tuple[int, float]:
        """Number and total duration of the ``kind`` probe runs that started in [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts[kind], t0), bisect.bisect_left(self.starts[kind], t1)
        return hi - lo, self._prefix[kind][hi] - self._prefix[kind][lo]

    def adjust(self, t0: float, t1: float, kind: str = "int") -> float:
        """Raw interval time, without the probes' share, at the nominal speed of probe ``kind``."""
        work = (t1 - t0) - sum(self._between(k, t0, t1)[1] for k in self.kinds)
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        while True:
            count, total = self._between(kind, t0 - pad, t1 + pad)
            if count >= 3:
                break
            pad = 2 * pad + self.tick * PROBES[kind][2]
        return work / (total / count / PROBES[kind][1])
