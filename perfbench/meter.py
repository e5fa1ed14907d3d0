"""Host-speed-corrected timing for the benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of up to two within seconds, for CPU time and wall time alike.  No
statistic over one run takes that out.  A ``Meter`` does: while it runs, an
interval timer interrupts the timed code every ``tick`` seconds and times a
fixed probe, an exact elimination written independently of confspace, so
that no change to the package can move it.  Each stretch of timed code
between two probes is scaled by ``PROBE_REF_S`` over the probe that ends
it, so the scaled time is the time the code would have taken at the speed
the probe had on a reference host.  Probe time is not counted.

This module imports nothing from confspace, so a fresh interpreter can start
a meter before it imports the package (see ``run.py``, set-up).
"""

import gc
import signal
import time
from fractions import Fraction

# median probe time on the host the benchmark was defined on; the scaled
# times are at that host's speed
PROBE_REF_S = 0.0063


def eliminate():
    """One sweep of sparse row reduction over Q on a fixed 16x16 matrix:
    the kind of work confspace does, written independently of it."""
    n = 16
    pivots = {}
    for i in range(n):
        v = {j: Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3)
             for j in range(n) if (i * 3 + j * 5) % 4}
        for c in sorted(v):
            if c in pivots and c in v:
                x = v[c]
                for k, y in pivots[c].items():
                    w = v.get(k, 0) - x * y
                    if w:
                        v[k] = w
                    else:
                        v.pop(k, None)
        if v:
            c = min(v)
            inv = 1 / v[c]
            pivots[c] = {k: y * inv for k, y in v.items()}
    return len(pivots)


def probe():
    """Seconds for one elimination, with the collector off so that a
    collection of the timed code's garbage is not counted as host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times spans of code, raw and scaled to the reference speed.

    ``Meter(tick)`` probes every ``tick`` seconds of a span; ``Meter(None)``
    never probes and reports the raw time as the scaled one (for traced and
    profiled runs, where a probe would show up in what they measure)."""

    def __init__(self, tick=0.1):
        self.tick = tick
        self.probes = []

    def start(self):
        self._segments = []
        self._mark = time.perf_counter()
        if self.tick:
            self._previous = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)

    def _on_tick(self, signum, frame):
        now = time.perf_counter()
        p = probe()
        self._segments.append((now - self._mark, p))
        self.probes.append(p)
        self._mark = time.perf_counter()

    def stop(self):
        """(raw seconds, scaled seconds) of the span since ``start``."""
        if not self.tick:
            raw = time.perf_counter() - self._mark
            return raw, raw
        # a tick already due runs before the handler is put back, so it
        # still closes its own segment
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        now = time.perf_counter()
        p = probe()
        self._segments.append((now - self._mark, p))
        self.probes.append(p)
        raw = sum(s for s, _ in self._segments)
        scaled = sum(s * PROBE_REF_S / p for s, p in self._segments)
        return raw, scaled
