"""Host speed, sampled while the program runs, to turn CPU seconds into reference-speed seconds.

On the shared 2-core VM this benchmark was designed on, CPU time alone moved
with the host: identical ``desk-b1`` calls took 7.5-12.3 s of CPU time, and a
fixed 5 ms loop of NumPy and Python work, averaged over 5 s windows, took
3.8-6.0 ms.  The speed drifts over seconds to minutes, so a loop timed next
to a call tracked the call poorly (correlation 0.68), while the same loop
interleaved with the call tracked it well (0.93).

``SpeedProbe`` interleaves it: every ``PROBE_INTERVAL_S`` a timer signal runs
``probe_chunk`` twice and times the second run.  The first run only warms the
caches, so that the timed run measures the host rather than what the program
left in the caches (the timed warm run tracked a ``desk-b1`` call with
correlation 0.94; the cold first run, 0.98, but it would move with the
program's memory footprint).  A span's time is its CPU time minus the
probes' own, multiplied by ``PROBE_REF_S`` over the timed runs' mean: the
CPU seconds the span would have taken with the probe at its reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import cho_solve, cholesky

from clock import cpu_s

# One probe every 40 ms; a probe takes about 0.8 ms (two chunks), so probing costs about 2%.
PROBE_INTERVAL_S = 0.04
# A timed chunk's CPU time at the reference speed: about its median on the VM this was designed on.
PROBE_REF_S = 3.5e-4
# A span with fewer probes than this is topped up by a burst of probes at its end.
MIN_PROBES = 20
# Probes in a burst that scales a span which could not be probed while it ran.
BURST_PROBES = 200
# An iteration is scaled by the probes within this much CPU time of it, if there are enough of them.
LOCAL_WINDOW_S = 0.5
MIN_LOCAL_PROBES = 5
CHUNK_REPEATS = 4

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 40))
_K = _A @ _A.T + 40 * np.eye(40)
_Y = _rng.standard_normal(40)
_ROWS = [f"{0.1 * i:.1f},{0.2 + 0.001 * i:.6f}" for i in range(40)]


def probe_chunk() -> float:
    """A fixed mix of the program's kinds of work: small factorizations, parsing, dicts and sorts."""
    total = 0.0
    for _ in range(CHUNK_REPEATS):
        factor = cholesky(_K, lower=True, check_finite=False)
        total += float(_Y @ cho_solve((factor, True), _Y, check_finite=False))
        for row in _ROWS:
            t, p = row.split(",")
            total += float(t) * float(p)
        table = {i: np.exp(-0.01 * i) for i in range(40)}
        total += sum(sorted(table.values()))
    return total


class SpeedProbe:
    """Times ``probe_chunk`` every ``PROBE_INTERVAL_S`` while it is entered.

    ``net_s`` is ``cpu_s`` without the probes' own time (both runs), so a span of ``net_s``
    measures the program alone; ``scale`` turns such a span into reference-speed
    seconds.  The timer is the real-time one (``SIGALRM``): a CPU-time timer
    (``ITIMER_PROF``) made this kernel's process CPU clock advance only in
    ticks, which hid a 0.25 ms probe.  A forked child does not inherit the timer.
    """

    def __init__(self) -> None:
        self.total_s = 0.0
        self.timed_s = 0.0
        self.count = 0
        # (net_s when the probe ended, its timed run's CPU time), one pair per probe.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, *_signal_args) -> None:
        start = time.process_time()
        probe_chunk()
        warm = time.process_time()
        probe_chunk()
        end = time.process_time()
        self.total_s += end - start
        self.timed_s += end - warm
        self.count += 1
        self.samples.append((self.net_s(), end - warm))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def net_s(self) -> float:
        return cpu_s() - self.total_s

    def burst(self, n: int) -> None:
        for _ in range(n):
            self._probe()

    def scale(self) -> float:
        """Reference-speed seconds per CPU second over the probes so far (at least ``MIN_PROBES``)."""
        if self.count < MIN_PROBES:
            self.burst(MIN_PROBES - self.count)
        return PROBE_REF_S * self.count / self.timed_s

    def local_scales(self, bounds) -> np.ndarray:
        """A scale for each span between consecutive ``bounds`` (``net_s`` readings).

        Each uses the probes within ``LOCAL_WINDOW_S`` of its span, because the
        host's speed changes within a call; a span with fewer than
        ``MIN_LOCAL_PROBES`` of them gets the whole call's ``scale``.
        """
        whole = self.scale()
        at, timed = (np.array(column) for column in zip(*self.samples))
        bounds = np.asarray(bounds, dtype=float)
        out = np.full(len(bounds) - 1, whole)
        for i, (start, end) in enumerate(zip(bounds[:-1], bounds[1:])):
            near = (at >= start - LOCAL_WINDOW_S) & (at <= end + LOCAL_WINDOW_S)
            if near.sum() >= MIN_LOCAL_PROBES:
                out[i] = PROBE_REF_S * near.sum() / timed[near].sum()
        return out


def burst_scale() -> float:
    """``SpeedProbe.scale`` from ``BURST_PROBES`` probes in a row, for a span just ended."""
    probe = SpeedProbe()
    probe.burst(BURST_PROBES)
    return probe.scale()
