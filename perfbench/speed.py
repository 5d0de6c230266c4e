"""Host-speed probe that scales measured times to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts.  On the 2-core VM it
was written on, a fixed computation ran up to twice as slow for seconds to
minutes at a time, on each core independently, and one workload's pass time
spread by 20-30% between runs a few minutes apart, whatever the run length.

:class:`Speedometer` pins the process, and the set-up processes it starts, to
one core.  A daemon thread runs a fixed probe on that core every ``INTERVAL``
seconds: small numpy operations and a Python loop, the kind of work of the
``d_M`` solver and the lattice.  The probe runs twice and only the second,
warm run is timed, in the thread's CPU time, so neither the cache misses left
by the timed work nor the time the thread waits while that work runs are
counted.  The slowdown over a window is the probe's mean time there over
``REFERENCE_S``, its time on that VM at its calmest.  A wall time ``dt``
measured over the window is reported as ``dt / slowdown``: the time the work
would have taken at that speed.  The probe costs about 1% of the core.

The probe tracks how the host slows interpreted code.  Dense LAPACK calls
slow by a different share, so on BLAS-heavy work the scaling removes less
of the drift.  A probe that also timed a small matrix product tracked the
interpreted workloads worse and the BLAS-heavy one no better.
"""

from __future__ import annotations

import os
import threading
import time

INTERVAL = 0.01
# warm probe time in seconds on a 2-core Intel Xeon VM at its calmest,
# Python 3.11.7, numpy 2.4.6
REFERENCE_S = 100e-6


def pin():
    """Pin the calling thread (and the threads and processes it starts
    later) to the highest-numbered core it may run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _probe():
    import numpy as np

    x = np.linspace(0.0, 1.0, 201)

    def probe():
        s = 0.0
        for _ in range(10):
            y = np.maximum(x - 0.5, 0.0) - np.minimum(x, 0.3)
            s += float(np.max(np.abs(y)))
        for i in range(300):
            s += i * 0.5
        return s

    return probe


class Speedometer:
    """Samples the host's speed on this process's core while it is open::

        with Speedometer() as speed:
            mark = speed.mark()
            ...                       # timed work, dt seconds of wall time
            scaled = speed.scaled(dt, mark)
    """

    def __init__(self):
        self._samples = []   # warm probe times, seconds
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        pin()
        self._thread = threading.Thread(target=self._sample, args=(_probe(),), daemon=True)
        self._thread.start()
        while not self._samples:   # so every window has a sample to fall back on
            time.sleep(INTERVAL)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self, probe):
        clock = time.thread_time
        while not self._stop.is_set():
            probe()
            t0 = clock()
            probe()
            self._samples.append(clock() - t0)
            self._stop.wait(INTERVAL)

    def mark(self):
        """Start of a window: pass to :meth:`slowdown` or :meth:`scaled`."""
        return len(self._samples)

    def slowdown(self, mark):
        """Host slowdown over the window since ``mark`` (1.0 at the reference
        speed); the latest sample when the window holds none."""
        window = self._samples[mark:] or self._samples[-1:]
        return sum(window) / len(window) / REFERENCE_S

    def scaled(self, seconds, mark):
        """``seconds`` of wall time since ``mark`` at the reference speed."""
        return seconds / self.slowdown(mark)
