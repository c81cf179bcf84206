"""Solve time in reference seconds, steady on a shared machine.

On a shared machine the same solve can take 1.7 times longer from one
minute to the next, because of load the benchmark neither causes nor
sees.  While the clock runs, a timer signal runs a fixed kernel of the
benchmark's own every ``INTERVAL`` seconds and records how long it took.
An interval's reference time is its wall time, less the kernel's own
time, scaled by ``NOMINAL_S`` over the kernel's mean time within the
interval: the seconds the solve would have taken had the machine run at
its reference speed throughout.  The kernel shares no code with the
solver, so a faster solver still reads faster.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.02
NOMINAL_S = 0.5e-3  # the kernel's time on an idle 2-vCPU x86-64 Linux VM


def kernel():
    s = 0
    for i in range(8000):
        s += i * i % 7
    return s


class ReferenceClock:
    """Context manager sampling machine speed; ``reference_s`` converts."""

    def __init__(self):
        self.samples = []  # (end time, kernel seconds)
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def reference_s(self, t0, t1):
        """Reference seconds of the interval [t0, t1] of perf_counter."""
        inside = [k for t, k in self.samples if t0 <= t <= t1]
        if inside:
            mean_k = sum(inside) / len(inside)
        else:  # shorter than one interval: use the latest speed seen
            before = [k for t, k in self.samples if t <= t1]
            mean_k = before[-1] if before else NOMINAL_S
        return (t1 - t0 - sum(inside)) * NOMINAL_S / mean_k
