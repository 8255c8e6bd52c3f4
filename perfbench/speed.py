"""How fast the host runs Python right now, so times can be scaled to one speed.

The benchmark's host is a few cores of a shared machine whose speed swings by
up to 1.7x within seconds: one cold run of ``verify_p11`` took between 5.6 and
9.7 CPU seconds on unchanged code.  A fixed pure-Python reference kernel, timed
between stretches of the workload, slows down and speeds up with it.  Every
time the benchmark reports is therefore scaled by ``NOMINAL_S / kernel time``
(see ``scale_for``): it reads as seconds on a host where the kernel takes
``NOMINAL_S``.  The kernel
is the benchmark's own code, so a change to lenspp moves the reported times and
leaves the kernel alone.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

NOMINAL_S = 0.010  # a round figure; the kernel took 6-10 ms on the 2-core host this was written on
# CPU time between two samples in a cold run: ~4% of the run goes to the kernel
SAMPLE_EVERY_S = 0.25


def kernel() -> int:
    """The reference work: tuple keys, dict stores and lookups, small-int arithmetic,
    the operations lenspp's pure-Python layers spend their time on, over a table of
    ~16,000 entries that is built afresh each time."""
    table = {}
    for i in range(20_000):
        table[(i * 7) % 1009, i & 15] = (i, i * i % 13)
    total = 0
    for (a, _), (_, c) in table.items():
        total += a * c
    return total


def time_kernel() -> float:
    """One timed kernel, with the garbage collector held off so the size of the
    process's heap does not show in it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale_for(kernel_times: list[float]) -> float:
    """The factor that turns measured seconds into nominal seconds: NOMINAL_S times
    the mean of 1 / kernel time.  With one sample per equal stretch of CPU time,
    this scales each stretch by the speed sampled at its end.  The median kernel
    time would ignore how the speed moved within a run, and spread twice as much
    from run to run."""
    return NOMINAL_S * statistics.fmean(1 / t for t in kernel_times)


def scale_now() -> float:
    """The scale factor from three kernels timed now."""
    return scale_for([time_kernel() for _ in range(3)])


class Sampler:
    """Times the kernel every SAMPLE_EVERY_S of this process's CPU time, from a
    SIGPROF handler, so the samples interleave with whatever the process is doing."""

    def __init__(self):
        self.samples: list[float] = []
        self.kernel_s = 0.0  # time spent in the kernel so far
        self._previous = None

    def _tick(self, signum, frame) -> None:
        took = time_kernel()
        self.samples.append(took)
        self.kernel_s += took

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in the kernel."""
        return time.perf_counter() - self.kernel_s

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self) -> float:
        """The scale factor of the samples so far; sampled now if the run was too
        short to take any."""
        return scale_for(self.samples) if self.samples else scale_now()
