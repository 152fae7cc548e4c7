"""Machine-speed reference that every reported time is scaled to.

The reference machine shares its two cores with other tenants.  A core's
speed swings by up to half within seconds, drifts between minutes, and
each core swings on its own, so plain wall times of the same code spread
by 20-40% from run to run.  The benchmark therefore times a fixed
pure-Python ``kernel`` on the same core, next to the work it measures,
and reports ``wall time * REF_NS / kernel time``: the time the work would
have taken at the speed at which the kernel takes ``REF_NS``, about the
fastest the reference machine runs it.  A change to the program moves the
work but not the kernel, so it moves the scaled time as it moves the wall
time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Kernel time at the reference speed, in ns.
REF_NS = 300_000
ITEMS = 800
#: Process CPU time between two samples taken inside a child process.
INTERVAL_S = 0.05
MARK = "BENCH-SPEED "


def kernel() -> int:
    """Tuples, sorting, a dict, strings and big integers, like the program."""
    items = sorted(((i * 7919) % 10007, str(i)) for i in range(ITEMS))
    table = dict(items)
    keys = tuple(k for k, _ in items)
    n = 3 ** ITEMS
    for _ in range(20):
        n = n * 7 + 1
    return len(table) + len(keys) + n % 1000


def sample() -> int:
    """Wall time of one kernel run, in ns.

    The kernel runs once untimed first, to warm the caches that the
    program's own work evicted, and the cyclic garbage collector is paused,
    so the timed run does not depend on how much memory the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[int]) -> float:
    """Factor from wall time to reference time, given kernel samples."""
    return REF_NS / statistics.median(samples)


class Sampler:
    """Samples the kernel every INTERVAL_S of this process's CPU time.

    The samples interleave with the process's own work on its own core
    (SIGPROF, so they pause while the process waits).  Worker processes
    that the program forks inherit no timer.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[int]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return self.samples

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(sample())
