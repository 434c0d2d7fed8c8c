"""Machine-speed probe for timings taken on a shared machine.

On a machine shared with other tenants the same Python code can run at half
speed for seconds or minutes at a time, and that slowdown shows in CPU time
as well as wall time.  The benchmark therefore runs this fixed loop next to
every timed segment and rescales the segment to the speed of the fastest
probe of the run:

    corrected = seconds * fastest_probe / probes_next_to_the_segment

A corrected time is what the segment would have taken had the machine run
at full speed throughout.  A probe is short (about 3 ms), so that among the
hundreds a run takes some fall in a moment of full speed; a burst of a few
probes, reduced to its median, estimates the speed at one point in time.

The slowdown is seldom the same on every CPU at once, so a burst probes
each CPU the process may use and leaves the process pinned to the fastest
(children started afterwards inherit the pin).  The probe touches nothing
of setlab.
"""

from __future__ import annotations

import os
import statistics
import time

ITERATIONS = 30_000
CPUS = sorted(os.sched_getaffinity(0))


def probe() -> float:
    """Seconds taken by a fixed loop of dict stores and integer arithmetic."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(ITERATIONS):
        table[i & 255] = acc
        acc = (acc + i * 7) & 0xFFFF
    return time.perf_counter() - start


def burst(k: int, record: list[float]) -> float:
    """Pin the process to the CPU whose median of k probes is lowest and
    return that median; every probe is also appended to record."""
    best = None
    for cpu in CPUS:
        if len(CPUS) > 1:
            os.sched_setaffinity(0, {cpu})
        times = [probe() for _ in range(k)]
        record.extend(times)
        speed = statistics.median(times)
        if best is None or speed < best[0]:
            best = (speed, cpu)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {best[1]})
    return best[0]


def corrected(seconds: float, around: tuple[float, float], fastest: float) -> float:
    """seconds rescaled by the mean of the speed readings taken before and
    after it."""
    return seconds * fastest / ((around[0] + around[1]) / 2)
