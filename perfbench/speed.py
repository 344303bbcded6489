"""Host-speed probe, and the scaling of wall times to a reference speed.

Run as ``python perfbench/speed.py`` on the same CPU as the workload, the
probe sleeps ``INTERVAL_S``, then runs one fixed burst of plain Python work,
and repeats until it gets SIGTERM.  It then prints
``[[start, end, cpu_s], ...]`` as JSON: each burst's start and end on
``time.perf_counter`` (CLOCK_MONOTONIC, the same clock in every process of
the host) and the CPU time of its timed part.

The burst's code never changes, so its CPU time moves only with the speed
the host gives that CPU.  A shared host switches each vCPU, for seconds at a
time, between speeds up to 1.7x apart, independently of the other vCPU.
Scaled by the bursts taken during it, a wall time stops following those
switches; a change in the program still moves it in full.
"""

from __future__ import annotations

import bisect
import json
import signal
import sys
import time

#: Pause between bursts; the host's speed changes on a scale of seconds.
INTERVAL_S = 0.1
#: Untimed loop turns that bring the burst's code back into the cache after
#: the workload ran, then the timed turns (about 1 ms on a 2-vCPU Xeon VM).
WARM_TURNS, TIMED_TURNS = 500, 4000
#: The reference speed is the one at which the timed part takes 1 ms.
REFERENCE_S = 1e-3
#: Bursts up to this far before an interval's start or after its end count
#: towards its speed, so that even a microsecond op gets a few of them.
WINDOW_S = 0.25


def burst(turns: int) -> float:
    """Fixed mixed work: integer and float arithmetic, a dict, float formatting."""
    table = {}
    acc = 0.0
    for i in range(turns):
        x = i * 0.5 + 1.0
        acc += x * x / (i + 1)
        table[i & 63] = acc
        if i & 15 == 0:
            acc += len(repr(x))
    return acc + len(table)


def sample(stop) -> list:
    out = []
    while not stop():
        time.sleep(INTERVAL_S)
        start = time.perf_counter()
        burst(WARM_TURNS)
        cpu = time.thread_time()
        burst(TIMED_TURNS)
        cpu = time.thread_time() - cpu
        out.append((start, time.perf_counter(), cpu))
    return out


class Scale:
    """Turns wall times into seconds at the reference speed, using the
    bursts of one probe run."""

    def __init__(self, samples):
        if not samples:
            raise RuntimeError("the speed probe recorded no burst")
        samples = sorted(samples)
        self.starts = [s for s, _, _ in samples]
        self.ends = [e for _, e, _ in samples]
        self.cpu = [cpu for _, _, cpu in samples]
        self.cpu_sums = [0.0]
        for cpu in self.cpu:
            self.cpu_sums.append(self.cpu_sums[-1] + cpu)

    def seconds(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start``, at the reference speed: scaled by
        the mean timed CPU of the bursts that start within ``WINDOW_S`` of
        the interval, or of the nearest burst if none does."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + wall + WINDOW_S)
        if lo == hi:
            middle = start + wall / 2
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                       key=lambda i: abs(self.starts[i] - middle))
            lo, hi = near, near + 1
        mean_cpu = (self.cpu_sums[hi] - self.cpu_sums[lo]) / (hi - lo)
        return wall * REFERENCE_S / mean_cpu

    def overlaps(self, start: float, wall: float) -> bool:
        """Whether a burst ran during the interval, so that its wall time
        holds the probe's work too."""
        index = bisect.bisect_left(self.ends, start)
        return index < len(self.starts) and self.starts[index] < start + wall


def main() -> int:
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    json.dump(sample(lambda: bool(stopped)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
