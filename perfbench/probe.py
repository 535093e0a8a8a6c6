"""Speed probe: how fast this CPU runs Python code right now.

The benchmark's host is shared, and the speed at which it runs the same
interpreter code drifts by tens of percent within seconds and minutes.
Every sample process, set-up-only or not, therefore times a fixed
snippet every ``INTERVAL_S`` (on SIGALRM, interleaved with the program
under test, so both see the same slow-downs).

The snippet is small-integer arithmetic that keeps no memory: a snippet
that builds dicts and big integers ran up to 8% slower next to a copy of
the program whose heap grew 3.4 times, and so hid part of that copy's
slow-down.  A tick is timed in CPU time of the thread as well as in wall
time: the CPU time leaves out the spells in which the process waits for
a core, so other processes, including children of the program that keep
both cores busy, do not make the host look slower.  ``rescale`` turns a
duration into the duration at the speed where one tick takes
``REFERENCE_S`` of CPU time, about its unloaded duration on the 2-core
VM the benchmark was written on (CPython 3.11).
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 400e-6


def _work():
    x = 0
    for i in range(4000):
        x = (x * 31 + i) & 0xFFFFF
    return x


class Probe:
    def __init__(self):
        self.ticks = []          # (start, wall seconds, CPU seconds) per run

    def once(self, *_):
        t0, c0 = time.perf_counter(), time.thread_time()
        _work()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.ticks.append((t0, t1 - t0, c1 - c0))

    def start(self):
        signal.signal(signal.SIGALRM, self.once)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def spent(self, until):
        """Wall seconds the probe itself took before ``until``."""
        return sum(d for t, d, _ in self.ticks if t < until)

    def totals(self):
        """(ticks, their wall seconds, their CPU seconds)."""
        return (len(self.ticks), sum(d for _, d, _ in self.ticks),
                sum(c for _, _, c in self.ticks))


def rescale(seconds, probe_cpu_mean):
    return seconds * REFERENCE_S / probe_cpu_mean
