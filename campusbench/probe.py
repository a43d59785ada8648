"""A host-speed probe, so that wall times do not swing with the host.

On a shared host the same Python work runs at speeds that differ by a
fifth or more from one second to the next and from one minute to the next,
as other tenants' load comes and goes.  Medians over a few days cannot
remove that: a whole run can fall in a slow spell.  The probe measures the
spell instead of averaging it away.

While a repetition runs, a wall-clock interval timer interrupts it every
``INTERVAL`` seconds and runs a fixed piece of pure-Python reference work
(``reference``: method calls, a generator, dict and bytes operations,
and a tree of small objects built and dropped) on the same thread, and so
on the same core, as the program.  Each sample is the reference's
duration at that moment.  ``scaled(start, end)`` then
turns a wall interval into *reference seconds*: the interval less the
probe's own time in it, times the mean over its samples of
``NOMINAL / duration``, the host's momentary speed relative to the speed
at which the reference takes ``NOMINAL`` seconds.  Because the samples are
spread uniformly in wall time, that mean is the work the program did per
wall second, expressed at the nominal speed.

The reference is independent of the program under test: a change that
makes the program faster or slower moves the scaled time just as it moves
the wall time; only the host's speed cancels.  The garbage collector is
paused while the reference runs, so a sample never pays for the program's
heap.  The handler runs between bytecodes of the main thread and touches
nothing the simulation reads, so virtual outputs are unchanged: a probed
day's fingerprint (``rep.py``) equals the unprobed day's.  The per-layer
run does not probe: its samples would count as the interrupted layer's
self time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Optional, Tuple

__all__ = ["SpeedProbe", "reference"]

# Seconds between samples, and the reference's duration at the nominal
# speed.  The constant only sets the scale of the reported seconds: it is
# about the reference's median duration when it interrupts the simulation
# on a 2-vCPU x86-64 VM under Python 3.11 (run alone in a loop it takes
# 1.7 ms there), so that reference seconds read close to that host's
# typical wall seconds.
INTERVAL = 0.04
NOMINAL = 0.0021


class _Counter:
    __slots__ = ("count", "last")

    def __init__(self):
        self.count = 0
        self.last = 0

    def bump(self, value: int) -> int:
        self.count += 1
        self.last = value
        return self.count


class _Node:
    def __init__(self, key: int):
        self.key = key
        self.children = []
        self.meta = {"key": key}


def _consumer(table):
    total = 0
    while True:
        value = yield total
        table[value & 127] = table.get(value & 127, 0) + value
        total += 1


def reference() -> int:
    """A fixed piece of interpreter work; returns a checksum.

    Half of it is calls, a generator, dict and bytes operations on a few
    objects; half builds, walks and drops a tree of small objects (no
    cycles, so reference counting frees it while the collector is paused).
    The simulation does both: it steps processes and allocates the
    objects that make up a campus.
    """
    counter = _Counter()
    table = {}
    consumer = _consumer(table)
    next(consumer)
    checksum = 0
    for i in range(1200):
        counter.bump(i)
        checksum += consumer.send(i)
        key = b"%d:%d" % (i, counter.count)
        checksum ^= hash(key[1:]) & 0xFFFF
        checksum += len(key) + table.get(i & 127, 0) % 7
    consumer.close()
    nodes = [_Node(0)]
    for i in range(1, 2000):
        node = _Node(i)
        nodes[(i * 7) % len(nodes)].children.append(node)
        nodes.append(node)
    for node in nodes:
        checksum += len(node.children) + node.meta["key"] % 3
    return checksum


class SpeedProbe:
    """Samples the host's speed on the program's own thread."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def speed(self, start: Optional[float] = None,
              end: Optional[float] = None) -> float:
        """Mean speed relative to nominal over the samples taken in
        ``[start, end)`` (all samples when either is None; all samples too
        when the interval holds none)."""
        inside = [d for t, d in self.samples
                  if start is None or end is None or start <= t < end]
        inside = inside or [d for _t, d in self.samples]
        return statistics.fmean(NOMINAL / d for d in inside)

    def scaled(self, start: float, end: float) -> float:
        """The wall interval ``[start, end)`` in reference seconds."""
        own = sum(d for t, d in self.samples if start <= t < end)
        return (end - start - own) * self.speed(start, end)
