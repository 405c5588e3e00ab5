"""Machine-speed probe: express measured times in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-50% from one minute to the next, far more than the bounds the
benchmark sets.  So every time the benchmark measures is scaled by the
speed of the machine around it.  A fixed pure-Python kernel that shares
no code with the program, a pointer chase around a ring of objects, is
timed in bursts between the program's calls
(and, inside ``Speed.sampling``, every SAMPLE_PERIOD seconds in the middle
of them), and an interval of ``t`` seconds counts as
``t * REFERENCE_PROBE_S / p``, where ``p`` is the median time of the
probes in and next to the interval.  A change to the program moves its
times and not the probe's, so it shows in full; a slow minute of the host
moves both and cancels.  Times measured in another process (the serve
daemon's) are scaled by probes this process takes while it waits.

    speed = Speed()
    speed.tick()
    start = time.perf_counter(); call(); end = time.perf_counter()
    speed.tick()
    seconds = speed.seconds(start, end)
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import signal
import statistics
import time
from contextlib import contextmanager

#: Cells of the probe's ring, and steps of one probe around it: about
#: 10 ms on the reference machine.
RING_CELLS = 400_000
PROBE_STEPS = 50_000
#: One probe's time on the reference machine, a 2-core x86-64 box with
#: CPython 3.11; measured times are reported as seconds on that machine.
REFERENCE_PROBE_S = 0.010
#: Least probes per burst, and the least time between two bursts.
BURST = 3
INTERVAL = 0.25
#: A burst after a long call probes for this share of the call's time,
#: so a long interval's speed is not read from a few short probes.
PROBE_SHARE = 0.04
#: Least probes that set the speed of an interval.
NEAR_PROBES = 6
#: Seconds between the probes taken inside calls (``Speed.sampling``).
SAMPLE_PERIOD = 0.2


class _Cell:
    __slots__ = ("next",)


def ring(cells: int = RING_CELLS, seed: int = 0) -> _Cell:
    """A cycle through *cells* objects in a shuffled order (about 20 MB)."""
    order = [_Cell() for _ in range(cells)]
    random.Random(seed).shuffle(order)
    for index, cell in enumerate(order):
        cell.next = order[index - 1]
    return order[0]


def kernel(head: _Cell, steps: int = PROBE_STEPS) -> _Cell:
    """Follow *steps* links of the ring: each step is an interpreter
    dispatch and, mostly, a cache miss.  The lifter chases pointers
    through a heap of tens of MB the same way, and it slows with the
    host as this kernel does, where a kernel that stays in the CPU's
    caches slows about twice as much."""
    for _ in range(steps):
        head = head.next
    return head


class Speed:
    """Probe times of one benchmark process, in time order."""

    def __init__(self) -> None:
        before = _resident_mb()
        self._head = ring()
        #: Resident memory the ring adds to this process.
        self.footprint_mb = _resident_mb() - before
        # The ring lives as long as the process: keep its objects out of
        # the program's garbage collections.
        gc.freeze()
        kernel(self._head)   # warm-up, not recorded
        #: Start time and probe times of each burst.
        self.starts: list[float] = []
        self.bursts: list[list[float]] = []
        self._last = -INTERVAL
        self._probing = False
        self.burst()

    @property
    def durations(self) -> list[float]:
        return [probe for burst in self.bursts for probe in burst]

    def burst(self, probes: int = BURST) -> None:
        if self._probing:   # a sample fired during a burst
            return
        self._probing = True
        # The kernel allocates nothing; with the collector off its time
        # does not depend on how many objects the program keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        self.starts.append(time.perf_counter())
        self.bursts.append([])
        try:
            for _ in range(probes):
                start = time.perf_counter()
                kernel(self._head)
                self.bursts[-1].append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self._probing = False
        self._last = time.perf_counter()

    def tick(self, probes: int | None = None) -> None:
        """Probe if the last burst is INTERVAL or more ago: *probes* times,
        or by default for PROBE_SHARE of the time since it."""
        elapsed = time.perf_counter() - self._last
        if elapsed >= INTERVAL:
            self.burst(probes or max(BURST, round(PROBE_SHARE * elapsed
                                                  / REFERENCE_PROBE_S)))

    @contextmanager
    def sampling(self):
        """Inside the block, also probe once every SAMPLE_PERIOD seconds
        in the middle of the program's calls (from a ``SIGALRM`` handler,
        between two bytecodes), so a call of several seconds is scaled by
        the speed during it.  Only for calls without a CPU-time budget:
        the probes' time is taken out of a timed interval, but not out of
        the process time a budget would count."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.burst(1))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _near(self, start: float, end: float, probes: int = NEAR_PROBES):
        """Probes inside [start, end], and those plus the bursts nearest
        to it on either side, *probes* or more in all if there are."""
        first = bisect.bisect_left(self.starts, start)
        after = bisect.bisect_left(self.starts, end)
        inside = [probe for burst in self.bursts[first:after]
                  for probe in burst]
        near = list(inside)
        while len(near) < probes and (first or after < len(self.bursts)):
            if first:
                first -= 1
                near += self.bursts[first]
            if after < len(self.bursts):
                near += self.bursts[after]
                after += 1
        return inside, near

    def factor(self, start: float, end: float,
               probes: int = NEAR_PROBES) -> float:
        """Reference seconds per second over [start, end], for time spent
        in another process (which the probes did not interrupt), from
        *probes* or more probes."""
        near = self._near(start, end, probes)[1]
        return REFERENCE_PROBE_S / statistics.median(near)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of this process's time in [start, end]; the
        probes inside the interval, if it was sampled, are not counted."""
        inside, near = self._near(start, end)
        return (end - start - sum(inside)) * REFERENCE_PROBE_S \
            / statistics.median(near)


def _resident_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
