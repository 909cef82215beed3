"""Drift correction against a fixed pure-Python reference kernel.

The host's speed drifts (frequency scaling, other tenants), and on a shared
2-core machine it flips between fast and slow regimes within milliseconds.
A kernel sample taken only at the edges of a long segment catches one
regime and misses the mix the workload ran in.  So a short slice of a fixed
reference kernel runs every few milliseconds through the workload, and each
timed interval is divided by the mean duration of the slices around and
inside it, then scaled by the slice's nominal duration: an interval that
ran 20% slow because the host was slow ran its slices 20% slow as well, and
the ratio stays put.
"""

import gc
import signal
from contextlib import contextmanager
from time import perf_counter, process_time

# about 0.1 ms of stdlib-only interpreter work on the reference host
KERNEL_LOOPS = 300
# workload time between two kernel slices
SLICE_PERIOD_S = 0.003
# workload time per segment in a sweep
SEGMENT_S = 0.25


def reference_kernel():
    """Fixed interpreter work: int arithmetic, tuple building, dict updates.

    Those are what the library's pure-Python layers spend their time on.
    """
    acc = 0
    seen = {}
    for i in range(KERNEL_LOOPS):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + i
        acc = (acc * 31 + i) % 1000003
    return acc + len(seen)


def kernel_slice():
    """(wall, CPU) time of one run of the reference kernel.

    The cyclic GC is off during the slice: a collection of the workload's
    heap would otherwise be timed as kernel time, and a library that made
    collections costlier would read as a faster one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = perf_counter(), process_time()
        reference_kernel()
        return perf_counter() - t0, process_time() - c0
    finally:
        if enabled:
            gc.enable()


@contextmanager
def timer_slices():
    """Run a kernel slice every SLICE_PERIOD_S of wall time from a SIGALRM
    timer, for code that cannot call `tick()` itself, such as an import or
    a whole CLI command.  Yields the list the (wall, CPU) slices go to."""
    slices = []

    def on_alarm(signum, frame):
        slices.append(kernel_slice())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)
    try:
        yield slices
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def correct(raw_s, slices, nominal_s):
    """A raw segment time expressed at the kernel's nominal speed, given the
    durations of the kernel slices run during the segment."""
    return raw_s * nominal_s / (sum(slices) / len(slices))


class DriftClock:
    """Workload time in segments, corrected by the kernel slices around it.

    `begin()` opens a segment and `end()` closes it with a slice.  Inside,
    `unit()` records the raw time of a unit that has just finished, and
    `tick()` runs a slice when one is due and leaves its time out of the
    segment.

    Each segment is corrected by the mean of the slices from the one just
    before it to the one that closes it.  Each unit is corrected by the
    last slice before it and the first one after it, so a unit caught in a
    short slow spell of the host is corrected by that spell.  Segments are
    wall time, corrected by the slices' wall time.  Unit times are CPU time,
    corrected by the slices' CPU time: a preemption by another process on
    the host lasts longer than most units and would otherwise set the tail.
    """

    def __init__(self, nominal_s, run_slice=kernel_slice):
        self.nominal_s = nominal_s
        self._run_slice = run_slice
        self.slices = []           # (wall, CPU) of every slice, in order
        self.segments = []         # raw wall time of each closed segment
        self.segment_slices = []   # (first, last) slice index per segment
        self.unit_raw = []         # raw time of each unit
        self.unit_slices = []      # (first, last) slice index per unit
        self._start = self._last = self._first = None
        self._excluded = 0.0

    def slice(self):
        """Run one kernel slice now; returns its wall time."""
        pair = self._run_slice()
        self.slices.append(pair)
        self._last = perf_counter()
        return pair[0]

    def mark(self):
        """Index of the last slice run so far."""
        return len(self.slices) - 1

    def begin(self):
        if not self.slices:
            self.slice()
        self._first = self.mark()
        self._excluded = 0.0
        self._start = self._last = perf_counter()

    def tick(self):
        """Run a slice if one is due; its time is excluded from the segment."""
        if perf_counter() - self._last >= SLICE_PERIOD_S:
            self._excluded += self.slice()

    def unit(self, raw_s):
        """Record a unit that has just finished."""
        self.unit_raw.append(raw_s)
        self.unit_slices.append((self.mark(), len(self.slices)))

    def elapsed(self):
        """Workload time spent in the open segment so far."""
        return perf_counter() - self._start - self._excluded

    def end(self):
        self.segments.append(self.elapsed())
        self.slice()
        self.segment_slices.append((self._first, self.mark()))
        self._start = None

    def call(self, fn, *args):
        """Run fn(*args) as a segment of its own and return its result.

        For one long call that cannot `tick()`, such as building a sweep's
        units: slices come from a timer while it runs.
        """
        self.begin()
        with timer_slices() as inside:
            out = fn(*args)
        self.slices += inside
        self._excluded = sum(p[0] for p in inside)
        self.end()
        return out

    def _factor(self, first, last, clock):
        return correct(1.0, [p[clock] for p in self.slices[first:last + 1]],
                       self.nominal_s)

    def summary(self):
        return {
            "raw_s": sum(self.segments),
            "corrected_s": sum(s * self._factor(a, b, 0) for s, (a, b)
                               in zip(self.segments, self.segment_slices)),
            "unit_corrected_s": [r * self._factor(a, b, 1) for r, (a, b)
                                 in zip(self.unit_raw, self.unit_slices)],
            "segments_raw_s": list(self.segments),
            "segment_slices": [list(r) for r in self.segment_slices],
            "kernel_slices_s": [list(p) for p in self.slices],
        }


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))   # ceil(N p / 100)
    return ordered[int(rank) - 1]
