"""Times scaled to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of two over seconds to minutes, whatever runs inside it.  Raw times of
the same code then spread far more from run to run than the changes the
benchmark must resolve.  So while operations run, a `Sampler` measures the
machine's speed: `INTERVAL_S` after each probe a timer signal runs the
next, a fixed pure-Python loop that does not touch rbx, in the bench
process.  Python runs
the handler between two bytecodes of whatever is running, so long rbx calls
are sampled inside.  An operation's time, less the probes run inside it, is
multiplied by `REFERENCE_S` over the mean probe time around it, which reads
it in seconds at the speed where the probe takes `REFERENCE_S` (about the
host's fastest state).

The cores of the host do not keep one speed: each drifts on its own.  Work
in this process is sampled where it runs, since the probe runs in its
thread.  Work in other processes, which may use every core, is sampled by
probes that take the cores in turn.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0005  # probe time at the reference speed
INTERVAL_S = 0.01     # from the end of one probe to the start of the next
# Probes up to this far outside an operation also count for it, so that
# an operation shorter than the interval has at least one on either side.
MARGIN_S = 2 * INTERVAL_S
# Seconds spent in probes by this process so far, read by the tracer to keep
# probe time out of its spans.
PROBED = [0.0]


def _probe_loop():
    # Small ints, tuples, a dict, a list and Fractions: the object mix of
    # rbx's kernel, without calling it.
    acc, seen, recent, x = 0, {}, [], Fraction(1, 3)
    for i in range(125):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        recent.append(key)
        if len(recent) > 64:
            recent.clear()
        x = x * Fraction(i % 7 + 1, 5) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**6:
            x = Fraction(1, 3)
        acc += len(seen)
    return acc


class Sampler:
    """Probes the machine's speed on a timer while it is open.

        with Sampler() as s:
            t0 = s.begin(); work(); t1 = s.end()
        seconds = s.scaled(t0, t1)

    The first probe runs on entry and the last on exit, so every operation
    inside has one before and one after it.  A probe that falls due in the
    first `INTERVAL_S` of an operation waits until the operation ends or
    is `INTERVAL_S` old, so that short operations are never interrupted.
    """

    def __init__(self, own=True):
        """`own`: the work runs in this process.  Otherwise it runs in
        other processes while this one waits: probes inside it then take
        this process's cores in turn and their time is not taken out."""
        self.own = own
        self.starts = []  # probe start times, ascending
        self.times = []   # probe durations
        self._cores = []
        if not own and hasattr(os, "sched_setaffinity"):
            self._cores = sorted(os.sched_getaffinity(0))
        self._armed = False
        self._due = False
        self._sampling = False
        self._op_start = None

    def _on_timer(self, signum, frame):
        if self._sampling:
            return  # the probe running now re-arms the timer
        age = INTERVAL_S if self._op_start is None else time.perf_counter() - self._op_start
        if age < INTERVAL_S:
            # Probe at the operation's end, or once it is INTERVAL_S old.
            self._due = True
            signal.setitimer(signal.ITIMER_REAL, max(INTERVAL_S - age, 1e-4))
        else:
            self._sample()

    def _sample(self):
        self._sampling = True
        if self._cores:
            core = self._cores[len(self.times) % len(self._cores)]
            os.sched_setaffinity(0, {core})
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_loop()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        if self._cores:
            os.sched_setaffinity(0, self._cores)
        self.starts.append(t0)
        self.times.append(t1 - t0)
        PROBED[0] += t1 - t0
        self._due = self._sampling = False
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def begin(self):
        """Mark the start of an operation; returns its start time."""
        self._op_start = time.perf_counter()
        return self._op_start

    def end(self):
        """Mark the end of an operation; returns its end time."""
        t = time.perf_counter()
        self._op_start = None
        if self._due:
            self._sample()
        return t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._armed = True
        self._sample()
        return self

    def __exit__(self, *exc):
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # the last operation gets a probe after it too

    def busy(self, start, end):
        """Seconds from `start` to `end`, less the probes inside if `own`."""
        spent = end - start
        if self.own:
            a = bisect.bisect_left(self.starts, start)
            b = bisect.bisect_left(self.starts, end)
            spent -= sum(self.times[a:b])
        return spent

    def scaled(self, start, end):
        """Seconds from `start` to `end` at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        return self.busy(start, end) * REFERENCE_S / statistics.fmean(self.times[lo:hi])

    def speed(self):
        """Median probe time over the reference one: 2 is half speed."""
        return statistics.median(self.times) / REFERENCE_S


def timed(calls):
    """Run the callables in turn; the seconds of each at the reference speed."""
    with Sampler() as s:
        spans = []
        for fn in calls:
            t0 = s.begin()
            fn()
            spans.append((t0, s.end()))
    return [s.scaled(t0, t1) for t0, t1 in spans]


def child_setup(build):
    """Run `build()` as the set-up of a fresh interpreter, probing as it
    goes, and print the probes' total and mean time for the parent, which
    timed the whole interpreter: see `scale_child`."""
    with Sampler() as s:
        s.begin()
        build()
        s.end()
    print(sum(s.times), statistics.fmean(s.times))


def scale_child(seconds, stdout):
    """A child's wall time at the reference speed, from what `child_setup`
    printed as the last line of its output."""
    total, mean = map(float, stdout.split()[-2:])
    return (seconds - total) * REFERENCE_S / mean
