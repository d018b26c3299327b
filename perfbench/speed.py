"""Host-speed reference: every time in the end-to-end metrics is scaled by it.

The benchmark shares a few cores of a host with other tenants, and the speed
of one core moves by 20-30 % between runs a minute apart (and by up to 2x
between neighbouring 20 ms slices).  Process CPU time moves just as much, so
it does not help.  What does is a yardstick measured at the same moments as
the program: while a run is timed, a one-shot SIGALRM timer interleaves a
fixed piece of pure-Python work, ``reference()``, with the ops, every
``GAP_S`` seconds.  Python runs the handler between two bytecodes of the op
that is running, so the samples are spread evenly over the op time of the
run, long ops included.

Each timed span (an op or a set-up) is then reported as

    net time * REFERENCE_S / (mean reference time within WINDOW_S of it)

where net time is its wall time less the handler time that fell inside it.
That is its time on a host where one ``reference()`` call takes
``REFERENCE_S`` (its mean between ops on the baseline host; alone on a
quiet core it takes about 1.1 ms).  A change to the program moves
the net time and not the reference, so it moves the metric in full; a change
in host speed moves both and cancels.

The reference runs with the cyclic garbage collector off, so the size of the
program's heap does not reach its time; it frees everything it makes.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.0015  # the unit: one reference() call on the nominal host
GAP_S = 0.008  # wall time between the end of one sample and the next
WINDOW_S = 0.25  # samples this close to a span set its speed


class _Item:
    __slots__ = ("key", "pair")

    def __init__(self, key, pair):
        self.key = key
        self.pair = pair


def reference():
    """Fixed interpreter work of the kinds the library does: tuples as dict
    keys, small objects, string building, sets and a keyed sort."""
    table = {}
    for i in range(800):
        key = ((i * 37) % 101, (i * 11) % 13, i & 7)
        table[key] = table.get(key, 0) + 1
    items = [_Item(k, (v, k[0] - k[1])) for k, v in table.items()]
    seen = set()
    for it in items:
        t = it.pair + (it.key[2] % 5,)
        if t not in seen:
            seen.add(t)
    labels = ["%s%d_%d" % ("ab"[k[2] & 1], k[0], k[1]) for k in table]
    order = sorted(items, key=lambda it: (it.pair[1], it.key))
    return len(seen) + len("".join(labels)) + order[0].key[0]


class Speedometer:
    """Interleaves ``reference()`` with the timed code and scales spans."""

    def __init__(self):
        self.when = array("d")  # start of each sample
        self.took = array("d")  # its duration
        self.spent = 0.0  # wall time inside the handler, samples included
        self.recent = None  # moving mean of the last few dozen samples
        self._prefix = None
        self._running = False

    def _tick(self, signum, frame):
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.when.append(t0)
        self.took.append(t1 - t0)
        self.recent = t1 - t0 if self.recent is None else self.recent + (t1 - t0 - self.recent) / 32
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, GAP_S)
        self.spent += perf_counter() - entered

    def start(self):
        for _ in range(20):  # warm the reference before the first sample counts
            reference()
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """(wall clock, handler time) at the start of a span."""
        return perf_counter(), self.spent

    def net_clock(self):
        """Wall clock that stands still while the handler runs."""
        spent = self.spent
        return perf_counter() - spent

    def span(self, mark):
        """(start, end, net seconds) of the span opened by ``mark``."""
        t1 = perf_counter()
        t0, s0 = mark
        return t0, t1, (t1 - t0) - (self.spent - s0)

    def recent_scale(self):
        """The scale of the moment, for deciding when a run has done enough;
        1 before the first sample."""
        return 1.0 if self.recent is None else REFERENCE_S / self.recent

    def scale(self, start, end):
        """REFERENCE_S over the mean reference time within WINDOW_S of
        [start, end]; the whole run's mean if no sample lies that close."""
        if self._prefix is None or len(self._prefix) != len(self.took) + 1:
            prefix = array("d", [0.0])
            for x in self.took:
                prefix.append(prefix[-1] + x)
            self._prefix = prefix
        if not self.took:
            raise RuntimeError("no reference samples were taken")
        lo = bisect_left(self.when, start - WINDOW_S)
        hi = bisect_right(self.when, end + WINDOW_S)
        if hi <= lo:
            lo, hi = 0, len(self.took)
        return REFERENCE_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])

    def mean_reference_s(self):
        return sum(self.took) / len(self.took) if self.took else 0.0
