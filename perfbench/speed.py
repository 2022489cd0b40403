"""Scaling wall-clock timings by the machine's speed at the time.

The benchmark runs on shared machines whose speed for Python code swings
by a fifth or more, and sometimes by half, within seconds, as
neighbours come and go.  Raw wall times then differ between two runs of
the same code by more than any change worth detecting.  So the
benchmark times a fixed pure-Python probe, which touches nothing of the
engine, while it measures: every :data:`PROBE_INTERVAL_S` (between
statements, and at page fetches during set-up and restart) and
:data:`PROBES_AROUND` times before and after each timed operation.  A
time is then reported at reference speed: each stretch of wall time
between two probes is multiplied by ``REFERENCE_PROBE_S / median(the
probe times around it)``, giving the time it would have taken on a
machine where the probe takes :data:`REFERENCE_PROBE_S`, and probe time
itself is left out.  An engine change cannot move the probe, so it
moves the scaled times as it moves the raw ones.
"""

import bisect
import re
import statistics
import time

#: The probe's typical duration on the development machine; only sets
#: the scale of the reported times.
REFERENCE_PROBE_S = 0.00125

#: Wall time between two probes during a timed operation.
PROBE_INTERVAL_S = 0.02

#: Probes taken back to back before and after each timed operation.
PROBES_AROUND = 5

_TOKEN = re.compile(r"[A-Za-z_]+|\d+|\S")
_TEXT = ("SELECT a.c0, b.c1 FROM t0 a JOIN t1 b ON a.pk = b.c2 WHERE "
         "(a.c1 > 3) AND NOT (b.c0 IS NULL) ORDER BY a.pk LIMIT 7")


def probe():
    """Fixed interpreter-bound work resembling the engine's: tokenising,
    dictionary updates, building and sorting tuples."""
    total = 0
    for _ in range(8):
        counts = {}
        for i, token in enumerate(_TOKEN.findall(_TEXT)):
            counts[token] = counts.get(token, 0) + i
        rows = [(i % 7, str(i), i * 0.5) for i in range(200)]
        rows.sort(key=lambda row: (row[0], row[2]))
        total += len(counts) + rows[0][0]
    return total


def time_probe():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Sampler:
    """Probes taken around and during timed operations.

    :meth:`tick`, called from inside an operation, times the probe when
    :data:`PROBE_INTERVAL_S` has passed since the last one.  With a
    tracer, each probe is a ``probe`` span, so its time is not charged to
    the span it interrupts.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.starts = []
        self.times = []
        self._last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def sample(self, n=1):
        """Time the probe ``n`` times."""
        frame = self.tracer.enter("probe") if self.tracer else None
        for _ in range(n):
            self.starts.append(time.perf_counter())
            self.times.append(time_probe())
        if frame is not None:
            self.tracer.exit(frame)
        self._last = time.perf_counter()

    def scaled(self, start, end):
        """Seconds from ``start`` to ``end`` (``time.perf_counter()``
        readings) at reference speed, with probe time left out.

        The stretch between probe ``j`` and probe ``j + 1`` is scaled by
        the median of probes ``j - 1`` to ``j + 2``, two on each side.
        """
        starts, times = self.starts, self.times
        j = bisect.bisect_right(starts, start) - 1
        total = 0.0
        while True:
            low = start if j < 0 else max(start, starts[j] + times[j])
            following = j + 1
            last = following == len(starts)
            high = end if last else min(end, starts[following])
            if high > low:
                total += (high - low) * scale(times[max(0, j - 1):j + 3])
            if last or starts[following] >= end:
                return total
            j = following


def scale(probe_times):
    """The factor that turns raw wall times into reference-machine ones."""
    return REFERENCE_PROBE_S / statistics.median(probe_times)
