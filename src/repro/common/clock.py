"""Virtual time.

The paper's buffer-pool governor polls the operating system once a minute
(20 seconds in fast mode).  Reproducing that against a wall clock would make
every experiment take real minutes; instead every component of the engine
shares a :class:`SimClock` whose time only moves when something *charges*
time to it (a disk transfer, a CPU cost, an idle wait).  Experiments that
span hours of server time complete in milliseconds, deterministically.
"""

import heapq
import itertools


class SimClock:
    """A discrete-event virtual clock measured in integer microseconds.

    Components call :meth:`advance` to charge elapsed time and may register
    callbacks that fire when the clock passes a deadline (used by pollers
    such as the buffer-pool governor).
    """

    def __init__(self, start=0):
        if start < 0:
            raise ValueError("clock cannot start before zero")
        self._now = int(start)
        self._pending = []  # heap of (deadline, seq, callback)
        self._seq = itertools.count()

    @property
    def now(self):
        """Current simulated time in microseconds."""
        return self._now

    def advance(self, delta_us):
        """Move time forward by ``delta_us`` microseconds, firing timers.

        Timers fire in deadline order, and a callback that schedules another
        timer inside the advanced window is honoured within the same call.
        """
        if delta_us < 0:
            raise ValueError("time cannot move backwards (delta=%r)" % (delta_us,))
        target = self._now + int(delta_us)
        while self._pending and self._pending[0][0] <= target:
            deadline, _seq, callback = heapq.heappop(self._pending)
            # Jump the clock to the timer's deadline so that the callback
            # observes a consistent "now".
            self._now = max(self._now, deadline)
            callback()
        self._now = target

    def call_at(self, deadline_us, callback):
        """Schedule ``callback()`` to run when time reaches ``deadline_us``.

        A deadline in the past fires on the next :meth:`advance` call (even
        an ``advance(0)``).
        """
        heapq.heappush(self._pending, (int(deadline_us), next(self._seq), callback))

    def call_after(self, delay_us, callback):
        """Schedule ``callback()`` to run ``delay_us`` from now."""
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.call_at(self._now + int(delay_us), callback)

    def pending_timers(self):
        """Number of timers not yet fired (for tests and diagnostics)."""
        return len(self._pending)

