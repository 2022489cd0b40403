"""Deterministic model of physical memory, processes, and working sets."""

from repro.common.errors import ReproError
from repro.common.units import MiB


class WorkingSetUnavailable(ReproError):
    """The OS flavour cannot report per-process working sets (Windows CE).

    The paper: "the Windows CE operating system resource manager lacks the
    ability to report the current working set size for an application."
    """


class WorkingSetProbeOutage(ReproError):
    """One working-set probe transiently failed (injected fault).

    Distinct from :class:`WorkingSetUnavailable` — the OS *does* support
    probes, this particular one blacked out.  The buffer governor rides
    it out by reusing its last successful reading instead of switching to
    the CE fallback permanently.
    """


class Process:
    """A process competing for physical memory.

    ``allocated`` is the process's virtual commitment; the OS decides how
    much of it is *resident* (its working set) based on total pressure.
    """

    def __init__(self, os, name):
        self._os = os
        self.name = name
        self.allocated = 0

    def allocate(self, n_bytes):
        """Grow the process's allocation by ``n_bytes`` (may be negative)."""
        new_size = self.allocated + int(n_bytes)
        if new_size < 0:
            raise ValueError(
                "process %r cannot free below zero (have %d, freeing %d)"
                % (self.name, self.allocated, -n_bytes)
            )
        self.allocated = new_size

    def set_allocation(self, n_bytes):
        """Set the process's allocation to an absolute size."""
        if n_bytes < 0:
            raise ValueError("allocation must be non-negative")
        self.allocated = int(n_bytes)

    def __repr__(self):
        return "Process(name=%r, allocated=%d)" % (self.name, self.allocated)


class ScriptedProcess(Process):
    """A process whose allocation follows a schedule on the simulated clock.

    ``schedule`` is an iterable of ``(time_us, allocation_bytes)`` pairs;
    each entry arms a clock timer that sets the allocation at that time.
    Used by the Figure 1 experiment to model "other software and system
    tools whose configuration and memory usage vary ... from moment to
    moment".
    """

    def __init__(self, os, name, clock, schedule):
        super().__init__(os, name)
        for time_us, allocation in schedule:
            clock.call_at(time_us, self._make_setter(allocation))

    def _make_setter(self, allocation):
        def setter():
            self.set_allocation(allocation)

        return setter


class OperatingSystem:
    """Physical memory shared by processes, with working-set accounting.

    When the sum of allocations fits in physical memory, every process is
    fully resident.  Under overcommit, the OS trims working sets
    proportionally to allocation size (a simple global page-replacement
    stand-in), always keeping ``kernel_reserve`` for itself.
    """

    def __init__(
        self,
        total_memory,
        supports_working_set=True,
        kernel_reserve=8 * MiB,
        fault_plan=None,
    ):
        if total_memory <= kernel_reserve:
            raise ValueError("total memory must exceed the kernel reserve")
        self.total_memory = int(total_memory)
        self.kernel_reserve = int(kernel_reserve)
        self.supports_working_set_reporting = supports_working_set
        #: Optional :class:`repro.faults.FaultPlan`; consulted duck-typed
        #: (this module never imports :mod:`repro.faults`) so the OS model
        #: stays dependency-free.  Assigned post-construction by the
        #: server when chaos is enabled.
        self.fault_plan = fault_plan
        self._processes = []

    # ------------------------------------------------------------------ #
    # process management
    # ------------------------------------------------------------------ #

    def spawn(self, name):
        """Create a new process with zero allocation."""
        process = Process(self, name)
        self._processes.append(process)
        return process

    def spawn_scripted(self, name, clock, schedule):
        """Create a :class:`ScriptedProcess` driven by ``clock``."""
        process = ScriptedProcess(self, name, clock, schedule)
        self._processes.append(process)
        return process

    def processes(self):
        """Snapshot list of processes (for diagnostics)."""
        return list(self._processes)

    # ------------------------------------------------------------------ #
    # memory accounting
    # ------------------------------------------------------------------ #

    @property
    def usable_memory(self):
        """Physical memory available to user processes."""
        return self.total_memory - self.kernel_reserve

    def total_allocated(self):
        """Sum of all process allocations (virtual commitment)."""
        return sum(process.allocated for process in self._processes)

    def working_set(self, process):
        """Resident size of ``process``, per the trimming policy.

        Raises :class:`WorkingSetUnavailable` on CE-like flavours: the
        governor must then fall back to the paper's CE variant that uses
        the current buffer-pool size as its reference input.
        """
        if not self.supports_working_set_reporting:
            raise WorkingSetUnavailable(
                "this OS flavour cannot report working-set sizes"
            )
        plan = self.fault_plan
        if plan is not None and plan.should(
            "ossim.working_set_outage", plan.rates.working_set_outage
        ):
            plan.record(
                "ossim.working_set_outage", "probe process=%s" % process.name
            )
            raise WorkingSetProbeOutage(
                "injected working-set probe outage for %r" % process.name
            )
        return self._resident(process)

    def _resident(self, process):
        demand = self.total_allocated()
        if demand <= self.usable_memory:
            return process.allocated
        if demand == 0:
            return 0
        # Proportional trim: each process keeps the same fraction of its
        # allocation resident.
        fraction = self.usable_memory / demand
        return int(process.allocated * fraction)

    def free_memory(self):
        """Unused physical memory (never negative)."""
        resident = sum(self._resident(process) for process in self._processes)
        return max(0, self.usable_memory - resident)

    def memory_pressure(self):
        """Fraction of usable memory currently resident, in [0, 1+]."""
        if self.usable_memory == 0:
            return 1.0
        resident = sum(self._resident(process) for process in self._processes)
        return resident / self.usable_memory
