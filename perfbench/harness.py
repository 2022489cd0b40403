"""What every workload shares: statement timing, epochs, metrics.

A run is a sequence of *epochs*.  Each epoch sets the workload up
afresh, runs its fixed, seed-generated statement list as the timed
phase, then crashes and restarts the server and checks what survived.
A run makes :data:`MIN_EPOCHS` epochs and more while they fit in
``--seconds`` (see :func:`run_epochs`), and each wall-clock metric is
the median over the epochs, scaled to reference machine speed (see
:mod:`speed`).  Because every epoch runs the same statements from the
same seed, the simulated-clock metrics, ``space_amp`` and the registry
counts must come out identical in every epoch; the run checks that.
"""

import contextlib
import dataclasses
import gc
import math
import re
import resource
import statistics
import time

import speed
from tracing import STATEMENT, Tracer, child_calls, summarize

#: Set-up time is reported as a median, so every run sets up this often.
MIN_EPOCHS = 3

READ = "read"
WRITE = "write"

#: ``(name, unit)`` of every end-to-end metric, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_stmt_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("sim_us_per_stmt", "us"),
    ("sim_tail_us", "us"),
    ("success_rate", "ratio"),
    ("recovery_s", "s"),
    ("sim_recovery_us", "us"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
)

#: Metrics the same seed must reproduce exactly.
DETERMINISTIC = ("sim_us_per_stmt", "sim_tail_us", "sim_recovery_us",
                 "space_amp")

#: Per-layer metrics derived from registry deltas and span trees, with
#: their units (span metrics are added per span name, see
#: :func:`per_layer_names`).
DERIVED_LAYER = (
    ("optimizer.nodes_per_stmt", "count"),
    ("optimizer.plancache_hit_ratio", "ratio"),
    ("exec.rows_in_per_row_out", "ratio"),
    ("exec.spill_events", "count"),
    ("exec.admission_waits", "count"),
    ("buffer.fetches_per_stmt", "count"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions", "count"),
    ("buffer.writebacks", "count"),
    ("buffer.governor_polls", "count"),
    ("buffer.governor_resizes", "count"),
    ("storage.btree_pages_per_search", "count"),
    ("storage.commits_per_force", "ratio"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("engine.lock_waits", "count"),
    ("engine.deadlocks", "count"),
    ("engine.sched_switches", "count"),
    ("engine.sched_overhead_s", "s"),
    ("recovery.pages_flushed", "count"),
    ("recovery.redo_records", "count"),
    ("trace.overhead_ratio", "ratio"),
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def per_layer_names(span_names):
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = []
    for span in span_names:
        names += [
            (span + ".calls", "count"),
            (span + ".self_s", "s"),
            (span + ".us_per_call", "us"),
        ]
    return names + list(DERIVED_LAYER)


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #

def tail_percentile(n):
    """The highest of p99 and p90 that leaves at least ten of ``n``
    samples beyond it (nearest-rank), or None when neither does."""
    for p in (99, 90):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def user_bytes(row):
    """Bytes of user data in one row: 8 per number, the UTF-8 length of
    each string, nothing for NULL."""
    total = 0
    for value in row:
        if isinstance(value, str):
            total += len(value.encode("utf-8"))
        elif value is not None:
            total += 8
    return total


def registry_delta(before, after):
    """Deltas of numeric metrics between two ``metrics.snapshot()`` dicts;
    a histogram contributes ``<name>.count`` and ``<name>.sum``."""
    delta = {}
    for name, value in after.items():
        old = before.get(name)
        if isinstance(value, dict):
            old = old or {"count": 0, "sum": 0}
            delta[name + ".count"] = value["count"] - old["count"]
            delta[name + ".sum"] = value["sum"] - old["sum"]
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[name] = value - (old or 0)
    return delta


# ---------------------------------------------------------------------- #
# one epoch's measurements
# ---------------------------------------------------------------------- #

class Recorder:
    """Times each statement on both clocks.

    Latency runs from submission to completion, so under the scheduler it
    includes time parked while the other session runs.  The wall clock
    is kept as raw ``(start, end)`` readings, scaled once the timed phase
    is over (see :meth:`speed.Sampler.scaled`).  Between statements, at
    most every ``speed.PROBE_INTERVAL_S``, it times the speed probe.  In
    a traced epoch it also counts the rows each read's plan consumed.
    """

    def __init__(self, server, tracer=None):
        self.clock = server.clock
        self.tracer = tracer
        self.sampler = speed.Sampler(tracer)
        self.reads = []
        self.writes = []
        self.sim_us = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.think_us = 0
        self.rows_in = 0
        self.rows_out = 0

    def execute(self, conn, sql, kind):
        """Run one statement; returns its Result."""
        tracer = self.tracer
        self.attempted += 1
        frame = tracer.enter(STATEMENT, kind) if tracer is not None else None
        sim_start = self.clock.now
        start = time.perf_counter()
        try:
            result = conn.execute(sql)
        except Exception as exc:
            self.failed += 1
            self.errors.append("%s: %s: %s" % (sql, type(exc).__name__, exc))
            raise
        finally:
            if tracer is not None:
                tracer.exit(frame)
        end = time.perf_counter()
        self.sim_us.append(self.clock.now - sim_start)
        (self.reads if kind == READ else self.writes).append((start, end))
        if tracer is not None and kind == READ:
            self._count_rows(result)
        self.sampler.tick()
        return result

    def session(self):
        """Context for a session's whole statement loop: in a traced
        epoch it counts the session's CPU time outside any span."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.session_cpu()

    def think(self, delta_us):
        """Simulated think time: the governors' timers fire here."""
        self.think_us += delta_us
        self.clock.advance(delta_us)

    def _count_rows(self, result):
        """Rows read by the plan's leaf operators and rows returned."""
        stats = result.exec_stats
        plan = result.plan_result.plan if result.plan_result else None
        if stats is None or plan is None:
            return
        pending = [plan]
        while pending:
            node = pending.pop()
            if node.children:
                pending.extend(node.children)
            else:
                leaf = stats.lookup(node)
                self.rows_in += leaf.rows_out if leaf is not None else 0
        self.rows_out += len(result.rows)


@dataclasses.dataclass
class Epoch:
    """What one epoch measured."""

    setup_s: float
    timed_s: float
    read_ms: list
    write_ms: list
    recorder: Recorder
    sim_work_us: int
    registry: dict
    recovery_s: float
    sim_recovery_us: int
    redo_records: int
    space_amp: float
    user_bytes_written: int
    calls: int
    failures: list
    spans: dict = None

    @property
    def statements(self):
        return len(self.recorder.sim_us)


def timed(fn, tracer=None):
    """``(result, seconds at reference speed)`` of one call of ``fn``:
    set-up or restart.

    The speed probe is timed before and after the call and, at most
    every ``speed.PROBE_INTERVAL_S``, at the page fetches it makes.  Both
    operations fetch pages throughout, and a multi-second operation
    scaled by probes taken only around it carries the machine's swings
    in between.
    """
    from repro.buffer.pool import BufferPool

    sampler = speed.Sampler(tracer)
    sampler.sample(speed.PROBES_AROUND)
    fetch = BufferPool.fetch  # the tracer's wrapper, in a traced epoch

    def probing_fetch(pool, *args, **kwargs):
        sampler.tick()
        return fetch(pool, *args, **kwargs)

    BufferPool.fetch = probing_fetch
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        BufferPool.fetch = fetch
    end = time.perf_counter()
    sampler.sample(speed.PROBES_AROUND)
    return result, sampler.scaled(start, end)


def measure(server, conn, recorder, run, setup, closing, live_rows,
            checks, written, calls=0):
    """Time ``run()`` as the epoch's timed phase, then close the epoch.

    ``setup`` is the set-up's seconds, as :func:`timed` measured them.
    Closing takes a checkpoint, runs the ``closing`` SQL through
    ``conn`` (so every restart redoes the same amount of log), reads the
    user rows ``live_rows()`` returns (the base of ``space_amp``), then
    crashes and restarts the server.  ``checks()`` runs after the
    restart and returns the failures it found.  ``written()`` is the
    user bytes of the row images the timed phase's DML wrote (the base
    of ``wal_bytes_per_user_byte``); ``calls`` counts its CALL
    statements.

    A tracer, if any, records every span of the timed phase and of the
    restart.  Layer totals describe the timed phase alone; of the
    restart's spans only ``recovery.restart`` itself is reported, its
    self time excluding the layer calls beneath it.
    """
    tracer = recorder.tracer
    gc.collect()
    before = server.metrics.snapshot()
    clock_start = server.clock.now
    sampler = recorder.sampler
    sampler.sample(speed.PROBES_AROUND)
    _trace(tracer, active=True)
    start = time.perf_counter()
    run()
    end = time.perf_counter()
    _trace(tracer, active=False)
    sampler.sample(speed.PROBES_AROUND)
    # The clock's timers reach the whole server: an Epoch kept for the
    # run's medians must not keep its server alive through the recorder.
    recorder.clock = None
    timed_spans = len(tracer.spans) if tracer is not None else 0
    sim_work_us = server.clock.now - clock_start - recorder.think_us
    registry = registry_delta(before, server.metrics.snapshot())
    server.checkpoint()
    for sql in closing:
        conn.execute(sql)
    live_bytes = sum(user_bytes(row) for row in live_rows())
    space_amp = server.database_size_bytes() / live_bytes

    def crash_and_restart():
        server.crash()
        _trace(tracer, active=True)
        report = server.restart()
        _trace(tracer, active=False)
        return report

    report, recovery_s = timed(crash_and_restart, tracer)
    return Epoch(
        setup_s=setup,
        timed_s=sampler.scaled(start, end),
        read_ms=[sampler.scaled(*span) * 1e3 for span in recorder.reads],
        write_ms=[sampler.scaled(*span) * 1e3 for span in recorder.writes],
        recorder=recorder,
        sim_work_us=sim_work_us,
        registry=registry,
        recovery_s=recovery_s,
        sim_recovery_us=report.duration_us,
        redo_records=report.redo_records,
        space_amp=space_amp,
        user_bytes_written=written(),
        calls=calls,
        failures=list(recorder.errors) + checks(),
        spans=(trace_summary(tracer.spans[:timed_spans],
                             tracer.spans[timed_spans:], tracer.uncovered_ns)
               if tracer is not None else None),
    )


def _trace(tracer, active):
    if tracer is not None:
        tracer.active = active


def trace_summary(timed, restart, uncovered_ns):
    """Per-span summary of the ``timed`` phase's spans, with the
    ``recovery.restart`` entry taken from the ``restart``'s spans, plus
    B-tree search page counts."""
    summary = summarize(timed)
    summary["recovery.restart"] = summarize(restart)["recovery.restart"]
    searches, fetches = child_calls(
        timed, "storage.btree", "search", "buffer.fetch"
    )
    summary["uncovered_s"] = uncovered_ns / 1e9
    summary["btree_searches"] = searches
    summary["btree_search_fetches"] = fetches
    return summary


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #

def run_epochs(run_epoch, seconds, trace):
    """Run MIN_EPOCHS epochs, then more while one as long as the longest
    so far still ends within ``seconds`` of the start.

    In a traced run the odd epochs are traced and the even ones are not,
    so the tracing overhead is measured inside the same run.
    """
    epochs = []
    start = time.perf_counter()
    longest = 0.0
    while (len(epochs) < MIN_EPOCHS
           or time.perf_counter() - start + longest <= seconds):
        tracer = Tracer() if trace and len(epochs) % 2 == 1 else None
        began = time.perf_counter()
        epochs.append(run_epoch(tracer))
        longest = max(longest, time.perf_counter() - began)
    return epochs


def check_epochs(epochs):
    """Every epoch must pass its checks and agree on the deterministic
    metrics; returns the list of failures."""
    failures = [f for epoch in epochs for f in epoch.failures]
    reference = deterministic_values(epochs[0])
    for index, epoch in enumerate(epochs[1:], start=1):
        values = deterministic_values(epoch)
        if values != reference:
            differing = sorted(
                k for k in reference if reference[k] != values.get(k)
            )
            failures.append(
                "epoch %d repeated the seed but differs in %s"
                % (index, ", ".join(differing[:8]))
            )
    return failures


def deterministic_values(epoch):
    values = dict(_sim_metrics(epoch))
    values["space_amp"] = epoch.space_amp
    values["statements"] = epoch.statements
    values.update(("registry." + k, v) for k, v in epoch.registry.items())
    return values


def _sim_metrics(epoch):
    sim = epoch.recorder.sim_us
    return {
        "sim_us_per_stmt": epoch.sim_work_us / len(sim),
        "sim_tail_us": percentile(sim, tail_percentile(len(sim))),
        "sim_recovery_us": epoch.sim_recovery_us,
    }


def end_to_end(epochs):
    """The end-to-end metrics (name -> value) plus notes for the log."""
    first = epochs[0]
    read_p = tail_percentile(len(first.read_ms))
    write_p = tail_percentile(len(first.write_ms))
    sim_p = tail_percentile(first.statements)

    def per_epoch(fn):
        return statistics.median([fn(e) for e in epochs])

    attempted = sum(e.recorder.attempted for e in epochs)
    failed = sum(e.recorder.failed for e in epochs)
    values = {
        "setup_s": per_epoch(lambda e: e.setup_s),
        "throughput_stmt_s": per_epoch(throughput),
        "read_p50_ms": per_epoch(lambda e: percentile(e.read_ms, 50)),
        "read_tail_ms": per_epoch(lambda e: percentile(e.read_ms, read_p)),
        "write_p50_ms": per_epoch(lambda e: percentile(e.write_ms, 50)),
        "write_tail_ms": per_epoch(
            lambda e: percentile(e.write_ms, write_p)),
        "success_rate": 1.0 - failed / attempted,
        "recovery_s": per_epoch(lambda e: e.recovery_s),
        "peak_rss_mb": peak_rss_mb(),
        "space_amp": epochs[0].space_amp,
    }
    values.update(_sim_metrics(epochs[0]))
    notes = {
        "epochs": len(epochs),
        "read_tail": "p%d of %d reads per epoch" % (read_p, len(first.read_ms)),
        "write_tail": "p%d of %d writes per epoch"
                      % (write_p, len(first.write_ms)),
        "sim_tail": "p%d of %d statements per epoch"
                    % (sim_p, first.statements),
        "error_rate": failed / attempted,
        "speed_scale": "%.3f" % per_epoch(
            lambda e: speed.scale(e.recorder.sampler.times)),
    }
    return values, notes, attempted, failed


def throughput(epoch):
    """Timed-phase statements per second, at reference machine speed."""
    return epoch.statements / epoch.timed_s


def per_layer(epochs, span_names):
    """Per-layer metrics from the traced epochs (odd indexes) of a run."""
    traced = [e for e in epochs if e.spans is not None]
    plain = [e for e in epochs if e.spans is None]
    values = {}
    for name in span_names:
        calls = statistics.median(
            [e.spans.get(name, {}).get("calls", 0) for e in traced]
        )
        self_s = statistics.median(
            [e.spans.get(name, {}).get("self_s", 0.0) for e in traced]
        )
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
        values[name + ".us_per_call"] = self_s / calls * 1e6 if calls else 0.0
    epoch = traced[0]
    reg = epoch.registry
    rec = epoch.recorder
    statements = epoch.statements
    fetches = reg.get("pool.hits", 0) + reg.get("pool.misses", 0)
    resizes = reg.get("governor.action.grow", 0) + reg.get(
        "governor.action.shrink", 0)
    forces = reg.get("wal.forces", 0)
    searches = epoch.spans["btree_searches"]
    values.update({
        "optimizer.nodes_per_stmt": reg.get("optimizer.nodes_visited", 0)
        / statements,
        "optimizer.plancache_hit_ratio": (
            reg.get("plancache.hits", 0) / epoch.calls if epoch.calls else 0.0
        ),
        "exec.rows_in_per_row_out": rec.rows_in / max(1, rec.rows_out),
        "exec.spill_events": reg.get("exec.spill_events", 0),
        "exec.admission_waits": reg.get("memgov.admission_waits", 0),
        "buffer.fetches_per_stmt": fetches / statements,
        "buffer.hit_ratio": reg.get("pool.hits", 0) / fetches
        if fetches else 0.0,
        "buffer.evictions": reg.get("pool.evictions", 0),
        "buffer.writebacks": reg.get("pool.writebacks", 0),
        "buffer.governor_polls": reg.get("governor.polls", 0),
        "buffer.governor_resizes": resizes,
        "storage.btree_pages_per_search": (
            epoch.spans["btree_search_fetches"] / searches
            if searches else 0.0
        ),
        "storage.commits_per_force": (
            reg.get("txn.commit_latency_us.count", 0) / forces
            if forces else 0.0
        ),
        "storage.wal_bytes_per_user_byte": (
            reg.get("wal.pages_written", 0) * 4096 / epoch.user_bytes_written
            if epoch.user_bytes_written else 0.0
        ),
        "engine.lock_waits": reg.get("locks.waits", 0),
        "engine.deadlocks": reg.get("locks.deadlocks", 0),
        "engine.sched_switches": reg.get("sched.switches", 0),
        "engine.sched_overhead_s": statistics.median(
            [e.spans["uncovered_s"] for e in traced]
        ),
        "recovery.pages_flushed": reg.get("ckpt.pages_flushed", 0),
        "recovery.redo_records": epoch.redo_records,
        "trace.overhead_ratio": (
            statistics.median([throughput(e) for e in plain])
            / statistics.median([throughput(e) for e in traced])
        ),
    })
    return values
