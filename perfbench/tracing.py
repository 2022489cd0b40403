"""Layer spans for the traced run, recorded from outside the engine.

The engine carries no tracing code of its own.  :class:`Tracer` wraps
each layer's public entry point at run time and records one span per
call: name, operation, start, end, parent span and statement id.  Spans
stay in memory and are written out once the run ends.

Spans are timed on the calling thread's CPU clock.  The workload
scheduler runs every session on its own thread but parks all of them
except the one holding the baton, so a session parked inside a span
(a pool miss is a yield point) must not accrue the time another session
runs.  With no real I/O in the simulated engine, a running thread's CPU
time is its wall time.
"""

import contextlib
import functools
import itertools
import threading
import time

_now_ns = time.thread_time_ns

#: Statement spans wrap ``Connection.execute`` calls made by the benchmark.
STATEMENT = "stmt"


def entry_points():
    """``(span name, owner, attribute, kind)`` for every wrapped entry.

    ``kind`` is ``"call"`` for a function or method, ``"gen"`` for a
    generator whose span covers its whole iteration.
    """
    from repro.buffer.pool import BufferPool
    from repro.engine import cursor as cursor_module
    from repro.engine import server as server_module
    from repro.engine.locks import LockManager
    from repro.exec.executor import Executor
    from repro.optimizer.optimizer import Optimizer
    from repro.sql import binder as binder_module
    from repro.sql.binder import Binder
    from repro.stats.manager import StatisticsManager
    from repro.storage.btree import BTree
    from repro.storage.log import TransactionLog
    from repro.storage.pagedfile import PagedFile

    return (
        ("sql.parse", server_module, "parse_statement", "call"),
        ("sql.parse", cursor_module, "parse_statement", "call"),
        ("sql.parse", binder_module, "parse_statement", "call"),
        ("sql.bind", Binder, "bind", "call"),
        ("optimizer.optimize", Optimizer, "optimize_select", "call"),
        ("optimizer.optimize", Optimizer, "optimize_simple_dml", "call"),
        ("stats.maintain", StatisticsManager, "note_insert", "call"),
        ("stats.maintain", StatisticsManager, "note_update", "call"),
        ("stats.maintain", StatisticsManager, "note_delete", "call"),
        ("exec.run", Executor, "run", "gen"),
        ("buffer.fetch", BufferPool, "fetch", "call"),
        ("storage.btree", BTree, "search", "call"),
        ("storage.btree", BTree, "insert", "call"),
        ("storage.btree", BTree, "delete", "call"),
        ("storage.page_io", PagedFile, "read", "call"),
        ("storage.page_io", PagedFile, "write", "call"),
        ("storage.log_append", TransactionLog, "log_change", "call"),
        ("storage.log_force", TransactionLog, "force", "call"),
        ("storage.rollback", server_module.Connection, "rollback", "call"),
        ("engine.lock", LockManager, "acquire", "call"),
        ("recovery.checkpoint", server_module.Server, "checkpoint", "call"),
        ("recovery.restart", server_module.Server, "restart", "call"),
    )


def span_names():
    """The layer span names, in entry-point order, without repeats."""
    return list(dict.fromkeys(name for name, *_ in entry_points()))


class Tracer:
    """Records spans while :attr:`active`; aggregates them afterwards.

    A span record is ``(span_id, parent_id, stmt_id, name, op, start_ns,
    end_ns)``; ids start at 1 and 0 means "none".  A call that re-enters
    the span it is already inside (a B-tree insert that searches) folds
    into the enclosing span, so ``calls`` counts layer entries.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.uncovered_ns = 0
        self._saved = []

    # -- recording ------------------------------------------------------ #

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name, op=""):
        """Open a span on this thread; returns its frame (or None)."""
        if not self.active:
            return None
        stack = self._stack()
        if stack and stack[-1][3] == name:
            return None
        span_id = next(self._ids)
        if stack:
            parent_id, stmt_id = stack[-1][0], stack[-1][2]
        else:
            parent_id, stmt_id = 0, 0
        if name == STATEMENT:
            stmt_id = span_id
        frame = [span_id, parent_id, stmt_id, name, op, _now_ns()]
        stack.append(frame)
        return frame

    def exit(self, frame):
        if frame is None:
            return
        end = _now_ns()
        stack = self._stack()
        stack.pop()
        if not stack:
            self._local.top_level_ns = (
                getattr(self._local, "top_level_ns", 0) + end - frame[5]
            )
        self.spans.append((*frame, end))

    @contextlib.contextmanager
    def session_cpu(self):
        """Add this thread's CPU time outside any top-level span, while
        the block runs, to :attr:`uncovered_ns`: the time a session spends
        in the scheduler and the benchmark loop rather than in the engine
        (``engine.sched_overhead_s``).  The scheduler runs one session at
        a time, so the update needs no lock."""
        start = _now_ns()
        covered = getattr(self._local, "top_level_ns", 0)
        try:
            yield
        finally:
            self.uncovered_ns += (_now_ns() - start) - (
                getattr(self._local, "top_level_ns", 0) - covered
            )

    # -- installing the wrappers ----------------------------------------- #

    def install(self):
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for name, owner, attribute, kind in entry_points():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            wrap = _wrap_generator if kind == "gen" else _wrap_call
            setattr(owner, attribute, wrap(self, name, attribute, original))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    # -- output --------------------------------------------------------- #

    def write(self, path):
        """Append the spans to ``path`` as tab-separated lines, one per
        span, after a header line (one header per traced epoch)."""
        with open(path, "a", encoding="ascii") as out:
            out.write("span_id\tparent_id\tstmt_id\tname\top\tstart_ns"
                      "\tend_ns\n")
            out.writelines(
                "%d\t%d\t%d\t%s\t%s\t%d\t%d\n" % record
                for record in self.spans
            )


def summarize(spans):
    """Self time per span name from span records.

    A span's self time is its duration minus the time its direct
    children cover.  Children of one span run on the same thread and
    nest inside it, so the time they cover is the sum of their
    durations.
    """
    child_ns = {}
    for span_id, parent_id, _stmt, _name, _op, start, end in spans:
        if parent_id:
            child_ns[parent_id] = child_ns.get(parent_id, 0) + (end - start)
    out = {}
    for span_id, _parent, _stmt, name, _op, start, end in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns.get(span_id, 0)) / 1e9
    return out


def child_calls(spans, parent_name, parent_op, child_name):
    """``(parent calls, child calls)``: how often ``parent_name`` ran as
    ``parent_op`` and how many ``child_name`` spans ran directly under it."""
    parents = {
        span_id for span_id, _p, _s, name, op, _b, _e in spans
        if name == parent_name and op == parent_op
    }
    children = sum(
        1 for _i, parent_id, _s, name, _o, _b, _e in spans
        if name == child_name and parent_id in parents
    )
    return len(parents), children


def _wrap_call(tracer, name, op, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter(name, op)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _wrap_generator(tracer, name, op, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return _traced_iteration(tracer, name, op, fn(*args, **kwargs))

    return traced


def _traced_iteration(tracer, name, op, iterator):
    frame = tracer.enter(name, op)
    try:
        yield from iterator
    finally:
        tracer.exit(frame)
