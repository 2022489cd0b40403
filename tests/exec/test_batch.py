"""Batch-execution edge cases.

Batches change how rows travel between operators, never row values, row
order or error outcomes.  These tests pin the awkward corners — empty
batches, spills straddling a batch boundary, statement aborts mid-batch,
snapshot resolution, and inputs of 0, 1, 255, 256 and 257 rows around the
256-row batch size — against answers computed in Python from the loaded
rows.
"""

import copy

import pytest

from repro import Server, ServerConfig
from repro.common.errors import ExecutionError, SpillWriteError
from repro.exec import ExecutionContext, Executor
from repro.exec.batch import (
    Batch,
    BatchBuilder,
    batches_to_rows,
    rows_to_batches,
)
from repro.faults import FaultPlan, FaultRates
from repro.optimizer import plans as p
from repro.sql.binder import Quantifier


def make_server(**kwargs):
    kwargs.setdefault("start_buffer_governor", False)
    kwargs.setdefault("initial_pool_pages", 512)
    return Server(ServerConfig(**kwargs))


def loaded(statements, **kwargs):
    server = make_server(**kwargs)
    conn = server.connect()
    for sql, rows in statements:
        if rows is None:
            conn.execute(sql)
        else:
            server.load_table(sql, rows)
    return server, conn


def run(statements, query, **kwargs):
    """Run the setup + query on a fresh server; returns the rows."""
    __, conn = loaded(statements, **kwargs)
    return conn.execute(query).rows


class TestBatchUnit:
    def test_empty_tuple_rows_round_trip(self):
        batch = Batch.from_tuples([(), (), ()], width=0)
        assert batch.count == 3
        assert list(batch.rows()) == [(), (), ()]

    def test_take_empty_mask_keeps_layout(self):
        batch = Batch.from_envs([{0: (1, 2)}, {0: (3, 4)}])
        empty = batch.take([False, False])
        assert empty.count == 0
        assert empty.layout == batch.layout
        assert list(empty.rows()) == []

    def test_slice_past_the_end_clamps(self):
        batch = Batch.from_tuples([(1,), (2,)], width=1)
        assert list(batch.slice(0, 10).rows()) == [(1,), (2,)]
        assert batch.slice(2, 10).count == 0

    def test_column_missing_key_is_none(self):
        batch = Batch.from_envs([{0: (1,)}])
        assert batch.column(7, 0) is None

    def test_column_index_past_width_raises_like_the_row_path(self):
        batch = Batch.from_envs([{0: (1,), 1: (2, 3)}])
        with pytest.raises(IndexError):
            batch.column(0, 1)

    def test_builder_flushes_on_shape_change(self):
        builder = BatchBuilder(batch_rows=10)
        first = builder.add({0: (1,)})
        assert first is None
        flushed = builder.add({0: (1,), 1: (2,)})  # new layout signature
        assert flushed is not None and flushed.count == 1
        tail = builder.finish()
        assert tail is not None and tail.count == 1

    def test_builder_single_row_batches_drop_nothing(self):
        rows = [{0: (i,)} for i in range(5)]
        out = list(batches_to_rows(rows_to_batches(iter(rows), 1)))
        assert out == rows

    def test_builder_finish_empty_is_none(self):
        assert BatchBuilder().finish() is None

    def test_mixed_shapes_round_trip_in_order(self):
        rows = [{0: (1,)}, {0: (2,)}, (3, 4), (5, 6), {1: (7, 8)}]
        out = list(batches_to_rows(rows_to_batches(iter(rows), 3)))
        assert out == rows


T_ROWS = [(i, i % 7, i * 3) for i in range(400)]


class TestEmptyBatches:
    SETUP = [
        ("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)", None),
        ("t", T_ROWS),
    ]
    #: Python answer for each query over T_ROWS.
    REFERENCE = {
        "SELECT id FROM t WHERE v < 0": [
            (i,) for i, __, v in T_ROWS if v < 0
        ],
        "SELECT g, COUNT(*) FROM t WHERE v < 0 GROUP BY g": [],
        "SELECT SUM(v) FROM t WHERE v < 0": [(None,)],
        "SELECT a.id FROM t a JOIN t b ON a.id = b.v WHERE b.v < 0": [
            (a[0],) for a in T_ROWS for b in T_ROWS if a[0] == b[2] and b[2] < 0
        ],
        "SELECT DISTINCT g FROM t WHERE id > 10000": sorted(
            {(g,) for i, g, __ in T_ROWS if i > 10000}
        ),
        "SELECT id FROM t WHERE v < 0 ORDER BY id LIMIT 5": [
            (i,) for i, __, v in T_ROWS if v < 0
        ][:5],
    }

    @pytest.mark.parametrize("query", list(REFERENCE))
    def test_zero_row_results_agree(self, query):
        assert run(self.SETUP, query) == self.REFERENCE[query]

    def test_aggregate_over_empty_input_yields_its_null_row(self):
        rows = run(self.SETUP, "SELECT COUNT(*), SUM(v) FROM t WHERE v < 0")
        assert rows == [(0, None)]


class TestSpillStraddle:
    """Work memory runs out mid-batch: the spill must land between two
    rows of one batch without losing or duplicating either side."""

    R = [(i, i % 100) for i in range(900)]
    S = [(i, i % 100, i % 50) for i in range(700)]
    SETUP = [
        ("CREATE TABLE r (id INT PRIMARY KEY, b INT)", None),
        ("r", R),
        ("CREATE TABLE s (id INT PRIMARY KEY, b INT, c INT)", None),
        ("s", S),
    ]
    #: ~2-page soft limit (128 pages / 64 slots): hash builds larger
    #: than one batch must spill partway through a batch.
    TIGHT = dict(initial_pool_pages=128, multiprogramming_level=64)

    def test_join_spilling_mid_batch_matches_reference(self):
        query = (
            "SELECT r.id, s.id FROM r JOIN s ON r.b = s.b "
            "ORDER BY r.id, s.id"
        )
        rows = run(self.SETUP, query, **self.TIGHT)
        assert rows == sorted(
            (r[0], s[0]) for r in self.R for s in self.S if r[1] == s[1]
        )
        assert len(rows) == 700 * 9  # every s row meets 9 r rows

    def test_group_by_fallback_mid_batch_matches_reference(self):
        query = (
            "SELECT b, COUNT(*), SUM(id) FROM r GROUP BY b ORDER BY b"
        )
        rows = run(self.SETUP, query, **self.TIGHT)
        groups = {}
        for rid, b in self.R:
            count, total = groups.get(b, (0, 0))
            groups[b] = (count + 1, total + rid)
        assert rows == [(b,) + groups[b] for b in sorted(groups)]

    def test_sort_spilling_mid_batch_matches_reference(self):
        query = "SELECT id, b FROM r ORDER BY b, id"
        rows = run(self.SETUP, query, **self.TIGHT)
        assert rows == sorted(self.R, key=lambda row: (row[1], row[0]))

    def test_join_actually_spilled(self):
        server, conn = loaded(self.SETUP, **self.TIGHT)
        conn.execute(
            "SELECT r.id, s.id FROM r JOIN s ON r.b = s.b "
            "ORDER BY r.id, s.id"
        )
        assert server.metrics.snapshot()["exec.spill_events"] >= 1


def quiet_rates(**overrides):
    rates = FaultRates(
        disk_read_error=0.0,
        disk_write_error=0.0,
        disk_latency=0.0,
        working_set_outage=0.0,
        spill_write_error=0.0,
    )
    for name, value in overrides.items():
        setattr(rates, name, value)
    return rates


class TestMidBatchAbort:
    """A statement dying partway through a batch must release its quota
    and leave the server healthy."""

    def loaded(self, plan=None, **kwargs):
        server = make_server(fault_plan=plan, **kwargs)
        conn = server.connect()
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.load_table("t", [(i, (i * 37) % 1000) for i in range(3000)])
        return server, conn

    def test_expression_error_mid_batch_aborts_cleanly(self):
        server, conn = self.loaded()
        # Row id=500 divides by zero partway through a 256-row batch.
        with pytest.raises(ExecutionError):
            conn.execute("SELECT v / (id - 500) FROM t")
        assert server.memory_governor.total_used_pages() == 0
        assert conn.execute("SELECT COUNT(*) FROM t").rows == [(3000,)]

    def test_spill_fault_mid_batch_aborts_cleanly(self):
        plan = FaultPlan(21, quiet_rates(spill_write_error=1.0))
        server, conn = self.loaded(
            plan=plan, initial_pool_pages=128, multiprogramming_level=16
        )
        with pytest.raises(SpillWriteError):
            conn.execute("SELECT id, v FROM t ORDER BY v, id")
        assert plan.statement_aborts == 1
        assert server.memory_governor.total_used_pages() == 0
        # Healed, the same statement completes.
        plan.rates.spill_write_error = 0.0
        result = conn.execute("SELECT id, v FROM t ORDER BY v, id")
        assert len(result.rows) == 3000


class TestSnapshotThroughShim:
    """Snapshot-LSN row resolution stays correct under batches: the scan
    operators resolve versions per row, and the index scan's heap
    fallback still engages."""

    def seeded(self):
        server = make_server()
        writer = server.connect()
        writer.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        server.load_table("t", [(i, 0) for i in range(10)])
        return server, writer, server.connect()

    def test_uncommitted_write_invisible_to_other_sessions(self):
        server, writer, reader = self.seeded()
        writer.begin()
        writer.execute("UPDATE t SET v = 99 WHERE id = 0")
        assert reader.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(0,)]
        assert writer.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(99,)]
        writer.commit()
        assert reader.execute(
            "SELECT v FROM t WHERE id = 0"
        ).rows == [(99,)]

    def test_index_fallback_resolves_through_the_shim(self):
        server, writer, reader = self.seeded()
        before = server.metrics.counter("exec.adaptive_fallbacks").value
        writer.begin()
        writer.execute("DELETE FROM t WHERE id = 5")
        # The pk entry is gone; only the IndexScan's versioned-heap
        # fallback can resolve the before-image.
        assert reader.execute(
            "SELECT v FROM t WHERE id = 5"
        ).rows == [(0,)]
        after = server.metrics.counter("exec.adaptive_fallbacks").value
        assert after == before + 1
        writer.rollback()


class TestExplainAnalyzeBatches:
    SETUP = [
        ("CREATE TABLE t (id INT PRIMARY KEY, g INT)", None),
        ("t", [(i, i % 5) for i in range(600)]),
    ]
    QUERY = "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g"

    def test_statement_reports_batches_per_operator(self):
        __, conn = loaded(self.SETUP)
        text = conn.execute(self.QUERY).explain(analyze=True)
        assert "batches=" in text
        assert "rows_per_batch=" in text

    def test_cursor_reports_one_row_batches(self):
        __, conn = loaded(self.SETUP)
        cursor = conn.open_cursor(self.QUERY)
        assert cursor.fetchall() == [(g, 120) for g in range(5)]
        text = cursor.explain(analyze=True)
        cursor.close()
        # Every operator that produced rows did so one row per batch.
        assert text.count("rows_per_batch=1.0") == 4
        assert "rows_per_batch=" in text


# --------------------------------------------------------------------- #
# batch boundaries: 0, 1, 255, 256 and 257 outer rows
# --------------------------------------------------------------------- #

BOUNDARY_SIZES = [0, 1, 255, 256, 257]
S_ROWS = [(x, x % 11) for x in range(40)]
I_ROWS = [(x, x % 2000, x % 5) for x in range(3000)]


def boundary_db(n):
    """``o`` holds the n outer rows; ``s`` is a small NL-join inner, ``i``
    an indexed index-NL inner; ``fb`` holds the same n rows plus a
    sentinel inside its scanned pk range and filler outside it."""
    outer = [(x, x % 13) for x in range(n)]
    fallback = (
        [(x, 0) for x in range(n)] + [(-1, 1)]
        + [(10000 + x, 0) for x in range(3000)]
    )
    server, conn = loaded([
        ("CREATE TABLE o (id INT PRIMARY KEY, k INT)", None),
        ("CREATE TABLE s (id INT PRIMARY KEY, k INT)", None),
        ("CREATE TABLE i (id INT PRIMARY KEY, k INT, w INT)", None),
        ("CREATE TABLE fb (id INT PRIMARY KEY, f INT)", None),
        ("o", outer),
        ("s", S_ROWS),
        ("i", I_ROWS),
        ("fb", fallback),
        ("CREATE INDEX i_k ON i (k)", None),
    ])
    return server, conn, outer


def plan_nodes(result):
    return list(result.plan_result.plan.walk())


def run_checked(conn, sql, expect_node):
    """Rows of ``sql`` (statement and cursor agree), after checking the
    plan contains ``expect_node``."""
    result = conn.execute(sql)
    assert expect_node in result.explain(), result.explain()
    cursor = conn.open_cursor(sql)
    assert cursor.fetchall() == result.rows
    cursor.close()
    return sorted(result.rows)


def run_node(server, node):
    """Execute one plan node directly; returns its environment rows."""
    task = server.memory_governor.begin_task()
    ctx = ExecutionContext(
        server.pool, server.temp_file, server.stats, server.clock, task
    )
    try:
        operator = Executor().build(node)
        return list(batches_to_rows(operator.execute_batches(ctx)))
    finally:
        server.memory_governor.end_task(task)


class TestBatchBoundaries:
    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_nl_join_left(self, n):
        __, conn, outer = boundary_db(n)
        rows = run_checked(
            conn, "SELECT o.id, s.id FROM o LEFT JOIN s ON o.k < s.k",
            "NestedLoopJoin(left)",
        )
        expected = []
        for oid, ok in outer:
            matches = [(oid, sid) for sid, sk in S_ROWS if ok < sk]
            expected.extend(matches or [(oid, None)])
        # An outer row either matches or is NULL-extended, never both,
        # so no sort ever compares None with an id.
        assert rows == sorted(expected)

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    @pytest.mark.parametrize("negated", [False, True], ids=["semi", "anti"])
    def test_nl_join_semi_anti(self, n, negated):
        __, conn, outer = boundary_db(n)
        sql = (
            "SELECT o.id FROM o WHERE %sEXISTS "
            "(SELECT 1 FROM s WHERE s.k > o.k)" % ("NOT " if negated else "")
        )
        rows = run_checked(
            conn, sql,
            "NestedLoopJoin(%s)" % ("anti" if negated else "semi"),
        )
        expected = [
            (oid,) for oid, ok in outer
            if any(sk > ok for __, sk in S_ROWS) != negated
        ]
        assert rows == expected

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    @pytest.mark.parametrize("join_type", [
        Quantifier.LEFT, Quantifier.SEMI, Quantifier.ANTI,
    ])
    def test_index_nl_join(self, n, join_type):
        """SQL reaches IndexNLJoin as a LEFT join; SEMI and ANTI run the
        same plan node with its join type switched."""
        server, conn, outer = boundary_db(n)
        result = conn.execute(
            "SELECT o.id, i.id FROM o LEFT JOIN i ON o.k = i.k AND i.w > 1"
        )
        node = next(
            node for node in plan_nodes(result)
            if isinstance(node, p.IndexNLJoinPlan)
        )
        matches = {
            oid: sorted(iid for iid, ik, iw in I_ROWS if ik == ok and iw > 1)
            for oid, ok in outer
        }
        if join_type == Quantifier.LEFT:
            assert sorted(result.rows, key=repr) == sorted(
                [
                    (oid, iid)
                    for oid in matches for iid in (matches[oid] or [None])
                ],
                key=repr,
            )
        variant = copy.copy(node)
        variant.join_type = join_type
        envs = run_node(server, variant)
        outer_qid = node.left.quantifier.id
        inner_qid = node.quantifier.id
        if join_type == Quantifier.LEFT:
            got = sorted(
                (env[outer_qid][0], env[inner_qid][0]) for env in envs
                if env[inner_qid][0] is not None
            )
            assert got == sorted(
                (oid, iid) for oid in matches for iid in matches[oid]
            )
            assert len(envs) == sum(
                max(1, len(ids)) for ids in matches.values()
            )
        else:
            got = sorted(env[outer_qid][0] for env in envs)
            assert got == sorted(
                oid for oid, ids in matches.items()
                if bool(ids) == (join_type == Quantifier.SEMI)
            )

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_derived_table(self, n):
        __, conn, outer = boundary_db(n)
        rows = run_checked(
            conn,
            "SELECT d.id FROM (SELECT id, k FROM o WHERE k > 2) d "
            "WHERE d.k < 9",
            "DerivedScan",
        )
        assert rows == [(oid,) for oid, ok in outer if 2 < ok < 9]

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_procedure_in_from(self, n):
        server, conn, outer = boundary_db(n)
        conn.execute("CREATE PROCEDURE outer_rows() AS SELECT id, k FROM o")
        rows = run_checked(
            conn, "SELECT p.id FROM outer_rows() AS p WHERE p.k > 3",
            "ProcedureScan",
        )
        assert rows == [(oid,) for oid, ok in outer if ok > 3]
        __, cardinality = server.stats.procedure_stats("outer_rows").estimate()
        assert cardinality == n

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_index_scan_snapshot_fallback(self, n):
        server, writer, __ = boundary_db(n)
        reader = server.connect()
        sql = "SELECT id FROM fb WHERE id < 5000 AND f = 0"
        before = server.metrics.counter("exec.adaptive_fallbacks").value
        writer.begin()
        # The sentinel's pk entry goes; the reader's snapshot still holds
        # the row, so its index scan must fall back to the versioned heap.
        writer.execute("DELETE FROM fb WHERE id = -1")
        result = reader.execute(sql)
        assert "IndexScan(fb via pk_fb)" in result.explain()
        assert sorted(result.rows) == [(x,) for x in range(n)]
        after = server.metrics.counter("exec.adaptive_fallbacks").value
        assert after == before + 1
        writer.rollback()
