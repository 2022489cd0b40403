"""Unit tests for the benchmark's statistics, tracing and naming helpers."""

import json
import math
import os
import re

import pytest

import harness
import tracing
from harness import NAME_RE, percentile, tail_percentile
from tracing import Tracer, child_calls, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- tail percentile selection ------------------------------------------ #

def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(1, 3001):
        p = tail_percentile(n)
        if p is None:
            assert n - math.ceil(90 * n / 100) < 10
            continue
        samples = list(range(n))
        value = percentile(samples, p)
        assert sum(1 for s in samples if s > value) >= 10, n
        if p == 90:
            # p99 would leave fewer than ten beyond it.
            assert n - math.ceil(99 * n / 100) < 10, n


def test_tail_percentile_boundaries():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90
    assert tail_percentile(999) == 90
    assert tail_percentile(1000) == 99


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 99) == 10
    assert percentile(values, 1) == 1


# -- span self time ------------------------------------------------------ #

def span(span_id, parent, name, start, end, op=""):
    return (span_id, parent, 1, name, op, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(3, 2, "buffer.fetch", 15, 25),
        span(2, 1, "storage.btree", 10, 40, "search"),
        span(4, 1, "buffer.fetch", 50, 60),
        span(1, 0, "stmt", 0, 100),
    ]
    out = summarize(spans)
    assert out["stmt"] == {"calls": 1, "self_s": 60 / 1e9}
    assert out["storage.btree"] == {"calls": 1, "self_s": 20 / 1e9}
    assert out["buffer.fetch"]["calls"] == 2
    assert out["buffer.fetch"]["self_s"] == pytest.approx(20 / 1e9)


def test_self_times_sum_to_top_level_duration():
    spans = [
        span(1, 0, "stmt", 0, 1000),
        span(2, 1, "sql.parse", 0, 100),
        span(3, 1, "exec.run", 100, 900),
        span(4, 3, "buffer.fetch", 200, 300),
        span(5, 3, "buffer.fetch", 400, 450),
        span(6, 4, "storage.page_io", 210, 290),
    ]
    out = summarize(spans)
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(1000 / 1e9)
    assert out["exec.run"]["self_s"] == pytest.approx(650 / 1e9)
    assert out["buffer.fetch"]["self_s"] == pytest.approx(70 / 1e9)


def test_restart_spans_stay_out_of_layer_totals():
    timed = [
        span(2, 1, "buffer.fetch", 10, 20),
        span(1, 0, "stmt", 0, 100),
    ]
    restart = [
        span(4, 3, "buffer.fetch", 1010, 1900),
        span(5, 3, "storage.btree", 1900, 1950, "insert"),
        span(3, 0, "recovery.restart", 1000, 2000),
    ]
    out = harness.trace_summary(timed, restart, uncovered_ns=0)
    assert out["buffer.fetch"] == {"calls": 1, "self_s": 10 / 1e9}
    assert "storage.btree" not in out
    assert out["recovery.restart"]["calls"] == 1
    assert out["recovery.restart"]["self_s"] == pytest.approx(60 / 1e9)


def test_child_calls_counts_children_of_one_operation():
    spans = [
        span(1, 0, "storage.btree", 0, 10, "search"),
        span(2, 1, "buffer.fetch", 1, 2),
        span(3, 1, "buffer.fetch", 3, 4),
        span(4, 0, "storage.btree", 20, 30, "insert"),
        span(5, 4, "buffer.fetch", 21, 22),
    ]
    assert child_calls(spans, "storage.btree", "search", "buffer.fetch") == (
        1, 2)


def test_tracer_nests_and_folds_reentrant_calls():
    tracer = Tracer()
    tracer.active = True
    stmt = tracer.enter("stmt", "read")
    outer = tracer.enter("storage.btree", "insert")
    assert tracer.enter("storage.btree", "search") is None
    fetch = tracer.enter("buffer.fetch")
    tracer.exit(fetch)
    tracer.exit(None)
    tracer.exit(outer)
    tracer.exit(stmt)
    by_name = {record[3]: record for record in tracer.spans}
    assert set(by_name) == {"stmt", "storage.btree", "buffer.fetch"}
    stmt_id = by_name["stmt"][0]
    assert by_name["storage.btree"][1] == stmt_id
    assert by_name["buffer.fetch"][1] == by_name["storage.btree"][0]
    assert all(record[2] == stmt_id for record in tracer.spans)


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.enter("stmt") is None
    assert tracer.spans == []


def test_install_wraps_and_uninstall_restores():
    from repro.buffer.pool import BufferPool

    original = BufferPool.__dict__["fetch"]
    tracer = Tracer()
    with tracer.installed():
        assert BufferPool.__dict__["fetch"] is not original
    assert BufferPool.__dict__["fetch"] is original


# -- metric names -------------------------------------------------------- #

def all_metrics():
    return list(harness.END_TO_END) + harness.per_layer_names(
        tracing.span_names())


def test_metric_names_use_the_allowed_charset():
    names = [name for name, _unit in all_metrics()]
    assert len(names) == len(set(names))
    for name, unit in all_metrics():
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit


@pytest.mark.parametrize("bad", ["", ".lead", "has space", "x" * 65,
                                 "semi;colon", "slash/name"])
def test_name_pattern_rejects_bad_names(bad):
    assert not NAME_RE.match(bad)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        harness.per_layer_names(tracing.span_names()))
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- speed scaling ------------------------------------------------------- #

def test_scale_is_reference_over_median_probe_time():
    import speed

    times = [speed.REFERENCE_PROBE_S * f for f in (0.5, 2.0, 4.0)]
    assert speed.scale(times) == pytest.approx(0.5)


def test_scaled_time_uses_the_probes_around_each_stretch():
    import speed

    ref = speed.REFERENCE_PROBE_S
    sampler = speed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.times = [ref, ref, 2 * ref, 2 * ref]
    # Stretches after probes 0, 1 and 2 are scaled by the medians of
    # probes 0-2, 0-3 and 1-3; probe time itself is left out.
    expected = 0.5 * 1.0 + (1.0 - ref) / 1.5 + (0.5 - 2 * ref) / 2.0
    assert sampler.scaled(0.5, 2.5) == pytest.approx(expected)
    assert sampler.scaled(3.5, 4.0) == pytest.approx(0.25)
    assert sampler.scaled(-1.0, 0.0) == pytest.approx(1.0)


def test_timed_probes_at_page_fetches_and_leaves_probes_out(monkeypatch):
    import time

    import speed
    from repro import Server, ServerConfig
    from repro.buffer.pool import BufferPool

    server = Server(ServerConfig(start_buffer_governor=False))
    conn = server.connect()
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    conn.execute("INSERT INTO t VALUES (1), (2)")
    probes = []

    def slow_probe():
        time.sleep(0.005)
        probes.append(0.005)
        return 0.005

    monkeypatch.setattr(speed, "time_probe", slow_probe)
    monkeypatch.setattr(speed, "PROBE_INTERVAL_S", 0.0)
    original = BufferPool.__dict__["fetch"]
    start = time.perf_counter()
    result, seconds = harness.timed(
        lambda: conn.execute("SELECT id FROM t").rows)
    wall = time.perf_counter() - start
    assert [tuple(row) for row in result] == [(1,), (2,)]
    assert BufferPool.__dict__["fetch"] is original
    fetches = len(probes) - 2 * speed.PROBES_AROUND
    assert fetches >= 1
    factor = speed.REFERENCE_PROBE_S / 0.005
    assert 0 < seconds <= (wall - 0.005 * len(probes)) * factor
