"""The benchmark regression gate (``scripts/bench_gate.py``)."""

import importlib.util
import json
import os

import pytest

GATE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts", "bench_gate.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(name, elapsed_us):
    return {
        "name": name,
        "stats": {"median": 1.0},
        "extra_info": {
            "metrics": {"statements.elapsed_us": {"sum": elapsed_us}},
        },
    }


def write(path, *benches):
    path.write_text(json.dumps({"benchmarks": list(benches)}))
    return str(path)


def test_baselines_order_by_pr_number(gate, tmp_path):
    for n in (4, 9, 10, 7):
        write(tmp_path / ("BENCH_PR%d.json" % n))
    write(tmp_path / "BENCH_notes.json")
    fresh = str(tmp_path / "fresh.json")
    found = gate.find_baseline(fresh, repo=str(tmp_path))
    assert os.path.basename(found) == "BENCH_PR10.json"


def test_fresh_file_is_never_its_own_baseline(gate, tmp_path):
    write(tmp_path / "BENCH_PR9.json")
    fresh = write(tmp_path / "BENCH_PR12.json")
    found = gate.find_baseline(fresh, repo=str(tmp_path))
    assert os.path.basename(found) == "BENCH_PR9.json"


def test_gated_experiment_missing_from_baseline_fails(gate, tmp_path):
    baseline = write(tmp_path / "base.json", bench("test_e5_join", 100))
    fresh = write(
        tmp_path / "fresh.json",
        bench("test_e5_join", 100), bench("test_e21_replication", 50),
    )
    assert gate.main([fresh, "--baseline", baseline, "--gate", "e5"]) == 0
    assert gate.main([fresh, "--baseline", baseline, "--gate", "e5,e21"]) == 1


def test_missing_baseline_fails(gate, tmp_path):
    fresh = write(tmp_path / "fresh.json", bench("test_e5_join", 100))
    missing = str(tmp_path / "BENCH_PR99.json")
    assert gate.main([fresh, "--baseline", missing]) == 1


def test_regression_beyond_threshold_fails(gate, tmp_path):
    baseline = write(tmp_path / "base.json", bench("test_e5_join", 100))
    slower = write(tmp_path / "fresh.json", bench("test_e5_join", 120))
    within = write(tmp_path / "ok.json", bench("test_e5_join", 110))
    assert gate.main([slower, "--baseline", baseline, "--gate", "e5"]) == 1
    assert gate.main([within, "--baseline", baseline, "--gate", "e5"]) == 0


def test_no_committed_baseline_fails(gate, tmp_path, monkeypatch):
    fresh = write(tmp_path / "fresh.json", bench("test_e5_join", 100))
    monkeypatch.setattr(gate, "find_baseline", lambda path: None)
    assert gate.main([fresh]) == 1
