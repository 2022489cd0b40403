"""The same seed must give the same inputs and the same simulated results.

Each workload runs here at a reduced size; the properties do not depend
on it.  Two epochs of one seed run in this process, and one more in a
fresh interpreter, whose string hashing is salted differently.
"""

import json
import os
import subprocess
import sys

import pytest

import adhoc_generated
import analytic_star
import harness
import oltp_mixed

SMALL = {
    "oltp_mixed": dict(rows=2000, mix={"select": 35, "call": 35,
                                       "update": 19, "insert": 10,
                                       "rollback": 1}),
    "analytic_star": dict(facts=2000, appends=25, rollbacks=1, reports={
        "range_agg": 30, "range_month": 20, "range_region": 20,
        "full_category": 1, "full_region": 1, "full_sort": 1}),
    "adhoc_generated": dict(queries=100, dml=50, rolled_back=2,
                            tlp_sample=5),
}
MODULES = {"oltp_mixed": oltp_mixed, "analytic_star": analytic_star,
           "adhoc_generated": adhoc_generated}
HERE = os.path.dirname(os.path.abspath(__file__))


def small_run(name, seed):
    module = MODULES[name]
    plan = module.build(seed, **SMALL[name])
    epoch = module.run_epoch(plan)
    assert epoch.failures == []
    return plan, harness.deterministic_values(epoch)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_same_statements(name):
    module = MODULES[name]
    first = module.build(7, **SMALL[name]).statements()
    assert first == module.build(7, **SMALL[name]).statements()
    assert first != module.build(8, **SMALL[name]).statements()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_same_simulated_metrics(name):
    _plan, first = small_run(name, 7)
    _plan, second = small_run(name, 7)
    assert first == second
    for metric in harness.DETERMINISTIC:
        assert first[metric] > 0


@pytest.mark.parametrize("name", sorted(MODULES))
def test_same_seed_same_metrics_across_processes(name):
    script = (
        "import json, sys\n"
        "sys.path[:0] = %r\n"
        "from test_determinism import small_run\n"
        "print(json.dumps(small_run(%r, 7)[1], sort_keys=True))\n"
    ) % (sys.path[:3], name)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    other = json.loads(out.strip().splitlines()[-1])
    _plan, here = small_run(name, 7)
    assert other == json.loads(json.dumps(here, sort_keys=True))
