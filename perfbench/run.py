"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload oltp_mixed --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones from traced epochs.
Lines before it give the same figures for people, with the tail
percentile each latency uses and its sample count.  The exit code is 0
only when every correctness check passed.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("oltp_mixed", "analytic_star", "adhoc_generated")

#: Where a traced run writes its spans, relative to the repository root.
SPANS_DIR = ".perfbench"

#: Environment switches the engine reads; the benchmark fixes them off.
ENGINE_ENV = ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_BATCH")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no engine source at %s" % SRC, file=sys.stderr)
        return 2
    for name in ENGINE_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)

    import importlib

    import harness
    import tracing

    workload = importlib.import_module(args.workload)
    plan = workload.build(args.seed)
    spans_out = None
    if args.trace:
        spans_dir = os.path.join(os.path.dirname(HERE), SPANS_DIR)
        spans_out = os.path.join(
            spans_dir, "%s-seed%d.tsv" % (args.workload, args.seed))
        os.makedirs(spans_dir, exist_ok=True)
        open(spans_out, "w").close()
    try:
        epochs = harness.run_epochs(
            lambda tracer: _epoch(workload, plan, tracer, spans_out),
            args.seconds, args.trace,
        )
    except Exception:
        # A statement error the engine did not absorb: the run failed.
        traceback.print_exc()
        print("CHECK FAILED: the run raised; see the traceback on stderr")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    failures = harness.check_epochs(epochs)
    values, notes, attempted, failed = harness.end_to_end(epochs)
    if args.trace:
        units = dict(harness.per_layer_names(tracing.span_names()))
        values = harness.per_layer(epochs, tracing.span_names())
    else:
        units = dict(harness.END_TO_END)
    for failure in failures[:20]:
        print("CHECK FAILED: %s" % failure)
    print("workload %s seed %d: %s" % (
        args.workload, args.seed,
        ", ".join("%s=%s" % item for item in notes.items()),
    ))
    metrics = {}
    if not failures:
        for name, unit in units.items():
            print("%-40s %14.6g %s" % (name, values[name], unit))
            metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _epoch(workload, plan, tracer, spans_out):
    if tracer is None:
        return workload.run_epoch(plan)
    with tracer.installed():
        epoch = workload.run_epoch(plan, tracer)
    tracer.write(spans_out)
    return epoch


if __name__ == "__main__":
    sys.exit(main())
