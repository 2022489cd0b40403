#!/usr/bin/env python
"""Benchmark regression gate for CI.

Compares a freshly generated pytest-benchmark JSON against the newest
*committed* ``BENCH_PR<n>.json`` baseline (highest ``n``) and fails
(exit 1) when any gated experiment regressed by more than the threshold,
when a gated experiment has no baseline entry to compare against, or
when there is no baseline at all.  Write the fresh JSON outside the
repository root, so it can never overwrite or stand in for a committed
baseline.

For each gated experiment the preferred measure is the **simulated**
statement time — ``extra_info.metrics["statements.elapsed_us"]["sum"]``,
deterministic across machines because it comes off the SimClock — with
the wall-clock median as a fallback for rig-style experiments that never
build a server.  Wall medians vary across runners and between single
rounds on the *same* runner (cold-start effects swing them ±40%), so
wall comparisons use their own, much wider band (``--wall-threshold``,
default 50%) while simulated comparisons keep the tight default.

With ``--expect-improvement`` the gate flips direction: instead of
guarding against regressions it *requires* the fresh run to beat the
baseline by at least the given factor — used once per optimization PR to
prove the claimed speedup against the previous PR's committed baseline.
Per experiment, pairs where both sides carry the simulated measure are
preferred (and wall-only siblings of a simulated pair are skipped as
cross-machine noise); wall medians are compared only when the experiment
has no simulated measure at all, and those pairs get the required factor
scaled down by half the wall band (a 3x claim checks as 2.25x at the
default ``--wall-threshold`` 0.50) — the same noise allowance the
regression direction already grants wall comparisons.

Usage::

    python scripts/bench_gate.py /tmp/fresh.json           # auto-baseline
    python scripts/bench_gate.py fresh.json --baseline BENCH_PR4.json
    python scripts/bench_gate.py fresh.json --threshold 0.20 --gate e5,e9
    python scripts/bench_gate.py fresh.json --baseline BENCH_PR7.json \\
        --expect-improvement e5:3,e9:3,e14:3
"""

import argparse
import glob
import json
import os
import re
import sys

#: Experiments whose regression fails the bench job.
DEFAULT_GATED = ("e5", "e9", "e14", "e18", "e19", "e20", "e21")
DEFAULT_THRESHOLD = 0.15
#: Single-round wall medians are noisy even on one machine; only a
#: drastic regression is signal.
DEFAULT_WALL_THRESHOLD = 0.50

SIMULATED_KEY = "statements.elapsed_us"


def load_benchmarks(path):
    """Map ``test name -> (experiment token, benchmark entry)`` from a
    pytest-benchmark JSON file; the token is the ``eN``/``figN`` piece
    of the test name (``test_e9a_speedup`` -> ``e9a``)."""
    with open(path) as handle:
        data = json.load(handle)
    entries = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("name", "")
        for token in name.replace("test_", "").split("_"):
            if token and token[0] in "ef" and any(
                ch.isdigit() for ch in token
            ):
                entries[name] = (token, bench)
                break
    return entries


def token_matches(token, key):
    """``e9`` gates ``e9``, ``e9a``..``e9c`` but not ``e90``."""
    if token == key:
        return True
    return token.startswith(key) and token[len(key):][0].isalpha()


def measure(bench):
    """(value, kind): simulated µs when available, else wall median s."""
    metrics = bench.get("extra_info", {}).get("metrics", {})
    simulated = metrics.get(SIMULATED_KEY)
    if isinstance(simulated, dict) and simulated.get("sum", 0) > 0:
        return float(simulated["sum"]), "simulated-us"
    return float(bench["stats"]["median"]), "wall-median-s"


BASELINE_NAME = re.compile(r"BENCH_PR(\d+)\.json$")


def find_baseline(fresh_path, repo=None):
    """The committed ``BENCH_PR<n>.json`` with the highest ``n``, compared
    as a number rather than as text, that is not the fresh file."""
    if repo is None:
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates = []
    for path in glob.glob(os.path.join(repo, "BENCH_PR*.json")):
        match = BASELINE_NAME.search(os.path.basename(path))
        if match and os.path.abspath(path) != os.path.abspath(fresh_path):
            candidates.append((int(match.group(1)), path))
    return max(candidates)[1] if candidates else None


def compare(baseline, fresh, gated, threshold, wall_threshold=None):
    """Returns (rows, failures) comparing the gated experiments."""
    if wall_threshold is None:
        wall_threshold = threshold
    rows = []
    failures = []
    for key in gated:
        names = sorted(
            name for name, (token, __) in fresh.items()
            if token_matches(token, key)
        )
        if not names:
            rows.append((key, "-", "-", "-", "missing from fresh run"))
            failures.append("%s: missing from the fresh run" % key)
            continue
        for name in names:
            label = name.replace("test_", "")
            __, fresh_bench = fresh[name]
            base_entry = baseline.get(name)
            if base_entry is None:
                rows.append((label, "-", "-", "-", "missing from baseline"))
                failures.append(
                    "%s: no baseline entry to compare against" % label
                )
                continue
            __, base_bench = base_entry
            base_value, base_kind = measure(base_bench)
            fresh_value, fresh_kind = measure(fresh_bench)
            if base_kind != fresh_kind:
                # One side gained/lost the simulated metric: compare walls.
                base_value = float(base_bench["stats"]["median"])
                fresh_value = float(fresh_bench["stats"]["median"])
                base_kind = "wall-median-s"
            delta = (
                (fresh_value - base_value) / base_value if base_value else 0.0
            )
            limit = (
                wall_threshold if base_kind == "wall-median-s" else threshold
            )
            verdict = "ok"
            if delta > limit:
                verdict = "REGRESSED"
                failures.append(
                    "%s: %s %.4g -> %.4g (%+.1f%% > %.0f%% threshold)"
                    % (
                        label, base_kind, base_value, fresh_value,
                        100 * delta, 100 * limit,
                    )
                )
            rows.append(
                (label, base_kind, "%.4g" % base_value, "%.4g" % fresh_value,
                 "%+.1f%% %s" % (100 * delta, verdict))
            )
    return rows, failures


def parse_expectations(spec):
    """``"e5:3,e9:3.5"`` -> [("e5", 3.0), ("e9", 3.5)]."""
    expectations = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, factor = item.partition(":")
        if not sep or not key.strip():
            raise ValueError("bad expectation %r (want EXPT:FACTOR)" % item)
        expectations.append((key.strip(), float(factor)))
    return expectations


def check_improvements(baseline, fresh, expectations,
                       wall_threshold=DEFAULT_WALL_THRESHOLD):
    """Returns (rows, failures) requiring base/fresh >= factor.

    Per experiment: pairs where baseline *and* fresh carry the simulated
    measure are compared on it; when any simulated pair exists, wall-only
    siblings are skipped (their medians are cross-machine noise next to a
    deterministic SimClock sum).  Only an experiment with no simulated
    pair anywhere falls back to wall medians, and then the required
    factor is relaxed by half the wall band — single-round wall medians
    swing run to run even on one machine.
    """
    rows = []
    failures = []
    for key, factor in expectations:
        names = sorted(
            name for name, (token, __) in fresh.items()
            if token_matches(token, key) and name in baseline
        )
        if not names:
            rows.append((key, "-", "-", "-", "missing from fresh run"))
            failures.append("%s: no paired benchmarks to check" % key)
            continue
        pairs = []
        for name in names:
            base_value, base_kind = measure(baseline[name][1])
            fresh_value, fresh_kind = measure(fresh[name][1])
            if base_kind == fresh_kind == "simulated-us":
                pairs.append((name, base_value, fresh_value, base_kind))
        simulated_only = bool(pairs)
        if not pairs:
            for name in names:
                base_value = float(baseline[name][1]["stats"]["median"])
                fresh_value = float(fresh[name][1]["stats"]["median"])
                pairs.append((name, base_value, fresh_value, "wall-median-s"))
        for name, base_value, fresh_value, kind in pairs:
            label = name.replace("test_", "")
            required = factor
            if kind == "wall-median-s":
                required = factor * (1 - wall_threshold / 2)
            ratio = base_value / fresh_value if fresh_value else float("inf")
            verdict = "ok" if ratio >= required else "TOO SLOW"
            if ratio < required:
                failures.append(
                    "%s: %s %.4g -> %.4g (%.2fx < required %.2gx)"
                    % (label, kind, base_value, fresh_value, ratio, required)
                )
            rows.append(
                (label, kind, "%.4g" % base_value, "%.4g" % fresh_value,
                 "%.2fx (need %.2gx) %s" % (ratio, required, verdict))
            )
        if simulated_only and len(pairs) < len(names):
            skipped = len(names) - len(pairs)
            rows.append(
                (key, "wall-median-s", "-", "-",
                 "%d wall-only sibling(s) skipped" % skipped)
            )
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly generated benchmark JSON")
    parser.add_argument(
        "--baseline",
        help="committed baseline JSON (default: the BENCH_PR<n>.json "
        "in the repo root with the highest n, other than the fresh file)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression that fails the gate (default 0.15)",
    )
    parser.add_argument(
        "--wall-threshold", type=float, default=DEFAULT_WALL_THRESHOLD,
        help="regression band for wall-median comparisons (default 0.50)",
    )
    parser.add_argument(
        "--gate", default=",".join(DEFAULT_GATED),
        help="comma-separated experiment keys to gate (default %s)"
        % ",".join(DEFAULT_GATED),
    )
    parser.add_argument(
        "--expect-improvement", metavar="EXPT:FACTOR[,...]",
        help="require fresh to beat the baseline by FACTOR on each "
        "experiment (e.g. e5:3,e9:3,e14:3); replaces the regression gate",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or find_baseline(args.fresh)
    if baseline_path is None or not os.path.exists(baseline_path):
        print(
            "bench gate: FAIL no baseline to compare against (%s)"
            % (baseline_path or "no committed BENCH_PR<n>.json")
        )
        return 1
    baseline = load_benchmarks(baseline_path)
    fresh = load_benchmarks(args.fresh)
    if args.expect_improvement:
        expectations = parse_expectations(args.expect_improvement)
        rows, failures = check_improvements(
            baseline, fresh, expectations, args.wall_threshold
        )
        print(
            "bench gate: %s (fresh) must improve on %s (baseline): %s"
            % (args.fresh, baseline_path, args.expect_improvement)
        )
    else:
        gated = [key.strip() for key in args.gate.split(",") if key.strip()]
        rows, failures = compare(
            baseline, fresh, gated, args.threshold, args.wall_threshold
        )
        print(
            "bench gate: %s (fresh) vs %s (baseline), threshold %.0f%%"
            % (args.fresh, baseline_path, 100 * args.threshold)
        )
    header = ("exp", "measure", "baseline", "fresh", "delta")
    widths = [
        max(len(str(header[i])), max(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ] if rows else [len(h) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    if failures:
        print()
        for failure in failures:
            print("FAIL %s" % failure)
        return 1
    if args.expect_improvement:
        print("bench gate: all expected improvements met")
    else:
        print("bench gate: all gated experiments within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
