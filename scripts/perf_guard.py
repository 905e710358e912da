#!/usr/bin/env python3
"""Perf-regression guard over results/bench.json.

Usage: perf_guard.py BASELINE_JSON CURRENT_JSON PREFIX [PREFIX ...]

Compares the events/sec of every bench row whose name starts with one of
the given prefixes against the committed baseline and fails (exit 1) if
any drops by more than the allowed fraction (default 20%, override with
PERF_GUARD_MAX_DROP). Rows without an events count are skipped — wall
time alone is too noisy across CI machines, but events/sec measures the
simulator's own throughput on identical deterministic work.

Prints a per-bench delta table (baseline vs. current events/sec, delta,
and median wall time) so the CI log shows every point, not just the
failures.
"""

import json
import os
import sys


def rows(path, prefixes):
    with open(path) as f:
        doc = json.load(f)
    return {
        b["name"]: b
        for b in doc["benches"]
        if any(b["name"].startswith(p) for p in prefixes)
        and b.get("events_per_sec", 0) > 0
    }


def fmt_rate(v):
    return f"{v / 1e6:.2f}M/s" if v >= 1e6 else f"{v / 1e3:.0f}k/s"


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    baseline_path, current_path, *prefixes = sys.argv[1:]
    max_drop = float(os.environ.get("PERF_GUARD_MAX_DROP", "0.20"))
    baseline = rows(baseline_path, prefixes)
    current = rows(current_path, prefixes)
    if not baseline:
        sys.exit(f"no baseline rows match {prefixes} in {baseline_path}")

    name_w = max(len(n) for n in baseline) + 2
    header = (
        f"{'bench':<{name_w}} {'baseline':>10} {'current':>10} "
        f"{'delta':>8} {'median ms':>10}  status"
    )
    print(header)
    print("-" * len(header))

    failed = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            print(f"{name:<{name_w}} {'(missing from current run)':>30}")
            failed.append(f"{name}: missing from {current_path}")
            continue
        b, c = base["events_per_sec"], cur["events_per_sec"]
        ratio = c / b
        status = "OK" if ratio >= 1.0 - max_drop else "FAIL"
        print(
            f"{name:<{name_w}} {fmt_rate(b):>10} {fmt_rate(c):>10} "
            f"{ratio - 1.0:>+7.1%} {cur.get('median_ms', 0.0):>10.3f}  {status}"
        )
        if status == "FAIL":
            failed.append(f"{name}: events/sec fell {1.0 - ratio:.0%} (limit {max_drop:.0%})")
    if failed:
        sys.exit("perf regression:\n  " + "\n  ".join(failed))
    print(f"perf guard passed ({len(baseline)} rows, max drop {max_drop:.0%})")


if __name__ == "__main__":
    main()
