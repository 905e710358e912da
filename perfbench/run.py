#!/usr/bin/env python3
"""Builds and runs the dSSD simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --steadiness --workload NAME[,NAME|all] [--runs 5] [--seed-base 1000]
    python3 perfbench/run.py --record-fingerprints [--seeds A-B]

A measured run builds `perfbench` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, and prints each
metric as `name value unit`, a `meta` line (host, toolchain, source
revision, seed, simulated span, repetitions) and, last, one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones. Peak RSS is the benchmark process's own, from wait4().

`--steadiness` runs two sets of `--runs` runs of the same code, each set
on seeds `--seed-base` onwards, and prints per end-to-end metric each
set's median and spread (interquartile range over median) and whether
both stay within the metric's bound from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    binary = target_dir() / "release" / "dssd-perfbench"
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout, peak RSS in MB)."""
    proc = subprocess.Popen([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_rev():
    """The checkout's git revision, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "none"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result names
    the code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in (ROOT / "crates", BENCH_DIR / "src"):
        files += sorted(p for p in top.rglob("*") if p.suffix in (".rs", ".toml"))
    files += [BENCH_DIR / "fingerprints.txt", BENCH_DIR / "Cargo.toml"]
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def measure(binary, workload, seed, seconds, trace, spec, echo=True):
    """One benchmark run; returns (result dict, meta dict) or None on failure."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    code, out, rss_mb = run_binary(binary, args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"benchmark exited with code {code}")
        return None
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark printed no result line")
        return None
    if echo:
        for line in lines[:-1]:
            print(line)
    found = dict(raw["metrics"])
    found["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None:
            log(f"benchmark did not report {m['name']}")
            return None
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} differs from BENCHMARK.json's {m['unit']}")
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, raw.get("meta", {})


def quartile_spread(values):
    """(median, IQR / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def steadiness(binary, workloads, runs, seconds, seed_base, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for workload in workloads:
        sets = []
        for label in ("A", "B"):
            values = {name: [] for name in bounds}
            for i in range(runs):
                seed = seed_base + i
                got = measure(binary, workload, seed, seconds, False, spec, echo=False)
                if got is None or not got[0]["correct"]:
                    log(f"{workload} set {label} seed {seed}: run failed")
                    return False
                for name, m in got[0]["metrics"].items():
                    values[name].append(m["value"])
                log(f"{workload} set {label} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.6g}" for n, m in got[0]["metrics"].items()))
            sets.append(values)
        print(f"\nsteadiness of {workload}: 2 sets x {runs} runs x {seconds} s")
        print(f"{'metric':<20} {'median A':>14} {'spread A':>9} {'median B':>14} "
              f"{'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
        for name, m in bounds.items():
            (ma, sa), (mb, sb) = (quartile_spread(s[name]) for s in sets)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = name == "setup_s" or max(sa, sb) <= m["bound"]
            ok = spread_ok and worse <= m["bound"]
            all_ok &= ok
            steady = max(sa, sb) < m["bound"] / 3
            verdict = ("agree" if ok else "DISAGREE") + ("" if steady else " (spread > bound/3)")
            print(f"{name:<20} {ma:>14.6g} {sa:>9.4f} {mb:>14.6g} {sb:>9.4f} "
                  f"{worse:>+8.4f} {m['bound']:>6}  {verdict}")
    return all_ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--record-fingerprints", action="store_true")
    p.add_argument("--seeds")
    a = p.parse_args()

    spec = load_spec()
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    binary = build()
    if binary is None:
        return 1

    if a.self_test:
        return subprocess.run([str(binary), "--self-test"], cwd=ROOT).returncode
    if a.record_fingerprints:
        extra = ["--seeds", a.seeds] if a.seeds else []
        return subprocess.run([str(binary), "--record-fingerprints", *extra], cwd=ROOT).returncode
    if not a.workload:
        log("--workload is required")
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if a.steadiness:
        chosen = names if a.workload == "all" else a.workload.split(",")
        return 0 if steadiness(binary, chosen, a.runs, seconds, a.seed_base, spec) else 1
    if a.workload not in names:
        log(f"unknown workload {a.workload} (one of {', '.join(names)})")
        return 2

    got = measure(binary, a.workload, a.seed, seconds, a.trace == "1", spec)
    if got is None:
        return 1
    result, meta = got
    cpus = os.cpu_count()
    meta.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "rustc": rustc_version(),
        "build_profile": "release",
        "run_seconds": seconds,
    })
    for name, m in result["metrics"].items():
        if name == "peak_rss_mb":
            print(f"{name:<36} {m['value']:>22} {m['unit']:<6} peak RSS of the benchmark process")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
