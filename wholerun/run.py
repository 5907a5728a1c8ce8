#!/usr/bin/env python3
"""WholeRun benchmark: whole simulated worlds timed end to end.

Usage (from the repository root):

    python3 wholerun/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: iot_periodic, geo_offload, attach_churn (see wholerun/src/worlds.cpp
for what each stresses and why it was chosen).

The first call configures and builds wholerun/ (a CMake project that compiles
the library sources under src/) into .bench_build/wholerun. Each measurement
is one process of the `wholerun` binary running one world once: build the
world, register its devices, warm up, measure a fixed simulated window,
drain, check. This script repeats that run until --seconds of host time have
passed (at least MIN_RUNS times), checks that every repetition produced the
same simulated outputs (identical digest), and reports medians.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced runs and reports the per-layer metrics plus the tracing overhead.
The last stdout line is the JSON result; everything above it is the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "wholerun"
BINARY = BUILD_DIR / "wholerun"
WORKLOADS = ("iot_periodic", "geo_offload", "attach_churn")
MIN_RUNS = 3
# Stop starting new runs once the invocation has used this much wall time,
# so a whole invocation stays well inside three minutes.
WALL_BUDGET_S = 140.0
RUN_TIMEOUT_S = 120.0

# Metric name (also its key in the binary's JSON) -> unit. Medians over runs.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "procs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "delay_p50_ms": "ms",
    "delay_p99_ms": "ms",
    "delay_p999_ms": "ms",
    "completed_ratio": "ratio",
}

PER_LAYER = {
    "sim.engine.events_per_proc": "count",
    "sim.engine.events_per_s": "1/s",
    "sim.engine.peak_pending": "count",
    "sim.engine.ns_per_event": "ns",
    "sim.network.msgs_per_proc": "count",
    "sim.network.bytes_per_proc": "B",
    "sim.cpu.util_max": "ratio",
    "sim.cpu.util_mean": "ratio",
    "sim.cpu.backlog_ms_max": "ms",
    "proto.ns_per_encode": "ns",
    "proto.ns_per_decode": "ns",
    "proto.ns_per_wire_size": "ns",
    "hash.ns_per_owner": "ns",
    "hash.steers_per_proc": "count",
    "epc.fabric.fold_ratio": "ratio",
    "epc.fabric.late_arrivals": "count",
    "epc.fabric.dead_drops": "count",
    "epc.store.bytes_per_ue": "B",
    "epc.store.ns_per_find": "ns",
    "epc.store.contexts_per_ue": "count",
    "epc.hss.auth_per_proc": "count",
    "epc.enodeb.paced_initials": "count",
    "core.mlb.sticky_ratio": "ratio",
    "core.mlb.imbalance": "ratio",
    "core.mlb.overload_rejects": "count",
    "core.mmp.forward_ratio": "ratio",
    "core.mmp.replica_pushes_per_proc": "count",
    "core.mmp.geo_offload_ratio": "ratio",
    "core.mmp.sheds": "count",
    "workload.issue_ratio": "ratio",
    "alloc.per_proc": "count",
    "alloc.bytes_per_proc": "B",
    "alloc.setup_per_ue": "count",
    "phase.build_s": "s",
    "phase.register_s": "s",
    "phase.warmup_s": "s",
    "share.sim": "ratio",
    "share.proto": "ratio",
    "share.hash": "ratio",
    "share.epc": "ratio",
    "share.unattributed": "ratio",
    "trace.overhead_ratio": "ratio",
}

def fail(msg):
    print(f"wholerun: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the wholerun binary (a no-op when up to date);
    output goes to a log file."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    if not BINARY.exists():
        fail("build produced no binary")


def run_once(workload, seed, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        spans = BUILD_DIR / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans", str(spans)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no JSON result from {' '.join(cmd)}")
    result["_report"] = lines[:-1]
    result["_wall_s"] = time.monotonic() - start
    return result


def run_series(workload, seed, seconds, trace):
    """Repeat runs until `seconds` of host time have passed (at least
    MIN_RUNS). With trace, runs alternate untraced / traced."""
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(run_once(workload, seed, traced))
        elapsed = time.monotonic() - start
        longest = max(r["_wall_s"] for r in runs)
        need = MIN_RUNS + 1 if trace else MIN_RUNS
        if len(runs) >= need and elapsed >= seconds:
            break
        if len(runs) >= MIN_RUNS and elapsed + longest > WALL_BUDGET_S:
            break
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    runs = run_series(args.workload, args.seed, args.seconds, args.trace == 1)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]

    # Correctness: per-run checks, and every run must reproduce the same
    # simulated outputs (delay samples + exact layer counters).
    digests = sorted({r["digest"] for r in runs})
    mismatched = 0 if len(digests) == 1 else len(runs)
    check_failures = sum(r["check_failures"] for r in runs)
    failed = check_failures + mismatched
    attempted = sum(r["arrivals"] for r in runs)

    last = (traced or untraced)[-1]
    for line in last["_report"]:
        print(line)
    print()
    print(f"{'run':>3} {'traced':>6} {'setup_s':>9} {'run_s':>8} "
          f"{'procs/s':>10} {'rss_MB':>8} {'wall_s':>7} digest")
    for i, r in enumerate(runs):
        print(f"{i:>3} {str(r['traced']):>6} {r['setup_s']:>9.4f} "
              f"{r['run_s']:>8.4f} {r['procs_per_s']:>10.0f} "
              f"{r['peak_rss_mb']:>8.1f} {r['_wall_s']:>7.2f} {r['digest']}")

    median = statistics.median
    end_to_end = {name: {"value": median([r[name] for r in untraced]),
                         "unit": unit}
                  for name, unit in END_TO_END.items()}
    per_layer = {}
    if traced:
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_ratio":
                value = (median([r["run_s"] for r in traced]) /
                         median([r["run_s"] for r in untraced]) - 1.0)
            else:
                value = median([r[name] for r in traced])
            per_layer[name] = {"value": value, "unit": unit}

    print()
    print(f"end-to-end ({len(untraced)} untraced runs, medians; simulated "
          "metrics are identical in every run):")
    for name, m in end_to_end.items():
        print(f"  {name:<16} {m['value']:>14.6f} {m['unit']}")
    print(f"  {'failed_ratio':<16} {last['failed_ratio']:>14.6f} ratio  "
          "(failed, timed-out or un-issued arrivals / arrivals)")
    print(f"  delay samples: {last['delay_samples']} completed procedures "
          f"started in the window; arrivals {last['arrivals']}, issued "
          f"{last['issued']}")
    print("  generator lag: none; arrivals fire at their due simulated time "
          "and delays run from it")
    if traced:
        print(f"per-layer ({len(traced)} traced runs, medians):")
        for name, m in per_layer.items():
            print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
        print("  link messages in the window: " + ", ".join(
            f"{k[5:]}={last[k]}" for k in last if k.startswith("link.")))
    print(f"checks: {check_failures} check failures, digests {digests}")

    metrics = per_layer if args.trace == 1 else end_to_end
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
