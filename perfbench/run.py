#!/usr/bin/env python3
"""End-to-end benchmark of one core::Study::run() per workload.

Run from the repository root:

    python3 perfbench/run.py --workload study_full --seed 1 --seconds 40 \
        --trace 0

Builds the library sources and perfbench/workload.cc into .bench_build/,
then runs the workload binary in a fresh process per iteration until
--seconds have been spent (at least MIN_ITERATIONS times). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, medians over
iterations. With --trace 1 each iteration is an untraced run followed by a
traced one, and the metrics are the per-layer ones: spans and counts from
the traced runs, serve latency percentiles over every batch of the untraced
runs. The line before it gives the details: per-iteration values,
exact-count keys, sample counts and the kernel backend. README.md documents
every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
WORKLOADS = ("study_full", "collect_tiered_serve", "collect_dist")
MIN_ITERATIONS = 3
BUILD_TIMEOUT_S = 840
# Measuring stops by this many seconds even when iterations slow down or
# --seconds is large, so a run ends within three minutes.
HARD_CAP_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("bytes_per_address"):
        return "B/address"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    if name == "analysis.kernel_backend":
        return "id"
    return "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    """Configures (once) and builds the workload binary; returns its path."""
    if not (SOURCES / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {SOURCES}")
    build_dir = build_root / "cmake"
    log_path = build_root / "build.log"
    build_root.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_workload"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                fail(f"build failed (exit {done.returncode}); see {log_path}")
    return build_dir / "perfbench_workload"


def run_child(binary, workload, seed, work_dir, traced, timeout=HARD_CAP_S):
    """One fresh workload process; returns its parsed JSON line or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--work-dir", str(work_dir)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} child timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: {workload} child exited {done.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("perfbench: unparsable child output", file=sys.stderr)
        return None


def serve_percentile(runs, p):
    """Nearest-rank percentile over every batch of every run, so the
    host's slow spells weigh by their share of the serving time."""
    ordered = sorted(v for r in runs for v in r["serve"]["latency_us"])
    return ordered[min(len(ordered) - 1, int(p * (len(ordered) - 1) + 0.5))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_root = Path.cwd() / ".bench_build"
    binary = build(build_root)
    work_dir = build_root / "work"

    attempted = failed = 0
    e2e_runs, traced_runs = [], []
    keys_seen = []
    start = time.monotonic()
    deadline = start + HARD_CAP_S
    iterations = 0
    while True:
        t = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            result = run_child(binary, args.workload, args.seed, work_dir,
                               traced, max(1.0, deadline - time.monotonic()))
            if result is None:
                attempted += 1
                failed += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            (traced_runs if traced else e2e_runs).append(result)
            keys_seen.append(result["keys"])
        iterations += 1
        now = time.monotonic()
        # Stop before an iteration like the last would overrun --seconds.
        next_end = now - start + (now - t)
        if iterations >= MIN_ITERATIONS and next_end > args.seconds:
            break
        if next_end > HARD_CAP_S or (failed and not e2e_runs):
            break

    # Same seed, same exact-count keys: every iteration, both modes.
    for keys in keys_seen[1:]:
        attempted += 1
        if keys != keys_seen[0]:
            failed += 1
            print("perfbench: exact-count keys differ between iterations",
                  file=sys.stderr)
    if not e2e_runs or (args.trace and not traced_runs):
        fail("no iteration completed")

    study_s = statistics.median(r["metrics"]["study_s"] for r in e2e_runs)
    if args.trace == 0:
        metrics = {
            name: {"value": statistics.median(r["metrics"][name]
                                              for r in e2e_runs),
                   "unit": unit}
            for name, unit in E2E_UNITS.items()}
    else:
        metrics = {}
        for name in traced_runs[0]["metrics"]:
            value = statistics.median(r["metrics"][name] for r in traced_runs)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.study_s"]["value"] - study_s, "unit": "s"}
        # Serving latency comes from the untraced iterations. Host noise
        # moves it too much for a bound (README.md), so it is reported
        # here rather than as an end-to-end metric.
        for name, p in (("serve_p50_us", 0.50), ("serve_p99_us", 0.99)):
            metrics[name] = {"value": serve_percentile(e2e_runs, p),
                             "unit": "us"}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": len(e2e_runs),
        "kernel_backend": e2e_runs[0]["kernel_backend"],
        "keys": keys_seen[0],
        "serve_batches": sum(r["serve"]["batches"] for r in e2e_runs),
        "serve_missed": sum(r["serve"]["missed"] for r in e2e_runs),
        "per_iteration": [r["metrics"] for r in e2e_runs],
        "traced": [r["metrics"] for r in traced_runs],
        "trace_files": [r["info"]["trace_file"] for r in traced_runs],
        "checks": [r["checks"] for r in e2e_runs + traced_runs],
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
