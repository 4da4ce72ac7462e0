#!/usr/bin/env python3
"""The repository's benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (and the library
sources it compiles) into .bench_build/perfbench, runs one workload as
its own process, and prints as the last stdout line one JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics named in
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
A traced run first repeats the untraced run on the same seed, so the
tracing overhead is measured rather than assumed. The human-readable
report (units, sample counts, configuration) goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# The end-to-end metric each workload's tracing overhead is read from,
# and whether larger is better.
OVERHEAD_METRIC = {
    "ingest_churn": ("ingest_eps", True),
    "ppr_serve": ("ppr_p50_ms", False),
    "wtf_mixed": ("ppr_p50_ms", False),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("BENCHMARK.json", os.path.join("src", "fastppr"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            fail(f"{need} not found; run from the root of a checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs the workload binary; returns its parsed result line."""
    tmp = os.path.join(".bench_build", "tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp]
    if trace:
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed a malformed result line")
    if proc.returncode != 0 and result.get("correct", False):
        fail(f"{workload} exited {proc.returncode}")
    return result


def select(result, names):
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("result lacks metrics: " + ", ".join(missing))
    return {n: metrics[n] for n in names}


def run_workload(binary, spec, workload, seed, seconds, trace):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    untraced = run_once(binary, workload, seed, seconds, False)
    if not trace:
        return dict(untraced, metrics=select(untraced, e2e))
    traced = run_once(binary, workload, seed, seconds, True)
    name, higher = OVERHEAD_METRIC[workload]
    base = untraced["metrics"][name]["value"]
    with_trace = traced["metrics"][name]["value"]
    ratio = base / with_trace if higher else with_trace / base
    traced["metrics"]["driver.trace_overhead_pct"] = {
        "value": 100.0 * (ratio - 1.0), "unit": "%"}
    traced["correct"] = traced["correct"] and untraced["correct"]
    return dict(traced, metrics=select(traced, layer))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload!r}; one of {names} or all")

    results = {w: run_workload(binary, spec, w, args.seed, args.seconds,
                               bool(args.trace)) for w in workloads}
    if len(workloads) == 1:
        out = results[workloads[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{n}": m for w, r in results.items()
                           for n, m in r["metrics"].items()}}
    print(json.dumps({k: out[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
