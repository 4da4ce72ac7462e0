#!/usr/bin/env python3
"""Runs one or more workloads over several seeds and reports, for every
end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload ppr_serve --seeds 1-10 [--seconds 10]

Run from the root of a checkout. Each run is a separate
`perfbench/run.py --trace 0` process, exactly as the benchmark is
driven; raw results are appended as JSON lines to --out if given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="workload name, comma list, or all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    seeds = parse_seeds(args.seeds)
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            line = proc.stdout.decode().strip().splitlines()[-1:]
            if proc.returncode != 0 or not line:
                print(f"{w} seed {seed}: failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(line[0])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed,
                                        **result}) + "\n")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"\n{w}: {len(seeds)} seeds, {seconds:g} s each")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else (
                "  > bound/3" if spread <= m["bound"] else "  > bound")
            print(f"  {m['name']:<16} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {spread:8.3f} {m['bound']:6.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
