#!/usr/bin/env python3
"""Stall-injection self-test: proves the benchmark's attribution can fail.

    python3 perfbench/selftest.py [--stall-us 2000] [--seconds 4]

Run from the root of a checkout. Runs ppr_serve twice on one seed, at a
quarter of its offered rate so an injected stall cannot saturate the
tier: once clean, once with ServingTier::SetFaultHook sleeping a fixed
time in every personalized request. Passes when

  * ppr_p50_ms rises by about the stall (at least 0.8x, at most 3x), and
  * the serving layer accounts for the rise: the median personalized
    service time plus the median time the tier leaves unaccounted
    (latency - lag - queue - service) rises by at least 0.8x the stall.

It also reports which of the two absorbed the stall. The tier starts a
request's service clock after the fault hook has run, so today the
stall lands in serve.ppr.unaccounted_us_p50, not serve.ppr.service_us_p50.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)


def measure(binary, seconds, stall_us):
    tmp = os.path.join(".bench_build", "tmp", f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", "ppr_serve", "--seed", "1",
             "--seconds", str(seconds), "--trace", "1", "--tmp", tmp,
             "--rate-scale", "0.25", "--stall-us", str(stall_us)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        run.fail(f"ppr_serve run with stall {stall_us} us failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stall-us", type=int, default=2000)
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args()

    binary = run.build()
    clean = measure(binary, args.seconds, 0)
    stalled = measure(binary, args.seconds, args.stall_us)
    stall_ms = args.stall_us / 1000.0

    def delta_ms(name, scale=1.0):
        return (stalled[name] - clean[name]) * scale

    d_p50 = delta_ms("ppr_p50_ms")
    d_service = delta_ms("serve.ppr.service_us_p50", 1e-3)
    d_unaccounted = delta_ms("serve.ppr.unaccounted_us_p50", 1e-3)
    print(f"stall {stall_ms:.3f} ms per personalized request")
    print(f"  ppr_p50_ms                    {d_p50:+.3f} ms")
    print(f"  serve.ppr.service_us_p50      {d_service:+.3f} ms")
    print(f"  serve.ppr.unaccounted_us_p50  {d_unaccounted:+.3f} ms")
    ok = True
    if not 0.8 * stall_ms <= d_p50 <= 3.0 * stall_ms:
        print("FAIL: ppr_p50_ms did not rise by about the stall")
        ok = False
    if d_service + d_unaccounted < 0.8 * stall_ms:
        print("FAIL: the serving layer does not account for the stall")
        ok = False
    where = ("service time" if d_service >= 0.8 * stall_ms
             else "unaccounted tier time")
    print(f"{'PASS' if ok else 'FAIL'}: the stall shows up as {where}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
