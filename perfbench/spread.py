#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's median,
quartiles and quartile spread (q3 - q1 over the median), the figure a
benchmark bound is checked against.

    python3 perfbench/spread.py WORKLOAD [--seeds 10] [--seconds S]
                                [--trace 0|1]

Run from the repository root.  --seconds defaults to BENCHMARK.json's
run_seconds; each bound from BENCHMARK.json is printed beside the spread.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.monotonic()
        out = subprocess.run(
            bench["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers\n{out}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - start:.0f} s): " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
