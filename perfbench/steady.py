#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs BENCHMARK.json's command on each workload over several seeds. For
each end-to-end metric it prints the interquartile spread as a share of
the median, next to the metric's bound. The first seed is also run a
second time, and the script checks that it repeats its determinism
fingerprint exactly.

    python3 perfbench/steady.py [--seeds 10] [--workloads fleet,exact]

Run it from the repository root. It exits 1 if any run fails, any
spread exceeds its bound, or a fingerprint does not repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None, None
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    for workload in names:
        values = {}
        fingerprints = {}
        for seed in range(1, args.seeds + 1):
            result, fingerprint = run_once(bench, workload, seed)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed: {result}")
                ok = False
                continue
            fingerprints[seed] = fingerprint
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if fingerprints.get(1) is not None:
            _, again = run_once(bench, workload, 1)
            if again != fingerprints[1]:
                print(f"{workload}: seed 1 fingerprint did not repeat")
                ok = False
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                ok = False
            print(f"{workload:10s} {name:14s} median {med:14.4f} "
                  f"spread {spread:.3f} bound {bounds[name]:.2f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
