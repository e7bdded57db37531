#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median,
quartiles and spread (interquartile range over median).

Run from the root of the repository:

    python3 perfbench/spread.py --workloads ycsb-b-tcp,bank-nested-tcp --seeds 1-10

With --json FILE the raw results are also written to FILE.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if p.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: INCORRECT\n{p.stderr}", file=sys.stderr)
            runs.append(res)
            print(f"{wl} seed {seed}: done", file=sys.stderr)
        raw[wl] = runs
        print(f"\n{wl} ({len(runs)} runs, all correct: {all(r['correct'] for r in runs)})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            b = bounds.get(name)
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {b if b is not None else '':>6}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
