#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]

Run from the repository root. For every workload and metric it prints the
median of the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound from BENCHMARK.json. Runs interleave across workloads, so
slow drifts of a shared host spread over all of them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)

    worst = 0.0
    for w in workloads:
        print(w)
        for name, v in values[w].items():
            med = statistics.median(v)
            spread = 0.0
            if len(v) >= 2 and med:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(name)
            note = "" if bound is None else "bound %.2f%s" % (
                bound, "  OVER" if spread > bound else "")
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-36s median %14.4f  spread %.4f  %s" % (name, med, spread, note))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
