#!/usr/bin/env python3
"""Run every workload on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median), next to the
bound `BENCHMARK.json` gives it.

    python3 perfbench/steadiness.py [--runs 10] [--json out.json]

Run it from the root of a checkout. Quartiles are those of
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = 0.0
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
            result = json.loads(out.stdout.decode().splitlines()[-1])
            assert result["correct"], f"{name} seed {seed}: run not correct"
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m}={values[m][-1]:.6g}" for m in bounds),
                  file=sys.stderr, flush=True)
        rows = {}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[m], "values": v}
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
        summary[name] = rows
        print(f"\n{name} ({args.runs} runs)")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m, r in rows.items():
            print(f"  {m:<18} {r['median']:>12.6g} {r['q1']:>12.6g} {r['q3']:>12.6g} "
                  f"{r['spread']:>8.4f} {r['bound']:>6}")
    print(f"\nlargest spread/bound (setup_s excluded): {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
