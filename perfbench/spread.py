#!/usr/bin/env python3
"""Run the benchmark several times per workload and report its spread.

For each workload and each end-to-end metric it prints the median of the
runs, the quartile spread (Q3 - Q1, as statistics.quantiles(values, n=4)
gives the quartiles) as a share of the median, and the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads dp-paper,dp-mice]

Run i uses seed i (1, 2, ..., runs) and reports end-to-end metrics
(--trace 0). Raw results are appended as JSON lines to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as out:
        for wl in names:
            values = {}
            for seed in range(1, args.runs + 1):
                cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                    ok = False
                    continue
                res = json.loads(p.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": wl, "seed": seed, "result": res}) + "\n")
                if not res["correct"]:
                    print(f"{wl} seed {seed}: correct=false", file=sys.stderr)
                    ok = False
                for k, m in res["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
            print(f"== {wl} ({args.runs} runs)")
            for k in sorted(values):
                v = values[k]
                med = statistics.median(v)
                spread = float("nan")
                if len(v) >= 2 and med:
                    q = statistics.quantiles(v, n=4)
                    spread = (q[2] - q[0]) / abs(med)
                bound = bounds.get(k)
                flag = ""
                if bound is not None and k != "setup_s" and not spread <= bound / 3:
                    flag = "  <-- above bound/3"
                btxt = f"bound {bound}" if bound is not None else ""
                print(f"  {k:28s} median {med:14.4f}  spread {spread:7.4f}  {btxt}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
