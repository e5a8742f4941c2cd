#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's median and
quartile spread (the acceptance rule of BENCHMARK.json's bounds).

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--trace 0|1]
                                [--seconds S] [--out results.jsonl]

For every metric it prints the median, the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), and, for end-to-end
metrics, that spread against the metric's bound. Each run's result line is
appended to --out when given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: run failed with exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: output checks failed")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    a = p.parse_args()

    values = {}
    for seed in [int(s) for s in a.seeds.split(",")]:
        result = run_once(a.workload, seed, a.seconds, a.trace)
        if a.out:
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": a.workload, "seed": seed, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':44} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0], v[0], v[0]]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:44} {med:14.6g} {spread:10.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
