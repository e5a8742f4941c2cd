#!/usr/bin/env python3
"""Smoke test of the serving-tier benchmark: every workload at its smoke size,
untraced and traced, in well under a minute each.

    python3 perfbench/smoke_test.py

For each run it checks that the benchmark exits 0, that its last line has
exactly the keys correct/attempted/failed/metrics with correct == true (so
the outcome cross-check and the output checks passed), and that the metrics
are exactly BENCHMARK.json's end_to_end (--trace 0) or per_layer (--trace 1)
names, each finite and with its declared unit. Exits 1 on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit(f"FAIL {where}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m.get('value')!r} is not finite")
    if problems:
        sys.exit(f"FAIL {where}: " + "; ".join(problems))
    print(f"ok   {where}: {result['attempted']} ops, {len(metrics)} metrics")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [w["name"] for w in spec["workloads"]]:
        check(name, 0, end_to_end)
        check(name, 1, per_layer)


if __name__ == "__main__":
    main()
