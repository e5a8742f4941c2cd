#!/usr/bin/env python3
"""Build and run the serving-tier benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the stune libraries and perfbench/serving_bench.cpp under
.bench_build/ at the repository root (incremental after the first run),
then runs one workload. Build output goes to stderr; the benchmark's last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}. The exit code is the benchmark's, or 2 when the stune sources
are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
STUNE_BUILD = os.path.join(BUILD, "stune")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BENCH_BUILD, "serving_bench")


def sh(cmd):
    """Run a build step with its output on stderr; fail the run if it fails."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if result.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "tuning_service.hpp")):
        sys.exit(f"perfbench: no stune sources under {ROOT}; run from a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(STUNE_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", STUNE_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    sh(["cmake", "--build", STUNE_BUILD, "--target", "stune_service", "-j", jobs])
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BENCH_BUILD, f"-DSTUNE_ROOT={ROOT}",
            f"-DSTUNE_BUILD={STUNE_BUILD}"])
    sh(["cmake", "--build", BENCH_BUILD, "-j", jobs])


def commit():
    """The checkout's commit, read from .git without running git (a checkout
    without .git reports "unknown")."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    build()
    cmd = [BINARY] + sys.argv[1:] + ["--commit", commit()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
