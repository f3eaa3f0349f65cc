#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload long-prompt --seed 1 --seconds 40 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (and, through it, the olive library from src/) into
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  The
benchmark runs at OLIVE_THREADS=4.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "olive_perfbench")
WORKLOADS = ("long-prompt", "chat", "decode-heavy")


def build():
    """Configure once, then build the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "olive_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, OLIVE_THREADS="4")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--signatures", os.path.join(HERE, "signatures.json"),
           "--trace-dir", os.path.join(BUILD, "traces")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
