#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (and the simulator library under src/) in Release mode into
.bench_build/perfbench; later calls rebuild incrementally. Build output
goes to stderr, so the benchmark's result line stays the last line of
stdout. A traced run writes its Chrome trace to .bench_build/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "experiment.hpp")):
        print("perfbench: the simulator sources (src/) are missing",
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 2
    if "--trace" in args and args[args.index("--trace") + 1:][:1] != ["0"]:
        name = "trace"
        for flag in ("--workload", "--seed"):
            if flag in args and args.index(flag) + 1 < len(args):
                name += "-" + args[args.index(flag) + 1]
        args += ["--trace-file",
                 os.path.join(ROOT, ".bench_build", name + ".json")]
    sys.stdout.flush()
    return subprocess.call([binary] + args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
