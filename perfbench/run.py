#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test --seed <n>

Run it from the repository root. The first call configures and builds
perfbench/ (the discsec library from src/ plus the two benchmark
binaries) into .bench_build/ with CMake and a C++20 compiler; later calls
rebuild incrementally. Build output goes to stderr. The binary's stdout is passed
through unchanged, so its last line is the result JSON, and its exit code
is the script's. Traced runs write their spans under .bench_build/traces/.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# The stock-allocator binary gives the end-to-end metrics; the traced one
# counts allocations for the per-layer metrics and the self-test.
BINARY = os.path.join(BUILD, "perfbench")
TRACED_BINARY = os.path.join(BUILD, "perfbench_traced")
JOBS = "4"
RUN_TIMEOUT_S = 170
# Compiler and run temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no discsec sources at %s/src" % ROOT)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", JOBS,
                      "--target", "perfbench", "perfbench_traced"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, cwd=ROOT,
                              env=ENV).returncode:
                sys.exit("perfbench: build failed: %s" % " ".join(step))


def traced(argv):
    if "--self-test" in argv:
        return True
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value == "1"
    return False


def main():
    build()
    binary = TRACED_BINARY if traced(sys.argv[1:]) else BINARY
    args = [binary] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run(args, cwd=ROOT, env=ENV,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
