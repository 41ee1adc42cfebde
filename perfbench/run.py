#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds the benchmark from this checkout's sources (perfbench/CMakeLists.txt
compiles the icsfuzz library, the fork-server shim and the perfbench program)
into .bench_build/perfbench at the checkout root, then runs one workload.
Build output goes to stderr; the last line of stdout is the run's JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(BINARY):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    try:
        # perfbench parses and checks the arguments itself.
        run = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
