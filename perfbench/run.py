#!/usr/bin/env python3
r"""The repo benchmark's one command.

    python3 perfbench/run.py --workload power_serial --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. It builds the engine library and the
benchmark binary from source with CMake (into $CARGO_TARGET_DIR, else
.bench_build), runs one workload, and passes the binary's output
through: the last line of standard output is the result JSON
{"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exits non-zero, without a result, when the sources are
missing or the build fails, and non-zero when any result was not
byte-identical to its serial reference.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("power_serial", "power_staged", "serve_mix")
# The binary measures for --seconds (twice that when traced) plus
# set-up and probes; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170
GOLDEN = os.path.join("perfbench", "golden_sf0.2_seed19940401.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    for needed in ("CMakeLists.txt", "src",
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "source checkout", file=sys.stderr)
            return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(os.cpu_count() or 1)]]
    # Once configured, the build step re-runs CMake itself when needed.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", "perfbench", "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_root, f"trace-{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
