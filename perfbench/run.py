#!/usr/bin/env python3
"""Builds and runs the zombie end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload session_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark and the library are compiled
from source into .bench_build/perfbench (Release); build output goes to
stderr so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORK = os.path.join(BUILD_ROOT, "perfbench-work")
WORKLOADS = ("session_cold", "session_replay", "grid_drift")


def build(targets):
    """Configures (once) and builds `targets`; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no zombie sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    configured = os.path.join(BUILD, "perfbench-configured")
    steps = []
    if not os.path.isfile(configured):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
        if cmd[1] == "-S":
            open(configured, "w").close()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", WORK,
           "--golden", os.path.join(HERE, "golden_digests.txt")]
    if args.trace:
        cmd += ["--spans", os.path.join(
            WORK, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
