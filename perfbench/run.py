#!/usr/bin/env python3
"""Builds and runs the PRORD benchmark.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --selftest          # the benchmark's own tests

Run from anywhere inside a checkout. The C++ program is configured and
built under .bench_build/ at the checkout root (the repository's libraries
are compiled from src/, unchanged), then run with the given arguments. Its
last stdout line is the JSON result; build output goes to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no PRORD sources next to %s" % HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")]).returncode
        if not args.workload:
            p.error("--workload is required")
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    names = [args.workload]
    if args.workload == "all":
        names = subprocess.run([binary, "--list-workloads"], check=True,
                               capture_output=True, text=True).stdout.split()
    status = 0
    for name in names:
        sys.stdout.flush()
        code = subprocess.run([binary, "--workload", name,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
