#!/usr/bin/env python3
"""Build and run the pdr benchmark from the root of a checkout.

    python3 pdrbench/run.py --workload fig14_sweep --seed 1 --seconds 40 --trace 0
    python3 pdrbench/run.py --workload all          # every workload in turn
    python3 pdrbench/run.py --workload sat8_w1 --smoke
    python3 pdrbench/run.py --record                # rewrite reference.txt

Each run first builds pdrbench/ (which builds libpdr from ../src) into
.bench_build/pdrbench with CMake, then runs the binary.  Build output
goes to standard error; the binary's report goes to standard output,
ending in one JSON line.  PDR_* environment variables are not passed
on, so the caller's environment cannot change the workloads.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pdrbench")
WORKLOADS = ["fig14_sweep", "sat8_w1", "hotspot16_w4"]
RUN_TIMEOUT_S = 175


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configure (first time) and build; returns the binary's path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs()])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            sys.exit("pdrbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "pdrbench")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("PDR_")}


def run(cmd, capture=False):
    """Run the binary to completion; a run past the timeout is killed
    and waited for."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("pdrbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configurations, for the smoke test")
    ap.add_argument("--record", action="store_true",
                    help="rewrite pdrbench/reference.txt at seed 1")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload or --record is required")

    binary = build()
    if args.record:
        proc = run([binary, "--root", ROOT, "--record"], capture=True)
        if proc.returncode:
            return proc.returncode
        with open(os.path.join(HERE, "reference.txt"), "wb") as f:
            f.write(proc.stdout)
        return 0

    status = 0
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--root", ROOT, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.smoke:
            cmd.append("--smoke")
        sys.stdout.flush()
        status = status or run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
