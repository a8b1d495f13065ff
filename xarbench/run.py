#!/usr/bin/env python3
"""Builds the XAR benchmark from source and runs one workload.

    python3 xarbench/run.py --workload serve_lookbook --seed 1 \
        --seconds 20 --trace 0
    python3 xarbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/xarbench (default .bench_build/xarbench,
relative to the checkout root) and is incremental, so only the first run in
a checkout compiles. Build output goes to stderr; the benchmark's own
stdout passes through unchanged, so its last line is the JSON result. With
--trace 1 the spans of the run are written to
<build dir>/traces/<workload>.tsv.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "xarbench")


def build(out):
    """Configures (once) and builds; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("xarbench: no library sources next to the benchmark", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"xarbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def run(cmd):
    """Runs the benchmark binary, passing its output through."""
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("xarbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["serve_lookbook", "city_rush", "booking_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every output check a corrupted input")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return run([os.path.join(out, "xarbench_selftest")])
    cmd = [os.path.join(out, "xarbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".tsv")]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
