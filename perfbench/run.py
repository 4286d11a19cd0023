#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload lp_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (and the library sources
under src/) into $CARGO_TARGET_DIR or .bench_build, writes the seeded
inputs as graph files under .bench_out/, then runs the workload in a fresh
process. The last line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("lp_warm", "release_stream")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def clean_env():
    # The program's own knobs are fixed by the benchmark, not inherited.
    return {k: v for k, v in os.environ.items() if not k.startswith("NODEDP_")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "selftest"], env=clean_env()).returncode

    out_root = ".bench_out"
    run_dir = os.path.join(
        out_root, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", run_dir]
    try:
        gen = subprocess.run([binary, "gen"] + common, env=clean_env(),
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            return gen.returncode
        # The workload process is timed from here: set-up time includes
        # process start. CLOCK_MONOTONIC is the C++ steady clock on Linux.
        t0 = time.monotonic_ns()
        run = subprocess.run(
            [binary, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--t0-ns", str(t0)],
            env=clean_env(), stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        return run.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # Keep span traces; drop the (large) graph files.
        for name in os.listdir(run_dir):
            if name.startswith("trace-"):
                os.replace(os.path.join(run_dir, name),
                           os.path.join(out_root, name))
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
