#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kv-zipf|redis-lru|span-churn \
        --seed N --seconds S --trace 0|1 [--backend mesh|glibc] \
        [--threads N] [--plant KIND]

The first run configures and builds into .bench_build/perfbench (tests,
examples and GoogleTest are never configured, so no network is needed);
later runs only let the build tool check that it is up to date. Build
output goes to stderr. The harness's stdout is passed through: its last
line is the JSON result. Exit status: the harness's (0, or 1 when an
output check failed), 2 on a usage error, 3 when the build fails, 4 when
the harness overruns its time limit, 5 when a signal kills it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 800
# Past the timed phase a run spends at most a few seconds on set-up,
# the closing idle period and its checks; anything far beyond is a hang.
RUN_SLACK_S = 120


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(3, "build step failed: %s" % err)
    if proc.returncode != 0:
        fail(3, "build step failed (exit %d): %s" % (proc.returncode,
                                                     " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "no allocator sources at %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail(3, "cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = max(1, min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", str(jobs)])
    if not os.access(BINARY, os.X_OK):
        fail(3, "build produced no %s" % BINARY)


def kill_group(proc):
    """Kill the harness and any snapshot child (they share its process
    group), then reap the harness."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["kv-zipf", "redis-lru", "span-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--backend", choices=["mesh", "glibc"],
                        default="mesh")
    parser.add_argument("--threads", type=int, default=0)
    parser.add_argument("--plant", default="")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.threads < 0:
        fail(2, "--seed must be >= 0, --seconds >= 1, --threads >= 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--backend", args.backend, "--threads", str(args.threads)]
    if args.plant:
        cmd += ["--plant", args.plant]
    sys.stdout.flush()
    # setup_s counts from here: the harness process's start.
    cmd += ["--start-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail(4, "harness overran its time limit and was killed")
    if code < 0:
        # A snapshot child may outlive a harness that died mid-fork.
        kill_group(proc)
        fail(5, "harness killed by %s" % signal.Signals(-code).name)
    sys.exit(code)


if __name__ == "__main__":
    main()
