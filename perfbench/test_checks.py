#!/usr/bin/env python3
"""Check that every output check of the benchmark can fail.

Each case runs one workload for one second with a corruption planted
(--plant) and expects the run to report "correct": false and exit 1; a
control run of each workload without a plant must report "correct": true
and exit 0. Run from the root of a checkout:

    python3 perfbench/test_checks.py
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# (workload, plant, what the planted fault imitates)
PLANTS = [
    ("kv-zipf", "kv-value", "a flipped byte in a live value"),
    ("redis-lru", "redis-entry", "a flipped byte in a live entry"),
    ("redis-lru", "child-checksum", "a snapshot child that sees another heap"),
    ("span-churn", "overlap", "two live objects that overlap"),
    ("span-churn", "calloc-dirty", "calloc memory that is not zero"),
]


def run(workload, plant):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    failures = 0
    cases = [(w, "", "no fault") for w in ("kv-zipf", "redis-lru",
                                            "span-churn")] + PLANTS
    for workload, plant, what in cases:
        code, result, stderr = run(workload, plant)
        want_correct = not plant
        ok = (result is not None and result["correct"] == want_correct
              and code == (0 if want_correct else 1))
        failures += not ok
        print("%-4s %-10s %-15s %s" % ("ok" if ok else "FAIL", workload,
                                       plant or "-", what))
        if not ok:
            print("     exit %d, result %s\n%s" % (code, result, stderr[-1500:]))
    print("%d of %d cases failed" % (failures, len(cases)))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
