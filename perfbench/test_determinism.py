#!/usr/bin/env python3
"""Determinism test of the repository benchmark.

For every workload, two runs with the same seed must report identical counts
(the "counts" line mvbench prints before its result), and a held-out seed
must produce different inputs (input_digest) while every output check still
passes. Run from the repository root:

    python3 perfbench/test_determinism.py [--seconds 1]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
HELD_OUT_SEED = 987654321


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    counts = [json.loads(line[len("counts "):]) for line in lines if line.startswith("counts ")]
    if not result["correct"] or len(counts) != 1:
        raise AssertionError(f"{workload} seed {seed}: incorrect result or no counts")
    return counts[0]


def main():
    parser = argparse.ArgumentParser(description="benchmark determinism test")
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = 0
    for workload in workloads:
        try:
            first = run(workload, SEED, args.seconds)
            second = run(workload, SEED, args.seconds)
            held_out = run(workload, HELD_OUT_SEED, args.seconds)
            if first != second:
                raise AssertionError(
                    f"{workload}: counts differ for one seed:\n  {first}\n  {second}")
            if held_out["input_digest"] == first["input_digest"]:
                raise AssertionError(f"{workload}: the held-out seed produced the same inputs")
            print(f"ok   {workload}: {first}")
        except AssertionError as error:
            failures += 1
            print(f"FAIL {error}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
