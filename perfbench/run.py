#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload terasort-100g --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and compiles
the benchmark and the libraries it links into .bench_build/perfbench
(later runs only check that the build is current). Every line the
benchmark prints is passed through; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
every `end_to_end` metric of BENCHMARK.json with --trace 0, every
`per_layer` metric with --trace 1. The full report of the run, with
the metrics BENCHMARK.json does not list and the span files of traced
runs, is written to .bench_build/out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("terasort-100g", "sort-40g", "multitenant")
# A run measures for --seconds and then finishes the iteration in flight.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the benchmark binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 2)
    return BUILD / "perfbench"


def contract_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs the benchmark binary; returns (lines before the last, full JSON)."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(OUT)]
    if tiny:
        args.append("--tiny")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = contract_metrics(args.trace)
    binary = build()
    lines, full = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    for line in lines:
        print(line)
    metrics = {}
    for name in names:
        metric = full["metrics"].get(name)
        if metric is None or metric["value"] is None:
            fail(f"metric {name} is absent on workload {args.workload}")
        metrics[name] = metric
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
