#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload grep-xmark --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and through it the library in src/) into .bench_build/,
refuses to run when a workload's pinned input fingerprint no longer
reproduces (perfbench/fingerprints.json), runs the harness, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics (and writes a Chrome trace-event JSON under
.bench_build/perfbench/traces/). Exit status: 0 when every output matched the
oracle, 1 on a wrong output, 2 on a usage or build error, 3 when the pinned
inputs changed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no xaos source tree (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_harness",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return result.stdout.strip() if result.returncode == 0 else "n/a"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="tiny corpus, for the smoke test")
    parser.add_argument("--detail", action="store_true",
                        help="also print the harness's counts as JSON")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "fingerprints.json")) as f:
            pinned = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()

    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for seed, fingerprint in pinned["fingerprints"][args.workload].items():
        command += ["--expect-fingerprint", f"{seed}:{fingerprint}"]
    if args.small:
        command.append("--small")
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    if result.returncode == 3:
        fail("pinned inputs changed; refusing to report numbers", 3)
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        fail(f"harness exited with status {result.returncode}")
    report = json.loads(lines[-1])

    info = dict(report["info"])
    info["git_commit"] = git_commit()
    for key, value in info.items():
        print(f"# {key}: {value}")
    for key, value in report["counts"].items():
        print(f"# count {key}: {value:.17g}")
    for name, metric in report["metrics"].items():
        print(f"{name:28s} {metric['value']:14.6f} {metric['unit']}")
    if args.detail:
        print("detail " + json.dumps(report))

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"harness did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    correct = result.returncode == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
