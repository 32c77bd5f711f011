#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Usage (from the repository root): python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at a small size (--small), twice with
the same seed, in both the end-to-end and the traced mode, through
perfbench/run.py, and checks that:
  * every output matched its oracle (correct, failed == 0, error_rate == 0);
  * the counts (events, batches, new symbols, shared states, engines,
    items, verdicts, bytes) and held_mb repeat exactly;
  * the input fingerprint repeats and the pinned fingerprints still
    reproduce (run.py refuses to report otherwise);
  * every metric BENCHMARK.json names is printed with its unit.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--small", "--detail"]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=900)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise AssertionError(f"{' '.join(command[1:])} exited "
                             f"{result.returncode}")
    lines = result.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return lines, json.loads(lines[-1]), detail


def check(workload, trace, spec):
    wanted = spec["per_layer" if trace else "end_to_end"]
    first = run(workload, trace)
    second = run(workload, trace)
    errors = []
    for lines, final, detail in (first, second):
        if not final["correct"] or final["failed"] != 0:
            errors.append("wrong outputs")
        if not trace and detail["metrics"]["error_rate"]["value"] != 0:
            errors.append("error_rate is not 0")
        for m in wanted:
            got = final["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                errors.append(f"{m['name']} missing or not in {m['unit']}")
            printed = [line for line in lines if line.split()[:1] ==
                       [m["name"]] and line.split()[-1] == m["unit"]]
            if not printed:
                errors.append(f"{m['name']} not printed with its unit")
    (_, _, a), (_, _, b) = first, second
    if a["counts"] != b["counts"]:
        errors.append(f"counts differ: {a['counts']} vs {b['counts']}")
    if a["info"]["fingerprint"] != b["info"]["fingerprint"]:
        errors.append("fingerprints differ")
    if not trace and (a["metrics"]["held_mb"]["value"] !=
                      b["metrics"]["held_mb"]["value"]):
        errors.append("held_mb differs")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            try:
                errors = check(workload, trace, spec)
            except (AssertionError, StopIteration, ValueError) as e:
                errors = [str(e) or type(e).__name__]
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
