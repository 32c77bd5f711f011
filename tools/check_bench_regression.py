#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json reports.

Compares a directory of freshly produced benchmark reports against the
committed baselines (bench/baselines/) and fails when throughput dropped
beyond tolerance or a latency percentile blew up:

  * throughput: each result row's best-of-repetitions throughput (derived
    from min_s, so one slow rep doesn't fail the gate) must stay within
    --tolerance (default 15%) of the baseline.
  * latency: any per-row metric ending in `_p99_ns` must not exceed
    max(baseline * --latency-factor, --latency-floor-ns). The floor keeps
    microsecond-scale numbers from tripping the factor on scheduler noise.
  * peak memory: any per-row metric ending in `_peak_bytes` must not exceed
    baseline * --memory-factor. Benchmarks opt in by using that suffix
    (bench_earliest's matching_peak_bytes); older reports use `_bytes_peak`
    names, which stay ungated because their values are environment-sensitive.

Exit codes: 0 = pass, 1 = at least one regression, 2 = operational error
(no baselines, unreadable directories, unexpected exception). Malformed
rows or missing fields in individual reports produce warnings and are
skipped — this script must never die with a traceback.

With --normalize (what CI uses), every current throughput is first divided
by the median current/baseline ratio across ALL rows. That cancels uniform
host drift — baselines recorded on one machine, checked on another — while
still failing any row that regressed relative to the rest of the suite: an
accidental O(n^2) or a lost fast path moves its own rows, not the median.
Latency checks are normalized by the same factor.

Rows or files present on one side only produce warnings, not failures —
adding a benchmark or a configuration must not break CI for unrelated
changes. Schema: bench/bench_util.h (BenchReporter, schema_version 1).

Usage:
  tools/check_bench_regression.py --baseline-dir=bench/baselines \
      --current-dir=build --normalize [--tolerance=0.15] \
      [--latency-factor=2.0] [--latency-floor-ns=10000]
"""

import argparse
import glob
import json
import os
import sys


def load_reports(directory):
    """Maps benchmark name -> parsed report for every BENCH_*.json in dir."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"warning: cannot read {path}: {error}")
            continue
        name = report.get("benchmark")
        if not name:
            print(f"warning: {path} has no 'benchmark' field; skipped")
            continue
        if report.get("schema_version") != 1:
            print(f"warning: {path} has unknown schema_version; skipped")
            continue
        reports[name] = report
    return reports


def best_throughput(row):
    """Best-of-repetitions MB/s for a result row, or None when underivable.

    The report stores throughput_mb_per_s = megabytes / mean_s; rescaling by
    mean_s / min_s recovers megabytes / min_s, the fastest repetition.
    """
    throughput = row.get("throughput_mb_per_s")
    if throughput is None or throughput <= 0:
        return None
    mean_s = row.get("mean_s", 0)
    min_s = row.get("min_s", 0)
    if mean_s > 0 and min_s > 0:
        return throughput * mean_s / min_s
    return throughput


# Provenance params BenchReporter stamps into every report (bench_util.h).
# A mismatch means baseline and candidate ran with different hardware
# capabilities or were built with a different scanner kernel (one per build:
# sse2 on x86-64, scalar elsewhere; reports recorded before that rule may
# say swar or avx2) — the numbers are still compared (with --normalize
# absorbing uniform drift), but the mismatch is called out so a
# "regression" can be recognized as an environment change.
ENVIRONMENT_PARAMS = ("cpu_features", "hardware_concurrency",
                      "scanner_backend")


def warn_environment_mismatches(baselines, currents):
    for name, baseline in sorted(baselines.items()):
        current = currents.get(name)
        if current is None:
            continue
        base_params = baseline.get("params", {})
        cur_params = current.get("params", {})
        for key in ENVIRONMENT_PARAMS:
            base_value = base_params.get(key)
            cur_value = cur_params.get(key)
            if base_value is None and cur_value is None:
                continue  # reports predate provenance stamping
            if base_value != cur_value:
                print(f"warning: '{name}': {key} differs from baseline "
                      f"({base_value!r} -> {cur_value!r}); throughput "
                      f"comparisons may reflect the environment, not the "
                      f"code")


def collect_comparisons(baselines, currents):
    """Pairs up baseline and current rows across all reports.

    Returns (throughput_rows, latency_rows, memory_rows):
      throughput_rows: [(qualified_label, base_mb_s, cur_mb_s), ...]
      latency_rows:    [(qualified_label, metric, base_ns, cur_ns), ...]
      memory_rows:     [(qualified_label, metric, base_b, cur_b), ...]

    Tolerates reports predating newer schema additions: rows without a
    label, non-dict metrics, or non-list results are warned about and
    skipped, never a crash (baselines in bench/baselines/ span many PRs).
    """
    throughput_rows = []
    latency_rows = []
    memory_rows = []

    def labelled_rows(report, where):
        rows = report.get("results")
        if not isinstance(rows, list):
            print(f"warning: {where}: 'results' is not a list; skipped")
            return []
        usable = []
        for row in rows:
            if not isinstance(row, dict) or not isinstance(
                    row.get("label"), str):
                print(f"warning: {where}: row without a label; skipped")
                continue
            usable.append(row)
        return usable

    for name, baseline in sorted(baselines.items()):
        current = currents.get(name)
        if current is None:
            print(f"warning: no current report for '{name}'")
            continue
        current_rows = {r["label"]: r
                        for r in labelled_rows(current, f"current '{name}'")}
        for row in labelled_rows(baseline, f"baseline '{name}'"):
            label = row["label"]
            fresh = current_rows.get(label)
            qualified = f"{name}/{label}"
            if fresh is None:
                print(f"warning: {qualified}: row missing from current run")
                continue
            base_tp = best_throughput(row)
            cur_tp = best_throughput(fresh)
            if base_tp is not None and cur_tp is not None:
                throughput_rows.append((qualified, base_tp, cur_tp))
            cur_metrics = fresh.get("metrics")
            if not isinstance(cur_metrics, dict):
                cur_metrics = {}
            base_metrics = row.get("metrics")
            if not isinstance(base_metrics, dict):
                base_metrics = {}
            for key, base_value in sorted(base_metrics.items()):
                is_latency = key.endswith("_p99_ns")
                is_memory = key.endswith("_peak_bytes")
                if not (is_latency or is_memory):
                    continue
                cur_value = cur_metrics.get(key)
                if not isinstance(cur_value, (int, float)) or not isinstance(
                        base_value, (int, float)):
                    print(f"warning: {qualified}: metric '{key}' missing or "
                          f"non-numeric in one of the runs")
                    continue
                if is_latency:
                    latency_rows.append((qualified, key, base_value,
                                         cur_value))
                else:
                    memory_rows.append((qualified, key, base_value,
                                        cur_value))
    return throughput_rows, latency_rows, memory_rows


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def main():
    parser = argparse.ArgumentParser(
        description="fail CI when benchmark reports regress vs baselines")
    parser.add_argument("--baseline-dir", required=True,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--current-dir", required=True,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional throughput drop (0.15=15%%)")
    parser.add_argument("--latency-factor", type=float, default=2.0,
                        help="allowed p99 latency growth factor")
    parser.add_argument("--latency-floor-ns", type=float, default=10000,
                        help="p99 values below this never fail (noise floor)")
    parser.add_argument("--memory-factor", type=float, default=1.5,
                        help="allowed growth factor for *_peak_bytes metrics")
    parser.add_argument("--normalize", action="store_true",
                        help="divide current numbers by the median "
                             "current/baseline ratio first (cancels uniform "
                             "host drift; use when baselines come from a "
                             "different machine)")
    args = parser.parse_args()

    baselines = load_reports(args.baseline_dir)
    currents = load_reports(args.current_dir)
    if not baselines:
        print(f"error: no baselines found in {args.baseline_dir}")
        return 2
    for name in sorted(set(currents) - set(baselines)):
        print(f"warning: '{name}' has no committed baseline "
              f"(add one under {args.baseline_dir})")

    warn_environment_mismatches(baselines, currents)
    throughput_rows, latency_rows, memory_rows = collect_comparisons(
        baselines, currents)

    drift = 1.0
    if args.normalize and throughput_rows:
        ratios = [cur / base for _, base, cur in throughput_rows if base > 0]
        if ratios:
            observed = median(ratios)
            # Only forgive uniform slowness. A current run FASTER than
            # baseline is never evidence of regression, so dividing by a >1
            # drift (which would penalize rows that sped up less than the
            # median) is wrong. A non-positive median (degenerate baseline
            # rows) would turn the division below into nonsense — skip
            # normalization instead of crashing or inverting signs.
            if observed > 0:
                drift = min(1.0, observed)
                print(f"normalizing by median host drift: x{drift:.3f} "
                      f"(observed x{observed:.3f} across "
                      f"{len(ratios)} rows)")
            else:
                print(f"warning: median drift x{observed:.3f} is not "
                      f"positive; skipping normalization")
        else:
            print("warning: no usable rows for drift normalization")

    failures = []
    for qualified, base_tp, cur_tp in throughput_rows:
        adjusted = cur_tp / drift
        floor = base_tp * (1.0 - args.tolerance)
        if adjusted < floor:
            failures.append(
                f"{qualified}: throughput {adjusted:.2f} MB/s "
                f"(raw {cur_tp:.2f}) is "
                f"{100 * (1 - adjusted / base_tp):.1f}% below baseline "
                f"{base_tp:.2f} MB/s (tolerance {100 * args.tolerance:.0f}%)")
        else:
            print(f"ok: {qualified}: {adjusted:.2f} MB/s "
                  f"(baseline {base_tp:.2f})")

    for qualified, key, base_value, cur_value in latency_rows:
        adjusted = cur_value * drift  # slower host => scale latency down
        limit = max(base_value * args.latency_factor, args.latency_floor_ns)
        if adjusted > limit:
            failures.append(
                f"{qualified}: {key} = {adjusted:.0f} ns "
                f"(raw {cur_value:.0f}) exceeds limit {limit:.0f} ns "
                f"(baseline {base_value:.0f}, "
                f"factor {args.latency_factor})")
        else:
            print(f"ok: {qualified}: {key} = {adjusted:.0f} ns "
                  f"(limit {limit:.0f})")

    for qualified, key, base_value, cur_value in memory_rows:
        # Peak bytes are not host-speed-sensitive; no drift scaling.
        limit = base_value * args.memory_factor
        if cur_value > limit:
            failures.append(
                f"{qualified}: {key} = {cur_value:.0f} B exceeds limit "
                f"{limit:.0f} B (baseline {base_value:.0f}, "
                f"factor {args.memory_factor})")
        else:
            print(f"ok: {qualified}: {key} = {cur_value:.0f} B "
                  f"(limit {limit:.0f})")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):")
        for failure in failures:
            print(f"  {failure}")
        print("\nIf this is expected (intentional tradeoff, new baseline "
              "hardware), refresh bench/baselines/ by re-running the "
              "benchmarks with --json-out=bench/baselines and commit the "
              "result alongside the change that moved the numbers.")
        return 1
    print("\nPASS: no benchmark regressions")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # noqa: BLE001 - documented exit code 2
        print(f"error: unexpected failure: {type(error).__name__}: {error}")
        sys.exit(2)
