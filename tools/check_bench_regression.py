#!/usr/bin/env python3
"""Compare a freshly generated bench JSON against its committed baseline.

Usage:
    check_bench_regression.py BASELINE.json FRESH.json [--threshold 1.25]

Both files carry the schema emitted by tools/bench_json: a top-level
"cases" list whose entries mix identity fields (case, network_size, nodes,
queries, ...) with latency metrics.  Every metric named *_ns_per_query or
*_ms is lower-is-better; a case regresses when

    fresh_metric > baseline_metric * threshold

The default threshold tolerates 25% slowdown — wide enough for shared-runner
noise, tight enough to catch a real hot-path regression.  Metrics are
serialized with limited precision, so on tiny values a single rounding
quantum can exceed the ratio alone; a regression therefore also requires the
absolute delta to clear a per-unit floor (--min-delta-ms / --min-delta-ns).
Exit status 1 when any metric regresses, 0 otherwise.  Identity mismatches
(a case present in the baseline but missing from the fresh run) are also
failures: silently dropping a case would read as "no regression" when
nothing was measured.

Every case key must be an identity key, a metric (by suffix), or a listed
informational key (INFO_KEYS).  An unknown key is a hard error, not a
silent skip: a typo'd metric name ("run_msec") would otherwise never be
compared and the guard would pass vacuously.  When adding a new emitter to
tools/bench_json, extend INFO_KEYS for its derived outputs.
"""

import argparse
import json
import sys

METRIC_SUFFIXES = ("_ns_per_query", "_ms")

# What makes two cases "the same measurement": the workload shape.  Derived
# outputs (speedups, eviction counts, entry counts) are deliberately not
# identity — they may shift when the measured code changes.
IDENTITY_KEYS = ("case", "network_size", "queries", "nodes", "sites")

# Known informational keys: derived outputs and auxiliary counts that are
# neither identity nor guarded latency metrics.  Anything outside this list
# (and the identity/metric sets) fails hard — see the module docstring.
INFO_KEYS = frozenset({
    "admitted", "admitted_per_sec", "alerts_per_run", "batch", "candidates",
    "completions",
    "dense_entries", "events_per_sec", "evicted", "finalize_speedup",
    "flow_overhead_pct", "flows", "flows_routed", "gap_breaches",
    "kernel_speedup", "links", "memory_ratio", "overhead_pct",
    "peak_event_bytes", "peak_flights", "peak_pending_events",
    "rate_changes", "readmitted", "records_per_run",
    "refill_ns_per_change", "run_ms_max", "run_ms_min",
    "scalar_ns_per_candidate",
    "serve_overhead_pct", "shards", "site_rows_entries",
    "sites_scored_per_demand", "speedup", "speedup_vs_1shard",
    "vectorized_ns_per_candidate",
    "watchdog_overhead_pct",
})


def is_metric(key):
    return key.endswith(METRIC_SUFFIXES)


def check_known_keys(path, doc):
    """Hard-fail on any case key that is not identity, metric, or INFO."""
    unknown = sorted({
        key
        for case in doc["cases"]
        for key in case
        if key not in IDENTITY_KEYS and key not in INFO_KEYS
        and not is_metric(key)
    })
    if unknown:
        sys.exit(
            f"{path}: unknown case key(s) {unknown} — each key must be an "
            f"identity key {list(IDENTITY_KEYS)}, a metric ending in "
            f"{list(METRIC_SUFFIXES)}, or listed in INFO_KEYS "
            "(tools/check_bench_regression.py); a typo'd metric name would "
            "be silently skipped otherwise"
        )


def case_identity(case):
    return tuple((k, case[k]) for k in IDENTITY_KEYS if k in case)


def load_cases(path):
    with open(path) as f:
        doc = json.load(f)
    if "cases" not in doc or not doc["cases"]:
        sys.exit(f"{path}: no cases — not a bench_json output?")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=1.25)
    parser.add_argument("--min-delta-ms", type=float, default=0.05)
    parser.add_argument("--min-delta-ns", type=float, default=0.0)
    args = parser.parse_args()

    baseline = load_cases(args.baseline)
    fresh = load_cases(args.fresh)
    check_known_keys(args.baseline, baseline)
    check_known_keys(args.fresh, fresh)
    if baseline.get("benchmark") != fresh.get("benchmark"):
        sys.exit(
            f"benchmark mismatch: {baseline.get('benchmark')} vs "
            f"{fresh.get('benchmark')}"
        )

    fresh_by_id = {case_identity(c): c for c in fresh["cases"]}
    failures = []
    for base_case in baseline["cases"]:
        ident = case_identity(base_case)
        fresh_case = fresh_by_id.get(ident)
        if fresh_case is None:
            failures.append(f"case missing from fresh run: {dict(ident)}")
            continue
        for key, base_val in base_case.items():
            if not is_metric(key) or not isinstance(base_val, (int, float)):
                continue
            fresh_val = fresh_case.get(key)
            if fresh_val is None:
                failures.append(f"{dict(ident)}: metric {key} missing")
                continue
            floor = args.min_delta_ms if key.endswith("_ms") else args.min_delta_ns
            limit = max(base_val * args.threshold, base_val + floor)
            status = "OK" if fresh_val <= limit else "REGRESSION"
            print(
                f"{status:10s} {key:28s} base={base_val:<12g} "
                f"fresh={fresh_val:<12g} limit={limit:g}  {dict(ident)}"
            )
            if fresh_val > limit:
                failures.append(
                    f"{dict(ident)}: {key} {fresh_val:g} > "
                    f"{base_val:g} * {args.threshold:g}"
                )

    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nall metrics within {args.threshold}x of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
