#!/usr/bin/env python3
"""Perf/determinism regression gate for batch_solve reports.

Compares the per-scenario fingerprint of a BENCH_*.json report produced by
``batch_solve`` — (name, colors_hash, rounds, raw_rounds) — against a
committed golden file, and verifies every scenario solved to a valid
coloring.  CI runs this on the Release legs against
``bench/golden/BENCH_smoke.golden.json``; any drift in the solver's output
(a changed coloring, a changed round count) fails the build until the golden
is deliberately re-baselined.

Usage:
    check_golden.py REPORT GOLDEN          # gate: compare REPORT to GOLDEN
    check_golden.py REPORT GOLDEN --write  # re-baseline: write GOLDEN from REPORT
    check_golden.py REPORT GOLDEN --metrics-report METRICS.prom
        # additionally validate a Prometheus text dump written by
        # ``cli_solve/batch_solve --metrics-dump`` or
        # ``MetricsRegistry::write_prometheus_file``: every sample line must
        # parse, every histogram must be internally consistent (cumulative
        # ``_bucket`` counts ending at ``_count``), and the core qplec
        # series (solver, service lifecycle, latency histograms) must be
        # present.  Values are never compared — only shape and presence.
    check_golden.py REPORT GOLDEN --profile-summary
        # additionally print each scenario's unified ``stats`` block (the
        # SolverStats surface every producer emits verbatim via
        # solver_stats_json: pass counters, cache telemetry, and the
        # round-loop ``profile`` — supersteps, validation walks
        # run/skipped).  Informational only: the counters are
        # schedule-dependent by design (the tier changes them while the
        # fingerprint stays pinned), so they are never gated.

The golden file stores only the fingerprint fields, so re-baselining after
an intentional algorithm change produces a minimal, reviewable diff.
"""

import argparse
import json
import sys

FINGERPRINT_FIELDS = ("colors_hash", "rounds", "raw_rounds")

# Series every qplec run is expected to leave in a --metrics-dump (presence
# only — values are workload-dependent).  A histogram name matches via its
# _bucket/_sum/_count samples.
REQUIRED_METRICS = (
    "qplec_solves_total",
    "qplec_service_submitted_total",
    "qplec_service_outcomes_total",  # labeled: any {status=...} sample counts
    "qplec_service_queue_latency_ms",
    "qplec_service_solve_latency_ms",
)


def check_metrics_report(path):
    """Validate a Prometheus text dump: parse, histogram shape, presence.

    Returns a list of failure strings (empty = OK).
    """
    failures = []
    samples = {}  # full sample name (labels included) -> value
    with open(path) as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or line.startswith("#"):
            continue
        # A sample is "<name>[{labels}] <value>"; labels may contain spaces
        # only inside quotes, which qplec never emits — rsplit is safe.
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            failures.append(f"{path}:{lineno}: unparseable sample: {line!r}")
            continue
        name, value = parts
        try:
            samples[name] = float(value)
        except ValueError:
            failures.append(f"{path}:{lineno}: non-numeric value: {line!r}")
    if failures:
        return failures

    def base_name(sample_name):
        return sample_name.split("{", 1)[0]

    bases = {base_name(n) for n in samples}

    # Histogram consistency: cumulative buckets must be non-decreasing and
    # the +Inf bucket must equal _count.
    hist_bases = {b[: -len("_bucket")] for b in bases if b.endswith("_bucket")}
    for h in sorted(hist_bases):
        buckets = [
            (n, v) for n, v in samples.items() if base_name(n) == h + "_bucket"
        ]
        counts = [v for _, v in buckets]  # emitted in ascending le order
        if any(b > a for a, b in zip(counts[1:], counts)):
            failures.append(f"{path}: {h}: bucket counts are not cumulative")
        if h + "_count" not in samples:
            failures.append(f"{path}: {h}: missing {h}_count")
        elif counts and counts[-1] != samples[h + "_count"]:
            failures.append(
                f"{path}: {h}: +Inf bucket {counts[-1]} != _count "
                f"{samples[h + '_count']}"
            )
        if h + "_sum" not in samples:
            failures.append(f"{path}: {h}: missing {h}_sum")

    for required in REQUIRED_METRICS:
        if required not in bases and not any(
            b.startswith(required + "_") for b in bases
        ):
            failures.append(f"{path}: required series missing: {required}")
    return failures


def fingerprint(report):
    """Per-scenario fingerprint list from a batch_solve JSON report."""
    out = []
    for s in report["scenarios"]:
        entry = {"name": s["name"]}
        for field in FINGERPRINT_FIELDS:
            entry[field] = s[field]
        out.append(entry)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_*.json written by batch_solve")
    parser.add_argument("golden", help="committed golden fingerprint file")
    parser.add_argument(
        "--write",
        action="store_true",
        help="re-baseline: overwrite GOLDEN with REPORT's fingerprint",
    )
    parser.add_argument(
        "--metrics-report",
        metavar="METRICS_PROM",
        help="Prometheus text dump (--metrics-dump output): validate that it "
        "parses, histograms are internally consistent, and the core qplec "
        "series are present (shape/presence only — values are never gated)",
    )
    parser.add_argument(
        "--profile-summary",
        action="store_true",
        help="print each scenario's unified stats block (round-loop profile, "
        "cache telemetry) from the report — informational, never gated",
    )
    args = parser.parse_args()

    with open(args.report) as f:
        report = json.load(f)

    invalid = [s["name"] for s in report["scenarios"] if not s.get("valid", False)]
    if invalid:
        print(f"FAIL: invalid colorings in {args.report}: {', '.join(invalid)}")
        return 1

    actual = fingerprint(report)

    if args.metrics_report:
        metrics_failures = check_metrics_report(args.metrics_report)
        if metrics_failures:
            print(f"FAIL: metrics report {args.metrics_report}:")
            for line in metrics_failures:
                print(f"  {line}")
            return 1
        print(f"OK: metrics report {args.metrics_report} parses, histograms "
              "consistent, required series present")

    if args.profile_summary:
        print(f"profile summary for {args.report}:")
        for s in report["scenarios"]:
            stats = s.get("stats")
            if stats is None:
                print(f"  {s['name']}: no stats block (pre-unification report?)")
                continue
            profile = stats.get("profile", {})
            print(
                f"  {s['name']}: supersteps={profile.get('supersteps')} "
                f"validation_walks={profile.get('validation_walks_run')}/"
                f"{profile.get('validation_walks_skipped')} skipped, "
                f"cache_deltas={stats.get('cache_deltas')} "
                f"basecase_calls={stats.get('basecase_calls')}"
            )

    if args.write:
        golden = {
            "comment": "golden batch_solve fingerprint; re-baseline with "
            "tools/check_golden.py REPORT GOLDEN --write",
            "scenarios": actual,
        }
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=2)
            f.write("\n")
        print(f"wrote {args.golden} ({len(actual)} scenarios)")
        return 0

    with open(args.golden) as f:
        expected = json.load(f)["scenarios"]

    failures = []

    def compare(label, got):
        expected_by_name = {e["name"]: e for e in expected}
        actual_by_name = {a["name"]: a for a in got}
        for name in expected_by_name:
            if name not in actual_by_name:
                failures.append(f"{label}: missing scenario: {name}")
        for name in actual_by_name:
            if name not in expected_by_name:
                failures.append(f"{label}: unexpected scenario: {name}")
        for name, exp in expected_by_name.items():
            act = actual_by_name.get(name)
            if act is None:
                continue
            for field in FINGERPRINT_FIELDS:
                if act[field] != exp[field]:
                    failures.append(
                        f"{label}: {name}: {field} drifted — "
                        f"golden {exp[field]!r}, got {act[field]!r}"
                    )

    compare(args.report, actual)

    if failures:
        print(f"FAIL: drift from {args.golden}:")
        for line in failures:
            print(f"  {line}")
        print("If the change is intentional, re-baseline with --write and commit.")
        return 1

    print(f"OK: {len(actual)} scenario fingerprints match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
