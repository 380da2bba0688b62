#!/usr/bin/env python3
"""Paired before/after runs of the repo benchmark (perfbench).

    python3 tools/bench_pairs.py --parent REV --workload W[,W...] --pairs N --out FILE
                                 [--seed S] [--seconds T] [--trace 0|1]
                                 [--work-dir DIR] [--history HISTORY --pr ID]
    python3 tools/bench_pairs.py --summary FILE --history HISTORY --pr ID

Extracts commit REV into a temporary directory (`git archive`, so nothing is
registered in the repository's .git) and, for each listed workload in turn,
runs the unchanged `perfbench/run.py` of each side -- REV's tree and this
working tree -- N times, alternating which side runs first.  Each side builds
into its own CARGO_TARGET_DIR under the work directory, so neither build sees
the other's objects.  The first run of a side also builds its runner; the
runner is timed only after its build finishes.

Prints, per workload and metric: each side's median and quartiles over its
runs, the number of pairs the change won (ties count for neither; direction
from BENCHMARK.json), whether the medians differ by more than the parent's
interquartile range, and each side's failed/attempted request counts.  FILE
receives the same summary under `workloads` (one report per workload, with
every run's raw result line), plus a `regressions` list: each end-to-end
metric whose change median is worse than the parent's median by more than
that metric's BENCHMARK.json `bound` (a fraction of the parent's median).

The claim rule it reports (`claim_holds`) is the paired protocol of
docs/BENCHMARKS.md: the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range.
Exits 1 if any run failed to produce a result line, else 2 if `regressions`
is not empty.

With --history, the run's end-to-end medians are also appended to HISTORY
(the repository keeps BENCH_history.jsonl), one JSON line per (change,
workload, metric): the change's id (--pr), the parent commit, the parent and
change medians, the unit, the wins and the pair count.  So the perf
trajectory across changes is readable from the repository, while FILE holds
only the latest step.  --summary appends a summary FILE written earlier
(for instance one read back with `git show REV:BENCH_pairs.json`) without
running anything.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr, flush=True)


def extract(rev, dest):
    """Writes the tree of commit rev into dest."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")


def run_side(tree, target_dir, workload, args):
    """One perfbench/run.py call in tree; returns its result line or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{tree}: run.py exited {proc.returncode} without a result line")
        return None
    return json.loads(lines[-1])


def benchmark_spec():
    """BENCHMARK.json: (metric name -> 'lower'/'higher', end-to-end name -> bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    return better, bounds


def quartiles(values):
    """(q1, median, q3) by the inclusive method; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, better):
    """Per-metric medians, quartiles, wins and the claim verdict."""
    names = sorted({name for p in pairs for side in ("parent", "change")
                    for name in (p[side] or {}).get("metrics", {})})
    out = {}
    for name in names:
        complete = [p for p in pairs if p["parent"] and p["change"]
                    and name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not complete:
            continue
        parent = [p["parent"]["metrics"][name]["value"] for p in complete]
        change = [p["change"]["metrics"][name]["value"] for p in complete]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        row = {"unit": complete[0]["parent"]["metrics"][name]["unit"], "pairs": len(complete),
               "parent": {"median": pmed, "q1": pq1, "q3": pq3},
               "change": {"median": cmed, "q1": cq1, "q3": cq3},
               "better": better.get(name)}
        if row["better"] in ("lower", "higher"):
            sign = 1 if row["better"] == "lower" else -1
            row["wins"] = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
            gain = sign * (pmed - cmed)
            row["median_gain_exceeds_parent_iqr"] = gain > (pq3 - pq1)
            row["claim_holds"] = (10 * row["wins"] >= 9 * len(complete)
                                  and row["median_gain_exceeds_parent_iqr"])
        out[name] = row
    return out


def regressions(workload, metrics, bounds):
    """End-to-end rows whose change median is worse than the parent's by more
    than the metric's bound (relative to the parent's median)."""
    out = []
    for name, bound in bounds.items():
        row = metrics.get(name)
        if row is None or row["better"] not in ("lower", "higher"):
            continue
        pmed, cmed = row["parent"]["median"], row["change"]["median"]
        worse = cmed - pmed if row["better"] == "lower" else pmed - cmed
        if worse > bound * abs(pmed):
            out.append({"workload": workload, "metric": name, "parent_median": pmed,
                        "change_median": cmed, "bound": bound,
                        "relative_change": (cmed - pmed) / pmed if pmed else None})
    return out


def append_history(path, summary, pr, end_to_end):
    """Appends one record per (workload, end-to-end metric) of a summary."""
    with open(path, "a") as f:
        for workload, report in summary["workloads"].items():
            for name in end_to_end:
                row = report["metrics"].get(name)
                if row is None:
                    continue
                record = {"pr": pr, "parent": report["parent"], "workload": workload,
                          "metric": name, "unit": row["unit"], "better": row["better"],
                          "parent_median": row["parent"]["median"],
                          "change_median": row["change"]["median"],
                          "wins": row.get("wins"), "pairs": row["pairs"],
                          "seed": report["seed"], "seconds": report["seconds"]}
                f.write(json.dumps(record, sort_keys=True) + "\n")
    log(f"appended {pr}'s end-to-end medians to {path}")


def print_report(report, args):
    print(f"{report['workload']}: {args.pairs} pairs vs {report['parent'][:12]}, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for side in ("parent", "change"):
        c = report["requests"][side]
        print(f"  {side}: {c['failed']}/{c['attempted']} requests failed, "
              f"{c['runs_without_result']} runs without a result")
    print(f"  {'metric':<28} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'wins':>6} claim")
    for name, row in report["metrics"].items():
        cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        wins = f"{row['wins']}/{row['pairs']}" if "wins" in row else "-"
        claim = {True: "holds", False: "no"}.get(row.get("claim_holds"), "-")
        print(f"  {name:<28} {cell(row['parent']):>34} {cell(row['change']):>34}"
              f" {wins:>6} {claim}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="commit to compare against")
    ap.add_argument("--workload", help="one workload or a comma-separated list")
    ap.add_argument("--pairs", type=int, help="pairs per workload")
    ap.add_argument("--out", help="JSON summary file")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--work-dir", help="keeps both builds here (default: a temp dir)")
    ap.add_argument("--history", help="JSON-lines file to append end-to-end medians to")
    ap.add_argument("--pr", help="id of the measured change in --history records")
    ap.add_argument("--summary", help="append this saved summary to --history; run nothing")
    args = ap.parse_args()
    if (args.history is None) != (args.pr is None):
        ap.error("--history and --pr go together")
    if args.summary:
        if not args.history:
            ap.error("--summary needs --history and --pr")
        with open(args.summary) as f:
            append_history(args.history, json.load(f), args.pr, benchmark_spec()[1])
        return 0
    missing = [flag for flag in ("parent", "workload", "pairs", "out")
               if getattr(args, flag) is None]
    if missing:
        ap.error("missing " + ", ".join("--" + flag for flag in missing))
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    workloads = [w for w in args.workload.split(",") if w]
    if not workloads or len(set(workloads)) != len(workloads):
        ap.error("--workload must name each workload once")

    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", args.parent + "^{commit}"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    work = os.path.abspath(args.work_dir) if args.work_dir else tempfile.mkdtemp(
        prefix="bench_pairs-")
    runs = {}
    try:
        parent_tree = os.path.join(work, "parent-" + rev[:12])
        if not os.path.isdir(parent_tree):
            extract(rev, parent_tree)
        sides = {"parent": (parent_tree, os.path.join(work, "target-parent")),
                 "change": (ROOT, os.path.join(work, "target-change"))}
        for workload in workloads:
            pairs = runs[workload] = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_side(*sides[side], workload, args)
                pairs.append(pair)
                log(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)")
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    better, bounds = benchmark_spec()
    reports = {}
    for workload, pairs in runs.items():
        counts = {side: {"failed": sum(p[side]["failed"] for p in pairs if p[side]),
                         "attempted": sum(p[side]["attempted"] for p in pairs if p[side]),
                         "runs_without_result": sum(1 for p in pairs if not p[side])}
                  for side in ("parent", "change")}
        reports[workload] = {"parent": rev, "workload": workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": int(args.trace),
                             "pairs": args.pairs, "requests": counts,
                             "metrics": summarize(pairs, better), "runs": pairs}
    found = [r for w, rep in reports.items() for r in regressions(w, rep["metrics"], bounds)]
    summary = {"parent": rev, "seed": args.seed, "seconds": args.seconds,
               "trace": int(args.trace), "pairs": args.pairs, "workloads": reports,
               "regressions": found}
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    if args.history:
        append_history(args.history, summary, args.pr, bounds)

    for report in reports.values():
        print_report(report, args)
    print(f"regressions beyond BENCHMARK.json bounds: {len(found)}")
    for r in found:
        print(f"  {r['workload']} {r['metric']}: {r['parent_median']:.6g} -> "
              f"{r['change_median']:.6g} (bound {r['bound']:g})")
    if any(rep["requests"][side]["runs_without_result"]
           for rep in reports.values() for side in ("parent", "change")):
        return 1
    return 2 if found else 0


if __name__ == "__main__":
    sys.exit(main())
