#!/usr/bin/env python3
"""Paired before/after runs of the repo benchmark (perfbench).

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N --out FILE
                                 [--seed S] [--seconds T] [--trace 0|1]
                                 [--work-dir DIR]

Extracts commit REV into a temporary directory (`git archive`, so nothing is
registered in the repository's .git) and runs the unchanged
`perfbench/run.py` of each side -- REV's tree and this working tree -- N
times, alternating which side runs first.  Each side builds into its own
CARGO_TARGET_DIR under the work directory, so neither build sees the other's
objects.  The first run of a side also builds its runner; the runner is timed
only after its build finishes.

Prints, per metric: each side's median and quartiles over its runs, the
number of pairs the change won (ties count for neither; direction from
BENCHMARK.json), whether the medians differ by more than the parent's
interquartile range, and each side's failed/attempted request counts.  FILE
receives the same summary plus every run's raw result line as JSON.

The claim rule it reports (`claim_holds`) is the paired protocol of
docs/BENCHMARKS.md: the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range.
Exits 1 if any run failed to produce a result line.
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


def run_side(tree, target_dir, args):
    """One perfbench/run.py call in tree; returns its result line or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log(f"{tree}: run.py exited {proc.returncode} without a result line")
        return None
    return json.loads(lines[-1])


def directions():
    """Metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON summary file")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--work-dir", help="keeps both builds here (default: a temp dir)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", args.parent + "^{commit}"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    work = os.path.abspath(args.work_dir) if args.work_dir else tempfile.mkdtemp(
        prefix="bench_pairs-")
    try:
        parent_tree = os.path.join(work, "parent-" + rev[:12])
        if not os.path.isdir(parent_tree):
            extract(rev, parent_tree)
        sides = {"parent": (parent_tree, os.path.join(work, "target-parent")),
                 "change": (ROOT, os.path.join(work, "target-change"))}
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(*sides[side], args)
            pairs.append(pair)
            log(f"pair {i + 1}/{args.pairs} done ({order[0]} first)")
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    counts = {side: {"failed": sum(p[side]["failed"] for p in pairs if p[side]),
                     "attempted": sum(p[side]["attempted"] for p in pairs if p[side]),
                     "runs_without_result": sum(1 for p in pairs if not p[side])}
              for side in ("parent", "change")}
    report = {"parent": rev, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace), "pairs": args.pairs,
              "requests": counts, "metrics": summarize(pairs, directions()), "runs": pairs}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    print(f"{args.workload}: {args.pairs} pairs vs {rev[:12]}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for side in ("parent", "change"):
        c = counts[side]
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
    return 1 if any(c["runs_without_result"] for c in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
