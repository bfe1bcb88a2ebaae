#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised into
BENCH_<workload>.json at the checkout root.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload corridors100_rl_dmf

The change is this working tree, uncommitted edits included. The parent
is `--parent` checked out in a `git worktree` under a temporary directory
and removed afterwards. Pair k runs `perfbench/run.py --workload W --seed S` once on each side,
the parent first in odd pairs and the change first in even ones, so a
slow drift of the machine falls on both sides alike. A run's last line of
standard output is the benchmark's JSON record.

The file holds, per side, the revision, the line count of
`src/evacnet/*.py`, the seed, every sample and the median and quartiles
(`statistics.quantiles(n=4)`) of each end-to-end metric that
BENCHMARK.json declares, with every run's `ops_failed`, `val_rmse` and
`rmse`; per metric, the pairs the change won and the change's median
minus the parent's beside the parent's Q3 - Q1; and, for `val_rmse` and
`rmse`, whether every change run equals every parent run and the largest
relative difference between a change run and a parent run. A run
that exits non-zero (a failed check or operation) stops the series with
exit code 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAILS = ("val_rmse", "rmse")  # outputs that must not move


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(checkout):
    """(commit, whether tracked files differ from it) of a checkout."""
    return (git("rev-parse", "HEAD", cwd=checkout),
            bool(git("status", "--porcelain", "--untracked-files=no",
                     cwd=checkout)))


def run_once(checkout, args):
    """One passing benchmark run: (JSON record, details); RuntimeError
    for a run that exits non-zero."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{checkout}: exit {out.returncode}\n"
                           f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    details = {}
    for line in lines:
        key, sep, value = line.removeprefix("detail ").partition(" = ")
        if line.startswith("detail ") and sep and key in DETAILS:
            details[key] = float(value)
        elif line.startswith("env "):
            details["source_sha256"] = json.loads(line[4:])["source_sha256"]
    return record, details


def src_lines(checkout):
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (checkout / "src" / "evacnet").glob("*.py"))


def outputs_match(parent, change):
    """Whether every change value equals every parent value, and the largest
    |change - parent| / |parent| over all pairs of them."""
    diffs = [abs(c - p) / abs(p) for p in parent for c in change]
    return {"equal": all(c == p for p in parent for c in change),
            "max_rel_diff": max(diffs)}


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def series(parent_dir, args, metrics):
    sides = {"parent": parent_dir, "change": ROOT}
    runs = {side: [] for side in sides}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            record, details = run_once(sides[side], args)
            runs[side].append((record, details))
            print(f"pair {k} {side}: " + " ".join(
                f"{m}={record['metrics'][m]['value']:.6g}" for m in metrics),
                flush=True)

    out = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
           "order": "odd pairs run the parent first, even pairs the change"}
    for side, checkout in sides.items():
        commit, dirty = revision(checkout)
        samples = {m: [r["metrics"][m]["value"] for r, _ in runs[side]]
                   for m in metrics}
        out[side] = {
            "revision": commit, "uncommitted_changes": dirty,
            "src_lines": src_lines(checkout),
            "source_sha256": sorted({d.get("source_sha256")
                                     for _, d in runs[side]}, key=str),
            "seed": args.seed,
            "samples": samples,
            "summary": {m: summary(v) for m, v in samples.items()},
            "ops_failed": [r["failed"] for r, _ in runs[side]],
            "ops_attempted": [r["attempted"] for r, _ in runs[side]],
            **{name: [d.get(name) for _, d in runs[side]]
               for name in DETAILS},
        }
    out["outputs_match"] = {
        name: outputs_match(out["parent"][name], out["change"][name])
        for name in DETAILS}
    out["change_vs_parent"] = {}
    for m, better in metrics.items():
        sign = -1 if better == "lower" else 1
        p, c = out["parent"]["samples"][m], out["change"]["samples"][m]
        ps, cs = out["parent"]["summary"][m], out["change"]["summary"][m]
        out["change_vs_parent"][m] = {
            "better": better,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "median_delta": cs["median"] - ps["median"],
            "parent_iqr": ps["q3"] - ps["q1"],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one workload of BENCHMARK.json")
    parser.add_argument("--parent", required=True,
                        help="parent revision, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), commit)
        try:
            out = series(tree, args, metrics)
        finally:
            git("worktree", "remove", "--force", str(tree))
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for m, row in out["change_vs_parent"].items():
        print(f"{m}: parent {out['parent']['summary'][m]['median']:.6g} -> "
              f"change {out['change']['summary'][m]['median']:.6g}, change "
              f"better in {row['wins']}/{args.pairs} pairs, median delta "
              f"{row['median_delta']:.4g} vs parent IQR "
              f"{row['parent_iqr']:.4g}")
    for name, row in out["outputs_match"].items():
        print(f"{name}: every change run equals every parent run: "
              f"{row['equal']}, largest relative difference "
              f"{row['max_rel_diff']:.3g}")
    print(f"src/evacnet lines: parent {out['parent']['src_lines']} -> "
          f"change {out['change']['src_lines']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        sys.exit(1)
