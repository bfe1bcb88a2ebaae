#!/usr/bin/env python3
"""Byte comparison of the program's outputs at a parent revision and in
this working tree.

    python3 scripts/outputs_diff.py --parent HEAD~1

The change is this working tree, uncommitted edits included. The parent
is `--parent` checked out in a `git worktree` under a temporary directory
and removed afterwards. On each tree, with that tree's own `src`, it runs
`evacnet generate` for each built-in scenario of SCENARIOS, then for each
model variant `evacnet train` (EPOCHS epochs) and `evacnet evaluate` on
the checkpoint it wrote, for each RL variant `evacnet rank-features`, and
then `evacnet ablate` (EPOCHS epochs per ablation variant). It also
generates, and runs nothing on, the built-in scenarios of CORPUS_ONLY and
the scenario of each benchmark workload (as the tree's
`perfbench/workloads.py` builds it) at each of BENCH_SEEDS. It then
compares generate's `meta.csv`, `records.csv`, `scenario.json` and
`manifest.json` (which holds the notes), train's `model.ckpt`,
`epochs.csv`, `metrics.csv` and `ranking.csv`, evaluate's `metrics.csv`,
rank-features' `ranking.csv` and ablate's `ablation.csv` byte for byte
(so a moved corpus is told from a moved model). An `epochs.csv` is
compared with its `wall_time` column cut from each line, as that clock
differs from run to run. It prints one line per file and exits 0 when
every file is identical, 1 otherwise. For a
`metrics.csv` or `ablation.csv` that differs, the line also says how far
it moved: the largest relative difference over the numeric fields the
two files hold at the same row and column. A `ranking.csv` that differs
is joined on `feature_name`, as its rows are ranks: the line gives the
largest |Δ rank| and the largest relative difference of a feature's
`mask_count`. BLAS runs
on one thread (`EVACNET_THREADS=1`) unless the environment sets it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from evacnet.trainer import VARIANTS, TrainConfig  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SCENARIOS = ("S1", "S2")
CORPUS_ONLY = ("S3",)  # built-in scenarios that are only generated
BENCH_SEEDS = (1, 2)  # the benchmark workloads' seeds that are generated
EPOCHS = 3
# generate's compared files; its manifest holds the notes
CORPUS = ("meta.csv", "records.csv", "scenario.json", "manifest.json")
# command -> the files of its output directory that are compared
COMPARED = {"train": ("model.ckpt", "epochs.csv", "metrics.csv",
                      "ranking.csv"),
            "evaluate": ("metrics.csv",),
            "rank-features": ("ranking.csv",)}
# the tables whose numeric fields a differing file is measured on, row
# by row; a ranking is measured feature by feature
MEASURED = ("metrics.csv", "ablation.csv")
RANKING = "ranking.csv"
# the table compared without its one clock column
EPOCHS_CSV, CLOCK = "epochs.csv", b"wall_time"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


# Run in a tree: each benchmark workload's scenario at each seed after
# argv[1], as JSON, to argv[1]/<workload>-seed<seed>.json.
WRITE_BENCH_SCENARIOS = """
import json, sys
from dataclasses import asdict
from perfbench.workloads import WORKLOADS
for w in WORKLOADS.values():
    for seed in sys.argv[2:]:
        with open(f"{sys.argv[1]}/{w.name}-seed{seed}.json", "w") as fh:
            json.dump(asdict(w.scenario(int(seed))), fh)
"""


def python(tree, name, *args):
    """`python *args` run in `tree` with its sources; RuntimeError, naming
    the run `name`, when it exits non-zero."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.setdefault("EVACNET_THREADS", "1")
    out = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{tree}: {name}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")


def evacnet(tree, *args):
    """One `evacnet` command run with `tree`'s sources."""
    python(tree, f"evacnet {' '.join(args)}", "-m", "evacnet.cli", *args,
           "--log-level", "WARNING")


def write_config(base, **fields):
    """`base`/config.json holding `fields`, `base` made; returns its path."""
    base.mkdir(parents=True)
    config = base / "config.json"
    config.write_text(json.dumps(fields), encoding="utf-8")
    return config


def run_tree(tree, out):
    """Every command of the comparison on `tree`, into `out`: one
    directory per scenario, variant and command, one per scenario for
    ablate, and one per corpus that is only generated."""
    for scenario in SCENARIOS:
        data = out / scenario / "data"
        evacnet(tree, "generate", "--scenario", scenario, "--out", str(data))
        for variant in VARIANTS:
            base = out / scenario / variant
            config = write_config(base, variant=variant, epochs=EPOCHS)
            ckpt = str(base / "train" / "model.ckpt")
            evacnet(tree, "train", "--data", str(data), "--config",
                    str(config), "--out", str(base / "train"))
            evacnet(tree, "evaluate", "--checkpoint", ckpt, "--data",
                    str(data), "--out", str(base / "evaluate"))
            if TrainConfig(variant=variant).uses_rl():
                evacnet(tree, "rank-features", "--checkpoint", ckpt, "--out",
                        str(base / "rank-features"))
        base = out / scenario / "ablate"
        config = write_config(base, epochs=EPOCHS)
        evacnet(tree, "ablate", "--data", str(data), "--config", str(config),
                "--out", str(base))
    for scenario in CORPUS_ONLY:
        evacnet(tree, "generate", "--scenario", scenario, "--out",
                str(out / scenario / "data"))
    bench = out / "bench"
    bench.mkdir()
    python(tree, "perfbench/workloads.py scenarios", "-c",
           WRITE_BENCH_SCENARIOS, str(bench), *map(str, BENCH_SEEDS))
    for path in sorted(bench.glob("*.json")):
        evacnet(tree, "generate", "--scenario", str(path), "--out",
                str(bench / path.stem))


def expected_files():
    """The compared files' paths relative to a tree's output directory."""
    files = []
    for scenario in SCENARIOS:
        files += [f"{scenario}/data/{name}" for name in CORPUS]
        for variant in VARIANTS:
            rl = TrainConfig(variant=variant).uses_rl()
            # only an RL variant writes a ranking
            files += [f"{scenario}/{variant}/{command}/{name}"
                      for command, names in COMPARED.items()
                      for name in names if rl or name != "ranking.csv"]
        files.append(f"{scenario}/ablate/ablation.csv")
    files += [f"{scenario}/data/{name}" for scenario in CORPUS_ONLY
              for name in CORPUS]
    files += [f"bench/{workload}-seed{seed}/{name}" for workload in WORKLOADS
              for seed in BENCH_SEEDS for name in CORPUS]
    return files


def compared_bytes(path):
    """The bytes of `path` that are compared: all of them, except an
    EPOCHS_CSV table's CLOCK column, cut from each line."""
    data = path.read_bytes()
    if path.name != EPOCHS_CSV:
        return data
    lines = [line.split(b",") for line in data.split(b"\n")]
    if CLOCK not in lines[0]:
        return data
    k = lines[0].index(CLOCK)
    return b"\n".join(b",".join(fields[:k] + fields[k + 1:])
                      for fields in lines)


def compare(parent, change, files):
    """(file, verdict) per relative path: "identical", "differs", or
    "missing in parent" / "missing in change" / "missing in both"."""
    rows = []
    for rel in files:
        p, c = parent / rel, change / rel
        if not (p.is_file() and c.is_file()):
            side = ("both" if not (p.is_file() or c.is_file())
                    else "parent" if not p.is_file() else "change")
            rows.append((rel, f"missing in {side}"))
        else:
            rows.append((rel, "identical" if compared_bytes(p)
                         == compared_bytes(c) else "differs"))
    return rows


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def largest_rel_diff(parent, change):
    """The largest |c - p| / max(|p|, |c|) over the fields of the two CSV
    files that are numbers in both, row by row and column by column: 0 for
    equal numbers (nan included), inf where one side is nan. None when the
    files differ in their number of rows or a row in its number of
    fields."""
    rows = [path.read_text(encoding="utf-8").splitlines()
            for path in (parent, change)]
    if len(rows[0]) != len(rows[1]):
        return None
    largest = 0.0
    for p_row, c_row in zip(*rows):
        p_fields, c_fields = p_row.split(","), c_row.split(",")
        if len(p_fields) != len(c_fields):
            return None
        for p, c in zip(map(_number, p_fields), map(_number, c_fields)):
            if p is None or c is None or p == c or (p != p and c != c):
                continue
            diff = abs(c - p) / max(abs(p), abs(c))
            largest = max(largest, diff if diff == diff else math.inf)
    return largest


def ranking_diff(parent, change):
    """(largest |Δ rank|, largest |Δ mask_count| / max of the two counts,
    0 where both are 0) over the features of two `ranking.csv` files
    joined on `feature_name`. None when the files do not rank the same
    features (a file without a `feature_name` column ranks none)."""
    tables = []
    for path in (parent, change):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append({row.get("feature_name"): row
                           for row in csv.DictReader(fh)})
    p_rows, c_rows = tables
    if p_rows.keys() != c_rows.keys() or None in p_rows:
        return None
    rank, count = 0, 0.0
    for name, p in p_rows.items():
        c = c_rows[name]
        rank = max(rank, abs(int(c["rank"]) - int(p["rank"])))
        pc, cc = int(p["mask_count"]), int(c["mask_count"])
        if pc != cc:
            count = max(count, abs(cc - pc) / max(abs(pc), abs(cc)))
    return rank, count


def describe(parent, change, rows):
    """One line per (file, verdict) row of `compare`; a differing table of
    MEASURED also gets its largest relative difference, and a differing
    ranking its largest changes of rank and of mask count."""
    lines = []
    for rel, verdict in rows:
        line = f"{rel}: {verdict}"
        name = Path(rel).name
        if verdict == "differs" and name == RANKING:
            diff = ranking_diff(parent / rel, change / rel)
            line += (", rows or columns do not line up" if diff is None
                     else f", largest |rank change| {diff[0]}, largest "
                          f"relative mask_count difference {diff[1]:.3g}")
        elif verdict == "differs" and name in MEASURED:
            diff = largest_rel_diff(parent / rel, change / rel)
            line += (", rows or columns do not line up" if diff is None
                     else f", largest relative difference {diff:.3g}")
        lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="parent revision, e.g. HEAD~1")
    args = parser.parse_args(argv)
    commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = tmp / "parent"
        git("worktree", "add", "--detach", str(tree), commit)
        try:
            run_tree(tree, tmp / "out-parent")
        finally:
            git("worktree", "remove", "--force", str(tree))
        run_tree(ROOT, tmp / "out-change")
        rows = compare(tmp / "out-parent", tmp / "out-change",
                       expected_files())
        lines = describe(tmp / "out-parent", tmp / "out-change", rows)
    print("\n".join(lines))
    same = sum(verdict == "identical" for _, verdict in rows)
    print(f"{same} of {len(rows)} files identical (parent {commit[:12]} "
          f"against the working tree)")
    return 0 if same == len(rows) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"outputs_diff: {exc}", file=sys.stderr)
        sys.exit(1)
