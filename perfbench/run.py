"""evacnet benchmark: runs one workload in-process and prints its metrics.

    python3 perfbench/run.py --workload s1_rl_dmf --seed 1 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer ones. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every correctness check passed. `--workload all` runs every
workload, one fresh process each, one after another.

Run records (and, when traced, the spans) go to `.perfbench_runs/` at the
checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

# Pin BLAS/OpenMP to one thread before anything imports numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names):
    failed = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        if subprocess.run(cmd).returncode != 0:
            failed.append(name)
    print("all workloads passed" if not failed
          else f"failed: {', '.join(failed)}", flush=True)
    return 1 if failed else 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "evacnet" / "__init__.py").is_file():
        print(f"evacnet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected all or one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace))


def git_revision():
    """HEAD of the checkout, or None when the checkout is no repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the library sources; identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "evacnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_seed": seed,
    }


def run_one(workload, seed, seconds, traced):
    import harness

    name = workload.name
    RUNS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        if traced:
            metrics, details, ops = harness.trace(
                workload, seed, Path(tmp), RUNS / f"{stem}-spans.jsonl")
        else:
            metrics, details, ops = harness.measure(workload, seed, seconds,
                                                   Path(tmp))

    env = environment(seed)
    record = {"workload": name, "traced": traced, "env": env,
              "details": details, "ops_attempted": ops.attempted,
              "ops_failed": ops.failed, "failures": ops.failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in (metrics or {}).items()}}
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")

    print(f"workload {name}  seed {seed}  traced {int(traced)}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in details.items():
        if key != "samples":  # every timed sample; kept in the record only
            print(f"detail {key} = {value}")
    for key, (value, unit) in (metrics or {}).items():
        print(f"metric {key} = {value:.6g} {unit}")
    print(f"metric ops_failed = {ops.failed}/{ops.attempted} "
          f"= {ops.failed / max(1, ops.attempted):.6g} share")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    correct = metrics is not None and ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
