"""The README's two end-to-end scripts run to completion and write their
tables."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evacnet.trainer import ABLATION_VARIANTS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "EVACNET_THREADS": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           "--epochs", "1", "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("name, tables", [
    ("train_forecaster.py", ("train/metrics.csv", "train/ranking.csv")),
    ("run_ablation.py", ("ablation.csv",)),
], ids=["train_forecaster", "run_ablation"])
def test_script_writes_its_tables(name, tables, tmp_path):
    out = tmp_path / "run"
    done = run_script(name, out)
    assert done.returncode == 0, done.stderr[-2000:]
    for table in tables:
        assert (out / table).is_file(), table
    if name == "run_ablation.py":
        with open(out / "ablation.csv", newline="", encoding="utf-8") as fh:
            variants = {row["variant"] for row in csv.DictReader(fh)}
        assert variants == set(ABLATION_VARIANTS)
