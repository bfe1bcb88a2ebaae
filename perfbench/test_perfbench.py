"""Tests of the benchmark itself: its correctness checks, its tracer and
its command. Run with `python -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from evacnet import dmf, numcore, synth, trainer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(seed):
    return dataclasses.replace(synth.builtin_scenarios()["S1"], seed=seed,
                               horizon_hours=150, order_hour=60,
                               landfall_hour=130)


TINY = Workload(name="tiny", scenario=_tiny, variant="rl_dmf",
                epochs=2, eval_repeats=2, setup_repeats=2)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    meta, records, _ = synth.generate(_tiny(3), work)
    ds, _ = harness.set_up(meta, records, harness.config_for(TINY, 3))
    return ds


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"]
                                       for w in BENCHMARK["workloads"])


def test_measure_reports_every_end_to_end_metric(tmp_path):
    metrics, details, ops = harness.measure(TINY, 3, 0.1, tmp_path)
    assert ops.failures == []
    assert sorted(metrics) == sorted(m["name"]
                                     for m in BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())
    # seconds=0.1 allows one cycle: two set-ups, two epochs, two evaluates
    assert [len(details["samples"][kind]["raw_s"])
            for kind in ("setup", "epoch", "eval")] == [2, 2, 2]


def test_trace_reports_every_layer_metric_and_is_read_only(tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TRACED]
    metrics, _, ops = harness.trace(TINY, 3, tmp_path,
                                    tmp_path / "spans.jsonl")
    # the read-only checks (same val_rmse, same checkpoint bytes) are ops
    assert ops.failures == []
    assert sorted(metrics) == sorted(m["name"]
                                     for m in BENCHMARK["per_layer"])
    assert [getattr(owner, attr)
            for owner, attr, _ in tracing.TRACED] == originals
    spans = [json.loads(line)
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    steps = {s["step"] for s in spans if s["name"] == "dmf.forward"}
    assert None in steps and max(s for s in steps if s is not None) > 1


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                    ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    totals = tracer.totals()
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert totals["c"]["self_s"] == 1.0


def test_count_graph_nodes_counts_each_tensor_once():
    a = numcore.Tensor([1.0, 2.0], requires_grad=True)
    loss = (a * a).sum()
    assert tracing.count_graph_nodes(loss) == 3


def test_table_check_catches_wrong_node_count(tiny_dataset):
    ds = tiny_dataset
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 8, 6, seed=0)
    table = trainer.evaluate(params, ds.val_windows, ds)
    ops = harness.Ops()
    harness.check_table(table, ds.val_windows, 6, ops, "ok")
    assert ops.failed == 0
    harness.check_table(table, ds.val_windows[1:], 6, ops, "short")
    harness.check_table({k: v for k, v in table.items() if k != 6},
                        ds.val_windows, 6, ops, "missing horizon")
    assert ops.failed == 3 and ops.attempted == 6


def test_ranking_check_catches_a_non_permutation(tiny_dataset):
    ds = tiny_dataset
    rows = [(k + 1, name, 0, 0.0) for k, name in enumerate(ds.registry)]
    good = trainer.TrainResult(params=None,
                               config=harness.config_for(TINY, 3),
                               epoch_logs=[], agent=None, ranking_rows=rows)
    bad = dataclasses.replace(good, ranking_rows=rows[:-1] + [rows[0]])
    ops = harness.Ops()
    harness.check_ranking(good, ds, ops)
    harness.check_ranking(bad, ds, ops)
    assert ops.attempted == 2 and ops.failed == 1


def test_failed_round_trip_is_a_failed_operation(tiny_dataset, tmp_path):
    ds = tiny_dataset
    result = trainer.train(harness.config_for(TINY, 3), ds)
    ops = harness.Ops()
    assert harness.round_trip(result, ds, ds.val_windows, {}, tmp_path
                              / "missing" / "model.ckpt", ops) is None
    assert ops.attempted == 1 and ops.failed == 1


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         BENCHMARK["workloads"][0]["name"], "--seed", "1", "--seconds",
         "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
