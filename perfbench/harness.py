"""One benchmark run of one workload, in-process: synth.generate ->
dataio.prepare -> trainer.train -> trainer.evaluate -> checkpoint
round-trip, with the correctness checks that every run makes.

`measure` times the end-to-end metrics with tracing off; `trace` runs the
same pipeline under the Tracer and reports per-layer metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

from evacnet import dataio, dmf, rlagent, synth, trainer
from clock import Clock
from tracing import Tracer


class Ops:
    """Operations attempted and failed. An operation is a training step,
    an evaluate call, a checkpoint round-trip or a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def config_for(workload, seed):
    # hidden size and batch are pinned, not left to TrainConfig's defaults
    return trainer.TrainConfig(variant=workload.variant,
                               epochs=workload.epochs, seed=seed,
                               hidden=32, batch_size=8)


def set_up(meta, records, cfg):
    """Everything a training run builds before its first step. Returns the
    dataset and the initial parameters `trainer.train` starts from."""
    ds = dataio.prepare(meta, records, l=cfg.l, p=cfg.p)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, cfg.hidden, cfg.p,
                                    modalities=cfg.modalities(),
                                    seed=cfg.seed + 1)
    if cfg.uses_rl():
        rlagent.Agent(ds.f_t + ds.f_s, seed=cfg.seed + 2,
                      gamma=cfg.rl_gamma, capacity=cfg.rl_buffer,
                      batch_size=cfg.rl_batch,
                      sync_every=cfg.rl_sync_every, lr=cfg.rl_lr)
    return ds, params


def data_counts(ds):
    """Exact input sizes; they depend only on the workload and seed."""
    windows = ds.train_windows + ds.val_windows
    nodes = [len(w.det_indices) for w in windows]
    return {
        "dataio.train_windows": len(ds.train_windows),
        "dataio.val_windows": len(ds.val_windows),
        "dataio.pred_nodes_mean": sum(nodes) / len(nodes),
        "dataio.pred_nodes_max": max(nodes),
        "dataio.extras_per_step_max": max(len(e) for w in windows
                                          for e in w.extra_temporal),
    }


def train_timed(cfg, ds, ops, clock=None, kind="epoch"):
    """Run trainer.train and check its losses. With a clock, every epoch is
    one sample of `kind`, which includes the validation pass train() makes
    after the epoch."""
    epochs = 0

    def on_epoch(log):
        nonlocal epochs
        epochs += 1
        if clock:
            clock.end(kind)
            clock.begin()

    steps_per_epoch = math.ceil(len(ds.train_windows) / cfg.batch_size)
    if clock:
        clock.begin()
    try:
        result = trainer.train(cfg, ds, log_fn=on_epoch)
    except trainer.TrainingDiverged as exc:
        ops.attempted += epochs * steps_per_epoch + 1
        ops.failed += 1
        ops.failures.append(f"training diverged: {exc}")
        return None
    ops.attempted += steps_per_epoch * len(result.epoch_logs)
    ops.check(all(math.isfinite(log.train_loss)
                  for log in result.epoch_logs), "non-finite training loss")
    ops.check(len(result.epoch_logs) == cfg.epochs,
              "training stopped before the fixed epoch count")
    return result


def evaluate(params, windows, ds, ops, static_full=None):
    ops.attempted += 1
    return trainer.evaluate(params, windows, ds, static_full)


def check_table(table, windows, p, ops, label):
    """p horizons plus overall; n counts every predicted node per horizon."""
    nodes = sum(len(w.det_indices) for w in windows)
    keys_ok = ops.check(
        set(table) == set(range(1, p + 1)) | {"overall"},
        f"{label}: table keys are not horizons 1..{p} plus overall")
    ops.check(keys_ok and all(table[h].n == nodes for h in range(1, p + 1))
              and table["overall"].n == nodes * p,
              f"{label}: table n does not match the windows' node count")


def check_ranking(result, ds, ops):
    if not result.config.uses_rl():
        return
    rows = result.ranking_rows or []
    ops.check(sorted(name for _, name, _, _ in rows) == sorted(ds.registry)
              and [rank for rank, _, _, _ in rows]
              == list(range(1, len(ds.registry) + 1)),
              "ranking rows are not a permutation of the feature registry")


def round_trip(result, ds, windows, table, path, ops):
    """save -> load -> evaluate must give a bit-identical table. Returns
    the checkpoint bytes, or None when the round-trip failed."""
    ops.attempted += 1
    try:
        trainer.save_checkpoint(result, ds, path)
        payload, _, params = trainer.load_checkpoint(path)
        trainer.check_registry(payload, ds)
    except (OSError, ValueError) as exc:
        ops.failed += 1
        ops.failures.append(f"checkpoint round-trip: {exc}")
        return None
    loaded = evaluate(params, windows, ds, ops, payload["static_adj_full"])
    ops.check(loaded == table,
              "checkpoint round-trip changed the evaluate table")
    return path.read_bytes()


def val_rmse(params, ds, ops, static_full=None):
    return evaluate(params, ds.val_windows, ds, ops,
                    static_full)["overall"].rmse


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, work_dir):
    """Tracing off. Returns (metrics, details, ops): metrics maps each
    end-to-end metric to (value, unit), details holds exact counts and
    the validation RMSE."""
    ops = Ops()
    cfg = config_for(workload, seed)
    meta, records, _ = synth.generate(workload.scenario(seed),
                                      work_dir / "corpus")

    # Set-up is timed first; then training and evaluation take turns until
    # `seconds` have passed. Every repeat starts from the same corpus and
    # seed, so each must give the same dataset, parameters and table.
    clock = Clock()
    for _ in range(workload.setup_repeats):
        ds = None  # two datasets never coexist in memory
        clock.begin()
        ds, init_params = set_up(meta, records, cfg)
        clock.end("setup")
    windows = ds.train_windows + ds.val_windows

    result = table = None
    started = time.perf_counter()
    while result is None or time.perf_counter() - started < seconds:
        again = train_timed(cfg, ds, ops, clock)
        if again is None:
            return None, data_counts(ds), ops
        if result is None:
            result = again
            static = result.static_adj_full
        else:
            ops.check(again.epoch_logs[-1].val_rmse
                      == result.epoch_logs[-1].val_rmse,
                      "repeated training differs")
        for _ in range(workload.eval_repeats):
            clock.begin()
            again = evaluate(result.params, windows, ds, ops, static)
            clock.end("eval")
            if table is None:
                table = again
                check_table(table, windows, cfg.p, ops, "evaluate")
            else:
                ops.check(again == table, "repeated evaluate differs")

    # On the validation hours alone the untrained parameters (which predict
    # about each detector's training mean) often score better after so few
    # epochs, so training is checked on every window (README.md).
    untrained = evaluate(init_params, windows, ds, ops, static)
    ops.check(table["overall"].rmse < untrained["overall"].rmse,
              "trained RMSE is not below the untrained parameters'")
    trained = val_rmse(result.params, ds, ops, static)
    ops.check(trained == result.epoch_logs[-1].val_rmse,
              "val_rmse differs from the last epoch's validation pass")
    check_ranking(result, ds, ops)
    round_trip(result, ds, windows, table, work_dir / "model.ckpt", ops)

    def median(kind, scaled=True):
        return statistics.median((clock.scaled if scaled else clock.raw)[kind])

    n_train = len(ds.train_windows)
    metrics = {
        "setup_s": (median("setup"), "s"),
        "train_windows_per_s": (n_train / median("epoch"), "windows/s"),
        "eval_windows_per_s": (len(windows) / median("eval"), "windows/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    # val_rmse is exact per seed but spreads widely across seeds, so it is
    # reported and checked here rather than gated as a metric (README.md)
    details = data_counts(ds)
    details.update({
        "val_rmse": trained,
        "val_rmse_untrained": val_rmse(init_params, ds, ops, static),
        "rmse": table["overall"].rmse,
        "rmse_untrained": untrained["overall"].rmse,
        "raw_setup_s": median("setup", scaled=False),
        "raw_train_windows_per_s": n_train / median("epoch", scaled=False),
        "raw_eval_windows_per_s": len(windows) / median("eval",
                                                        scaled=False),
        "kernel_median_s": statistics.median(clock.kernel),
        "samples": {"kernel_s": clock.kernel,
                    **{kind: {"raw_s": clock.raw[kind],
                              "scaled_s": clock.scaled[kind]}
                       for kind in clock.raw}},
    })
    return metrics, details, ops


def trace(workload, seed, work_dir, spans_path):
    """Tracing on for generate, one set-up, one training, one evaluate and
    one checkpoint round-trip; untraced trainings beside them give the
    tracing overhead and the read-only check."""
    ops = Ops()
    cfg = config_for(workload, seed)
    tracer = Tracer()
    with tracer:
        meta, records, _ = synth.generate(workload.scenario(seed),
                                          work_dir / "corpus")
        ds, _ = set_up(meta, records, cfg)
    windows = ds.train_windows + ds.val_windows

    # Untraced and traced trainings alternate, two of each, and their epochs
    # are compared. Only the first traced training feeds the layer metrics.
    clock = Clock()
    plain = train_timed(cfg, ds, ops, clock, "plain")
    if plain is None:
        return None, data_counts(ds), ops
    plain_bytes = round_trip(
        plain, ds, windows, evaluate(plain.params, windows, ds, ops,
                                     plain.static_adj_full),
        work_dir / "plain.ckpt", ops)
    with tracer:
        result = train_timed(cfg, ds, ops, clock, "traced")
        if result is None:
            return None, data_counts(ds), ops
        table = evaluate(result.params, windows, ds, ops,
                         result.static_adj_full)
        traced_bytes = round_trip(result, ds, windows, table,
                                  work_dir / "traced.ckpt", ops)
    tracer.write_spans(spans_path)
    train_timed(cfg, ds, ops, clock, "plain")
    with Tracer():
        train_timed(cfg, ds, ops, clock, "traced")

    check_table(table, windows, cfg.p, ops, "traced evaluate")
    check_ranking(result, ds, ops)
    ops.check(result.epoch_logs[-1].val_rmse
              == plain.epoch_logs[-1].val_rmse,
              "tracing changed val_rmse")
    ops.check(traced_bytes is not None and traced_bytes == plain_bytes,
              "tracing changed the checkpoint bytes")

    n_train = len(ds.train_windows)
    plain_wps = n_train / statistics.median(clock.scaled["plain"])
    traced_wps = n_train / statistics.median(clock.scaled["traced"])
    metrics = layer_metrics(tracer)
    metrics["trace.train_windows_per_s_delta"] = (traced_wps - plain_wps,
                                                  "windows/s")
    metrics["trace.overhead_share"] = (1.0 - traced_wps / plain_wps,
                                       "share")
    details = data_counts(ds)
    for name, value in details.items():
        metrics[name] = (value, "count")
    return metrics, details, ops


def layer_metrics(tracer):
    totals = tracer.totals()
    counts = tracer.counts

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    def ratio(a, b):
        return counts[a] / counts[b] if counts[b] else 0.0

    metrics = {}
    for name, field, unit in (
            ("synth.generate", "s", "s"),
            ("dataio.load_csv", "s", "s"),
            ("dataio.engineer_features", "s", "s"),
            ("dataio.make_windows", "s", "s"),
            ("graphs.build_snapshot", "calls", "count"),
            ("graphs.build_snapshot", "s", "s"),
            ("dmf.forward", "calls", "count"),
            ("dmf.forward", "self_s", "s"),
            ("dmf.gcn_layer", "s", "s"),
            ("dmf.attention_fuse", "s", "s"),
            ("dmf.lstm_step", "s", "s"),
            ("dmf.predict_head", "s", "s"),
            ("numcore.backward", "calls", "count"),
            ("numcore.backward", "s", "s"),
            ("numcore.Adam.step", "s", "s"),
            ("rlagent.Agent.learn", "calls", "count"),
            ("rlagent.Agent.learn", "s", "s"),
            ("rlagent.ddqn_target", "calls", "count"),
            ("rlagent.ReplayBuffer.sample", "s", "s"),
            ("rlagent.Agent.act", "s", "s"),
            ("rlagent.Agent.observe", "s", "s"),
            ("trainer.train", "self_s", "s"),
            ("trainer.evaluate", "calls", "count"),
            ("trainer.evaluate", "s", "s"),
            ("trainer.save_checkpoint", "s", "s"),
            ("trainer.load_checkpoint", "s", "s"),
            ("trace.count_nodes", "s", "s")):
        metrics[f"{name}.{field}"] = (get(name, field), unit)
    metrics["graphs.snapshot_bytes"] = (counts["snapshot_bytes"], "bytes")
    metrics["numcore.graph_nodes_per_step"] = (
        ratio("forecaster_graph_nodes", "forecaster_backward"), "nodes")
    metrics["rlagent.graph_nodes_per_update"] = (
        ratio("agent_graph_nodes", "agent_backward"), "nodes")
    metrics["rlagent.buffer_len"] = (counts["buffer_len"], "count")
    metrics["trainer.checkpoint_bytes"] = (counts["checkpoint_bytes"],
                                           "bytes")
    return metrics
