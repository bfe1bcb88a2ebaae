import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import (dataio, dmf, graphs, numcore as nc, rlagent, synth,
                     trainer)
from evacnet.synth import Scenario
from evacnet.trainer import TrainConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    scen = Scenario(name="tiny", seed=7, horizon_hours=72,
                    corridors=[("I75", 4, 4.0)], order_hour=40,
                    landfall_hour=60, noise_std=10.0)
    meta, records, _ = synth.generate(scen, out)
    return dataio.prepare(meta, records, l=3, p=2)


def tiny_config(**kw):
    base = dict(variant="dmf_no_rl", epochs=3, batch_size=8, lr=5e-3,
                seed=0, l=3, p=2, hidden=8)
    base.update(kw)
    return TrainConfig(**base)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        TrainConfig(variant="transformer")


def test_negative_patience_rejected():
    assert TrainConfig(patience=0).patience == 0
    with pytest.raises(ValueError, match="patience must be >= 0"):
        TrainConfig(patience=-1)


def test_config_hash_stable_and_sensitive():
    a, b = tiny_config(), tiny_config()
    assert a.hash() == b.hash()
    assert a.hash() != tiny_config(lr=1e-3).hash()


def test_train_runs_and_logs(dataset):
    result = trainer.train(tiny_config(), dataset)
    assert len(result.epoch_logs) == 3
    assert all(np.isfinite(log.train_loss) for log in result.epoch_logs)
    assert result.ranking_rows is None  # no RL in this variant


def test_rl_variant_produces_ranking(dataset):
    result = trainer.train(tiny_config(variant="rl_dmf"), dataset)
    assert result.agent is not None
    rows = result.ranking_rows
    assert len(rows) == dataset.f_t + dataset.f_s
    assert sum(r[2] for r in rows) == result.agent.mask_counts.sum()
    assert all(log.epsilon is not None for log in result.epoch_logs)


def test_same_seed_deterministic(dataset):
    cfg = tiny_config(variant="rl_dmf", epochs=2)
    r1 = trainer.train(cfg, dataset)
    r2 = trainer.train(cfg, dataset)
    for k, t in r1.params.tensors.items():
        np.testing.assert_array_equal(t.data, r2.params.tensors[k].data)
    assert [l.train_loss for l in r1.epoch_logs] == \
        [l.train_loss for l in r2.epoch_logs]


def test_loss_decreases(dataset):
    result = trainer.train(tiny_config(epochs=15), dataset)
    assert result.epoch_logs[-1].train_loss < result.epoch_logs[0].train_loss


@pytest.mark.parametrize("variant", ["lstm_only", "static_gcn_lstm",
                                     "rl_dgl_distance", "rl_dgl_traveltime"])
def test_all_variants_train(dataset, variant):
    result = trainer.train(tiny_config(variant=variant, epochs=2), dataset)
    assert np.isfinite(result.epoch_logs[-1].train_loss)
    if variant == "static_gcn_lstm":
        assert result.static_adj_full is not None


def test_divergence_detected(dataset, monkeypatch):
    from evacnet.numcore import Tensor

    def nan_loss(predicted, windows):
        return Tensor(np.array(np.nan), requires_grad=True)

    monkeypatch.setattr(dmf, "mse_loss", nan_loss)
    with pytest.raises(trainer.TrainingDiverged, match="non-finite"):
        trainer.train(tiny_config(epochs=1), dataset)


def test_train_rmse_stop_short_circuits(dataset):
    result = trainer.train(tiny_config(epochs=50, train_rmse_stop=1e9),
                           dataset)
    assert len(result.epoch_logs) == 1


def test_patience_returns_best_validation_parameters(dataset):
    cfg = tiny_config(epochs=40, patience=2)
    result = trainer.train(cfg, dataset)
    val = [log.val_rmse for log in result.epoch_logs]
    best = int(np.argmin(val))
    # stopped patience + 1 epochs after the best, which was not the last
    assert len(val) < cfg.epochs
    assert len(val) - 1 - best == cfg.patience + 1
    assert val[-1] != val[best]
    table = trainer.evaluate(result.params, dataset.val_windows, dataset)
    assert table["overall"].rmse == val[best]


def test_evaluate_table_shape(dataset):
    result = trainer.train(tiny_config(), dataset)
    windows = dataset.val_windows or dataset.train_windows
    table = trainer.evaluate(result.params, windows, dataset)
    assert set(table) == {1, 2, "overall"}
    per_h = sum(table[h].n for h in (1, 2))
    assert table["overall"].n == per_h


def test_metrics_csv_layout(dataset, tmp_path):
    result = trainer.train(tiny_config(), dataset)
    windows = dataset.val_windows or dataset.train_windows
    table = trainer.evaluate(result.params, windows, dataset)
    path = tmp_path / "metrics.csv"
    trainer.write_metrics_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "horizon,RMSE,MAE,MAPE,R2"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "overall"]


def test_epochs_csv_layout(dataset, tmp_path):
    result = trainer.train(tiny_config(epochs=2), dataset)
    path = tmp_path / "epochs.csv"
    trainer.write_epochs_csv(result.epoch_logs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,train_loss,")
    assert len(lines) == 3


def test_checkpoint_roundtrip(dataset, tmp_path):
    cfg = tiny_config(variant="rl_dmf", epochs=2)
    result = trainer.train(cfg, dataset)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(result, dataset, path)
    payload, loaded_cfg, params = trainer.load_checkpoint(path)
    assert loaded_cfg == cfg
    for k, t in result.params.tensors.items():
        np.testing.assert_array_equal(t.data, params.tensors[k].data)
    trainer.check_registry(payload, dataset)  # must not raise
    windows = dataset.val_windows or dataset.train_windows
    t1 = trainer.evaluate(result.params, windows, dataset)
    t2 = trainer.evaluate(params, windows, dataset)
    assert t1["overall"].rmse == t2["overall"].rmse


def test_loaded_checkpoint_parameters_are_views_of_flat(dataset, tmp_path):
    result = trainer.train(tiny_config(epochs=1), dataset)
    trainer.save_checkpoint(result, dataset, tmp_path / "m")
    _, _, params = trainer.load_checkpoint(tmp_path / "m")
    for k, t in params.tensors.items():
        assert np.shares_memory(t.data, params.flat)
        np.testing.assert_array_equal(t.data, result.params.tensors[k].data)


def test_checkpoint_bytes_deterministic(dataset, tmp_path):
    cfg = tiny_config(variant="rl_dmf", epochs=2)
    for name in ("a", "b"):
        trainer.save_checkpoint(trainer.train(cfg, dataset), dataset,
                                tmp_path / name)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_checkpoint_registry_mismatch(dataset, tmp_path):
    result = trainer.train(tiny_config(epochs=1), dataset)
    trainer.save_checkpoint(result, dataset, tmp_path / "c")
    payload, _, _ = trainer.load_checkpoint(tmp_path / "c")
    payload["registry"] = ["bogus"]
    with pytest.raises(ValueError, match="registry"):
        trainer.check_registry(payload, dataset)


def test_checkpoint_version_gate(dataset, tmp_path):
    import pickle
    with open(tmp_path / "bad", "wb") as fh:
        pickle.dump({"version": 99}, fh)
    with pytest.raises(ValueError, match="version"):
        trainer.load_checkpoint(tmp_path / "bad")


def test_ablate_runs_all_variants(dataset, tmp_path):
    tables, failures = trainer.ablate(tiny_config(epochs=1), dataset)
    assert failures == {}
    assert set(tables) == set(trainer.ABLATION_VARIANTS)
    path = tmp_path / "ablation.csv"
    trainer.write_ablation_csv(tables, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "variant,horizon,RMSE,MAE,MAPE,R2"
    assert len(lines) == 1 + 4 * 3  # 4 variants x (2 horizons + overall)


def test_ablate_isolates_failures(dataset, monkeypatch):
    real_train = trainer.train

    def sabotage(cfg, ds, log_fn=None):
        if cfg.variant == "rl_dgl_traveltime":
            raise RuntimeError("boom")
        return real_train(cfg, ds, log_fn=log_fn)

    monkeypatch.setattr(trainer, "train", sabotage)
    tables, failures = trainer.ablate(tiny_config(epochs=1), dataset)
    assert "rl_dgl_traveltime" in failures
    assert "boom" in failures["rl_dgl_traveltime"]
    assert set(tables) == set(trainer.ABLATION_VARIANTS) - {
        "rl_dgl_traveltime"}


def test_static_variant_frozen_adjacency(dataset):
    full = trainer._static_distance_adj(dataset)
    n = len(dataset.data.detector_ids)
    assert full.shape == (n, n)
    np.testing.assert_array_equal(full, full.T)
    # a window over all detectors, and one over three of them, so that
    # the block is a proper, non-leading sub-matrix of the frozen graph
    w = dataset.train_windows[0]
    sub = dataclasses.replace(w, det_indices=np.array([0, 2, 3]))
    rows = trainer._static_rows(full, [w, sub])
    for window, got in zip([w, sub], rows):
        det = window.det_indices
        adj = graphs.gcn_normalize(full[np.ix_(det, det)])
        assert adj.shape == (len(det), len(det))
        np.testing.assert_allclose(adj, adj.T, atol=1e-12)
        x = dataio.gather_inputs([window], ("identity",))[:, 0]
        assert got.shape == (w.l, len(det), dataset.f_t + dataset.f_s)
        np.testing.assert_array_equal(got, adj @ x)


@pytest.fixture(scope="module")
def builtin(tmp_path_factory):
    def prepare(name):
        out = tmp_path_factory.mktemp(name)
        meta, records, _ = synth.generate(synth.builtin_scenarios()[name],
                                          out)
        return dataio.prepare(meta, records, l=6, p=6)
    return {name: prepare(name) for name in ("S1", "S2")}


def _loss_and_grads(batch, params, mask, static_full):
    for t in params.trainable():
        t.zero_grad()
    predicted, _ = dmf.forward(batch, params, mask=mask,
                               static_rows=trainer._static_rows(static_full,
                                                                batch))
    loss = dmf.mse_loss(predicted, batch)
    loss.backward()
    return loss.item(), {k: t.grad.copy() for k, t in params.tensors.items()}


def _assert_batch_is_mean_of_singles(ds, batch, modalities, mask=None,
                                     static_full=None):
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 16, ds.p,
                                    modalities=modalities, seed=3)
    loss, grads = _loss_and_grads(batch, params, mask, static_full)
    singles = [_loss_and_grads([w], params, mask, static_full)
               for w in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) < 1e-12
    for name, grad in grads.items():
        ref = np.mean([s[1][name] for s in singles], axis=0)
        np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_batch_loss_and_gradients_equal_mean_of_windows_s1(builtin):
    ds = builtin["S1"]
    _assert_batch_is_mean_of_singles(ds, ds.train_windows[40:48],
                                     ("d", "tt"))


def _ragged_s2_batch(ds):
    """Eight S2 windows with differing node counts and step extras."""
    full = max(len(w.det_indices) for w in ds.train_windows)
    batch = [w for w in ds.train_windows
             if any(len(e) for e in w.extra_temporal)][:4] \
        + [w for w in ds.train_windows if len(w.det_indices) == full][:4]
    assert len({len(w.det_indices) for w in batch}) > 1
    assert any(len(e) for w in batch for e in w.extra_temporal)
    return batch


@pytest.mark.parametrize("modalities", [("d", "tt"), ("d",), ("identity",)])
def test_batch_loss_and_gradients_equal_mean_of_windows_s2(builtin,
                                                           modalities):
    ds = builtin["S2"]
    mask = rlagent.apply_mask(2, ds.f_t, ds.f_s)
    _assert_batch_is_mean_of_singles(ds, _ragged_s2_batch(ds), modalities,
                                     mask=mask)


def test_batch_loss_and_gradients_equal_mean_of_windows_static(builtin):
    ds = builtin["S2"]
    _assert_batch_is_mean_of_singles(ds, _ragged_s2_batch(ds), ("d",),
                                     static_full=trainer._static_distance_adj(
                                         ds))


@pytest.mark.parametrize("variant", trainer.VARIANTS)
def test_every_step_has_every_gradient(dataset, variant, monkeypatch):
    # two forecaster steps, so an RL variant's agent also learns once
    checked = []
    step = nc.Adam.step

    def checked_step(self):
        checked.append(all(p.grad is not None for p in self.params))
        step(self)
    monkeypatch.setattr(nc.Adam, "step", checked_step)
    n = len(dataset.train_windows)
    trainer.train(tiny_config(variant=variant, epochs=1,
                              batch_size=(n + 1) // 2), dataset)
    rl = variant in ("rl_dmf", "rl_dgl_distance", "rl_dgl_traveltime")
    assert checked == [True] * (3 if rl else 2)


def test_training_equals_per_tensor_adam(builtin, monkeypatch):
    from adam_reference import Adam as ReferenceAdam

    cfg = TrainConfig(variant="rl_dmf", epochs=2, seed=0)
    flat = trainer.train(cfg, builtin["S1"])
    monkeypatch.setattr(nc, "Adam", ReferenceAdam)
    ref = trainer.train(cfg, builtin["S1"])
    for k, t in flat.params.tensors.items():
        np.testing.assert_array_equal(t.data, ref.params.tensors[k].data)
    a, b = flat.agent, ref.agent
    np.testing.assert_array_equal(a.online.flat, b.online.flat)
    np.testing.assert_array_equal(a.target.flat, b.target.flat)
    np.testing.assert_array_equal(a.mask_counts, b.mask_counts)
    assert (a.schedule.steps, a.updates) == (b.schedule.steps, b.updates)


def _sized(counts):
    return [SimpleNamespace(det_indices=np.arange(n)) for n in counts]


def test_chunks_hand_case(monkeypatch):
    monkeypatch.setattr(trainer, "EVAL_ROWS", 5)
    # 2 + 3 fill the budget; 7 is over it and alone; 4 + 1; 5; 5
    assert trainer._chunks(_sized([2, 3, 1, 7, 4, 1, 5, 5])) == [
        (0, 2), (2, 3), (3, 4), (4, 6), (6, 7), (7, 8)]
    assert trainer._chunks(_sized([9])) == [(0, 1)]


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(1, 12), min_size=1, max_size=30),
       budget=st.integers(1, 20))
def test_chunks_keep_order_and_budget(counts, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "EVAL_ROWS", budget)
        bounds = trainer._chunks(_sized(counts))
    # consecutive and covering every window once, in order
    assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
    assert bounds[-1][1] == len(counts)
    for k, (a, b) in enumerate(bounds):
        rows = sum(counts[a:b])
        assert b > a
        assert rows <= budget or b - a == 1  # over budget only alone
        if b < len(counts):  # greedy: the next window would not fit
            assert rows + counts[b] > budget


def _one_window_chunks(windows):
    return [(k, k + 1) for k in range(len(windows))]


@pytest.mark.parametrize("name", ["S1", "S2"])
@pytest.mark.parametrize("variant", ["rl_dmf", "lstm_only",
                                     "static_gcn_lstm"])
def test_evaluate_equals_one_window_chunks(builtin, name, variant,
                                           monkeypatch):
    ds = builtin[name]
    cfg = TrainConfig(variant=variant, hidden=16, seed=2)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, cfg.hidden, ds.p,
                                    modalities=cfg.modalities(), seed=3)
    static_full = (trainer._static_distance_adj(ds)
                   if variant == "static_gcn_lstm" else None)
    windows = ds.train_windows + ds.val_windows
    tables = []
    # the default budget, one that splits the windows at uneven points,
    # then one window per chunk
    for budget in (trainer.EVAL_ROWS, 37):
        monkeypatch.setattr(trainer, "EVAL_ROWS", budget)
        assert len(trainer._chunks(windows)) > 1
        tables.append(trainer.evaluate(params, windows, ds, static_full))
    monkeypatch.setattr(trainer, "_chunks", _one_window_chunks)
    single = trainer.evaluate(params, windows, ds, static_full)
    assert tables[0] == single
    assert tables[1] == single


def test_evaluate_makes_static_rows_chunk_by_chunk(builtin, monkeypatch):
    """The static-graph rows are made per chunk, as it runs, not for every
    window up front: evaluate's memory does not grow with the windows."""
    ds = builtin["S2"]
    cfg = TrainConfig(variant="static_gcn_lstm", hidden=16, seed=2)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, cfg.hidden, ds.p,
                                    modalities=cfg.modalities(), seed=3)
    windows = ds.train_windows + ds.val_windows
    calls = []
    static_rows = trainer._static_rows

    def recording(static_full, chunk):
        calls.append(chunk)
        return static_rows(static_full, chunk)
    monkeypatch.setattr(trainer, "EVAL_ROWS", 37)
    monkeypatch.setattr(trainer, "_static_rows", recording)
    trainer.evaluate(params, windows, ds, trainer._static_distance_adj(ds))
    bounds = trainer._chunks(windows)
    assert len(bounds) > 1
    assert len(calls) == len(bounds)
    for chunk, (start, stop) in zip(calls, bounds):
        assert len(chunk) == stop - start
        assert all(a is b for a, b in zip(chunk, windows[start:stop]))


@pytest.mark.parametrize("modalities", [("identity",), ("d",), ("d", "tt"),
                                        dataio.INPUT_MODALITIES])
def test_gather_equals_concatenated_window_rows(builtin, modalities):
    ds = builtin["S2"]
    batch = _ragged_s2_batch(ds)
    k = np.array([dataio.INPUT_MODALITIES.index(g) for g in modalities])
    # each window's rows as the per-window slice read them, side by side
    reference = np.concatenate(
        [w.table[w.anchor_index:w.anchor_index + w.l, k[:, None],
                 w.det_indices] for w in batch], axis=2)
    rows = dataio.gather_inputs(batch, modalities)
    assert rows.shape == reference.shape
    np.testing.assert_array_equal(rows, reference)
    np.testing.assert_array_equal(
        np.concatenate([dataio.gather_inputs([w], modalities)
                        for w in batch], axis=2), rows)


def test_gather_rejects_windows_of_two_tables(builtin):
    a, b = builtin["S1"].train_windows[0], builtin["S2"].train_windows[0]
    with pytest.raises(ValueError, match="different input tables"):
        dataio.gather_inputs([a, b], ("d",))


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_window_predicted_alone_equals_its_rows_in_a_batch(builtin, name):
    """Grouping moves no bit of a prediction or of an attention weight:
    every window predicted alone equals its rows of a batch of 8 windows
    and of one batch of all, and so does its α."""
    ds = builtin[name]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 32, ds.p, seed=3)
    windows = ds.train_windows + ds.val_windows
    alone = [(y.data, a) for y, a in (dmf.forward([w], params)
                                      for w in windows)]
    for size in (8, len(windows)):
        for k in range(0, len(windows), size):
            predicted, alphas = dmf.forward(windows[k:k + size], params)
            np.testing.assert_array_equal(
                predicted.data,
                np.concatenate([y for y, _ in alone[k:k + size]]))
            # α is (l, N, M): a window's rows run along the node axis
            np.testing.assert_array_equal(
                alphas, np.concatenate([a for _, a in alone[k:k + size]],
                                       axis=1))
