import numpy as np
import pytest

from evacnet import dataio, dmf, rlagent, synth, trainer
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
    assert sum(r[2] for r in rows) == result.agent.counter.total
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

    def nan_loss(window, params, mask, static_full):
        return None, Tensor(np.array(np.nan), requires_grad=True)

    monkeypatch.setattr(trainer, "_forward_loss", nan_loss)
    with pytest.raises(trainer.TrainingDiverged, match="non-finite"):
        trainer.train(tiny_config(epochs=1), dataset)


def test_train_rmse_stop_short_circuits(dataset):
    result = trainer.train(tiny_config(epochs=50, train_rmse_stop=1e9),
                           dataset)
    assert len(result.epoch_logs) == 1


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
    sub = trainer._window_static_adj(full, np.array([0, 1, 2]))
    assert sub.shape == (3, 3)
    np.testing.assert_allclose(sub, sub.T, atol=1e-12)


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
    _, loss = trainer._forward_loss(batch, params, mask,
                                    trainer._static_rows(static_full, batch))
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
