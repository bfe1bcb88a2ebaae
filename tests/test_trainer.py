import ast
import dataclasses
import gc
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import predict
from float64_params import float64_params, float64_windows
from static_rows_reference import _static_rows
import graphs_reference
from evacnet import (cli, dataio, dmf, graphs, numcore as nc, rlagent,
                     synth, trainer)
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
    windows = dataset.eval_windows
    table = trainer.evaluate(result.params, windows, dataset)
    assert set(table) == {1, 2, "overall"}
    per_h = sum(table[h].n for h in (1, 2))
    assert table["overall"].n == per_h


def test_metrics_csv_layout(dataset, tmp_path):
    result = trainer.train(tiny_config(), dataset)
    windows = dataset.eval_windows
    table = trainer.evaluate(result.params, windows, dataset)
    path = tmp_path / "metrics.csv"
    cli.write_table(path, cli.METRICS_HEADER, cli.metric_rows(table))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "horizon,RMSE,MAE,MAPE,R2"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "overall"]


def test_epochs_csv_layout(dataset, tmp_path):
    result = trainer.train(tiny_config(epochs=2), dataset)
    path = tmp_path / "epochs.csv"
    cli.write_table(path,
                    [f.name for f in dataclasses.fields(trainer.EpochLog)],
                    map(dataclasses.astuple, result.epoch_logs))
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
    windows = dataset.eval_windows
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
    cli.write_table(path, ("variant", *cli.METRICS_HEADER),
                    [row for v in trainer.ABLATION_VARIANTS
                     for row in cli.metric_rows(tables[v], v)])
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


def _forward_rows(windows, params, static_full):
    """The (l, M, N, F) rows `dmf.forward` hands its GCN layer, given the
    frozen chain `static_full`."""
    seen = []
    gcn_layer = dmf.gcn_layer

    def recording(rows, weight):
        seen.append(rows.copy())
        return gcn_layer(rows, weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmf, "gcn_layer", recording)
        predict(windows, params, static_chain=static_full)
    return seen[0]


def test_static_variant_frozen_adjacency(dataset):
    chain = trainer._frozen_chain(dataset)
    n = len(dataset.detectors.ids)
    # one highway of four detectors: a chain of three edges
    assert chain.dtype == graphs.EDGE and chain.shape == (n - 1,)
    full = graphs_reference.dense(n, chain["i"], chain["j"], chain["w"])
    # a window over all detectors, and one over three of them, so that
    # the block is a proper, non-leading sub-matrix of the frozen graph,
    # with a gap where detector 1 is left out
    w = dataset.train_windows[0]
    sub = dataclasses.replace(w, det_indices=np.array([0, 2, 3]))
    rows = _static_rows(chain, [w, sub])
    for window, got in zip([w, sub], rows):
        det = window.det_indices
        adj = graphs_reference.gcn_normalize(full[np.ix_(det, det)])
        assert adj.shape == (len(det), len(det))
        np.testing.assert_allclose(adj, adj.T, atol=1e-12)
        x = dataio.gather_inputs([window], ("identity",))[:, 0]
        assert got.shape == (w.l, len(det), dataset.f_t + dataset.f_s)
        np.testing.assert_array_equal(got, adj @ x)
    # the forward's rows equal the reference's, made in float64 and
    # rounded once to the float32 rows' dtype, alone and batched
    params = dmf.DmfParameters.init(
        dataset.f_t, dataset.f_s, 8, dataset.p, seed=3,
        modalities=TrainConfig(variant="static_gcn_lstm").modalities())
    assert w.table.dtype == np.float32
    for batch in ([w], [sub], [w, sub], [sub, w]):
        got = _forward_rows(batch, params, chain)
        ref = np.concatenate(_static_rows(chain, batch), axis=1)
        assert got.shape[1] == 1 and got.dtype == np.float32
        np.testing.assert_array_equal(got[:, 0], ref.astype(np.float32))
        np.testing.assert_allclose(got[:, 0], ref, rtol=1e-5, atol=1e-6)


@pytest.fixture(scope="module")
def builtin(tmp_path_factory):
    def prepare(name):
        out = tmp_path_factory.mktemp(name)
        meta, records, _ = synth.generate(synth.builtin_scenarios()[name],
                                          out)
        return dataio.prepare(meta, records, l=6, p=6)
    return {name: prepare(name) for name in ("S1", "S2")}


def _loss_and_grads(batch, params, mask, static_full):
    for t in params.tensors.values():
        t.zero_grad()
    predicted, _ = predict(batch, params, mask=mask, static_chain=static_full)
    loss = dmf.mse_loss(predicted, [w.targets for w in batch])
    loss.backward()
    return loss.item(), {k: t.grad.copy() for k, t in params.tensors.items()}


def _assert_batch_is_mean_of_singles(ds, batch, modalities, mask=None,
                                     static_full=None):
    # in float64, where the sums hold to 1e-12
    params = float64_params(dmf.DmfParameters.init(
        ds.f_t, ds.f_s, 16, ds.p, modalities=modalities, seed=3))
    batch = float64_windows(batch)
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
    _assert_batch_is_mean_of_singles(
        ds, _ragged_s2_batch(ds), ("identity",),
        static_full=trainer._frozen_chain(ds))


@pytest.mark.parametrize("variant", trainer.VARIANTS)
def test_every_step_has_every_gradient(dataset, variant, monkeypatch):
    # two forecaster steps, so an RL variant's agent also learns once
    checked = []
    step = nc.Adam.step

    def checked_step(self, grad):
        checked.append(grad.shape == self.flat.shape
                       and bool(np.isfinite(grad).all()))
        step(self, grad)
    monkeypatch.setattr(nc.Adam, "step", checked_step)
    n = len(dataset.train_windows)
    trainer.train(tiny_config(variant=variant, epochs=1,
                              batch_size=(n + 1) // 2), dataset)
    rl = variant in ("rl_dmf", "rl_dgl_distance", "rl_dgl_traveltime")
    assert checked == [True] * (3 if rl else 2)


def test_training_equals_per_tensor_adam(builtin, monkeypatch):
    from adam_flat_adapter import FlatReferenceAdam

    cfg = TrainConfig(variant="rl_dmf", epochs=2, seed=0)
    flat = trainer.train(cfg, builtin["S1"])
    monkeypatch.setattr(nc, "Adam", FlatReferenceAdam)
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
@pytest.mark.parametrize("variant", ["rl_dmf", "rl_dgl_distance",
                                     "lstm_only", "static_gcn_lstm"])
def test_evaluate_equals_one_window_chunks(builtin, name, variant,
                                           monkeypatch):
    ds = builtin[name]
    cfg = TrainConfig(variant=variant, hidden=16, seed=2)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, cfg.hidden, ds.p,
                                    modalities=cfg.modalities(), seed=3)
    static_full = (trainer._frozen_chain(ds)
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


def test_evaluate_runs_each_grid_cell_once(builtin, monkeypatch):
    """Inside `evaluate`, the GCN sees each chunk's (hour, detector) cells
    once: its distinct input hours by the detectors any of its windows
    predicts, not a row per window row-hour."""
    ds = builtin["S1"]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 16, ds.p, seed=3)
    windows = ds.train_windows + ds.val_windows
    shapes, gcn_layer = [], dmf.gcn_layer

    def recording(rows, weight):
        shapes.append(rows.shape)
        return gcn_layer(rows, weight)
    monkeypatch.setattr(dmf, "gcn_layer", recording)
    trainer.evaluate(params, windows, ds)
    expected = []
    for start, stop in trainer._chunks(windows):
        chunk = windows[start:stop]
        hours = {w.anchor_index + k for w in chunk for k in range(w.l)}
        dets = set(np.concatenate([w.det_indices for w in chunk]))
        expected.append((len(hours), 2, len(dets), ds.f_t + ds.f_s))
    assert shapes == expected
    assert sum(t * n for t, _, n, _ in shapes) == 1284
    assert sum(w.l * len(w.det_indices) for w in windows) == 6984


def test_gate_blocks_the_recurrence_reads_are_contiguous(builtin,
                                                         monkeypatch):
    """Every block of gates the recurrence activates at once, f and i
    together and o alone, is C-contiguous, in a training step's recorded
    pass and in `evaluate`'s grid pass alike: each hour's gates are one
    contiguous (4, n, H) block, and the grid's are gathered into it, not
    read through a strided fancy-index result."""
    ds = builtin["S2"]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 16, ds.p, seed=3)
    blocks, sigmoid = [], dmf._sigmoid

    def recording(x):
        blocks.append(x.flags.c_contiguous)
        sigmoid(x)
    monkeypatch.setattr(dmf, "_sigmoid", recording)
    predict(_ragged_s2_batch(ds), params)
    training, blocks[:] = list(blocks), []
    trainer.evaluate(params, ds.val_windows, ds)
    assert training and blocks
    assert all(training) and all(blocks)


@pytest.mark.parametrize("modalities", [("d", "tt"), ("tt",),
                                        ("identity",)])
def test_grid_forward_equals_the_batch_rows_forward(builtin, modalities):
    """A batch run on its grid of cells predicts, and weighs its
    modalities, bit for bit as on its per-window rows. A pass that records
    a graph is refused a grid: training keeps its rows."""
    ds = builtin["S2"]
    batch = _ragged_s2_batch(ds)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 16, ds.p,
                                    modalities=modalities, seed=3)
    grid, at = dataio.gather_grid(batch, modalities)
    with pytest.raises(ValueError, match="records no graph"):
        dmf.forward(grid.copy(), params, at=at)
    constant = dataclasses.replace(params, tensors={
        k: nc.Tensor(v.data) for k, v in params.tensors.items()})
    y0, a0 = dmf.forward(dataio.gather_inputs(batch, modalities), constant)
    y1, a1 = dmf.forward(grid, constant, at=at)
    np.testing.assert_array_equal(y1.data, y0.data)
    assert (a0 is None) == (a1 is None) == (len(modalities) == 1)
    if a0 is not None:
        np.testing.assert_array_equal(a1, a0)


def test_grid_cells_are_the_rows_gather_reads(builtin):
    """Each window row-hour's position names the cell that holds exactly
    its gathered row, in every modality, and each cell appears once."""
    ds = builtin["S2"]
    batch = _ragged_s2_batch(ds)
    modalities = dataio.INPUT_MODALITIES
    grid, at = dataio.gather_grid(batch, modalities)
    rows = dataio.gather_inputs(batch, modalities)
    t, m, n_u, f = grid.shape
    assert at.shape == (batch[0].l, rows.shape[2])
    cells = grid.transpose(0, 2, 1, 3).reshape(t * n_u, m, f)
    np.testing.assert_array_equal(cells[at], rows.transpose(0, 2, 1, 3))
    hours = {w.anchor_index + k for w in batch for k in range(w.l)}
    dets = set(np.concatenate([w.det_indices for w in batch]))
    assert (t, n_u) == (len(hours), len(dets))


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 40), rows=st.integers(1, 4), data=st.data())
def test_ranks_equal_numpy_unique(size, rows, data):
    index = np.array(data.draw(st.lists(st.integers(0, size - 1),
                                        min_size=rows, max_size=rows * 8)))
    index = index[:len(index) // rows * rows].reshape(rows, -1)
    values, ranks = dataio._ranks(index, size)
    expected, inverse = np.unique(index, return_inverse=True)
    np.testing.assert_array_equal(values, expected)
    np.testing.assert_array_equal(ranks, inverse.reshape(index.shape))


def test_grid_positions_out_of_range_are_refused(builtin):
    ds = builtin["S1"]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 16, ds.p, seed=3)
    grid, at = dataio.gather_grid(ds.val_windows[:3], params.modalities)
    constant = dataclasses.replace(params, tensors={
        k: nc.Tensor(v.data) for k, v in params.tensors.items()})
    for bad in (at - at.min() - 1, at + grid.shape[0] * grid.shape[2]
                - at.max()):
        with pytest.raises(ValueError, match="grid positions must lie"):
            dmf.forward(grid.copy(), constant, at=bad)


def test_evaluate_makes_static_rows_chunk_by_chunk(builtin, monkeypatch):
    """The static-graph rows are made per chunk, as it runs, not for every
    window up front: one forward pass, and so one static product, per
    chunk, each given only that chunk's windows. Evaluate's memory does
    not grow with the windows. Every chunk reads the one frozen chain,
    and nothing is made per detector set."""
    ds = builtin["S2"]
    cfg = TrainConfig(variant="static_gcn_lstm", hidden=16, seed=2)
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, cfg.hidden, ds.p,
                                    modalities=cfg.modalities(), seed=3)
    windows = ds.train_windows + ds.val_windows
    static_full = trainer._frozen_chain(ds)
    calls, forwards = [], []
    gather, forward = dataio.gather_inputs, dmf.forward

    def recording(chunk, modalities, static_chain=None):
        calls.append((chunk, static_chain))
        return gather(chunk, modalities, static_chain)

    def counting(rows, params, mask=None):
        forwards.append(rows.shape[2])
        return forward(rows, params, mask=mask)
    monkeypatch.setattr(trainer, "EVAL_ROWS", 37)
    monkeypatch.setattr(dataio, "gather_inputs", recording)
    monkeypatch.setattr(dmf, "forward", counting)
    trainer.evaluate(params, windows, ds, static_full)
    bounds = trainer._chunks(windows)
    assert len(bounds) > 1
    assert len(calls) == len(bounds)
    # each chunk's rows go through one forward pass
    assert forwards == [sum(len(w.det_indices) for w in chunk)
                        for chunk, _ in calls]
    assert np.array_equal(static_full, trainer._frozen_chain(ds))
    for (chunk, static_chain), (start, stop) in zip(calls, bounds):
        assert static_chain is static_full
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


@pytest.mark.parametrize("windows, message", [
    pytest.param(lambda w: [], "empty batch of windows", id="no-window"),
    pytest.param(
        lambda w: [dataclasses.replace(w, det_indices=w.det_indices[:0])],
        "window has an empty predicted node set", id="no-node"),
    pytest.param(lambda w: [w, dataclasses.replace(w, l=w.l - 1)],
                 "windows in a batch differ in input length", id="two-l"),
])
def test_gather_rejects_a_malformed_batch(builtin, windows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataio.gather_inputs(windows(builtin["S1"].train_windows[0]),
                             ("d", "tt"))


@pytest.mark.parametrize("module", [dmf, rlagent])
def test_network_and_agent_import_neither_dataio_nor_graphs(module):
    """Only `dataio` reads a window's input rows: the network and the
    agent compute on the arrays it gathers."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not {name.rsplit(".", 1)[-1] for name in imported} \
        & {"dataio", "graphs"}


@pytest.mark.parametrize("variant", ["rl_dmf", "dmf_no_rl"])
def test_a_training_step_gathers_its_batch_once(dataset, variant):
    # one batch and no validation windows: one step and no evaluate
    one_step = dataclasses.replace(
        dataset, train_windows=dataset.train_windows[:8], val_windows=[])
    # counted by code object, however a module reached the function
    code, calls = dataio.gather_inputs.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["modalities"])
    sys.setprofile(profile)
    try:
        trainer.train(tiny_config(variant=variant, epochs=1, batch_size=8),
                      one_step)
    finally:
        sys.setprofile(None)
    modalities = TrainConfig(variant=variant).modalities()
    assert calls == [("identity",) + modalities if variant == "rl_dmf"
                     else modalities]


def test_state_and_forward_blocks_are_gathered_apart(builtin):
    """With `state_block` the "identity" rows and the forecaster's blocks
    are two arrays that share no memory, each equal to its blocks of the
    one gather, so dropping the state's block frees it."""
    ds = builtin["S2"]
    batch = _ragged_s2_batch(ds)
    read = ("identity", "d", "tt")
    state, rows = dataio.gather_inputs(batch, read, state_block=True)
    whole = dataio.gather_inputs(batch, read)
    np.testing.assert_array_equal(state, whole[:, 0])
    np.testing.assert_array_equal(rows, whole[:, 1:])
    assert not np.shares_memory(state, rows)


def test_an_rl_step_forward_holds_only_its_own_blocks(dataset, monkeypatch):
    """The rows an RL training step hands `forward` own no memory beyond
    their own blocks: the state's "identity" block is not kept alive
    through the backward."""
    seen, forward = [], dmf.forward

    def recording(rows, params, mask=None):
        owner = rows if rows.base is None else rows.base
        seen.append((owner.nbytes, rows.nbytes))
        return forward(rows, params, mask=mask)
    monkeypatch.setattr(dmf, "forward", recording)
    one_step = dataclasses.replace(
        dataset, train_windows=dataset.train_windows[:8], val_windows=[])
    trainer.train(tiny_config(variant="rl_dmf", epochs=1), one_step)
    assert len(seen) == 1 and seen[0][0] == seen[0][1]


@pytest.mark.parametrize("variant", ["rl_dmf", "dmf_no_rl"])
def test_no_step_graph_outlives_its_step(builtin, variant, monkeypatch):
    """Each forward, a training step's or validation's, starts with every
    earlier step's backward closure freed: a step's graph, with the
    activations its closures hold, is gone before the next step's
    gather, agent update and forward. Garbage collection is off, so what
    frees them is the backward, not the cycle collector."""
    closures, entries = [], []
    lstm_step, forward = dmf.lstm_step, dmf.forward

    def recording_lstm_step(*args, **kwargs):
        h, c = lstm_step(*args, **kwargs)
        if h._backward_fn is not None:
            closures.append(weakref.ref(h._backward_fn))
        return h, c

    def checked_forward(*args, **kwargs):
        entries.append(sum(ref() is not None for ref in closures))
        return forward(*args, **kwargs)
    monkeypatch.setattr(dmf, "lstm_step", recording_lstm_step)
    monkeypatch.setattr(dmf, "forward", checked_forward)
    gc.disable()
    try:
        trainer.train(TrainConfig(variant=variant, epochs=1, seed=0),
                      builtin["S1"])
    finally:
        gc.enable()
    steps = -(-len(builtin["S1"].train_windows) // 8)
    assert len(closures) == steps
    assert len(entries) > steps  # validation's forwards are checked too
    assert entries == [0] * len(entries)


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_window_predicted_alone_equals_its_rows_in_a_batch(builtin, name):
    """Grouping moves no bit of a prediction or of an attention weight:
    every window predicted alone equals its rows of a batch of 8 windows
    and of one batch of all, and so does its α."""
    ds = builtin[name]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 32, ds.p, seed=3)
    windows = ds.train_windows + ds.val_windows
    alone = [(y.data, a) for y, a in (predict([w], params)
                                      for w in windows)]
    for size in (8, len(windows)):
        for k in range(0, len(windows), size):
            predicted, alphas = predict(windows[k:k + size], params)
            np.testing.assert_array_equal(
                predicted.data,
                np.concatenate([y for y, _ in alone[k:k + size]]))
            # α is (l, N, M): a window's rows run along the node axis
            np.testing.assert_array_equal(
                alphas, np.concatenate([a for _, a in alone[k:k + size]],
                                       axis=1))


def test_forecaster_and_agent_networks_run_in_float32(dataset, monkeypatch):
    seen = []
    mse_loss = dmf.mse_loss

    def recording(predicted, targets):
        loss = mse_loss(predicted, targets)
        seen.append((predicted.data.dtype, loss.data.dtype))
        return loss
    monkeypatch.setattr(dmf, "mse_loss", recording)
    result = trainer.train(tiny_config(variant="rl_dmf", epochs=2), dataset)
    assert dataset.train_windows[0].table.dtype == np.float32
    assert result.params.flat.dtype == np.float32
    assert all(t.data.dtype == np.float32
               for t in result.params.tensors.values())
    agent, buf = result.agent, result.agent.buffer
    assert agent.online.flat.dtype == agent.target.flat.dtype == np.float32
    assert agent.optimizer.m.dtype == agent.optimizer.v.dtype == np.float32
    assert buf.states.dtype == buf.next_states.dtype == np.float32
    # rng.choice reads the priorities as probabilities
    assert buf.rewards.dtype == buf.priorities.dtype == np.float64
    assert seen and set(seen) == {(np.dtype(np.float32),
                                   np.dtype(np.float64))}


def test_float32_batch_loss_and_gradient_match_float64(builtin):
    # one S1 batch from the same (float32-rounded) parameters and inputs,
    # computed in float32 and in float64: the float64 loss agrees to about
    # one float32 epsilon (1.2e-7) of itself, and each gradient entry to
    # about 100 epsilons of the largest entry (four S1 batches read 1e-9
    # and 1.4e-7)
    ds = builtin["S1"]
    batch = ds.train_windows[40:48]
    params = dmf.DmfParameters.init(ds.f_t, ds.f_s, 32, ds.p, seed=3)
    mask = rlagent.apply_mask(2, ds.f_t, ds.f_s)
    runs = []
    for p, windows in ((params, batch),
                       (float64_params(params), float64_windows(batch))):
        predicted, _ = predict(windows, p, mask=mask)
        loss = dmf.mse_loss(predicted, [w.targets for w in windows])
        loss.backward()
        runs.append((loss.item(), p.grad()))
    (loss32, grad32), (loss64, grad64) = runs
    assert grad32.dtype == np.float32 and grad64.dtype == np.float64
    assert abs(loss32 - loss64) <= 1e-7 * loss64
    assert np.abs(grad32 - grad64).max() <= 1e-5 * np.abs(grad64).max()
