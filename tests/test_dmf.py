import numpy as np
import pytest

from conftest import derive_rows, random_window
from evacnet import dmf, graphs, numcore as nc, rlagent
from evacnet.numcore import Tensor


def params_for(window, hidden=8, seed=0, modalities=("d", "tt")):
    n, l, f_t = window.features.temporal.shape
    f_s = window.features.spatial.shape[1]
    p = window.targets.shape[1]
    return dmf.DmfParameters.init(f_t, f_s, hidden, p,
                                  modalities=modalities, seed=seed)


def test_parameter_count_formula():
    params = dmf.DmfParameters.init(f_t=6, f_s=3, hidden=8, horizon=2)
    f, h, p = 9, 8, 2
    assert params.param_count() == 2 * f * h + 2 * h + 8 * h * h + 4 * h \
        + p * h + p


def test_concat_node_features_order():
    temporal = np.array([[1.0, 2.0], [3.0, 4.0]])
    spatial = np.array([[5.0], [6.0]])
    out = dmf.concat_node_features(temporal, spatial)
    np.testing.assert_array_equal(out, [[1, 2, 5], [3, 4, 6]])


def test_concat_node_count_mismatch():
    with pytest.raises(ValueError):
        dmf.concat_node_features(np.zeros((2, 3)), np.zeros((3, 1)))


def test_gcn_layer_identity():
    h = np.array([[1.0, -2.0], [-3.0, 4.0]])
    out = dmf.gcn_layer(Tensor(np.eye(2) @ h), Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, np.maximum(h, 0.0))


def test_gcn_layer_hand_case():
    adj = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([[1.0], [1.0]])
    out = dmf.gcn_layer(Tensor(adj @ h), Tensor(w))
    np.testing.assert_allclose(out.data, np.maximum(adj @ h @ w, 0.0))


def test_stacked_init_equals_per_modality_per_gate_draws():
    f_t, f_s, hidden, horizon, seed = 3, 2, 4, 2, 5
    params = dmf.DmfParameters.init(f_t, f_s, hidden, horizon, seed=seed)
    # the draw order of separately held weights: each modality's GCN
    # weight, each modality's attention vector, then W and U gate by gate
    # (f, i, c, o), then the head
    rng = np.random.default_rng(seed)
    f_in = f_t + f_s

    def uniform(*shape):
        bound = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-bound, bound, size=shape)

    gcn = [uniform(f_in, hidden) for _ in ("d", "tt")]
    att = [uniform(hidden) for _ in ("d", "tt")]
    w_gates, u_gates = [], []
    for _ in range(4):
        w_gates.append(uniform(hidden, hidden))
        u_gates.append(uniform(hidden, hidden))
    w_out = uniform(hidden, horizon)
    t = params.tensors
    for k in range(2):
        np.testing.assert_array_equal(t["W_gcn"].data[k], gcn[k])
        np.testing.assert_array_equal(t["w_att"].data[k], att[k])
    for k in range(4):
        cols = slice(k * hidden, (k + 1) * hidden)
        np.testing.assert_array_equal(t["W_lstm"].data[:, cols], w_gates[k])
        np.testing.assert_array_equal(t["U_lstm"].data[:, cols], u_gates[k])
    np.testing.assert_array_equal(t["b_lstm"].data, np.zeros(4 * hidden))
    np.testing.assert_array_equal(t["W_out"].data, w_out)
    np.testing.assert_array_equal(t["b_out"].data, np.zeros(horizon))


@pytest.mark.parametrize("modalities,n_tensors", [
    (("d", "tt"), 7), (("d",), 6), (("tt",), 6), (("identity",), 6)])
def test_parameter_tensor_count(modalities, n_tensors):
    params = dmf.DmfParameters.init(3, 2, 4, 2, modalities=modalities)
    assert len(params.trainable()) == n_tensors


def test_attention_equal_logits():
    rng = np.random.default_rng(0)
    params = dmf.DmfParameters.init(3, 1, 4, 2, seed=1)
    z = rng.normal(size=(5, 4))
    params.tensors["w_att"] = Tensor(np.zeros((2, 4)), requires_grad=True)
    fused, alpha = dmf.attention_fuse(Tensor(np.stack([z, z])), params)
    np.testing.assert_allclose(alpha, 0.5)
    np.testing.assert_allclose(fused.data, z)


def test_attention_closed_form_softmax():
    params = dmf.DmfParameters.init(3, 1, 1, 2, seed=1)
    params.tensors["w_att"] = Tensor(np.ones((2, 1)), requires_grad=True)
    z_d = np.array([[np.log(2.0)]])
    z_tt = np.array([[0.0]])
    _, alpha = dmf.attention_fuse(Tensor(np.stack([z_d, z_tt])), params)
    np.testing.assert_allclose(alpha, [[2 / 3, 1 / 3]], rtol=1e-12)


def test_attention_matches_per_modality_reference():
    rng = np.random.default_rng(1)
    params = dmf.DmfParameters.init(3, 2, 6, 2, seed=2)
    z = rng.normal(size=(2, 7, 6)) * 2
    fused, alpha = dmf.attention_fuse(Tensor(z), params)
    w_att = params.tensors["w_att"].data
    logits = np.stack([z[m] @ w_att[m] for m in range(2)], axis=1)  # (n, M)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    ref_alpha = e / e.sum(axis=1, keepdims=True)
    ref_fused = ref_alpha[:, 0:1] * z[0] + ref_alpha[:, 1:2] * z[1]
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused.data, ref_fused, rtol=0, atol=1e-12)


def test_lstm_zero_everything():
    params = dmf.DmfParameters.init(2, 1, 4, 2, seed=0)
    for name in ("W_lstm", "U_lstm", "b_lstm"):
        t = params.tensors[name]
        t.data = np.zeros_like(t.data)
    h, c = dmf.lstm_step(nc.zeros(3, 4), nc.zeros(3, 4), nc.zeros(3, 4),
                         params)
    np.testing.assert_array_equal(h.data, 0.0)
    np.testing.assert_array_equal(c.data, 0.0)


def test_lstm_scalar_hand_case():
    # H=1, all weights 1, input 1, zero state
    params = dmf.DmfParameters.init(1, 0, 1, 1, seed=0)
    params.tensors["W_lstm"].data = np.ones((1, 4))
    params.tensors["U_lstm"].data = np.ones((1, 4))
    params.tensors["b_lstm"].data = np.zeros(4)
    z = Tensor(np.ones((1, 1)))
    h, c = dmf.lstm_step(z, nc.zeros(1, 1), nc.zeros(1, 1), params)
    sig1 = 1 / (1 + np.exp(-1.0))
    c_expected = sig1 * np.tanh(1.0)
    np.testing.assert_allclose(c.data, [[c_expected]])
    np.testing.assert_allclose(h.data, [[sig1 * np.tanh(c_expected)]])


def test_lstm_matches_per_gate_reference():
    rng = np.random.default_rng(2)
    hidden = 5
    params = dmf.DmfParameters.init(2, 1, hidden, 2, seed=3)
    params.tensors["b_lstm"].data = rng.normal(size=4 * hidden)
    z, h, c = (rng.normal(size=(4, hidden)) for _ in range(3))
    t = {k: v.data for k, v in params.tensors.items()}

    def gate(k, act):
        cols = slice(k * hidden, (k + 1) * hidden)
        return act(z @ t["W_lstm"][:, cols] + h @ t["U_lstm"][:, cols]
                   + t["b_lstm"][cols])

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    f, i, c_tilde, o = (gate(0, sigmoid), gate(1, sigmoid),
                        gate(2, np.tanh), gate(3, sigmoid))
    c_ref = f * c + i * c_tilde
    h_ref = o * np.tanh(c_ref)
    h_new, c_new = dmf.lstm_step(Tensor(z), Tensor(h), Tensor(c), params)
    np.testing.assert_allclose(c_new.data, c_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h_new.data, h_ref, rtol=0, atol=1e-12)


def test_lstm_cell_state_bound():
    rng = np.random.default_rng(3)
    params = dmf.DmfParameters.init(2, 1, 6, 2, seed=4)
    c = Tensor(rng.normal(size=(5, 6)))
    h = Tensor(rng.normal(size=(5, 6)))
    z = Tensor(rng.normal(size=(5, 6)) * 3)
    _, c_next = dmf.lstm_step(z, h, c, params)
    assert np.all(np.abs(c_next.data) <= np.abs(c.data) + 1.0 + 1e-12)


def test_predict_head_zero_weights():
    params = dmf.DmfParameters.init(2, 1, 4, 3, seed=0)
    params.tensors["W_out"].data = np.zeros((4, 3))
    params.tensors["b_out"].data = np.array([1.0, 2.0, 3.0])
    out = dmf.predict_head(nc.zeros(2, 4) + 5.0, params)
    np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])


def test_forward_shapes_and_noop_mask():
    rng = np.random.default_rng(5)
    w = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2)
    params = params_for(w)
    y0, _ = dmf.forward([w], params)
    assert y0.data.shape == (4, 2)
    mask = rlagent.MaskState.all_ones(5, 3)
    y1, _ = dmf.forward([w], params, mask=mask)
    np.testing.assert_array_equal(y0.data, y1.data)


def test_forward_attention_normalization():
    rng = np.random.default_rng(6)
    w = random_window(rng, n=5, f_t=4, f_s=2, l=4, p=3)
    params = params_for(w, seed=2)
    _, trace = dmf.forward([w], params)
    for alpha in trace.alphas:
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(alpha >= 0) and np.all(alpha <= 1)


def test_masked_feature_column_invariance():
    rng = np.random.default_rng(7)
    w = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2, extras_per_step=1)
    params = params_for(w, seed=3)
    mask = rlagent.apply_mask(2, 5, 3)  # temporal feature 2
    y0, _ = dmf.forward([w], params, mask=mask)
    w.features.temporal[:, :, 2] = rng.normal(size=w.features.temporal.shape[:2]) * 1e6
    for e in w.extra_temporal:
        e[:, 2] = 99.0
    derive_rows(w)
    y1, _ = dmf.forward([w], params, mask=mask)
    np.testing.assert_array_equal(y0.data, y1.data)


def test_unmasked_column_still_matters():
    rng = np.random.default_rng(8)
    w = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2)
    params = params_for(w, seed=3)
    mask = rlagent.apply_mask(2, 5, 3)
    y0, _ = dmf.forward([w], params, mask=mask)
    w.features.temporal[:, :, 0] += 1.0
    derive_rows(w)
    y1, _ = dmf.forward([w], params, mask=mask)
    assert not np.array_equal(y0.data, y1.data)


def test_node_permutation_equivariance():
    rng = np.random.default_rng(9)
    w = random_window(rng, n=5, f_t=4, f_s=2, l=3, p=2)
    params = params_for(w, seed=4)
    y0, _ = dmf.forward([w], params)

    perm = rng.permutation(5)
    w2 = random_window(rng, n=5, f_t=4, f_s=2, l=3, p=2)
    w2.features.temporal = w.features.temporal[perm]
    w2.features.spatial = w.features.spatial[perm]
    w2.snapshots = [graphs.GraphSnapshot(
        node_ids=s.node_ids,
        adj_d=s.adj_d[np.ix_(perm, perm)], adj_tt=s.adj_tt[np.ix_(perm, perm)])
        for s in w.snapshots]
    derive_rows(w2)
    y1, _ = dmf.forward([w2], params)
    np.testing.assert_allclose(y1.data, y0.data[perm], atol=1e-12)


def test_dynamic_topology_with_step_extras():
    rng = np.random.default_rng(10)
    w = random_window(rng, n=3, f_t=4, f_s=2, l=4, p=2, extras_per_step=2)
    params = params_for(w, seed=5)
    y, _ = dmf.forward([w], params)
    assert y.data.shape == (3, 2)


def test_single_modality_and_identity_variants():
    rng = np.random.default_rng(11)
    w = random_window(rng, n=4, f_t=4, f_s=2, l=3, p=2)
    for modalities in (("d",), ("tt",), ("identity",)):
        params = params_for(w, seed=6, modalities=modalities)
        y, trace = dmf.forward([w], params)
        assert y.data.shape == (4, 2)
        assert trace.alphas == []  # no fusion in single-graph variants


def test_empty_node_set_errors():
    rng = np.random.default_rng(12)
    w = random_window(rng, n=4, f_t=4, f_s=2, l=3, p=2)
    w.features.temporal = w.features.temporal[:0]
    w.features.spatial = w.features.spatial[:0]
    params = dmf.DmfParameters.init(4, 2, 8, 2)
    with pytest.raises(ValueError, match="empty"):
        dmf.forward([w], params)


def test_forward_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    w = random_window(rng, n=5, f_t=3, f_s=2, l=3, p=2, extras_per_step=1)
    params = params_for(w, hidden=4, seed=7)

    def f():
        y, _ = dmf.forward([w], params)
        return dmf.mse_loss(y, [w])

    assert nc.finite_diff_check(f, params.trainable()) < 1e-4
