import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import chain_snapshot, predict, random_window, repropagate
from float64_params import float64_params
from lstm_reference import lstm_step as column_block_lstm
from evacnet import dmf, numcore as nc, rlagent
from evacnet.dataio import INPUT_MODALITIES, gather_inputs
from evacnet.numcore import Tensor

ROWS = INPUT_MODALITIES.index("identity")  # the unpropagated rows


def params_for(window, f_t, hidden=8, seed=0, modalities=("d", "tt")):
    f_s = window.table.shape[-1] - f_t
    p = window.targets.shape[1]
    return dmf.DmfParameters.init(f_t, f_s, hidden, p,
                                  modalities=modalities, seed=seed)


def test_parameter_count_formula():
    params = dmf.DmfParameters.init(f_t=6, f_s=3, hidden=8, horizon=2)
    f, h, p = 9, 8, 2
    assert params.flat.size == 2 * f * h + 2 * h + 8 * h * h + 4 * h \
        + p * h + p


@pytest.mark.parametrize("modalities", [("d", "tt"), ("tt",), ("identity",),
                                        ("d", "tt", "identity")])
@pytest.mark.parametrize("f_t, f_s, hidden, horizon",
                         [(6, 3, 8, 2), (1, 0, 1, 1), (24, 8, 32, 6)])
def test_size_counts_what_init_makes(modalities, f_t, f_s, hidden, horizon):
    params = dmf.DmfParameters.init(f_t, f_s, hidden, horizon,
                                    modalities=modalities)
    assert dmf.DmfParameters.size(f_t, f_s, hidden, horizon,
                                  modalities) == params.flat.size


def test_gcn_layer_identity():
    h = np.array([[1.0, -2.0], [-3.0, 4.0]])
    out = dmf.gcn_layer((np.eye(2) @ h)[None, None], Tensor(np.eye(2)[None]))
    np.testing.assert_array_equal(out.data[0, 0], np.maximum(h, 0.0))


def test_gcn_layer_hand_case():
    adj = np.array([[0.5, 0.5], [0.5, 0.5]])
    h = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([[1.0], [1.0]])
    # two hours, two modalities: the second one's weight negated
    rows = np.stack([np.stack([adj @ h, adj @ h])] * 2)
    out = dmf.gcn_layer(rows, Tensor(np.stack([w, -w])))
    assert out.data.shape == (2, 2, 2, 1)
    np.testing.assert_allclose(out.data[:, 0], np.maximum(adj @ h @ w, 0.0)
                               [None].repeat(2, axis=0))
    np.testing.assert_array_equal(out.data[:, 1], 0.0)


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
    assert params.flat.dtype == np.float32

    def f32(a):  # the float64 draw, rounded once
        return a.astype(np.float32)
    for k in range(2):
        np.testing.assert_array_equal(t["W_gcn"].data[k], f32(gcn[k]))
        np.testing.assert_array_equal(t["w_att"].data[k], f32(att[k]))
    for k in range(4):
        cols = slice(k * hidden, (k + 1) * hidden)
        np.testing.assert_array_equal(t["W_lstm"].data[:, cols],
                                      f32(w_gates[k]))
        np.testing.assert_array_equal(t["U_lstm"].data[:, cols],
                                      f32(u_gates[k]))
    np.testing.assert_array_equal(t["b_lstm"].data, np.zeros(4 * hidden))
    np.testing.assert_array_equal(t["W_out"].data, f32(w_out))
    np.testing.assert_array_equal(t["b_out"].data, np.zeros(horizon))


@pytest.mark.parametrize("modalities,n_tensors", [
    (("d", "tt"), 7), (("d",), 6), (("tt",), 6), (("identity",), 6)])
def test_parameter_tensor_count(modalities, n_tensors):
    params = dmf.DmfParameters.init(3, 2, 4, 2, modalities=modalities)
    assert len(params.tensors) == n_tensors


def test_attention_equal_logits():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 5, 4))  # two hours
    for n_mod in (2, 3):
        fused, alpha = dmf.attention_fuse(
            Tensor(np.stack([z] * n_mod, axis=1)),
            Tensor(np.zeros((n_mod, 4))))
        assert alpha.shape == (2, 5, n_mod)
        np.testing.assert_allclose(alpha, 1.0 / n_mod)
        np.testing.assert_allclose(fused.data, z)


def test_attention_closed_form_softmax():
    z = np.array([np.log(2.0), 0.0]).reshape(1, 2, 1, 1)  # (l, M, n, H)
    _, alpha = dmf.attention_fuse(Tensor(z), Tensor(np.ones((2, 1))))
    np.testing.assert_allclose(alpha, [[[2 / 3, 1 / 3]]], rtol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_attention_softmax_normalized(logits):
    # one node, one hour, H = 1: modality m's logit is 1 · w_m
    z = np.ones((1, len(logits), 1, 1))
    _, alpha = dmf.attention_fuse(Tensor(z),
                                  Tensor(np.array(logits)[:, None]))
    assert np.all(alpha >= 0)
    assert abs(alpha.sum() - 1.0) < 1e-12


def softmax_fusion_reference(z, w_att):
    """Hour by hour and modality by modality: (l, n, H) fused, (l, n, M) α."""
    fused, alphas = [], []
    for z_t in z:
        logits = np.stack([z_t[m] @ w_att[m] for m in range(len(z_t))],
                          axis=1)  # (n, M)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        alpha = e / e.sum(axis=1, keepdims=True)
        fused.append(sum(alpha[:, m:m + 1] * z_t[m]
                         for m in range(len(z_t))))
        alphas.append(alpha)
    return np.stack(fused), np.stack(alphas)


def test_attention_matches_per_modality_reference():
    rng = np.random.default_rng(1)
    params = dmf.DmfParameters.init(3, 2, 6, 2, seed=2)
    z = rng.normal(size=(3, 2, 7, 6)) * 2  # three hours
    w_att = params.tensors["w_att"]
    fused, alpha = dmf.attention_fuse(Tensor(z), w_att)
    ref_fused, ref_alpha = softmax_fusion_reference(z, w_att.data)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fused.data, ref_fused, rtol=0, atol=1e-12)


def lstm_reference(x, params):
    """Hour by hour and gate by gate from a zero state: the last (h, c)."""
    t = {k: v.data for k, v in params.tensors.items()}
    hidden = params.hidden
    h = c = np.zeros(x.shape[1:])

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    for z in x:
        def gate(k, act):
            cols = slice(k * hidden, (k + 1) * hidden)
            return act(z @ t["W_lstm"][:, cols] + h @ t["U_lstm"][:, cols]
                       + t["b_lstm"][cols])

        f, i, c_tilde, o = (gate(0, sigmoid), gate(1, sigmoid),
                            gate(2, np.tanh), gate(3, sigmoid))
        c = f * c + i * c_tilde
        h = o * np.tanh(c)
    return h, c


def test_lstm_zero_everything():
    params = dmf.DmfParameters.init(2, 1, 4, 2, seed=0)
    for name in ("W_lstm", "U_lstm", "b_lstm"):
        t = params.tensors[name]
        t.data = np.zeros_like(t.data)
    h, c = dmf.lstm_step(Tensor(np.zeros((3, 3, 4))), params)
    np.testing.assert_array_equal(h.data, 0.0)
    np.testing.assert_array_equal(c, 0.0)


def test_lstm_scalar_hand_case():
    # H=1, all weights 1, input 1, zero state, one hour
    params = dmf.DmfParameters.init(1, 0, 1, 1, seed=0)
    params.tensors["W_lstm"].data = np.ones((1, 4))
    params.tensors["U_lstm"].data = np.ones((1, 4))
    params.tensors["b_lstm"].data = np.zeros(4)
    h, c = dmf.lstm_step(Tensor(np.ones((1, 1, 1))), params)
    sig1 = 1 / (1 + np.exp(-1.0))
    c_expected = sig1 * np.tanh(1.0)
    np.testing.assert_allclose(c, [[c_expected]])
    np.testing.assert_allclose(h.data, [[sig1 * np.tanh(c_expected)]])


def test_lstm_matches_per_gate_reference():
    rng = np.random.default_rng(2)
    hidden = 5
    params = dmf.DmfParameters.init(2, 1, hidden, 2, seed=3)
    params.tensors["b_lstm"].data = rng.normal(size=4 * hidden)
    for l in (1, 3):
        x = rng.normal(size=(l, 4, hidden))
        h_ref, c_ref = lstm_reference(x, params)
        h_new, c_new = dmf.lstm_step(Tensor(x), params)
        np.testing.assert_allclose(c_new, c_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(h_new.data, h_ref, rtol=0, atol=1e-12)
        # a single modality's (l, 1, n, H) GCN output is the same input
        h_mod, _ = dmf.lstm_step(Tensor(x[:, None]), params)
        np.testing.assert_array_equal(h_mod.data, h_new.data)


def test_lstm_cell_state_bound():
    # from a zero state each hour moves |c| by less than 1 (|i·c̃| < 1 and
    # 0 < f < 1), so after l hours |c| < l
    rng = np.random.default_rng(3)
    params = dmf.DmfParameters.init(2, 1, 6, 2, seed=4)
    for l in (1, 4):
        _, c = dmf.lstm_step(Tensor(rng.normal(size=(l, 5, 6)) * 3), params)
        assert np.all(np.abs(c) <= l + 1e-12)


@pytest.mark.parametrize("n", [1, 61, 800])
@pytest.mark.parametrize("l", [1, 6])
@pytest.mark.parametrize("modality_axis", [False, True])
@pytest.mark.parametrize("x_grad", [False, True])
def test_lstm_equals_column_block_lstm_bit_for_bit(n, l, modality_axis,
                                                   x_grad):
    # gate-major storage changes no operand and no order of summation
    hidden = 32
    rng = np.random.default_rng(40 + n + l)
    params = dmf.DmfParameters.init(hidden, 0, hidden, 1, seed=l)
    params.tensors["b_lstm"].data[:] = rng.normal(size=4 * hidden)
    shape = (l, 1, n, hidden) if modality_axis else (l, n, hidden)
    x_data = rng.normal(size=shape)
    weights = Tensor(rng.normal(size=(n, hidden)))

    def run(step):
        p = dmf.DmfParameters.init(hidden, 0, hidden, 1)
        np.copyto(p.flat, params.flat)
        x = Tensor(x_data, requires_grad=x_grad)
        h, c = step(x, p)
        (h * weights).sum().backward()
        return [h.data, c, x.grad] + [
            p.tensors[k].grad for k in ("W_lstm", "U_lstm", "b_lstm")]

    new, old = run(dmf.lstm_step), run(column_block_lstm)
    assert (new[2] is None) == (old[2] is None) == (not x_grad)
    for a, b in zip(new, old):
        assert a is None or np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 61, 800])
@pytest.mark.parametrize("l", [1, 6])
def test_unrecorded_lstm_equals_recorded_bit_for_bit(n, l):
    # a pass over constants takes its buffers from one allocation
    hidden = 32
    rng = np.random.default_rng(7 + n + l)
    params = dmf.DmfParameters.init(hidden, 0, hidden, 1, seed=l)
    params.tensors["b_lstm"].data[:] = rng.normal(size=4 * hidden)
    x = rng.normal(size=(l, n, hidden))
    constant = replace(params, tensors={k: Tensor(v.data) for k, v in
                                        params.tensors.items()})
    h, c = dmf.lstm_step(Tensor(x, requires_grad=True), params)
    h0, c0 = dmf.lstm_step(Tensor(x), constant)
    assert h.requires_grad and not h0.requires_grad
    np.testing.assert_array_equal(h0.data, h.data)
    np.testing.assert_array_equal(c0, c)


def test_lstm_saturated_gate_is_zero_without_overflow_warning():
    # a -1000 pre-activation overflows exp(1000) to inf, so the output
    # gate is 1 / (1 + inf) = 0 exactly, at both hours
    params = dmf.DmfParameters.init(1, 0, 1, 1, seed=0)
    params.tensors["W_lstm"].data = np.ones((1, 4))
    params.tensors["U_lstm"].data = np.ones((1, 4))
    params.tensors["b_lstm"].data = np.array([0.0, 0.0, 0.0, -1001.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, c = dmf.lstm_step(Tensor(np.ones((2, 1, 1))), params)
    assert c[0, 0] > 0.0
    assert h.data[0, 0] == 0.0


def random_op_case(rng, op, n_mod, l, hidden=3, n=4, f_in=5):
    """(f, params): a scalar of one fused op's output, weighted by a fixed
    random array, and the tensors it is differentiated in. The head and
    the loss do not use `n_mod`."""
    if op == "gcn_layer":
        rows = rng.normal(size=(l, n_mod, n, f_in))
        weight = Tensor(rng.normal(size=(n_mod, f_in, hidden)),
                        requires_grad=True)
        assert (dmf.gcn_layer(rows, weight).data == 0).any()  # ReLU-inactive
        run, params = (lambda: dmf.gcn_layer(rows, weight)), [weight]
    elif op == "attention_fuse":
        z = Tensor(rng.normal(size=(l, n_mod, n, hidden)), requires_grad=True)
        w_att = Tensor(rng.normal(size=(n_mod, hidden)), requires_grad=True)
        run, params = (lambda: dmf.attention_fuse(z, w_att)[0]), [z, w_att]
    elif op == "predict_head":
        head = float64_params(dmf.DmfParameters.init(hidden, 0, hidden, 2,
                                                     seed=l))
        head.tensors["b_out"].data = rng.normal(size=2)
        h = Tensor(rng.normal(size=(n, hidden)), requires_grad=True)
        run, params = (lambda: dmf.predict_head(h, head)), [h] + [
            head.tensors[k] for k in ("W_out", "b_out")]
    elif op == "mse_loss":
        # l windows of 1..l nodes each, so the windows' weights differ
        targets = [rng.normal(size=(k, 2)) for k in range(1, l + 1)]
        y = Tensor(rng.normal(size=(l * (l + 1) // 2, 2)),
                   requires_grad=True)
        run, params = (lambda: dmf.mse_loss(y, targets)), [y]
    else:
        lstm = float64_params(dmf.DmfParameters.init(hidden, 0, hidden, 1,
                                                     seed=l))
        lstm.tensors["b_lstm"].data = rng.normal(size=4 * hidden)
        # a single modality's GCN output keeps its modality axis
        shape = (l, n, hidden) if n_mod > 1 else (l, 1, n, hidden)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        run, params = (lambda: dmf.lstm_step(x, lstm)[0]), [x] + [
            lstm.tensors[k] for k in ("W_lstm", "U_lstm", "b_lstm")]
    weights = Tensor(rng.normal(size=run().shape))
    return (lambda: (run() * weights).sum()), params


@pytest.mark.parametrize("op", ["gcn_layer", "attention_fuse", "lstm_step",
                                "predict_head", "mse_loss"])
@pytest.mark.parametrize("n_mod", [1, 2])
@pytest.mark.parametrize("l", [1, 3])
def test_fused_op_matches_finite_differences(op, n_mod, l):
    rng = np.random.default_rng(20 + 4 * n_mod + l)
    f, params = random_op_case(rng, op, n_mod, l)
    assert nc.finite_diff_check(f, params) < 1e-6


def test_fused_ops_on_constants_record_no_graph():
    # as in `evaluate`: constant parameters, so no parents, no backward
    # closure and no cached intermediates survive the forward
    rng = np.random.default_rng(21)
    params = dmf.DmfParameters.init(3, 2, 4, 2, seed=1)
    params = replace(params, tensors={k: Tensor(v.data)
                                      for k, v in params.tensors.items()})
    z = dmf.gcn_layer(rng.normal(size=(3, 2, 5, 5)),
                      params.tensors["W_gcn"])
    fused, _ = dmf.attention_fuse(z, params.tensors["w_att"])
    h, _ = dmf.lstm_step(fused, params)
    for out in (z, fused, h):
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None


def test_gcn_layer_backward_keeps_no_relu_mask():
    # the ReLU runs in place: the backward reads its support from the
    # node's own output, and saves no bool array beside it
    rng = np.random.default_rng(23)
    weight = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    z = dmf.gcn_layer(rng.normal(size=(3, 2, 6, 5)), weight)
    saved = [cell.cell_contents for cell in z._backward_fn.__closure__]
    arrays = [a for a in saved if isinstance(a, np.ndarray)]
    assert any(a is z.data for a in arrays)
    assert all(a.dtype != bool for a in arrays)


def test_training_step_graph_is_one_node_per_fused_op():
    rng = np.random.default_rng(22)
    w, _ = random_window(rng, n=4, f_t=3, f_s=2, l=3, p=2)
    params = params_for(w, 3, hidden=4)
    y, _ = predict([w], params)
    loss = dmf.mse_loss(y, [w.targets])
    nodes, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    # 7 parameters, one node per fused op, the head and the loss
    assert len(nodes) == 7 + 3 + 1 + 1


def test_backward_frees_each_op_it_consumed():
    # every op's backward closure, and so the forward arrays only it
    # holds, is freed by the backward itself; garbage collection is off,
    # so no cycle collector frees them later
    rng = np.random.default_rng(22)
    w, _ = random_window(rng, n=4, f_t=3, f_s=2, l=3, p=2)
    params = params_for(w, 3, hidden=4)
    y, _ = predict([w], params)
    loss = dmf.mse_loss(y, [w.targets])
    closures, stack = [], [loss]
    while stack:
        node = stack.pop()
        if node._backward_fn is not None:
            closures.append(weakref.ref(node._backward_fn))
        stack.extend(node._parents)
    assert len(closures) == 3 + 1 + 1
    gc.disable()
    try:
        loss.backward()
        assert [ref() for ref in closures] == [None] * len(closures)
    finally:
        gc.enable()
    assert loss._parents == () and y._parents == ()
    assert all(t.grad is not None for t in params.tensors.values())


def test_predict_head_zero_weights():
    params = dmf.DmfParameters.init(2, 1, 4, 3, seed=0)
    params.tensors["W_out"].data = np.zeros((4, 3))
    params.tensors["b_out"].data = np.array([1.0, 2.0, 3.0])
    out = dmf.predict_head(Tensor(np.full((2, 4), 5.0)), params)
    np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])


def test_forward_shapes_and_noop_mask():
    rng = np.random.default_rng(5)
    w, _ = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2)
    params = params_for(w, 5)
    y0, _ = predict([w], params)
    assert y0.data.shape == (4, 2)
    mask = np.ones(8)
    y1, _ = predict([w], params, mask=mask)
    np.testing.assert_array_equal(y0.data, y1.data)


def test_forward_on_a_view_of_a_wider_gather_equals_a_contiguous_one():
    # an RL step hands the forward the blocks after the state's "identity"
    # block of its one gather; the mask scales them in place
    rng = np.random.default_rng(5)
    w, _ = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2)
    params = params_for(w, 5)
    mask = rlagent.apply_mask(2, 5, 3)
    rows = gather_inputs([w], ("identity",) + params.modalities)
    identity = rows[:, 0].copy()
    y0, _ = dmf.forward(rows[:, 1:], params, mask=mask)
    np.testing.assert_array_equal(rows[:, 0], identity)
    np.testing.assert_array_equal(
        rows[:, 1:], gather_inputs([w], params.modalities) * mask)
    y1, _ = predict([w], params, mask=mask)
    np.testing.assert_array_equal(y0.data, y1.data)


def test_forward_attention_normalization():
    rng = np.random.default_rng(6)
    w, _ = random_window(rng, n=5, f_t=4, f_s=2, l=4, p=3)
    params = params_for(w, 4, seed=2)
    _, alphas = predict([w], params)
    assert alphas.shape == (4, 5, 2)  # (l, n, M)
    np.testing.assert_allclose(alphas.sum(axis=2), 1.0, atol=1e-6)
    assert np.all(alphas >= 0) and np.all(alphas <= 1)


def test_masked_feature_column_invariance(monkeypatch):
    rng = np.random.default_rng(7)
    w, snapshots = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2,
                                 extras_per_step=1)
    params = params_for(w, 5, seed=3)
    mask = rlagent.apply_mask(2, 5, 3)  # temporal feature 2
    y0, _ = predict([w], params, mask=mask)
    w.table[:, ROWS, :4, 2] = rng.normal(size=(3, 4)) * 1e6
    w.table[:, ROWS, 4:, 2] = 99.0  # the step extras
    repropagate(w.table, snapshots)
    y1, _ = predict([w], params, mask=mask)
    np.testing.assert_array_equal(y0.data, y1.data)

    # float32 rows are masked in float32, to the bits of their product
    # with the float64 mask, the sign of each zero included
    w32 = replace(w, table=w.table.astype(np.float32))
    seen = []
    gcn_layer = dmf.gcn_layer
    monkeypatch.setattr(dmf, "gcn_layer", lambda rows, weight: seen.append(
        rows.copy()) or gcn_layer(rows, weight))
    predict([w32], params, mask=mask)
    expected = gather_inputs([w32], params.modalities) * mask
    assert mask.dtype == np.float64 and seen[0].dtype == np.float32
    assert np.signbit(expected[..., 2]).any()
    np.testing.assert_array_equal(seen[0], expected.astype(np.float32))
    np.testing.assert_array_equal(np.signbit(seen[0]), np.signbit(expected))


def test_unmasked_column_still_matters():
    rng = np.random.default_rng(8)
    w, snapshots = random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2)
    params = params_for(w, 5, seed=3)
    mask = rlagent.apply_mask(2, 5, 3)
    y0, _ = predict([w], params, mask=mask)
    w.table[:, ROWS, :, 0] += 1.0
    repropagate(w.table, snapshots)
    y1, _ = predict([w], params, mask=mask)
    assert not np.array_equal(y0.data, y1.data)


def test_node_permutation_equivariance():
    rng = np.random.default_rng(9)
    w, snapshots = random_window(rng, n=5, f_t=4, f_s=2, l=3, p=2)
    params = params_for(w, 4, seed=4)
    y0, _ = predict([w], params)

    perm = rng.permutation(5)
    w2 = replace(w, table=w.table[:, :, perm])
    # node perm[k] is node k of the permuted table
    at = np.argsort(perm)
    repropagate(w2.table, [chain_snapshot(5, at[s.i], at[s.j], s.adj_d,
                                          s.adj_tt) for s in snapshots])
    y1, _ = predict([w2], params)
    np.testing.assert_allclose(y1.data, y0.data[perm], atol=1e-12)


def test_dynamic_topology_with_step_extras():
    rng = np.random.default_rng(10)
    w, _ = random_window(rng, n=3, f_t=4, f_s=2, l=4, p=2,
                         extras_per_step=2)
    params = params_for(w, 4, seed=5)
    y, _ = predict([w], params)
    assert y.data.shape == (3, 2)


def test_single_modality_and_identity_variants():
    rng = np.random.default_rng(11)
    w, _ = random_window(rng, n=4, f_t=4, f_s=2, l=3, p=2)
    for modalities in (("d",), ("tt",), ("identity",)):
        params = params_for(w, 4, seed=6, modalities=modalities)
        y, alphas = predict([w], params)
        assert y.data.shape == (4, 2)
        assert alphas is None  # no fusion in single-graph variants


def test_empty_node_set_errors():
    rng = np.random.default_rng(12)
    w, _ = random_window(rng, n=4, f_t=4, f_s=2, l=3, p=2)
    w.det_indices = w.det_indices[:0]
    with pytest.raises(ValueError, match="empty"):
        gather_inputs([w], ("d", "tt"))


def test_forward_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    w, _ = random_window(rng, n=5, f_t=3, f_s=2, l=3, p=2,
                         extras_per_step=1)
    params = float64_params(params_for(w, 3, hidden=4, seed=7))

    def f():
        y, _ = predict([w], params)
        return dmf.mse_loss(y, [w.targets])

    assert nc.finite_diff_check(f, list(params.tensors.values())) < 1e-4


def test_parameters_are_views_of_one_flat_vector():
    params = dmf.DmfParameters.init(3, 2, 4, 2, seed=5)
    copy = dmf.DmfParameters.init(3, 2, 4, 2, seed=6)
    np.copyto(copy.flat, params.flat)
    for p in (params, copy):
        assert p.flat.size == sum(t.data.size
                                  for t in p.tensors.values())
        for t in p.tensors.values():
            assert np.shares_memory(t.data, p.flat)
    assert not np.shares_memory(copy.flat, params.flat)
    np.testing.assert_array_equal(copy.flat, params.flat)
    for k, t in params.tensors.items():
        np.testing.assert_array_equal(copy.tensors[k].data, t.data)


def _backward_once(params):
    rng = np.random.default_rng(4)
    w, _ = random_window(rng, n=3, f_t=3, f_s=2, l=2, p=2)
    y, _ = predict([w], params)
    dmf.mse_loss(y, [w.targets]).backward()


def test_grad_is_the_tensors_gradients_in_key_order():
    params = dmf.DmfParameters.init(3, 2, 4, 2, seed=5)
    _backward_once(params)
    expected = np.concatenate([t.grad.ravel()
                               for t in params.tensors.values()])
    grad = params.grad()
    np.testing.assert_array_equal(grad, expected)
    assert grad.shape == params.flat.shape
    # taken, not copied: the next backward starts from zero
    assert all(t.grad is None for t in params.tensors.values())
    _backward_once(params)
    np.testing.assert_array_equal(params.grad(), expected)


def test_grad_rejects_a_tensor_without_gradient():
    params = dmf.DmfParameters.init(3, 2, 4, 2, seed=5)
    _backward_once(params)
    params.tensors["b_out"].grad = None
    with pytest.raises(ValueError, match=r"parameter b_out of shape \(2,\) "
                                         "has no gradient"):
        params.grad()


def test_grad_rejects_a_rebound_tensor():
    params = dmf.DmfParameters.init(3, 2, 4, 2, seed=5)
    _backward_once(params)
    # rebound: an update of the flat vector would not reach it
    params.tensors["W_out"].data = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"parameter W_out of shape \(4, 2\) "
                                         "is no longer a view"):
        params.grad()
