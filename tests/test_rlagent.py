import numpy as np
import pytest
from scipy import stats

from conftest import random_window
from evacnet import dataio, numcore as nc, rlagent, synth
from evacnet.dataio import INPUT_MODALITIES
from evacnet.rlagent import (Agent, EpsilonSchedule, QNetwork, ReplayBuffer,
                             apply_mask, build_state, compute_reward,
                             ddqn_target, ranking, select_action)

ROWS = INPUT_MODALITIES.index("identity")  # the unpropagated rows


def make_transition(rng, n_features=4, priority=1.0):
    return (rng.normal(size=n_features), int(rng.integers(n_features)),
            float(rng.normal()), rng.normal(size=n_features), priority)


def test_build_state_single_constant_node():
    rng = np.random.default_rng(0)
    w, _ = random_window(rng, n=1, f_t=3, f_s=2, l=4, p=1)
    w.table[:, ROWS, 0] = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = build_state([w], 3)
    np.testing.assert_allclose(s, [1, 2, 3, 4, 5])


def test_build_state_mean_over_time():
    rng = np.random.default_rng(1)
    w, _ = random_window(rng, n=1, f_t=1, f_s=1, l=2, p=1)
    w.table[0, ROWS, 0, 0] = 0.0
    w.table[1, ROWS, 0, 0] = 2.0
    w.table[:, ROWS, 0, 1] = 7.0
    np.testing.assert_allclose(build_state([w], 1), [1.0, 7.0])


def test_build_state_length_and_empty():
    rng = np.random.default_rng(2)
    ws = [random_window(rng, n=3, f_t=4, f_s=2, l=3, p=1)[0]
          for _ in range(3)]
    assert build_state(ws, 4).shape == (6,)
    with pytest.raises(ValueError):
        build_state([], 4)


def build_state_reference(windows, f_t):
    """The state from each window's full (l, n, F) input rows, copied
    node-major: the gather `build_state` replaced."""
    rows = [dataio.gather_inputs([w], ("identity",))[:, 0]
            for w in windows]
    temp = np.concatenate([r[:, :, :f_t].transpose(1, 0, 2).reshape(-1, f_t)
                           for r in rows], axis=0)
    spat = np.concatenate([r[0, :, f_t:] for r in rows], axis=0)
    return np.concatenate([temp.mean(axis=0), spat.mean(axis=0)])


CORRIDORS100 = synth.Scenario(
    name="corridors100", seed=1, horizon_hours=336,
    corridors=[("I75", 25, 3.0), ("I4", 25, 3.0), ("I95", 25, 3.0),
               ("I10", 25, 3.0)],
    order_hour=168, landfall_hour=302, noise_std=20.0,
    incident_rate_per_hour=0.01, outage_rate_per_hour=0.003)


@pytest.mark.parametrize("name", ["S1", "S2", "corridors100"])
def test_build_state_bit_identical_to_full_row_gather(name, tmp_path):
    scenario = (CORRIDORS100 if name == "corridors100"
                else synth.builtin_scenarios()[name])
    meta, records, _ = synth.generate(scenario, tmp_path)
    ds = dataio.prepare(meta, records)
    windows = ds.train_windows + ds.val_windows
    order = np.random.default_rng(0).permutation(len(windows))
    for k in range(0, len(order), 8):
        batch = [windows[i] for i in order[k:k + 8]]
        np.testing.assert_array_equal(build_state(batch, ds.f_t),
                                      build_state_reference(batch, ds.f_t))


def test_apply_mask_temporal_branch():
    m = apply_mask(3, f_t=8, f_s=4)
    assert m.shape == (12,) and set(m) == {0.0, 1.0}
    assert m[3] == 0 and m[:8].sum() == 7
    assert m[8:].sum() == 4


def test_apply_mask_spatial_branch():
    m = apply_mask(10, f_t=8, f_s=4)
    assert m[10] == 0 and m[8:].sum() == 3
    assert m[:8].sum() == 8


def test_apply_mask_out_of_range():
    with pytest.raises(ValueError):
        apply_mask(12, f_t=8, f_s=4)


def test_reward():
    assert compute_reward(0.25) == -0.25
    assert compute_reward(0.0) == 0.0
    assert compute_reward(0.1) > compute_reward(0.2)
    with pytest.raises(ValueError):
        compute_reward(float("nan"))


def test_epsilon_schedule_exact():
    sched = EpsilonSchedule()
    for n in range(2001):
        assert sched.value(n) == max(0.05, 1.0 * 0.995 ** n)
    values = [sched.value(n) for n in range(200)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_select_action_greedy_and_tiebreak():
    class Fake:
        def __init__(self, q):
            self.q = np.asarray(q, dtype=float)

        def q_values(self, state):
            return self.q

    rng = np.random.default_rng(0)
    assert select_action(None, Fake([1, 3, 2]), 0.0, rng, 3) == 1
    assert select_action(None, Fake([2, 2, 0]), 0.0, rng, 3) == 0


def test_select_action_uniform_when_exploring():
    rng = np.random.default_rng(3)
    net = QNetwork(4, seed=0)
    counts = np.zeros(4)
    for _ in range(10_000):
        counts[select_action(np.zeros(4), net, 1.0, rng, 4)] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_ddqn_target_gamma_zero():
    online = QNetwork(3, seed=1)
    target = QNetwork(3, seed=2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = float(rng.normal())
        assert ddqn_target(r, rng.normal(size=3), 0.0, online, target) == r


def test_ddqn_target_hand_case():
    class Fake:
        def __init__(self, q):
            self.q = np.asarray(q, dtype=float)

        def q_values(self, state):
            return self.q

    online = Fake([0.0, 0.1, 9.0])  # argmax = 2
    target = Fake([5.0, 5.0, 1.0])
    y = ddqn_target(-0.5, np.zeros(3), 0.95, online, target)
    assert y == pytest.approx(-0.5 + 0.95 * 1.0)


def test_ddqn_selection_evaluation_decoupled():
    # online argmax differs from target argmax; the target's value at the
    # online argmax must be used
    class Fake:
        def __init__(self, q):
            self.q = np.asarray(q, dtype=float)

        def q_values(self, state):
            return self.q

    online = Fake([10.0, 0.0])
    target = Fake([2.0, 50.0])
    y = ddqn_target(0.0, np.zeros(2), 1.0, online, target)
    assert y == 2.0  # not 50


def test_replay_equal_priorities_uniform():
    rng = np.random.default_rng(5)
    buf = ReplayBuffer(capacity=10)
    for _ in range(5):
        buf.push(*make_transition(rng, priority=1.0))
    idx, _ = buf.sample(10_000, beta=0.4, rng=rng)
    counts = np.bincount(idx, minlength=5)
    assert stats.chisquare(counts).pvalue > 0.01


def test_replay_proportional_probabilities():
    rng = np.random.default_rng(6)
    buf = ReplayBuffer(capacity=4, alpha=1.0)
    buf.push(*make_transition(rng, priority=3.0))
    buf.push(*make_transition(rng, priority=1.0))
    np.testing.assert_allclose(buf.probabilities(), [0.75, 0.25])


def test_replay_beta_zero_unit_weights():
    rng = np.random.default_rng(7)
    buf = ReplayBuffer()
    for _ in range(8):
        buf.push(*make_transition(rng, priority=float(rng.uniform(0.5, 5))))
    _, weights = buf.sample(32, beta=0.0, rng=rng)
    np.testing.assert_array_equal(weights, 1.0)


def test_replay_batch_larger_than_buffer():
    rng = np.random.default_rng(8)
    buf = ReplayBuffer()
    buf.push(*make_transition(rng))
    idx, _ = buf.sample(5, beta=0.4, rng=rng)
    assert len(idx) == 5


def test_replay_ring_wraps_oldest_first():
    buf = ReplayBuffer(capacity=5, alpha=1.0)
    for i in range(12):
        buf.push(np.full(2, i), 0, float(i), np.full(2, i), float(i + 1))
    assert len(buf) == 5
    # pushes 7..11 are live; push i sits in slot i % 5
    np.testing.assert_array_equal(buf.rewards[:5], [10, 11, 7, 8, 9])
    np.testing.assert_array_equal(buf.states[:5, 0], [10, 11, 7, 8, 9])
    prios = np.array([11.0, 12.0, 8.0, 9.0, 10.0])
    np.testing.assert_allclose(buf.probabilities(), prios / prios.sum())


def test_replay_storage_grows_with_use():
    rng = np.random.default_rng(13)
    buf = ReplayBuffer(capacity=10_000)
    for _ in range(3):
        buf.push(*make_transition(rng))
    assert len(buf) == 3
    assert len(buf.priorities) < buf.capacity
    assert len(buf.states) < buf.capacity


def test_ddqn_target_batch_matches_rows():
    online = QNetwork(5, seed=3)
    target = QNetwork(5, seed=4)
    rng = np.random.default_rng(14)
    rewards = rng.normal(size=64)
    next_states = rng.normal(size=(64, 5))
    batched = ddqn_target(rewards, next_states, 0.95, online, target)
    rows = [ddqn_target(r, s, 0.95, online, target)
            for r, s in zip(rewards, next_states)]
    assert batched.shape == (64,)
    np.testing.assert_allclose(batched, rows, rtol=0, atol=1e-12)


def test_observe_gives_max_live_priority():
    agent = Agent(n_features=3, seed=15)
    s = np.zeros(3)
    agent.observe(s, 0, 0.0, s)
    assert agent.buffer.priorities[0] == 1.0
    agent.buffer.priorities[0] = 0.5
    agent.observe(s, 1, 0.0, s)
    agent.buffer.priorities[1] = 4.0
    agent.observe(s, 2, 0.0, s)
    # allocated rows past the live ones are not transitions
    agent.buffer.priorities[len(agent.buffer):] = 99.0
    agent.observe(s, 0, 0.0, s)
    np.testing.assert_array_equal(agent.buffer.priorities[:4],
                                  [0.5, 4.0, 4.0, 4.0])


def test_train_q_zero_td_error_leaves_theta():
    agent = Agent(n_features=3, seed=9)
    rng = np.random.default_rng(9)
    s = rng.normal(size=3)
    # construct a transition whose target equals the current estimate
    a = 1
    y = rlagent.ddqn_target(0.0, s, 0.0, agent.online, agent.target)
    # reward chosen so TD error is exactly zero with gamma forced to 0;
    # computed through the same batched matmul path learn() will use
    agent.gamma = 0.0
    q_now = agent.online.q_values(np.stack([s] * agent.batch_size))[0][a]
    agent.buffer.push(s, a, q_now, s, 1.0)
    before = [w.data.copy() for w in agent.online.trainable()]
    agent.learn()
    for b, w in zip(before, agent.online.trainable()):
        np.testing.assert_array_equal(b, w.data)


def test_q_values_equal_forward_without_graph(monkeypatch):
    # the loss node's forward reads the same Q-values as q_values
    net = QNetwork(5, seed=3)
    rng = np.random.default_rng(3)
    state, batch = rng.normal(size=5), rng.normal(size=(7, 5))
    actions = rng.integers(5, size=7)
    np.testing.assert_array_equal(net.q_values(state),
                                  net.q_values(state[None])[0])
    loss, td = net.td_loss(batch, actions, np.zeros(7), np.ones(7))
    np.testing.assert_array_equal(net.q_values(batch)[np.arange(7), actions],
                                  td)
    outputs = []
    real = rlagent._mlp
    monkeypatch.setattr(rlagent, "_mlp",
                        lambda *args: outputs.append(real(*args))
                        or outputs[-1])
    net.q_values(batch)
    assert all(type(a) is np.ndarray for a in outputs[0])
    assert loss.requires_grad
    assert loss._parents == tuple(net.trainable())


def test_td_loss_matches_finite_differences():
    rng = np.random.default_rng(12)
    net = QNetwork(4, hidden=6, seed=12)
    for b in net.biases:
        b.data = rng.normal(size=b.shape) * 0.1
    # replay row 1 drawn twice; actions on three columns
    idx = np.array([0, 1, 2, 1, 3, 4])
    rows = rng.normal(size=(5, 4))[idx]
    actions = np.array([0, 2, 3, 0, 1])[idx]
    targets = rng.normal(size=5)[idx]
    weights = rng.uniform(0.2, 1.0, size=5)[idx]
    acts = rlagent._mlp(rows, [w.data for w in net.weights],
                        [b.data for b in net.biases])
    assert (acts[1] == 0).any() and (acts[2] == 0).any()  # ReLU-inactive

    def f():
        return net.td_loss(rows, actions, targets, weights)[0]

    assert nc.finite_diff_check(f, net.trainable()) < 1e-6


def test_agent_update_graph_is_one_node():
    net = QNetwork(4, hidden=6, seed=13)
    rng = np.random.default_rng(13)
    loss, _ = net.td_loss(rng.normal(size=(8, 4)), rng.integers(4, size=8),
                          rng.normal(size=8), np.ones(8))
    nodes, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                stack.append(parent)
    # 6 parameters and the loss
    assert len(nodes) == 6 + 1


def test_train_q_priority_update_contract():
    agent = Agent(n_features=3, seed=10, gamma=0.0)
    rng = np.random.default_rng(10)
    s = rng.normal(size=3)
    agent.buffer.push(s, 0, 5.0, s, 1.0)
    agent.learn()
    q = agent.online.q_values(s)[0]
    # priority was set from the pre-update TD error; just check form
    assert agent.buffer.priorities[0] > rlagent.PRIORITY_EPS / 2


def test_single_transition_overfit():
    agent = Agent(n_features=4, seed=11, gamma=0.0, batch_size=8)
    rng = np.random.default_rng(11)
    s = rng.normal(size=4)
    agent.buffer.push(s, 2, -0.7, s.copy(), 1.0)
    td = None
    for _ in range(500):
        td = agent.learn()
        if td is not None and td < 1e-3:
            break
    assert td < 1e-3


def test_ranking_sorted_ascending_by_count():
    rows = ranking(np.array([2, 50, 10]), ["vol", "incident", "weekday"])
    assert [r[1] for r in rows] == ["vol", "weekday", "incident"]
    assert rows[0][0] == 1
    assert sum(r[2] for r in rows) == 62


def test_ranking_uniform_counts_registry_order():
    rows = ranking(np.array([5, 5, 5]), ["a", "b", "c"])
    assert [r[1] for r in rows] == ["a", "b", "c"]


def test_mask_counter_sum_invariant():
    agent = Agent(n_features=5, seed=12)
    for _ in range(40):
        agent.act(np.zeros(5))
    assert agent.mask_counts.dtype == np.int64
    assert agent.mask_counts.sum() == 40


def test_write_ranking_csv(tmp_path):
    rows = ranking(np.array([1, 3]), ["x", "y"])
    path = tmp_path / "ranking.csv"
    rlagent.write_ranking_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,feature_name,mask_count,mask_fraction"
    assert lines[1:] == ["1,x,1,0.25", "2,y,3,0.75"]


def test_mlp_relu_matches_select_bit_for_bit():
    # a product of BLAS never rounds to -0.0, so the hidden pre-activation
    # comes from a stand-in weight whose product is a given (64, 128) array
    # holding -0.0, +0.0, negatives and positives; adding the bias -0.0
    # keeps every entry, -0.0 included
    class Given:
        __array_ufunc__ = None  # ndarray @ Given defers to __rmatmul__

        def __rmatmul__(self, rows):
            return pre.copy()

    rng = np.random.default_rng(21)
    pre = rng.choice([-0.0, 0.0, -1.5, 2.0, -1e-300, 1e-300], size=(64, 128))
    assert np.signbit(pre[pre == 0]).any()
    assert not np.signbit(pre[pre == 0]).all()
    w2, b2 = rng.normal(size=(128, 3)), np.zeros(3)
    acts = rlagent._mlp(np.ones((64, 1)), [Given(), w2],
                        [np.full(128, -0.0), b2])
    expected = np.where(pre > 0, pre, 0.0)
    np.testing.assert_array_equal(acts[1], expected)
    np.testing.assert_array_equal(np.signbit(acts[1]), np.signbit(expected))


def _assert_views(net):
    for t in net.trainable():
        assert np.shares_memory(t.data, net.flat)


def test_q_network_parameters_stay_views_of_flat():
    net, other = QNetwork(4, hidden=6, seed=1), QNetwork(4, hidden=6, seed=2)
    _assert_views(net)
    assert net.flat.size == sum(t.data.size for t in net.trainable())
    net.copy_from(other)
    _assert_views(net)
    np.testing.assert_array_equal(net.flat, other.flat)
    assert not np.shares_memory(net.flat, other.flat)
