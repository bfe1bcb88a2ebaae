import numpy as np
import pytest
from scipy import stats

from conftest import random_window
from evacnet import rlagent
from evacnet.dataio import INPUT_MODALITIES
from evacnet.rlagent import (Agent, EpsilonSchedule, MaskCounter, QNetwork,
                             ReplayBuffer, apply_mask,
                             build_state, compute_reward, ddqn_target,
                             ranking, select_action)

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


def test_apply_mask_temporal_branch():
    m = apply_mask(3, f_t=8, f_s=4)
    assert m.m_temp[3] == 0 and m.m_temp.sum() == 7
    assert m.m_spatial.sum() == 4
    assert m.action == 3


def test_apply_mask_spatial_branch():
    m = apply_mask(10, f_t=8, f_s=4)
    assert m.m_spatial[2] == 0 and m.m_spatial.sum() == 3
    assert m.m_temp.sum() == 8


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
    q_now = agent.online.forward(
        np.stack([s] * agent.batch_size)).data[0][a]
    agent.buffer.push(s, a, q_now, s, 1.0)
    before = [w.data.copy() for w in agent.online.trainable()]
    agent.learn()
    for b, w in zip(before, agent.online.trainable()):
        np.testing.assert_array_equal(b, w.data)


def test_q_values_equal_forward_without_graph(monkeypatch):
    net = QNetwork(5, seed=3)
    rng = np.random.default_rng(3)
    state, batch = rng.normal(size=5), rng.normal(size=(7, 5))
    np.testing.assert_array_equal(net.q_values(state),
                                  net.forward(state).data[0])
    np.testing.assert_array_equal(net.q_values(batch),
                                  net.forward(batch).data)
    outputs = []
    real = rlagent._mlp
    monkeypatch.setattr(rlagent, "_mlp",
                        lambda *args: outputs.append(real(*args))
                        or outputs[-1])
    net.q_values(batch)
    assert not outputs[0].requires_grad and not outputs[0]._parents
    assert net.forward(batch).requires_grad


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
    counter = MaskCounter(np.array([2, 50, 10]), total=62)
    rows = ranking(counter, ["vol", "incident", "weekday"])
    assert [r[1] for r in rows] == ["vol", "weekday", "incident"]
    assert rows[0][0] == 1
    assert sum(r[2] for r in rows) == 62


def test_ranking_uniform_counts_registry_order():
    counter = MaskCounter(np.array([5, 5, 5]), total=15)
    rows = ranking(counter, ["a", "b", "c"])
    assert [r[1] for r in rows] == ["a", "b", "c"]


def test_mask_counter_sum_invariant():
    agent = Agent(n_features=5, seed=12)
    for _ in range(40):
        agent.act(np.zeros(5))
    assert agent.counter.counts.sum() == agent.counter.total == 40


def test_write_ranking_csv(tmp_path):
    counter = MaskCounter(np.array([1, 3]), total=4)
    rows = ranking(counter, ["x", "y"])
    path = tmp_path / "ranking.csv"
    rlagent.write_ranking_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,feature_name,mask_count,mask_fraction"
    assert lines[1].startswith("1,x,1,")
