"""Double-DQN feature-masking agent with prioritized experience replay.

One action per training step: pick a single input feature, zero it for
that step's forward pass, and collect the negative prediction loss as
the reward. Features the agent rarely masks are the important ones; the
ranking is the ascending mask-count order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import Tensor

GAMMA = 0.95
BUFFER_CAPACITY = 10_000
REPLAY_BATCH = 64
TARGET_SYNC_EVERY = 100
PER_ALPHA = 0.6
PER_BETA_START = 0.4
PER_BETA_END = 1.0
PRIORITY_EPS = 1e-6
HIDDEN_UNITS = 128


@dataclass
class MaskState:
    """Binary feature masks with at most one zero across both blocks."""
    m_temp: np.ndarray
    m_spatial: np.ndarray
    action: int | None

    @classmethod
    def all_ones(cls, f_t, f_s):
        return cls(np.ones(f_t), np.ones(f_s), None)


def apply_mask(action, f_t, f_s):
    """Mask the single feature selected by `action` (temporal-first order)."""
    if not 0 <= action < f_t + f_s:
        raise ValueError(f"action {action} outside [0, {f_t + f_s})")
    mask = MaskState.all_ones(f_t, f_s)
    if action < f_t:
        mask.m_temp[action] = 0.0
    else:
        mask.m_spatial[action - f_t] = 0.0
    mask.action = action
    return mask


def build_state(windows, f_t):
    """State vector: batch/time mean of the windows' temporal features (the
    first f_t input columns), batch mean of their spatial features,
    concatenated."""
    if not windows:
        raise ValueError("empty batch")
    rows = [w.inputs(("identity",))[:, 0] for w in windows]  # (l, n_w, F)
    # node-major rows: the mean's summation order sets its last bits
    temp = np.concatenate([r[:, :, :f_t].transpose(1, 0, 2).reshape(-1, f_t)
                           for r in rows], axis=0)
    spat = np.concatenate([r[0, :, f_t:] for r in rows], axis=0)
    return np.concatenate([temp.mean(axis=0), spat.mean(axis=0)])


def compute_reward(loss):
    if not np.isfinite(loss):
        raise ValueError("non-finite prediction loss")
    return -float(loss)


@dataclass
class EpsilonSchedule:
    start: float = 1.0
    decay: float = 0.995
    minimum: float = 0.05
    steps: int = 0

    def value(self, n=None):
        n = self.steps if n is None else n
        return max(self.minimum, self.start * self.decay ** n)

    def advance(self):
        eps = self.value()
        self.steps += 1
        return eps


class ReplayBuffer:
    """Proportional prioritized replay: P(i) ∝ priority_i ** alpha.

    Transitions are rows of a ring of arrays. The arrays double when they
    fill, up to `capacity` rows; after that the oldest row is overwritten
    first.
    """

    def __init__(self, capacity=BUFFER_CAPACITY, alpha=PER_ALPHA):
        self.capacity = capacity
        self.alpha = alpha
        self.size = 0
        self._next = 0
        self.states = self.next_states = None  # (rows, F), on the first push
        self.actions = np.zeros(0, dtype=np.int64)
        self.rewards = np.zeros(0)
        self.priorities = np.zeros(0)

    def __len__(self):
        return self.size

    def _grow(self, n_features):
        rows = min(self.capacity, max(1, 2 * len(self.priorities)))
        if self.states is None:
            self.states = self.next_states = np.zeros((0, n_features))
        for name in ("states", "next_states", "actions", "rewards",
                     "priorities"):
            old = getattr(self, name)
            pad = np.zeros((rows - len(old),) + old.shape[1:], old.dtype)
            setattr(self, name, np.concatenate([old, pad]))

    def push(self, state, action, reward, next_state, priority):
        if priority <= 0:
            raise ValueError("priority must be positive")
        k = self._next
        if k == len(self.priorities):
            self._grow(len(state))
        self.states[k] = state
        self.next_states[k] = next_state
        self.actions[k] = action
        self.rewards[k] = reward
        self.priorities[k] = priority
        self._next = (k + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def probabilities(self):
        prios = self.priorities[:self.size] ** self.alpha
        return prios / prios.sum()

    def sample(self, batch_size, beta, rng):
        """Returns (indices, importance weights).

        Weights are (N * P(i))^-beta normalized by their max. A batch
        larger than the buffer samples with replacement (it always
        samples with replacement, matching proportional selection).
        """
        if not self.size:
            raise ValueError("replay buffer is empty")
        probs = self.probabilities()
        idx = rng.choice(self.size, size=batch_size, p=probs)
        weights = (self.size * probs[idx]) ** (-beta)
        return idx, weights / weights.max()


def _mlp(states, weights, biases):
    x = Tensor(np.atleast_2d(np.asarray(states, dtype=float)))
    for k, (w, b) in enumerate(zip(weights, biases)):
        x = nc.matmul(x, w) + b
        if k < len(weights) - 1:
            x = nc.relu(x)
    return x


class QNetwork:
    """MLP (F,) -> 128 -> 128 -> (F,) with ReLU hidden activations."""

    def __init__(self, n_features, hidden=HIDDEN_UNITS, seed=0):
        rng = np.random.default_rng(seed)
        sizes = [n_features, hidden, hidden, n_features]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(Tensor(rng.uniform(-bound, bound,
                                                   (fan_in, fan_out)),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def trainable(self):
        return self.weights + self.biases

    def forward(self, states):
        """states: (B, F) or (F,) -> (B, F) Q-values, recorded for backward."""
        return _mlp(states, self.weights, self.biases)

    def q_values(self, state):
        """(F,) for one state, (B, F) for a batch of states. Runs on
        constant Tensors over the same arrays, so it records no graph."""
        q = _mlp(state, [Tensor(w.data) for w in self.weights],
                 [Tensor(b.data) for b in self.biases]).data
        return q[0] if np.ndim(state) == 1 else q

    def copy_from(self, other):
        for dst, src in zip(self.trainable(), other.trainable()):
            dst.data = src.data.copy()

    def state_dict(self):
        return {"weights": [w.data.copy() for w in self.weights],
                "biases": [b.data.copy() for b in self.biases]}

    def load_state_dict(self, state):
        for w, data in zip(self.weights, state["weights"]):
            w.data = data.copy()
        for b, data in zip(self.biases, state["biases"]):
            b.data = data.copy()


def select_action(state, online, epsilon, rng, n_actions):
    """ε-greedy: uniform with prob ε, else greedy on online Q-values."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon outside [0, 1]")
    if rng.random() < epsilon:
        return int(rng.integers(n_actions))
    return int(np.argmax(online.q_values(state)))  # ties: lowest index


def ddqn_target(reward, next_state, gamma, online, target):
    """Online net selects the next action, target net evaluates it.

    Takes one transition (a float reward and an (F,) state) or a batch
    ((B,) rewards and (B, F) states) and returns a float or a (B,) array.
    """
    a_star = np.argmax(online.q_values(next_state), axis=-1)
    value = np.take_along_axis(target.q_values(next_state),
                               np.expand_dims(a_star, -1), axis=-1)
    return reward + gamma * value.squeeze(-1)


@dataclass
class MaskCounter:
    counts: np.ndarray
    total: int = 0

    @classmethod
    def zeros(cls, n_features):
        return cls(np.zeros(n_features, dtype=np.int64))

    def record(self, action):
        self.counts[action] += 1
        self.total += 1


def ranking(counter, feature_names):
    """Features sorted ascending by mask count (least masked first = most
    important); registry order breaks ties. Returns
    (rank, name, count, fraction) rows."""
    if counter.total <= 0:
        raise ValueError("no recorded actions")
    order = np.argsort(counter.counts, kind="stable")
    rows = []
    for rank, k in enumerate(order, start=1):
        rows.append((rank, feature_names[k], int(counter.counts[k]),
                     counter.counts[k] / counter.total))
    return rows


def write_ranking_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,feature_name,mask_count,mask_fraction\n")
        for rank, name, count, frac in rows:
            fh.write(f"{rank},{name},{count},{frac!r}\n")


class Agent:
    """Bundles the DDQN pieces and the training-side bookkeeping."""

    def __init__(self, n_features, seed=0, gamma=GAMMA,
                 capacity=BUFFER_CAPACITY, batch_size=REPLAY_BATCH,
                 sync_every=TARGET_SYNC_EVERY, lr=1e-3,
                 total_steps_hint=10_000):
        self.n_features = n_features
        self.gamma = gamma
        self.batch_size = batch_size
        self.sync_every = sync_every
        self.rng = np.random.default_rng(seed)
        self.online = QNetwork(n_features, seed=seed)
        self.target = QNetwork(n_features, seed=seed)
        self.target.copy_from(self.online)
        self.buffer = ReplayBuffer(capacity)
        self.schedule = EpsilonSchedule()
        self.counter = MaskCounter.zeros(n_features)
        self.optimizer = nc.Adam(self.online.trainable(), lr=lr)
        self.updates = 0
        self.total_steps_hint = max(1, total_steps_hint)

    def beta(self):
        frac = min(1.0, self.updates / self.total_steps_hint)
        return PER_BETA_START + frac * (PER_BETA_END - PER_BETA_START)

    def act(self, state):
        eps = self.schedule.advance()
        action = select_action(state, self.online, eps, self.rng,
                               self.n_features)
        self.counter.record(action)
        return action, eps

    def observe(self, state, action, reward, next_state):
        buf = self.buffer
        prio = buf.priorities[:len(buf)].max() if len(buf) else 1.0
        buf.push(state, action, reward, next_state, prio)

    def learn(self):
        """One prioritized DDQN update; returns the mean |TD error|."""
        buf = self.buffer
        if not len(buf):
            return None
        idx, weights = buf.sample(self.batch_size, self.beta(), self.rng)
        targets = ddqn_target(buf.rewards[idx], buf.next_states[idx],
                              self.gamma, self.online, self.target)

        self.optimizer.zero_grad()
        q_all = self.online.forward(buf.states[idx])  # (B, F)
        onehot = np.zeros((len(idx), self.n_features))
        onehot[np.arange(len(idx)), buf.actions[idx]] = 1.0
        q_taken = (q_all * onehot).sum(axis=1)
        td = q_taken - Tensor(targets)
        loss = (Tensor(weights) * td * td).mean()
        loss.backward()
        self.optimizer.step()

        abs_td = np.abs(td.data)
        # a row drawn twice keeps its last TD error
        buf.priorities[idx] = abs_td + PRIORITY_EPS
        self.updates += 1
        if self.updates % self.sync_every == 0:
            self.target.copy_from(self.online)
        return float(abs_td.mean())

    def state_dict(self):
        return {"online": self.online.state_dict(),
                "target": self.target.state_dict(),
                "counts": self.counter.counts.copy(),
                "total": self.counter.total,
                "schedule_steps": self.schedule.steps,
                "updates": self.updates}

    def load_state_dict(self, state):
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.counter = MaskCounter(state["counts"].copy(), state["total"])
        self.schedule.steps = state["schedule_steps"]
        self.updates = state["updates"]
