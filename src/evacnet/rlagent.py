"""Double-DQN feature-masking agent with prioritized experience replay.

One action per training step: pick a single input feature, zero it for
that step's forward pass, and collect the negative prediction loss as
the reward. Features the agent rarely masks are the important ones; the
ranking is the ascending mask-count order.

The Q-networks are plain arrays and build no autograd graph: the TD loss
returns its flat gradient, which `numcore.Adam` applies to `flat`.

Precision: the networks, Adam's moments, the replay buffer's states and
every activation, TD error and gradient are float32. The state vector is
a float64 mean, rounded once to float32 where it is stored or fed to a
network. The rewards, the TD targets until `td_loss` rounds them, and
the priority array, whose normalized values `rng.choice` reads as
probabilities, stay float64. The ops take their dtype from the weights,
so a network over a float64 copy of `flat` runs in float64 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc

GAMMA = 0.95
BUFFER_CAPACITY = 10_000
REPLAY_BATCH = 64
TARGET_SYNC_EVERY = 100
PER_ALPHA = 0.6
PER_BETA_START = 0.4
PER_BETA_END = 1.0
PRIORITY_EPS = 1e-6
HIDDEN_UNITS = 128


def apply_mask(action, f_t, f_s):
    """The (f_t + f_s,) 0/1 feature mask that zeroes the single feature
    `action` selects, in the input columns' order: temporal, then
    spatial."""
    if not 0 <= action < f_t + f_s:
        raise ValueError(f"action {action} outside [0, {f_t + f_s})")
    mask = np.ones(f_t + f_s)
    mask[action] = 0.0
    return mask


def build_state(rows, f_t):
    """State vector from a batch's (l, N, F) unpropagated input rows: the
    batch/time mean of their temporal features (the first f_t columns),
    the batch mean of their spatial features at the first input hour,
    concatenated. Averaged in float64; the state is rounded to the
    networks' float32 once, where it is stored or fed to one."""
    rows = rows.astype(np.float64)
    # node-major (node, hour) rows: the mean's summation order sets its
    # last bits
    temp = rows[:, :, :f_t].transpose(1, 0, 2).reshape(-1, f_t)
    return np.concatenate([temp.mean(axis=0), rows[0, :, f_t:].mean(axis=0)])


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
            self.states = self.next_states = np.zeros((0, n_features),
                                                      np.float32)
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
    """The MLP on arrays: the (B, F) input rows, cast to the weights'
    dtype, each hidden layer's ReLU output and the Q-values, in order. The
    ReLU runs in place on the fresh product; max(x, 0) is +0 at x = -0, as
    x > 0's select is."""
    acts = [np.atleast_2d(np.asarray(states, dtype=weights[0].dtype))]
    for k, (w, b) in enumerate(zip(weights, biases)):
        x = acts[-1] @ w + b
        if k < len(weights) - 1:
            np.maximum(x, 0.0, out=x)
        acts.append(x)
    return acts


class QNetwork:
    """MLP (F,) -> 128 -> 128 -> (F,) with ReLU hidden activations. The
    weights, then the biases, are arrays that view, consecutively, the one
    contiguous float32 vector `flat` (`numcore.flatten`); they are drawn in
    float64 and rounded once, so a seed draws the weights it always has."""

    def __init__(self, n_features, hidden=HIDDEN_UNITS, seed=0):
        rng = np.random.default_rng(seed)
        sizes = [n_features, hidden, hidden, n_features]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        self.flat, views = nc.flatten(a.astype(np.float32)
                                      for a in weights + biases)
        self.weights, self.biases = views[:3], views[3:]

    def q_values(self, state):
        """(F,) for one state, (B, F) for a batch of states."""
        q = _mlp(state, self.weights, self.biases)[-1]
        return q[0] if np.ndim(state) == 1 else q

    def td_loss(self, states, actions, targets, weights):
        """The importance-weighted mean squared TD error of the taken
        actions, mean_b w_b·(Q(s_b, a_b) - y_b)², with its gradient by a
        backward pass through the three layers written by hand. Returns
        the loss, its gradient with respect to `flat` (each layer's weight
        and bias gradients written into their views of one new vector)
        and the (B,) TD errors. The targets and the importance weights are
        rounded once to `flat`'s dtype, in which every product runs."""
        ws = self.weights
        dtype = self.flat.dtype
        targets = np.asarray(targets, dtype)
        weights = np.asarray(weights, dtype)
        acts = _mlp(states, ws, self.biases)
        onehot = np.eye(ws[-1].shape[1], dtype=dtype)[actions]
        td = (acts[-1] * onehot).sum(axis=1) - targets
        n = len(td)

        grad = np.empty_like(self.flat)
        d = nc.views(grad, [a.shape for a in ws + self.biases])
        dws, dbs = d[:3], d[3:]
        g = 1.0 / n
        # the products' order as in the graph's backward: the same bits
        dx = (g * (weights * td) + (g * td) * weights)[:, None] * onehot
        for k in reversed(range(len(ws))):
            np.matmul(acts[k].T, dx, out=dws[k])
            dx.sum(axis=0, out=dbs[k])
            if k:  # the input rows are data: no gradient
                dx = (dx @ ws[k].T) * (acts[k] > 0)
        return float((weights * td * td).mean()), grad, td

    def copy_from(self, other):
        np.copyto(self.flat, other.flat)


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
    ((B,) rewards and (B, F) states) and returns a float or a (B,) array,
    in float64: the target net's value is widened before it is discounted.
    """
    a_star = np.argmax(online.q_values(next_state), axis=-1)
    value = np.take_along_axis(target.q_values(next_state),
                               np.expand_dims(a_star, -1), axis=-1)
    return reward + gamma * value.squeeze(-1).astype(np.float64)


def ranking(counts, feature_names):
    """Features sorted ascending by their mask counts (least masked first =
    most important); registry order breaks ties. Returns
    (rank, name, count, fraction) rows."""
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("no recorded actions")
    order = np.argsort(counts, kind="stable")
    return [(rank, feature_names[k], int(counts[k]), int(counts[k]) / total)
            for rank, k in enumerate(order, start=1)]


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
        # how often each feature was masked; the ranking reads these
        self.mask_counts = np.zeros(n_features, dtype=np.int64)
        self.optimizer = nc.Adam(self.online.flat, lr=lr)
        self.updates = 0
        self.total_steps_hint = max(1, total_steps_hint)

    def beta(self):
        frac = min(1.0, self.updates / self.total_steps_hint)
        return PER_BETA_START + frac * (PER_BETA_END - PER_BETA_START)

    def act(self, state):
        eps = self.schedule.advance()
        action = select_action(state, self.online, eps, self.rng,
                               self.n_features)
        self.mask_counts[action] += 1
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

        _, grad, td = self.online.td_loss(buf.states[idx], buf.actions[idx],
                                          targets, weights)
        self.optimizer.step(grad)

        abs_td = np.abs(td)
        # a row drawn twice keeps its last TD error
        buf.priorities[idx] = abs_td + PRIORITY_EPS
        self.updates += 1
        if self.updates % self.sync_every == 0:
            self.target.copy_from(self.online)
        return float(abs_td.mean())
