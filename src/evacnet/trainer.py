"""Joint training loop coupling the forecaster with the feature-masking
agent, the model-variant switchboard, evaluation and checkpointing.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import time
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import dataio, dmf, graphs, metrics, numcore as nc, rlagent
from .fieldtypes import is_a

CHECKPOINT_VERSION = 4
CHECKPOINT_FIELDS = ("version", "config", "registry", "f_t", "f_s", "params",
                     "mask_counts", "static_adj_full")
# Predicted-node rows per forward pass in evaluate. A larger pass spreads
# the fixed cost of each op over more rows, but a pass builds no autograd
# graph, so its memory is the chunk's live activations, and that adds to
# peak memory. In float32 with 32 hidden units, 6 input hours and two
# graphs, the peak of one chunk's gather and forward (tracemalloc) is
# about 3.0 KB per row on S1 and S2 (1.5 MB at 512 rows), whose windows
# share most cells of the grid, and 3.8-4.8 KB on corridors100, where 512
# rows hold about 5 windows of 97 predicted detectors. The LSTM's share
# does not grow with l, as it keeps one hour of state. 256 and 1024 rows
# were both slower than 512 on S1 and corridors100.
EVAL_ROWS = 512
# Widths past which a mistyped value would ask for memory without bound.
# The LSTM's 8 * hidden**2 weights, with a gradient and Adam's two moments
# each, take 128 MiB in float32 at 1024.
MAX_HIDDEN = 1024
# The agent's two hidden layers each hold an (rl_batch,
# rlagent.HIDDEN_UNITS) float32 activation per learn(): 8 MiB at 16384.
MAX_RL_BATCH = 16_384
# Largest step loss of a training run that has not diverged, in the units
# of the targets, z-scored per detector: predicting zero scores about 1,
# and healthy runs stay below 3. An lr so large that the weights blow up
# passes it within an epoch, often with a loss that stays finite.
MAX_TRAIN_LOSS = 1e4

VARIANTS = ("rl_dmf", "dmf_no_rl", "rl_dgl_distance", "rl_dgl_traveltime",
            "lstm_only", "static_gcn_lstm")
ABLATION_VARIANTS = ("rl_dgl_distance", "rl_dgl_traveltime", "dmf_no_rl",
                     "rl_dmf")

_MODALITIES = {
    "rl_dmf": ("d", "tt"),
    "dmf_no_rl": ("d", "tt"),
    "rl_dgl_distance": ("d",),
    "rl_dgl_traveltime": ("tt",),
    "lstm_only": ("identity",),
    "static_gcn_lstm": ("identity",),
}
_RL_VARIANTS = frozenset({"rl_dmf", "rl_dgl_distance", "rl_dgl_traveltime"})


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    variant: str = "rl_dmf"
    epochs: int = 200
    batch_size: int = 8
    lr: float = 5e-3
    seed: int = 0
    l: int = 6
    p: int = 6
    hidden: int = 32
    rl_lr: float = 1e-3
    rl_gamma: float = rlagent.GAMMA
    rl_buffer: int = rlagent.BUFFER_CAPACITY
    rl_batch: int = rlagent.REPLAY_BATCH
    rl_sync_every: int = rlagent.TARGET_SYNC_EVERY
    patience: int = 50
    # stop as soon as denormalized training RMSE drops below this (veh/h)
    train_rmse_stop: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_a(value, f.type):
                raise ValueError(f"{f.name} must be {f.type}, got "
                                 f"{value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected "
                             f"one of {VARIANTS}")
        for name in ("epochs", "batch_size", "l", "p", "hidden", "rl_buffer",
                     "rl_batch", "rl_sync_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        for name, cap in (("hidden", MAX_HIDDEN), ("rl_batch", MAX_RL_BATCH)):
            if getattr(self, name) > cap:
                raise ValueError(f"{name} must be <= {cap}, got "
                                 f"{getattr(self, name)!r}")
        for name in ("patience", "seed"):  # numpy's seeds are >= 0
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)!r}")
        if not 0 <= self.rl_gamma <= 1:  # nan too
            raise ValueError(f"rl_gamma must be in [0, 1], got "
                             f"{self.rl_gamma!r}")
        for name in ("lr", "rl_lr"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got "
                                 f"{value!r}")

    def uses_rl(self):
        return self.variant in _RL_VARIANTS

    def modalities(self):
        return _MODALITIES[self.variant]

    def hash(self):
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_rmse: float | None
    val_mae: float | None
    val_mape: float | None
    val_r2: float | None
    epsilon: float | None
    mean_reward: float | None
    wall_time: float  # seconds since training started, to the millisecond


@dataclass
class TrainResult:
    params: dmf.DmfParameters
    config: TrainConfig
    epoch_logs: list
    agent: rlagent.Agent | None
    ranking_rows: list | None
    static_adj_full: np.ndarray | None = None  # frozen graphs.EDGE chain


def _frozen_chain(dataset):
    """The static baseline's frozen distance graph over every detector:
    its chain edges and their scaled miles, as an array of `graphs.EDGE`."""
    det = dataset.detectors
    i, j, miles, _ = graphs.chain_edges(
        det.highway, det.milepost, np.full(len(det.milepost), graphs.V_MIN))
    return np.fromiter(zip(i, j, graphs.scale_weights(miles)), graphs.EDGE,
                       len(i))


def static_graph(payload, config, dataset):
    """The frozen graph a checkpoint's model reads on `dataset`: None
    unless its variant is `static_gcn_lstm`, else the distance chain over
    the corpus's detectors, which must equal the one it was trained on
    (ValueError)."""
    if config.variant != "static_gcn_lstm":
        return None
    graph = _frozen_chain(dataset)
    saved = payload["static_adj_full"]
    if not np.array_equal(saved, graph):
        raise ValueError(
            f"was trained on a static graph of {len(saved)} edges over "
            f"other detectors than the corpus's graph of {len(graph)} edges")
    return graph


def train(config, dataset, log_fn=None):
    """Run the configured variant over the dataset's training windows.

    One RL action (one masked feature) per optimizer step; the reward is
    the negative normalized-unit MSE of that step, and the next state is
    built from the next step's batch. Each step reads its batch's input
    rows once: an RL variant's state from the "identity" block, the
    forecaster the model's modalities after it.
    """
    if not dataset.train_windows:
        raise ValueError("dataset has no training windows")
    shuffle_rng = np.random.default_rng(config.seed)
    params = dmf.DmfParameters.init(dataset.f_t, dataset.f_s, config.hidden,
                                    config.p, modalities=config.modalities(),
                                    seed=config.seed + 1)
    optimizer = nc.Adam(params.flat, lr=config.lr)
    static_full = (_frozen_chain(dataset)
                   if config.variant == "static_gcn_lstm" else None)

    agent = None
    read = config.modalities()
    if config.uses_rl():
        read = ("identity",) + read
        steps_per_epoch = max(1, int(np.ceil(len(dataset.train_windows)
                                             / config.batch_size)))
        agent = rlagent.Agent(dataset.f_t + dataset.f_s,
                              seed=config.seed + 2, gamma=config.rl_gamma,
                              capacity=config.rl_buffer,
                              batch_size=config.rl_batch,
                              sync_every=config.rl_sync_every,
                              lr=config.rl_lr,
                              total_steps_hint=config.epochs
                              * steps_per_epoch)

    logs = []
    pending = None  # (state, action, reward) awaiting its next state
    best_val = np.inf
    best = None  # the flat parameter vector of the best validation RMSE
    stale = 0
    t_start = time.perf_counter()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset.train_windows))
        batches = [order[i:i + config.batch_size]
                   for i in range(0, len(order), config.batch_size)]
        epoch_loss = 0.0
        rewards = []
        eps = None
        for batch_idx in batches:
            batch = [dataset.train_windows[i] for i in batch_idx]
            rows = dataio.gather_inputs(batch, read, static_full,
                                        state_block=agent is not None)
            mask = None
            state = None
            if agent is not None:
                # the "identity" block dies here; the forward keeps its own
                state = rlagent.build_state(rows[0], dataset.f_t)
                rows = rows[1]
                # a diverging agent overflows its Q-values or its Adam
                # step; its TD errors would then turn NaN as priorities
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        if pending is not None:
                            agent.observe(*pending, state)
                            agent.learn()
                        action, eps = agent.act(state)
                except FloatingPointError as exc:
                    raise TrainingDiverged(
                        f"agent update failed ({exc}) at epoch {epoch}, "
                        f"variant {config.variant}, rl_lr {config.rl_lr}; "
                        f"rl_lr must be lower") from None
                mask = rlagent.apply_mask(action, dataset.f_t, dataset.f_s)

            predicted, _ = dmf.forward(rows, params, mask=mask)
            loss = dmf.mse_loss(predicted, [w.targets for w in batch])
            loss_value = loss.item()
            if not loss_value <= MAX_TRAIN_LOSS:  # nan compares false
                raise TrainingDiverged(
                    f"loss {loss_value:.3g} non-finite or above "
                    f"{MAX_TRAIN_LOSS:g} at epoch {epoch}, variant "
                    f"{config.variant}, lr {config.lr}; lr must be lower")
            loss.backward()
            optimizer.step(params.grad())
            epoch_loss += loss_value * len(batch)

            if agent is not None:
                reward = rlagent.compute_reward(loss_value)
                rewards.append(reward)
                pending = (state, action, reward)

        epoch_loss /= len(dataset.train_windows)
        val = evaluate(params, dataset.val_windows, dataset, static_full) \
            if dataset.val_windows else None
        overall = val["overall"] if val else None
        logs.append(EpochLog(
            epoch=epoch, train_loss=epoch_loss,
            val_rmse=overall.rmse if overall else None,
            val_mae=overall.mae if overall else None,
            val_mape=overall.mape if overall else None,
            val_r2=overall.r2 if overall else None,
            epsilon=eps, mean_reward=float(np.mean(rewards))
            if rewards else None,
            wall_time=round(time.perf_counter() - t_start, 3)))
        if log_fn:
            log_fn(logs[-1])

        if config.train_rmse_stop is not None:
            train_overall = evaluate(params, dataset.train_windows, dataset,
                                     static_full)["overall"]
            if train_overall.rmse < config.train_rmse_stop:
                break
        if overall is not None:
            if overall.rmse < best_val - 1e-12:
                best_val = overall.rmse
                best = params.flat.copy()
                stale = 0
            else:
                stale += 1
                if stale > config.patience:
                    np.copyto(params.flat, best)
                    break

    ranking_rows = None
    if agent is not None and agent.mask_counts.sum() > 0:
        ranking_rows = rlagent.ranking(agent.mask_counts, dataset.registry)
    return TrainResult(params=params, config=config, epoch_logs=logs,
                       agent=agent, ranking_rows=ranking_rows,
                       static_adj_full=static_full)


def _chunks(windows):
    """(start, stop) of consecutive runs of windows, in order, each as long
    as its predicted-node rows fit in EVAL_ROWS; a window over the budget
    is a chunk of its own."""
    bounds, start, rows = [], 0, 0
    for k, w in enumerate(windows):
        if k > start and rows + len(w.det_indices) > EVAL_ROWS:
            bounds.append((start, k))
            start, rows = k, 0
        rows += len(w.det_indices)
    bounds.append((start, len(windows)))
    return bounds


def evaluate(params, windows, dataset, static_full=None):
    """Per-horizon and overall metrics on denormalized flows, no mask.

    The windows go through the forward pass in chunks of consecutive
    windows holding at most EVAL_ROWS predicted-node rows (a larger window
    alone), so memory does not grow with the number of windows. A chunk's
    windows overlap in hours, and with no mask each (hour, detector) cell
    has the same inputs in every window that covers it: the chunk's cells
    are gathered once as a grid (`dataio.gather_grid`), and GCN,
    attention and the LSTM's input projection run once per cell. The
    static baseline's rows depend on each window's predicted detectors,
    so its chunks are gathered and run per window row, each chunk's
    static-graph rows made for it alone."""
    if not windows:
        raise ValueError("no windows to evaluate")
    # constant Tensors over the same arrays: the forward records no graph
    params = replace(params, tensors={k: nc.Tensor(v.data)
                                      for k, v in params.tensors.items()})
    predicted = []
    for start, stop in _chunks(windows):
        chunk = windows[start:stop]
        if static_full is None:
            grid, at = dataio.gather_grid(chunk, params.modalities)
            yhat, _ = dmf.forward(grid, params, at=at)
        else:
            yhat, _ = dmf.forward(dataio.gather_inputs(
                chunk, params.modalities, static_full), params)
        predicted.append(yhat.data)
    predicted = dataset.target_norm.inverse(
        np.concatenate(predicted),
        np.concatenate([w.det_indices for w in windows]))
    actual = np.concatenate([w.targets_raw for w in windows])
    table = {h + 1: metrics.compute(actual[:, h], predicted[:, h])
             for h in range(params.horizon)}
    # horizon-major: the per-horizon series laid end to end
    table["overall"] = metrics.compute(actual.T.ravel(),
                                       predicted.T.ravel())
    return table


def ablate(base_config, dataset, log_fn=None):
    """Run the four ablation variants on the same data and seed.

    Returns (tables, failures): variant -> metric table for the runs
    that finished, variant -> error string for those that did not.
    """
    tables = {}
    failures = {}
    for variant in ABLATION_VARIANTS:
        cfg = TrainConfig(**{**asdict(base_config), "variant": variant})
        try:
            result = train(cfg, dataset, log_fn=log_fn)
            tables[variant] = evaluate(result.params, dataset.eval_windows,
                                       dataset, result.static_adj_full)
        except Exception as exc:  # keep the other variants running
            failures[variant] = f"{type(exc).__name__}: {exc}"
    return tables, failures


def save_checkpoint(result, dataset, path):
    """Versioned container of what `evaluate` and `rank-features` read:
    the config, the feature registry and sizes, the flat parameter vector,
    the agent's mask counts (None without an agent) and the static graph
    (None unless static_gcn_lstm). Identical runs produce identical
    bytes."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(result.config),
        "registry": dataset.registry,
        "f_t": result.params.f_t,
        "f_s": result.params.f_s,
        "params": result.params.flat,
        "mask_counts": result.agent.mask_counts if result.agent else None,
        "static_adj_full": result.static_adj_full,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def _is_array(value, kind, ndim):
    """Whether `value` is an ndarray of `ndim` axes and dtype kind `kind`."""
    return (isinstance(value, np.ndarray) and value.dtype.kind == kind
            and value.ndim == ndim)


def load_checkpoint(path):
    """Returns (payload, config, params). Raises ValueError, naming the
    file, when it is not a checkpoint, is one of another version, or lacks
    a field or has one of the wrong type or size."""
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        # unpickling malformed data "can raise any exception" (pickle docs)
        except Exception:
            payload = None
    if not isinstance(payload, dict) or "version" not in payload:
        raise ValueError(f"{path} is not an evacnet checkpoint")
    if payload["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {payload['version']!r}"
                         f", expected version {CHECKPOINT_VERSION}")
    missing = [k for k in CHECKPOINT_FIELDS if k not in payload]
    if missing:
        raise ValueError(f"{path}: checkpoint field {missing[0]} is missing")
    try:
        # not a mapping, or an unknown key: a TypeError
        cfg = TrainConfig(**payload["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint config rejected: {exc}") \
            from None

    def require(ok, name, what):
        if not ok:
            raise ValueError(f"{path}: checkpoint field {name} is not {what}")

    f_t, f_s, registry = payload["f_t"], payload["f_s"], payload["registry"]
    require(is_a(f_t, "int") and is_a(f_s, "int") and min(f_t, f_s) >= 0,
            "f_t or f_s", "a non-negative integer")
    n = f_t + f_s
    require(isinstance(registry, list) and len(registry) == n
            and all(isinstance(name, str) for name in registry),
            "registry", f"a list of f_t + f_s = {n} feature names")
    saved, counts = payload["params"], payload["mask_counts"]
    require(_is_array(saved, "f", 1), "params", "a float vector")
    # a float64 vector is another precision's model: not rounded silently
    require(saved.dtype == np.float32, "params", "a float32 vector")
    require(counts is None or _is_array(counts, "i", 1) and len(counts) == n,
            "mask_counts", f"None or {n} integer counts")
    static = payload["static_adj_full"]
    require(static is None or _is_array(static, "V", 1)
            and static.dtype == graphs.EDGE,
            "static_adj_full", "None or a vector of chain edges (i, j, w)")
    # counted, not made: the config's sizes would set the allocation
    size = dmf.DmfParameters.size(f_t, f_s, cfg.hidden, cfg.p,
                                  cfg.modalities())
    if saved.size != size:
        raise ValueError(f"{path}: parameter vector has shape {saved.shape}"
                         f", expected ({size},): checkpoint field params "
                         f"disagrees with f_t {f_t}, f_s {f_s}, hidden "
                         f"{cfg.hidden}, p {cfg.p} and variant "
                         f"{cfg.variant}")
    params = dmf.DmfParameters.init(f_t, f_s, cfg.hidden, cfg.p,
                                    modalities=cfg.modalities(),
                                    seed=cfg.seed + 1)
    np.copyto(params.flat, saved)
    return payload, cfg, params


def check_registry(payload, dataset):
    if payload["registry"] != dataset.registry:
        raise ValueError(
            "checkpoint feature registry does not match the dataset:\n"
            f"checkpoint: {payload['registry']}\n"
            f"dataset:    {dataset.registry}")
