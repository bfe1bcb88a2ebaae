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

CHECKPOINT_VERSION = 3
CHECKPOINT_FIELDS = ("version", "config", "registry", "f_t", "f_s", "params",
                     "mask_counts", "static_adj_full")
# Predicted-node rows per forward pass in evaluate. A larger pass spreads
# the fixed cost of each op over more rows, but a pass builds no autograd
# graph, so its memory is the chunk's live activations, about 16 KB per
# row with 32 hidden units, and that adds to peak memory.
EVAL_ROWS = 256

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
    "static_gcn_lstm": ("d",),
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
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience!r}")
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
    wall_time: float


@dataclass
class TrainResult:
    params: dmf.DmfParameters
    config: TrainConfig
    epoch_logs: list
    agent: rlagent.Agent | None
    ranking_rows: list | None
    static_adj_full: np.ndarray | None = None


def _static_distance_adj(dataset):
    """Frozen distance adjacency over the union of all detectors."""
    data = dataset.data
    highway, milepost = data.layout()
    return graphs.build_snapshot(data.detector_ids, highway, milepost,
                                 np.full(len(milepost), graphs.V_MIN)).adj_d


def _static_rows(static_full, windows):
    """Each window's static-graph product Ã_w·[temporal ‖ spatial],
    (l, n_w, F), Ã_w the normalized block of the frozen graph over its
    predicted detectors; None when the variant has no static graph."""
    if static_full is None:
        return None
    return [graphs.gcn_normalize(static_full[np.ix_(w.det_indices,
                                                    w.det_indices)])
            @ dataio.gather_inputs([w], ("identity",))[:, 0]
            for w in windows]


def train(config, dataset, log_fn=None):
    """Run the configured variant over the dataset's training windows.

    One RL action (one masked feature) per optimizer step; the reward is
    the negative normalized-unit MSE of that step, and the next state is
    built from the next step's batch.
    """
    if not dataset.train_windows:
        raise ValueError("dataset has no training windows")
    shuffle_rng = np.random.default_rng(config.seed)
    params = dmf.DmfParameters.init(dataset.f_t, dataset.f_s, config.hidden,
                                    config.p, modalities=config.modalities(),
                                    seed=config.seed + 1)
    optimizer = nc.Adam(params.trainable(), lr=config.lr)
    static_full = (_static_distance_adj(dataset)
                   if config.variant == "static_gcn_lstm" else None)
    static = _static_rows(static_full, dataset.train_windows)

    agent = None
    if config.uses_rl():
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
            mask = None
            state = None
            if agent is not None:
                state = rlagent.build_state(batch, dataset.f_t)
                if pending is not None:
                    agent.observe(*pending, state)
                    agent.learn()
                action, eps = agent.act(state)
                mask = rlagent.apply_mask(action, dataset.f_t, dataset.f_s)

            optimizer.zero_grad()
            batch_static = (None if static is None
                            else [static[i] for i in batch_idx])
            predicted, _ = dmf.forward(batch, params, mask=mask,
                                       static_rows=batch_static)
            loss = dmf.mse_loss(predicted, batch)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, variant "
                    f"{config.variant}, lr {config.lr}")
            loss.backward()
            optimizer.step()
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
            wall_time=time.perf_counter() - t_start))
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
    alone), each chunk's inputs gathered from the input table with one
    index and its static-graph rows made for it alone, so memory does not
    grow with the number of windows."""
    if not windows:
        raise ValueError("no windows to evaluate")
    # constant Tensors over the same arrays: the forward records no graph
    params = replace(params, tensors={k: nc.Tensor(v.data)
                                      for k, v in params.tensors.items()})
    predicted = []
    for start, stop in _chunks(windows):
        chunk = windows[start:stop]
        yhat, _ = dmf.forward(chunk, params,
                              static_rows=_static_rows(static_full, chunk))
        predicted.append(yhat.data)
    predicted = dataset.target_norm.inverse(
        np.concatenate([w.det_indices for w in windows]),
        np.concatenate(predicted))
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
            eval_windows = dataset.val_windows or dataset.train_windows
            tables[variant] = evaluate(result.params, eval_windows, dataset,
                                       result.static_adj_full)
        except Exception as exc:  # keep the other variants running
            failures[variant] = f"{type(exc).__name__}: {exc}"
    return tables, failures


# ---- artifact emission ----

def write_metrics_csv(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("horizon,RMSE,MAE,MAPE,R2\n")
        horizons = sorted(k for k in table if k != "overall")
        for h in horizons:
            fh.write(f"{h},{table[h].row()}\n")
        fh.write(f"overall,{table['overall'].row()}\n")


def write_ablation_csv(tables, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variant,horizon,RMSE,MAE,MAPE,R2\n")
        for variant in ABLATION_VARIANTS:
            if variant not in tables:
                continue
            table = tables[variant]
            horizons = sorted(k for k in table if k != "overall")
            for h in horizons:
                fh.write(f"{variant},{h},{table[h].row()}\n")
            fh.write(f"{variant},overall,{table['overall'].row()}\n")


def write_epochs_csv(logs, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_rmse,val_mae,val_mape,val_r2,"
                 "epsilon,mean_reward,wall_time\n")
        for log in logs:
            fields = [log.epoch, log.train_loss, log.val_rmse, log.val_mae,
                      log.val_mape, log.val_r2, log.epsilon,
                      log.mean_reward, round(log.wall_time, 3)]
            fh.write(",".join("" if f is None else repr(f)
                              if isinstance(f, float) else str(f)
                              for f in fields) + "\n")


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
        # the exceptions pickle documents for malformed data
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
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
    require(counts is None or _is_array(counts, "i", 1) and len(counts) == n,
            "mask_counts", f"None or {n} integer counts")
    require(payload["static_adj_full"] is None
            or _is_array(payload["static_adj_full"], "f", 2),
            "static_adj_full", "None or a float matrix")
    params = dmf.DmfParameters.init(f_t, f_s, cfg.hidden, cfg.p,
                                    modalities=cfg.modalities(),
                                    seed=cfg.seed + 1)
    # copyto would broadcast a smaller array over the vector
    if saved.shape != params.flat.shape:
        raise ValueError(f"{path}: parameter vector has shape "
                         f"{saved.shape}, expected {params.flat.shape}")
    np.copyto(params.flat, saved)
    return payload, cfg, params


def check_registry(payload, dataset):
    if payload["registry"] != dataset.registry:
        raise ValueError(
            "checkpoint feature registry does not match the dataset:\n"
            f"checkpoint: {payload['registry']}\n"
            f"dataset:    {dataset.registry}")
