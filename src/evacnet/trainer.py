"""Joint training loop coupling the forecaster with the feature-masking
agent, the model-variant switchboard, evaluation and checkpointing.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import dmf, graphs, metrics, numcore as nc, rlagent
from .fieldtypes import is_a

CHECKPOINT_VERSION = 2
# Windows per forward pass in evaluate. Larger chunks amortize per-op
# overhead further; a pass builds no autograd graph, so its memory is the
# chunk's live activations.
EVAL_CHUNK = 8

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
        if self.l < 1 or self.p < 1:
            raise ValueError("l and p must be >= 1")

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
    metas = [dataset.data.metas[d] for d in dataset.data.detector_ids]
    speeds = {m.detector_id: graphs.V_MIN for m in metas}
    return graphs.build_snapshot(metas, speeds).adj_d


def _window_static_adj(static_full, det_indices):
    sub = static_full[np.ix_(det_indices, det_indices)]
    return graphs.gcn_normalize(sub)


def _static_rows(static_full, windows):
    """Each window's static-graph product Ã_w·[temporal ‖ spatial],
    (l, n_w, F), or None when the variant has no static graph."""
    if static_full is None:
        return None
    return [_window_static_adj(static_full, w.det_indices)
            @ w.inputs(("identity",))[:, 0] for w in windows]


def _forward_loss(batch, params, mask, static_rows):
    """One forward pass over the whole batch; the loss is the mean over its
    windows of each window's MSE."""
    predicted, _ = dmf.forward(batch, params, mask=mask,
                               static_rows=static_rows)
    return predicted, dmf.mse_loss(predicted, batch)


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
    best_params = None
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
            loss = _forward_loss(batch, params, mask, batch_static)[1]
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
                pending = (state, mask.action, reward)

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
                best_params = params.copy()
                stale = 0
            else:
                stale += 1
                if stale > config.patience:
                    params = best_params
                    break

    ranking_rows = None
    if agent is not None and agent.counter.total > 0:
        ranking_rows = rlagent.ranking(agent.counter, dataset.registry)
    return TrainResult(params=params, config=config, epoch_logs=logs,
                       agent=agent, ranking_rows=ranking_rows,
                       static_adj_full=static_full)


def evaluate(params, windows, dataset, static_full=None):
    """Per-horizon and overall metrics on denormalized flows, no mask.

    Windows go through the forward pass EVAL_CHUNK at a time, so memory
    does not grow with the number of windows."""
    if not windows:
        raise ValueError("no windows to evaluate")
    # constant Tensors over the same arrays: the forward records no graph
    params = replace(params, tensors={k: nc.Tensor(v.data)
                                      for k, v in params.tensors.items()})
    static = _static_rows(static_full, windows)
    predicted = []
    for i in range(0, len(windows), EVAL_CHUNK):
        chunk = windows[i:i + EVAL_CHUNK]
        chunk_static = None if static is None else static[i:i + EVAL_CHUNK]
        yhat, _ = dmf.forward(chunk, params, static_rows=chunk_static)
        predicted.append(dataset.target_norm.inverse(
            np.concatenate([w.det_indices for w in chunk]), yhat.data))
    predicted = np.concatenate(predicted)
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

def _metric_row(report):
    return ",".join(report.row())


def write_metrics_csv(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("horizon,RMSE,MAE,MAPE,R2\n")
        horizons = sorted(k for k in table if k != "overall")
        for h in horizons:
            fh.write(f"{h},{_metric_row(table[h])}\n")
        fh.write(f"overall,{_metric_row(table['overall'])}\n")


def write_ablation_csv(tables, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("variant,horizon,RMSE,MAE,MAPE,R2\n")
        for variant in ABLATION_VARIANTS:
            if variant not in tables:
                continue
            table = tables[variant]
            horizons = sorted(k for k in table if k != "overall")
            for h in horizons:
                fh.write(f"{variant},{h},{_metric_row(table[h])}\n")
            fh.write(f"{variant},overall,{_metric_row(table['overall'])}\n")


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
    """Versioned container; identical runs produce identical bytes."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(result.config),
        "config_hash": result.config.hash(),
        "registry": dataset.registry,
        "hyperparams": {"hidden": result.config.hidden,
                        "l": result.config.l, "p": result.config.p,
                        "seed": result.config.seed},
        "modalities": result.params.modalities,
        "f_t": result.params.f_t,
        "f_s": result.params.f_s,
        "params": {k: v.data.copy()
                   for k, v in result.params.tensors.items()},
        "agent": result.agent.state_dict() if result.agent else None,
        "static_adj_full": result.static_adj_full,
        "target_norm": {"mean": dataset.target_norm.mean,
                        "std": dataset.target_norm.std},
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=4)


def load_checkpoint(path):
    """Returns (payload, config, params). Raises ValueError, naming the
    file, when it is not a checkpoint or is one of another version."""
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
    cfg = TrainConfig(**payload["config"])
    params = dmf.DmfParameters.init(payload["f_t"], payload["f_s"],
                                    cfg.hidden, cfg.p,
                                    modalities=tuple(payload["modalities"]),
                                    seed=cfg.seed + 1)
    for k, tensor in params.tensors.items():
        tensor.data = payload["params"][k].copy()
    return payload, cfg, params


def check_registry(payload, dataset):
    if payload["registry"] != dataset.registry:
        raise ValueError(
            "checkpoint feature registry does not match the dataset:\n"
            f"checkpoint: {payload['registry']}\n"
            f"dataset:    {dataset.registry}")
