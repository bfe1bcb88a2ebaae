"""Command-line entry points: generate / train / evaluate / ablate /
rank-features.

Exit codes: 0 success, 1 user error (bad arguments, bad input files),
2 internal error (unexpected failure mid-run).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_INTERNAL = 2

log = logging.getLogger("evacnet")

METRICS_HEADER = ("horizon", "RMSE", "MAE", "MAPE", "R2")
RANKING_HEADER = ("rank", "feature_name", "mask_count", "mask_fraction")


class UserError(Exception):
    pass


def _apply_thread_env():
    """Best-effort cap on BLAS/OpenMP threads via EVACNET_THREADS."""
    n = os.environ.get("EVACNET_THREADS")
    if not n:
        return
    # str.isdigit also accepts "²" and "١", which int() and OpenMP do not
    if not (n.isascii() and n.isdigit()) or int(n) < 1:
        raise UserError(f"EVACNET_THREADS must be a positive integer in "
                        f"ASCII digits, got {n!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out, command, seed, outputs, extra=None):
    manifest = {"command": command, "seed": seed,
                "outputs": [str(Path(p).name) for p in outputs]}
    if extra:
        manifest.update(extra)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def write_table(path, header, rows):
    """The CSV table `header`, then `rows`, at `path`. A None field is
    empty, a float (np.float64 too) is its repr, and a field holding a
    comma, a quote or a newline is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def metric_rows(table, *key):
    """The rows of a metric table (`trainer.evaluate`): each horizon in
    order, then "overall", as `key`'s fields, the horizon, RMSE, MAE,
    MAPE and R2."""
    horizons = sorted(k for k in table if k != "overall") + ["overall"]
    return [(*key, h, table[h].rmse, table[h].mae, table[h].mape,
             table[h].r2) for h in horizons]


def _load_train_config(args):
    from .trainer import TrainConfig
    fields = {}
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise UserError(f"config file not found: {cfg_path}")
        try:
            fields = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UserError(f"config file is not valid JSON: {exc}")
        if not isinstance(fields, dict):
            raise UserError("config file must hold a JSON object")
    if getattr(args, "variant", None):
        fields["variant"] = args.variant
    if args.seed is not None:
        fields["seed"] = args.seed
    try:
        return TrainConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad training configuration: {exc}")


def _prepare_dataset(data_dir, l, p):
    from . import dataio
    data_dir = Path(data_dir)
    meta, records = data_dir / "meta.csv", data_dir / "records.csv"
    for path in (meta, records):
        if not path.is_file():
            raise UserError(f"missing input file: {path}")
    try:
        return dataio.prepare(meta, records, l=l, p=p)
    except (dataio.SchemaError, dataio.ShortSpanError) as exc:
        raise UserError(f"invalid input data: {exc}")


def _require_windows(data_dir, dataset, windows, split):
    """UserError when `windows` is empty: no detector of the corpus is
    active (flow, speed and previous-day statistics) over l + p
    consecutive hours of `split`."""
    if not windows:
        raise UserError(
            f"invalid input data: {data_dir} yields no window: no detector "
            f"is active over l + p = {dataset.l + dataset.p} consecutive "
            f"hours of {split}")


def _load_checkpoint(path):
    from . import trainer
    try:
        return trainer.load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise UserError(f"cannot load checkpoint: {exc}")


def cmd_generate(args):
    from . import synth
    out = _out_dir(args)
    builtins = synth.builtin_scenarios()
    if args.scenario not in builtins and not Path(args.scenario).is_file():
        raise UserError(
            f"unknown scenario {args.scenario!r}; built-in scenarios are "
            f"{', '.join(sorted(builtins))} (or pass a scenario JSON file)")
    try:
        scenario = (builtins[args.scenario] if args.scenario in builtins
                    else synth.load_scenario_file(args.scenario))
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        scenario.validate()
    # malformed JSON is a ValueError, an unknown field a TypeError
    except (TypeError, ValueError) as exc:
        raise UserError(f"invalid scenario {args.scenario}: {exc}")
    meta, records, notes = synth.generate(scenario, out)
    log.info("generated %s: %d detectors, %d hours", scenario.name,
             notes["n_detectors"], scenario.horizon_hours)
    _write_manifest(out, "generate", scenario.seed,
                    [meta, records, out / "scenario.json"],
                    extra={"scenario": scenario.name, "notes": notes})
    return EXIT_OK


def cmd_train(args):
    from . import trainer
    out = _out_dir(args)
    config = _load_train_config(args)
    dataset = _prepare_dataset(args.data, config.l, config.p)
    _require_windows(args.data, dataset, dataset.train_windows,
                     "the training split")
    log.info("training %s on %d train / %d val windows", config.variant,
             len(dataset.train_windows), len(dataset.val_windows))
    try:
        result = trainer.train(
            config, dataset,
            log_fn=lambda e: log.info("epoch %d loss %.6f", e.epoch,
                                      e.train_loss))
    except trainer.TrainingDiverged as exc:
        raise UserError(f"training diverged: {exc}")
    ckpt, epochs_csv, metrics_csv = (out / "model.ckpt", out / "epochs.csv",
                                     out / "metrics.csv")
    trainer.save_checkpoint(result, dataset, ckpt)
    write_table(epochs_csv, [f.name for f in fields(trainer.EpochLog)],
                map(astuple, result.epoch_logs))
    table = trainer.evaluate(result.params, dataset.eval_windows, dataset,
                             result.static_adj_full)
    write_table(metrics_csv, METRICS_HEADER, metric_rows(table))
    outputs = [ckpt, epochs_csv, metrics_csv]
    if result.ranking_rows:
        ranking_csv = out / "ranking.csv"
        write_table(ranking_csv, RANKING_HEADER, result.ranking_rows)
        outputs.append(ranking_csv)
    _write_manifest(out, "train", config.seed, outputs,
                    extra={"variant": config.variant,
                           "config": asdict(config),
                           "config_hash": config.hash()})
    return EXIT_OK


def cmd_evaluate(args):
    from . import trainer
    out = _out_dir(args)
    ckpt = Path(args.checkpoint)
    payload, config, params = _load_checkpoint(ckpt)
    dataset = _prepare_dataset(args.data, config.l, config.p)
    windows = dataset.eval_windows
    _require_windows(args.data, dataset, windows, "either split")
    try:
        trainer.check_registry(payload, dataset)
    except ValueError as exc:
        raise UserError(str(exc))
    try:
        static_full = trainer.static_graph(payload, config, dataset)
    except ValueError as exc:
        raise UserError(f"checkpoint {ckpt} {exc}")
    table = trainer.evaluate(params, windows, dataset, static_full)
    metrics_csv = out / "metrics.csv"
    write_table(metrics_csv, METRICS_HEADER, metric_rows(table))
    log.info("overall RMSE %.3f over %d points", table["overall"].rmse,
             table["overall"].n)
    _write_manifest(out, "evaluate", config.seed, [metrics_csv],
                    extra={"checkpoint": str(ckpt),
                           "config_hash": config.hash()})
    return EXIT_OK


def cmd_ablate(args):
    from . import trainer
    out = _out_dir(args)
    config = _load_train_config(args)
    dataset = _prepare_dataset(args.data, config.l, config.p)
    _require_windows(args.data, dataset, dataset.train_windows,
                     "the training split")
    tables, failures = trainer.ablate(
        config, dataset,
        log_fn=lambda e: log.debug("epoch %d loss %.6f", e.epoch,
                                   e.train_loss))
    for variant, err in failures.items():
        log.error("variant %s failed: %s", variant, err)
    if not tables:
        raise RuntimeError("every ablation variant failed: "
                           + "; ".join(f"{v}: {e}"
                                       for v, e in failures.items()))
    ablation_csv = out / "ablation.csv"
    write_table(ablation_csv, ("variant", *METRICS_HEADER),
                [row for variant in trainer.ABLATION_VARIANTS
                 if variant in tables
                 for row in metric_rows(tables[variant], variant)])
    _write_manifest(out, "ablate", config.seed, [ablation_csv],
                    extra={"config": asdict(config), "failures": failures})
    return EXIT_OK


def cmd_rank_features(args):
    from . import rlagent
    out = _out_dir(args)
    ckpt = Path(args.checkpoint)
    payload, config, _ = _load_checkpoint(ckpt)
    counts = payload["mask_counts"]
    if counts is None or counts.sum() <= 0:
        raise UserError(
            f"checkpoint {ckpt} holds no feature-selection history "
            f"(variant {config.variant!r}); train an RL variant first")
    rows = rlagent.ranking(counts, payload["registry"])
    ranking_csv = out / "ranking.csv"
    write_table(ranking_csv, RANKING_HEADER, rows)
    log.info("most important feature: %s", rows[0][1])
    _write_manifest(out, "rank-features", config.seed, [ranking_csv],
                    extra={"checkpoint": str(ckpt)})
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evacnet",
        description="Evacuation-traffic forecasting: synthetic corpora, "
                    "dual-graph model training, evaluation, ablations and "
                    "RL-based feature ranking.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the run seed")
    common.add_argument("--out", required=True,
                        help="output directory (created if missing)")
    common.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="logging verbosity")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="write a synthetic evacuation corpus")
    p.add_argument("--scenario", required=True,
                   help="built-in scenario name or scenario JSON path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common],
                       help="train a forecaster on a corpus directory")
    p.add_argument("--data", required=True,
                   help="directory holding meta.csv and records.csv")
    p.add_argument("--config", help="JSON file of training settings")
    p.add_argument("--variant", help="model variant (overrides config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score a checkpoint on a corpus directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", parents=[common],
                       help="train and compare the four model variants")
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="JSON file of training settings")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("rank-features", parents=[common],
                       help="emit the feature ranking from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_rank_features)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; that's a user error here
        return EXIT_OK if exc.code == 0 else EXIT_USER_ERROR
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        _apply_thread_env()
        return args.func(args)
    except UserError as exc:
        log.error("%s", exc)
        return EXIT_USER_ERROR
    except KeyboardInterrupt:
        log.error("interrupted")
        return EXIT_INTERNAL
    except Exception:
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
