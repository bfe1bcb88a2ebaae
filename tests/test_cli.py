import json
import pickle
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from evacnet import cli, dataio, trainer
from evacnet.synth import Scenario

HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help.txt"

TINY = Scenario(name="tiny", seed=7, horizon_hours=72,
                corridors=[("I75", 4, 4.0)], order_hour=40,
                landfall_hour=60, noise_std=10.0)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    scen_file = out / "tiny.json"
    scen_file.write_text(json.dumps(asdict(TINY)), encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"variant": "rl_dmf", "epochs": 2,
                               "l": 3, "p": 2, "hidden": 8}),
                   encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(out), "--log-level", "WARNING"]) == 0
    return out


def test_help_matches_golden(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == HELP_GOLDEN.read_text()


def test_no_arguments_is_user_error():
    assert cli.main([]) == 1


def test_generate_outputs_and_manifest(corpus):
    for name in ("meta.csv", "records.csv", "scenario.json",
                 "manifest.json"):
        assert (corpus / name).is_file()
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 7


def test_generate_unknown_scenario(tmp_path, caplog):
    code = cli.main(["generate", "--scenario", "S99",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "S1, S2, S3" in caplog.text


@pytest.mark.parametrize("text", ['{"name": "x", "seed": ', '[1, 2]'])
def test_generate_malformed_scenario_json(text, tmp_path, caplog):
    scen_file = tmp_path / "bad.json"
    scen_file.write_text(text, encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(tmp_path)]) == 1
    assert "invalid scenario" in caplog.text


def test_generate_rejected_scenario(tmp_path, caplog):
    scen_file = tmp_path / "long.json"
    too_long = replace(TINY, horizon_hours=dataio.MAX_SPAN_HOURS + 1)
    scen_file.write_text(json.dumps(asdict(too_long)), encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(tmp_path)]) == 1
    assert "horizon_hours" in caplog.text
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("corridors", [["I75", "4", 4.0]]),
    ("seed", "1"),
    ("congestion_waves", 1),
    ("base_flow", True),
    ("forced_outages", [[1, 2]]),
    # well-typed, but outside what generate can lay out
    ("start", "2024-13-01"),
    ("corridors", [["I75", 0, 4.0]]),
    ("forced_outages", [[4, 10, 2]]),
    ("corridors", [["I75", 3, 4.0], ["I75", 2, 4.0]]),
    ("start", "2024-10-01T00:00:00+02:00"),
])
def test_generate_bad_scenario_field_names_it(field, value, tmp_path,
                                              caplog):
    scen_file = tmp_path / "bad.json"
    scen_file.write_text(json.dumps({**asdict(TINY), field: value}),
                         encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(tmp_path)]) == 1
    message = caplog.records[-1].getMessage()
    assert "invalid scenario" in message
    assert field in message
    assert not (tmp_path / "records.csv").exists()


def test_generate_seed_override(tmp_path):
    assert cli.main(["generate", "--scenario", "S1", "--seed", "55",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 55


def test_train_outputs(trained):
    for name in ("model.ckpt", "epochs.csv", "metrics.csv", "ranking.csv",
                 "manifest.json"):
        assert (trained / name).is_file()
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["variant"] == "rl_dmf"
    assert manifest["config"]["epochs"] == 2
    assert len(manifest["config_hash"]) == 16
    header = (trained / "metrics.csv").read_text().splitlines()[0]
    assert header == "horizon,RMSE,MAE,MAPE,R2"
    header = (trained / "ranking.csv").read_text().splitlines()[0]
    assert header == "rank,feature_name,mask_count,mask_fraction"


def test_train_missing_data_dir(tmp_path):
    assert cli.main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path)]) == 1


def test_train_bad_config_json(corpus, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


def test_train_utc_offset_is_user_error(corpus, tmp_path, caplog):
    data = tmp_path / "data"
    data.mkdir()
    (data / "meta.csv").write_bytes((corpus / "meta.csv").read_bytes())
    lines = (corpus / "records.csv").read_text().splitlines(keepends=True)
    fields = lines[4].split(",")  # file line 5
    fields[1] += "+00:00"
    lines[4] = ",".join(fields)
    (data / "records.csv").write_text("".join(lines), encoding="utf-8")
    assert cli.main(["train", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
    assert "line 5" in caplog.text and "UTC offset" in caplog.text


def test_train_timeline_span_cap_is_user_error(corpus, tmp_path, caplog):
    data = tmp_path / "data"
    data.mkdir()
    (data / "meta.csv").write_bytes((corpus / "meta.csv").read_bytes())
    lines = (corpus / "records.csv").read_text().splitlines(keepends=True)
    fields = lines[6].split(",")  # file line 7
    fields[1] = "2999" + fields[1][4:]
    lines[6] = ",".join(fields)
    (data / "records.csv").write_text("".join(lines), encoding="utf-8")
    assert cli.main(["train", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
    assert "to line 7" in caplog.text


def test_train_unknown_config_field(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": "sgd"}), encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


def test_train_config_field_type_is_user_error(corpus, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "10"}), encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    assert "epochs" in caplog.text


def test_evaluate_checkpoint(corpus, trained, tmp_path):
    assert cli.main(["evaluate", "--checkpoint",
                     str(trained / "model.ckpt"), "--data", str(corpus),
                     "--out", str(tmp_path),
                     "--log-level", "WARNING"]) == 0
    lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "horizon,RMSE,MAE,MAPE,R2"
    assert lines[-1].startswith("overall,")


def test_evaluate_missing_checkpoint(corpus, tmp_path):
    assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--data", str(corpus), "--out", str(tmp_path)]) == 1


def _rewrite_checkpoint(trained, path, **changes):
    with open(trained / "model.ckpt", "rb") as fh:
        payload = pickle.load(fh)
    payload.update(changes)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


@pytest.mark.parametrize("command", ["evaluate", "rank-features"])
def test_other_checkpoint_version_is_user_error(command, corpus, trained,
                                                tmp_path, caplog):
    ckpt = tmp_path / "v1.ckpt"
    _rewrite_checkpoint(trained, ckpt, version=1)
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path)]
    if command == "evaluate":
        argv += ["--data", str(corpus)]
    assert cli.main(argv) == 1
    assert str(ckpt) in caplog.text
    assert "version 1" in caplog.text
    assert f"version {trainer.CHECKPOINT_VERSION}" in caplog.text


@pytest.mark.parametrize("command", ["evaluate", "rank-features"])
def test_non_checkpoint_file_is_user_error(command, corpus, tmp_path,
                                          caplog):
    ckpt = tmp_path / "notes.ckpt"
    ckpt.write_text("not a checkpoint\n", encoding="utf-8")
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path)]
    if command == "evaluate":
        argv += ["--data", str(corpus)]
    assert cli.main(argv) == 1
    assert "is not an evacnet checkpoint" in caplog.text


def test_rank_features(trained, tmp_path):
    assert cli.main(["rank-features", "--checkpoint",
                     str(trained / "model.ckpt"),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ranking.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,feature_name,mask_count,mask_fraction"
    assert len(lines) == 1 + 32  # one row per feature


def test_rank_features_rejects_non_rl_checkpoint(corpus, tmp_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "dmf_no_rl", "epochs": 1,
                               "l": 3, "p": 2, "hidden": 8}),
                   encoding="utf-8")
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(run), "--log-level", "WARNING"]) == 0
    assert cli.main(["rank-features", "--checkpoint",
                     str(run / "model.ckpt"), "--out", str(tmp_path)]) == 1
    assert "feature-selection history" in caplog.text


def test_ablate(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "l": 3, "p": 2, "hidden": 8}),
                   encoding="utf-8")
    assert cli.main(["ablate", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path),
                     "--log-level", "WARNING"]) == 0
    lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,horizon,RMSE,MAE,MAPE,R2"
    variants = {ln.split(",")[0] for ln in lines[1:]}
    assert variants == {"rl_dmf", "dmf_no_rl", "rl_dgl_distance",
                        "rl_dgl_traveltime"}


def test_same_seed_byte_identical_outputs(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variant": "rl_dmf", "epochs": 2,
                               "l": 3, "p": 2, "hidden": 8, "seed": 3}),
                   encoding="utf-8")
    for name in ("a", "b"):
        assert cli.main(["train", "--data", str(corpus),
                         "--config", str(cfg),
                         "--out", str(tmp_path / name),
                         "--log-level", "WARNING"]) == 0
    for name in ("model.ckpt", "metrics.csv", "ranking.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_internal_error_exit_code(corpus, tmp_path, monkeypatch):
    from evacnet import trainer

    def boom(*a, **kw):
        raise RuntimeError("exploded")

    monkeypatch.setattr(trainer, "train", boom)
    assert cli.main(["train", "--data", str(corpus),
                     "--out", str(tmp_path)]) == 2


def test_thread_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("EVACNET_THREADS", "zero")
    assert cli.main(["generate", "--scenario", "S1",
                     "--out", str(tmp_path)]) == 1
    monkeypatch.setenv("EVACNET_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert cli.main(["generate", "--scenario", "S1",
                     "--out", str(tmp_path)]) == 0
    import os
    assert os.environ["OMP_NUM_THREADS"] == "2"
