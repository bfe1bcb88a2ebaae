import csv
import json
import math
import pickle
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from evacnet import cli, dataio, dmf, metrics, rlagent, trainer
from evacnet.synth import Scenario

HELP_GOLDEN = Path(__file__).parent / "data" / "cli_help.txt"

TINY = Scenario(name="tiny", seed=7, horizon_hours=72,
                corridors=[("I75", 4, 4.0)], order_hour=40,
                landfall_hour=60, noise_std=10.0)
# TINY with incidents and outages drawn, so that every scenario value
# generate draws with is read
BUSY = replace(TINY, horizon_hours=80, corridors=[("I75", 3, 4.0)],
               incident_rate_per_hour=0.2, outage_rate_per_hour=0.2)


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
    # values generate divided by or drew with (exit 2 with incidents,
    # outages or the decay in use), or that wrote a corpus the loader
    # rejects (flows above MAX_FLOW, a negative population, lanes)
    ("noise_std", -1.0),
    ("incident_mean_duration_hours", -1.0),
    ("outage_mean_duration_hours", -1.0),
    ("surge_spatial_decay_miles", 0.0),
    ("surge_spatial_decay_miles", -5.0),
    ("population_total", -5.0),
    ("lanes", 0),
    ("lanes", 2_000_000_000),
    ("incident_capacity_drop", 1.0),
    ("incident_capacity_drop", -0.5),
    ("corridors", []),  # not the default corridor
    # a corpus the loader rejects: cum_pop_under_orders above MAX_MAGNITUDE
    # and a last milepost above MAX_MILEPOST
    pytest.param("population_total", 2e9, id="population-above-magnitude"),
    pytest.param("corridors", [["I75", 4, 5000.0]],
                 id="corridors-last-milepost-above-max"),
    # nan and inf passed every bound, or none applied to them
    *(pytest.param(field, value, id=f"{field}-{value}")
      for field in ("base_flow", "diurnal_amplitude", "noise_std",
                    "surge_peak_multiplier", "surge_spatial_decay_miles",
                    "landfall_milepost", "incident_rate_per_hour",
                    "incident_mean_duration_hours", "outage_rate_per_hour",
                    "outage_mean_duration_hours", "wave_speed_det_per_hour",
                    "wave_strength")
      for value in (math.nan, math.inf)),
    pytest.param("corridors", [["I75", 4, math.nan]], id="corridors-nan"),
    # flows above MAX_FLOW, which train rejected
    pytest.param("base_flow", 1e6, id="base-flow-flow-above-max"),
    pytest.param("surge_peak_multiplier", 1e5, id="surge-flow-above-max"),
    pytest.param("noise_std", 1e7, id="noise-flow-above-max"),
    pytest.param("diurnal_amplitude", 1e4, id="diurnal-flow-above-max"),
    # a dist_landfall_mi or an avg_incident_dur_min above MAX_MAGNITUDE,
    # which train rejected
    pytest.param("landfall_milepost", 2e9, id="landfall-distance-above-max"),
    pytest.param("incident_mean_duration_hours", 1e9,
                 id="incident-minutes-above-max"),
    # generate exited 2: a drawn duration overflowed int(), the last
    # timestamp passed year 9999, and numpy took no negative seed
    pytest.param("incident_mean_duration_hours", 1e308,
                 id="incident-duration-overflow"),
    pytest.param("outage_mean_duration_hours", 1e308,
                 id="outage-duration-overflow"),
    pytest.param("start", "9999-12-31T00:00:00", id="start-past-year-9999"),
    pytest.param("seed", -1, id="seed-negative"),
    # rejected, but by a message that named neither field
    pytest.param("base_flow", 0.0, id="base-flow-zero"),
    pytest.param("surge_peak_multiplier", -1.0, id="surge-peak-negative"),
    # generate exited 2: numpy's draws take no scale of -0.0
    *(pytest.param(field, -0.0, id=f"{field}-negative-zero")
      for field in ("noise_std", "incident_mean_duration_hours",
                    "outage_mean_duration_hours")),
    # a wave that sped traffic up (at -1e307 generate warned "overflow
    # encountered in multiply"), or that cut speed below the floor
    *(pytest.param("wave_strength", value, id=f"wave-strength-{value}")
      for value in (-0.1, 1.5, -1e307)),
    # generate wrote no outage for a start at or past the horizon
    pytest.param("forced_outages", [[0, 80, 2]],
                 id="forced-outage-at-horizon"),
    # generate wrote 2 of the 10 dark hours, cut at the horizon
    pytest.param("forced_outages", [[0, 78, 10]],
                 id="forced-outage-past-horizon"),
])
def test_generate_bad_scenario_field_names_it(field, value, tmp_path,
                                              caplog):
    scen_file = tmp_path / "bad.json"
    scen_file.write_text(json.dumps({**asdict(BUSY), field: value}),
                         encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(tmp_path)]) == 1
    message = caplog.records[-1].getMessage()
    assert "invalid scenario" in message
    assert field in message
    assert not (tmp_path / "records.csv").exists()


def test_generate_order_at_hour_zero_writes_json(tmp_path):
    # no hour precedes the order, so its mean flow is null, not NaN
    scen_file = tmp_path / "early.json"
    scen_file.write_text(json.dumps(asdict(replace(TINY, order_hour=0))),
                         encoding="utf-8")
    assert cli.main(["generate", "--scenario", str(scen_file),
                     "--out", str(tmp_path)]) == 0

    def reject(constant):
        raise ValueError(f"manifest.json holds {constant}")

    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=reject)
    assert manifest["notes"]["nonevac_mean_flow"] is None
    assert manifest["notes"]["surge_mean_flow"] > 0


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


def test_train_detector_hours_cap_is_user_error(corpus, tmp_path, caplog,
                                                monkeypatch):
    # the corpus's 4 detectors over 72 hours, one detector-hour over a cap
    # lowered to make it small: rejected as the records are loaded, before
    # any array is sized from them
    def refuse(*args, **kwargs):
        raise AssertionError("engineer_features called")

    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 4 * 72 - 1)
    monkeypatch.setattr(dataio, "engineer_features", refuse)
    assert cli.main(["train", "--data", str(corpus),
                     "--out", str(tmp_path / "out")]) == 1
    assert ("4 detectors over the 72 hours of records from line 2 to line "
            "289 make 288 detector-hours, more than 287") in caplog.text


def test_train_meta_rows_past_the_cap_is_user_error(corpus, tmp_path,
                                                    caplog, monkeypatch):
    # the corpus's 4 detectors under a cap of 3 detector-hours lowered to
    # make it small: the meta file's fourth row is rejected, and no record
    # is read
    def refuse(*args, **kwargs):
        raise AssertionError("records read")

    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 3)
    monkeypatch.setattr(dataio, "_load_records", refuse)
    assert cli.main(["train", "--data", str(corpus),
                     "--out", str(tmp_path / "out")]) == 1
    assert ("line 5: more than 3 detectors make more detector-hours than "
            "that") in caplog.text


@pytest.mark.parametrize("n_lines", [1, 5], ids=["header-only", "one-hour"])
def test_train_too_short_corpus_is_user_error(corpus, tmp_path, caplog,
                                              n_lines):
    # the records file's header, then the first hour of each of the four
    # detectors, which the corpus writes 72 lines apart
    data = tmp_path / "data"
    data.mkdir()
    (data / "meta.csv").write_bytes((corpus / "meta.csv").read_bytes())
    lines = (corpus / "records.csv").read_text().splitlines(keepends=True)
    keep = [lines[0]] + lines[1::72][:n_lines - 1]
    (data / "records.csv").write_text("".join(keep), encoding="utf-8")
    assert cli.main(["train", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
    assert "invalid input data" in caplog.text


@pytest.mark.parametrize("name", ["meta.csv", "records.csv"])
@pytest.mark.parametrize("fault, message", [
    (b"\xff", "line 3: byte 0xff is not UTF-8"),
    (b"x" * 200_000, "line 3: field larger than field limit"),
], ids=["undecodable", "oversized"])
def test_train_bad_bytes_is_user_error(corpus, tmp_path, caplog, name, fault,
                                       message):
    data = tmp_path / "data"
    data.mkdir()
    for other in ("meta.csv", "records.csv"):
        (data / other).write_bytes((corpus / other).read_bytes())
    lines = (data / name).read_bytes().split(b"\n")
    lines[2] = fault + lines[2]  # file line 3
    (data / name).write_bytes(b"\n".join(lines))
    assert cli.main(["train", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
    assert message in caplog.text


def test_train_unknown_config_field(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"optimizer": "sgd"}), encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("fields, name", [
    ({"epochs": "10"}, "epochs"),
    ({"epochs": 0}, "epochs"),
    ({"epochs": 1, "batch_size": 0}, "batch_size"),
    ({"epochs": 1, "hidden": 0}, "hidden"),
    ({"epochs": 1, "lr": -1.0}, "lr"),
    ({"epochs": 1, "rl_buffer": 0}, "rl_buffer"),
    ({"epochs": 1, "rl_batch": 0}, "rl_batch"),
    ({"epochs": 1, "rl_sync_every": 0}, "rl_sync_every"),
    ({"epochs": 5, "patience": -1}, "patience"),
    ({"epochs": 1, "seed": -1}, "seed"),
    ({"epochs": 1, "rl_gamma": float("nan")}, "rl_gamma"),
    ({"epochs": 1, "rl_gamma": 1e308}, "rl_gamma"),
    ({"epochs": 1, "hidden": 10 ** 8}, "hidden"),
    ({"epochs": 1, "rl_batch": 10 ** 10}, "rl_batch"),
    # a step that large leaves the loss non-finite: training diverges
    ({"epochs": 1, "lr": 1e30}, "lr"),
    # the weights blow up: the loss passes trainer.MAX_TRAIN_LOSS, finite
    ({"epochs": 1, "lr": 1e10}, "lr"),
    ({"epochs": 1, "lr": 1e3}, "lr"),
    # the agent's Q-values overflow: its training diverges
    ({"epochs": 1, "rl_lr": 1e30}, "rl_lr"),
], ids=["epochs-type", "epochs", "batch_size", "hidden", "lr", "rl_buffer",
        "rl_batch", "rl_sync_every", "patience", "seed", "rl_gamma-nan",
        "rl_gamma-huge", "hidden-huge", "rl_batch-huge", "lr-diverges",
        "lr-blows-up", "lr-too-high", "rl_lr-diverges"])
def test_train_config_field_type_is_user_error(corpus, tmp_path, caplog,
                                               fields, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields), encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    # whole names: "rl_lr must" does not stand for "lr must"
    assert re.search(rf"\b{name} must", caplog.text)


def test_train_data_shorter_than_window_is_user_error(corpus, tmp_path,
                                                      caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 500}), encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    assert "shorter than l + p = 506" in caplog.text


@pytest.fixture(scope="module")
def s1_cut(tmp_path_factory):
    """An S1 checkpoint (1 epoch) and S1's first 30 hours. The cut loads,
    but day 0 has no previous-day statistics, so no detector is active
    over l + p = 12 hours before the split at hour 27, and the 3
    validation hours are too few for a window."""
    full = tmp_path_factory.mktemp("s1")
    assert cli.main(["generate", "--scenario", "S1", "--out",
                     str(full / "data")]) == 0
    cfg = full / "config.json"
    cfg.write_text(json.dumps({"epochs": 1}), encoding="utf-8")
    assert cli.main(["train", "--data", str(full / "data"), "--config",
                     str(cfg), "--out", str(full / "train"),
                     "--log-level", "WARNING"]) == 0
    cut = full / "cut"
    cut.mkdir()
    (cut / "meta.csv").write_bytes((full / "data" / "meta.csv").read_bytes())
    header, *lines = (full / "data" / "records.csv").read_text(
        encoding="utf-8").splitlines(keepends=True)
    keep = [ln for ln in lines if ln.split(",")[1] < "2024-10-02T06:00:00"]
    assert len(keep) == 180
    (cut / "records.csv").write_text(header + "".join(keep),
                                     encoding="utf-8")
    return cfg, full / "train" / "model.ckpt", cut


@pytest.mark.parametrize("command", ["train", "ablate", "evaluate"])
def test_corpus_without_windows_is_user_error(command, s1_cut, tmp_path,
                                              caplog):
    cfg, ckpt, cut = s1_cut
    source = (["--checkpoint", str(ckpt)] if command == "evaluate"
              else ["--config", str(cfg)])
    assert cli.main([command, *source, "--data", str(cut),
                     "--out", str(tmp_path)]) == 1
    message = caplog.records[-1].getMessage()
    assert f"{cut} yields no window" in message
    assert "l + p = 12" in message


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


@pytest.fixture(scope="module")
def static_trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("static")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"variant": "static_gcn_lstm", "epochs": 1,
                               "l": 3, "p": 2, "hidden": 8}),
                   encoding="utf-8")
    assert cli.main(["train", "--data", str(corpus), "--config", str(cfg),
                     "--out", str(out), "--log-level", "WARNING"]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("corridors, message", [
    ([("I75", 4, 4.0)], None),
    ([("I75", 5, 4.0)], "was trained on a static graph of 3 edges over "
                        "other detectors than the corpus's graph of 4 edges"),
    # four detectors too, on two chains instead of one
    ([("I75", 2, 4.0), ("I4", 2, 4.0)],
     "was trained on a static graph of 3 edges over other detectors than "
     "the corpus's graph of 2 edges"),
], ids=["same-corpus", "more-detectors", "other-positions"])
def test_static_checkpoint_on_another_corpus_is_user_error(
        corridors, message, static_trained, tmp_path, caplog):
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(asdict(replace(TINY, corridors=corridors))),
                    encoding="utf-8")
    data = tmp_path / "data"
    assert cli.main(["generate", "--scenario", str(scen),
                     "--out", str(data)]) == 0
    code = cli.main(["evaluate", "--checkpoint", str(static_trained),
                     "--data", str(data), "--out", str(tmp_path / "eval")])
    if message is None:
        assert code == 0
    else:
        assert code == 1
        assert f"checkpoint {static_trained} {message}" in caplog.text


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


def test_float64_version_3_checkpoint_is_user_error(corpus, trained,
                                                    tmp_path, caplog):
    # a checkpoint of the float64 model, as version 3 wrote it
    with open(trained / "model.ckpt", "rb") as fh:
        flat = pickle.load(fh)["params"]
    assert flat.dtype == np.float32
    ckpt = tmp_path / "v3.ckpt"
    _rewrite_checkpoint(trained, ckpt, version=3,
                        params=flat.astype(np.float64))
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                     str(corpus), "--out", str(tmp_path)]) == 1
    assert (f"{ckpt}: checkpoint version 3, expected version "
            f"{trainer.CHECKPOINT_VERSION}") in caplog.text
    assert trainer.CHECKPOINT_VERSION == 4


def test_checkpoint_parameter_of_another_shape_is_user_error(corpus, trained,
                                                             tmp_path,
                                                             caplog):
    with open(trained / "model.ckpt", "rb") as fh:
        flat = pickle.load(fh)["params"]
    ckpt = tmp_path / "short.ckpt"
    _rewrite_checkpoint(trained, ckpt, params=flat[:-1])
    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                     str(corpus), "--out", str(tmp_path)]) == 1
    assert (f"parameter vector has shape ({flat.size - 1},), expected "
            f"({flat.size},)") in caplog.text


@pytest.mark.parametrize("command", ["evaluate", "rank-features"])
def test_checkpoint_config_sizing_another_vector_allocates_nothing(
        command, corpus, trained, tmp_path, caplog, monkeypatch):
    # the largest hidden a config may hold sizes a vector of about 8e6
    # floats: the saved vector's size must be checked before any parameters
    # are made
    def refuse(*args, **kwargs):
        raise AssertionError("DmfParameters.init called")

    monkeypatch.setattr(dmf.DmfParameters, "init", refuse)
    with open(trained / "model.ckpt", "rb") as fh:
        payload = pickle.load(fh)
    hidden = trainer.MAX_HIDDEN
    size = dmf.DmfParameters.size(payload["f_t"], payload["f_s"], hidden,
                                  payload["config"]["p"], ("d", "tt"))
    assert size > 8 * hidden ** 2
    ckpt = tmp_path / "huge.ckpt"
    _rewrite_checkpoint(trained, ckpt,
                        config={**payload["config"], "hidden": hidden})
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path)]
    if command == "evaluate":
        argv += ["--data", str(corpus)]
    assert cli.main(argv) == 1
    assert (f"{ckpt}: parameter vector has shape ({payload['params'].size},)"
            f", expected ({size},): checkpoint field params disagrees with "
            f"f_t {payload['f_t']}, f_s {payload['f_s']}, hidden {hidden}"
            ) in caplog.text
    # hidden 10**6 would size about 8e12 floats: the config is refused first
    _rewrite_checkpoint(trained, ckpt,
                        config={**payload["config"], "hidden": 10 ** 6})
    assert cli.main(argv) == 1
    assert (f"checkpoint config rejected: hidden must be <= {hidden}, got "
            f"1000000") in caplog.text


def _without(key):
    def edit(payload):
        del payload[key]
    return edit


def _setting(key, value):
    def edit(payload):
        payload[key] = value(payload[key]) if callable(value) else value
    return edit


@pytest.mark.parametrize("command", ["evaluate", "rank-features"])
@pytest.mark.parametrize("edit, message", [
    (_setting("config", lambda c: {**c, "dropout": 0.1}),
     "checkpoint config rejected: "),
    (_setting("config", lambda c: list(c.values())),
     "checkpoint config rejected: "),
    (_setting("config", lambda c: {**c, "hidden": 0}),
     "checkpoint config rejected: hidden must be >= 1"),
    (_without("params"), "checkpoint field params is missing"),
    (_without("mask_counts"), "checkpoint field mask_counts is missing"),
    (_setting("params", lambda v: list(v)),
     "checkpoint field params is not a float vector"),
    (_setting("params", lambda v: v.astype(np.int64)),
     "checkpoint field params is not a float vector"),
    (_setting("f_s", "7"), "checkpoint field f_t or f_s is not"),
    (_setting("registry", lambda r: r[:-1]),
     "checkpoint field registry is not a list of f_t + f_s"),
    (_setting("mask_counts", lambda c: c[:-1]),
     "checkpoint field mask_counts is not None or"),
    (_setting("static_adj_full", [[0.0]]),
     "checkpoint field static_adj_full is not None or a vector of chain "
     "edges (i, j, w)"),
    # the dense n × n frozen graph of an older static checkpoint
    (_setting("static_adj_full", np.zeros((4, 4))),
     "checkpoint field static_adj_full is not None or a vector of chain "
     "edges (i, j, w)"),
    # another precision's model is refused, not rounded
    (_setting("params", lambda v: v.astype(np.float64)),
     "checkpoint field params is not a float32 vector"),
], ids=["config-unknown-key", "config-list", "config-rejected-value",
        "params-missing", "mask-counts-missing", "params-list",
        "params-int", "f-s-text", "registry-short", "mask-counts-short",
        "static-list", "static-dense", "params-float64"])
def test_malformed_checkpoint_field_is_user_error(command, edit, message,
                                                  corpus, trained, tmp_path,
                                                  caplog):
    with open(trained / "model.ckpt", "rb") as fh:
        payload = pickle.load(fh)
    edit(payload)
    ckpt = tmp_path / "edited.ckpt"
    with open(ckpt, "wb") as fh:
        pickle.dump(payload, fh)
    argv = [command, "--checkpoint", str(ckpt), "--out", str(tmp_path)]
    if command == "evaluate":
        argv += ["--data", str(corpus)]
    assert cli.main(argv) == 1
    assert f"{ckpt}: {message}" in caplog.text


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


# Bytes 3-10 of a checkpoint hold the length of the data that follows (a
# protocol-4 pickle's FRAME length); 0x7f or 0xff in one of the high ones
# declares hundreds of gigabytes or more.
LENGTH_CORRUPTIONS = [(k, v) for k in range(7, 11) for v in (0x7f, 0xff)]


@pytest.mark.parametrize("command", ["evaluate", "rank-features"])
def test_corrupted_checkpoint_is_user_error(command, corpus, trained,
                                            tmp_path, caplog):
    """Whatever a corrupted byte makes the loader raise, the command exits
    1: a corrupted length always, and a single-byte change drawn with a
    fixed seed from the first 200 bytes whenever it leaves no checkpoint
    (a change inside a config value can leave a valid one, which runs).
    None exits 2."""
    data = (trained / "model.ckpt").read_bytes()
    rng = np.random.default_rng(0)
    drawn = list(zip(rng.integers(11, 200, 150).tolist(),
                     rng.integers(256, size=150).tolist()))
    ckpt = tmp_path / "corrupted.ckpt"
    argv = [command, "--checkpoint", str(ckpt), "--out",
            str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--data", str(corpus)]
    codes = {}
    for k, v in LENGTH_CORRUPTIONS + drawn:
        corrupted = bytearray(data)
        corrupted[k] = v
        ckpt.write_bytes(corrupted)
        caplog.clear()
        codes[k, v] = cli.main(argv + ["--log-level", "WARNING"])
        if (k, v) in LENGTH_CORRUPTIONS:
            assert f"{ckpt} is not an evacnet checkpoint" in caplog.text
    assert {codes[c] for c in LENGTH_CORRUPTIONS} == {1}
    assert set(codes.values()) <= {0, 1}
    assert list(codes.values()).count(1) > len(codes) // 2


def test_rank_features(trained, tmp_path):
    assert cli.main(["rank-features", "--checkpoint",
                     str(trained / "model.ckpt"),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ranking.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,feature_name,mask_count,mask_fraction"
    assert len(lines) == 1 + 32  # one row per feature


def test_rank_features_reproduces_the_training_ranking(trained, tmp_path):
    assert cli.main(["rank-features", "--checkpoint",
                     str(trained / "model.ckpt"),
                     "--out", str(tmp_path)]) == 0
    assert (tmp_path / "ranking.csv").read_bytes() == \
        (trained / "ranking.csv").read_bytes()


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


def test_thread_env_validation(tmp_path, monkeypatch, caplog):
    import os
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    # digits to str.isdigit, but not ASCII: int() rejects "²", and "١"
    # would reach OpenMP as it is
    for bad in ("zero", "²", "١"):
        monkeypatch.setenv("EVACNET_THREADS", bad)
        assert cli.main(["generate", "--scenario", "S1",
                         "--out", str(tmp_path)]) == 1
        assert f"EVACNET_THREADS must be a positive integer in ASCII " \
               f"digits, got {bad!r}" in caplog.text
        assert "OMP_NUM_THREADS" not in os.environ
    monkeypatch.setenv("EVACNET_THREADS", "2")
    assert cli.main(["generate", "--scenario", "S1",
                     "--out", str(tmp_path)]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


# One input per table: None MAPE and R² fields, floats that take 17
# significant digits, an np.float64, and epoch logs with None fields. The
# expected texts are what the per-table writers before `write_table`
# wrote for this input.
FIXED_TABLE = {
    1: metrics.MetricReport(rmse=0.1 + 0.2, mae=1.5, mape=None, r2=None,
                            n=4),
    2: metrics.MetricReport(rmse=2.0, mae=1e22, mape=np.float64(12.5),
                            r2=-0.25, n=4, mape_skipped=1),
    "overall": metrics.MetricReport(rmse=1 / 3, mae=2 / 7, mape=None,
                                    r2=0.9999999999999999, n=8),
}
FIXED_LOGS = [
    trainer.EpochLog(0, 0.30000000000000004, None, None, None, None, None,
                     None, 0.125),
    trainer.EpochLog(1, 2 / 3, 1 / 3, 1.0, 12.5, -0.5, 0.995, -0.25, 1.5),
]
FIXED_RANKING = rlagent.ranking(np.array([2, 3, 2]),
                                ["flow", "speed", "occ"])
METRICS_ROWS = ("1,0.30000000000000004,1.5,,\n"
                "2,2.0,1e+22,12.5,-0.25\n"
                "overall,0.3333333333333333,0.2857142857142857,,"
                "0.9999999999999999\n")
EXPECTED_TABLES = {
    "train/epochs.csv":
        "epoch,train_loss,val_rmse,val_mae,val_mape,val_r2,epsilon,"
        "mean_reward,wall_time\n"
        "0,0.30000000000000004,,,,,,,0.125\n"
        "1,0.6666666666666666,0.3333333333333333,1.0,12.5,-0.5,0.995,"
        "-0.25,1.5\n",
    "train/metrics.csv": "horizon,RMSE,MAE,MAPE,R2\n" + METRICS_ROWS,
    "train/ranking.csv":
        "rank,feature_name,mask_count,mask_fraction\n"
        "1,flow,2,0.2857142857142857\n"
        "2,occ,2,0.2857142857142857\n"
        "3,speed,3,0.42857142857142855\n",
    "ablate/ablation.csv":
        "variant,horizon,RMSE,MAE,MAPE,R2\n"
        + "".join(f"{variant},{row}" for variant in ("dmf_no_rl", "rl_dmf")
                  for row in METRICS_ROWS.splitlines(keepends=True)),
}


def test_tables_bytes(corpus, tmp_path, monkeypatch):
    result = trainer.TrainResult(params=None, config=trainer.TrainConfig(),
                                 epoch_logs=FIXED_LOGS, agent=None,
                                 ranking_rows=FIXED_RANKING)
    monkeypatch.setattr(trainer, "train", lambda *a, **kw: result)
    monkeypatch.setattr(trainer, "save_checkpoint", lambda *a: None)
    monkeypatch.setattr(trainer, "evaluate", lambda *a: FIXED_TABLE)
    monkeypatch.setattr(trainer, "ablate", lambda *a, **kw: (
        {"rl_dmf": FIXED_TABLE, "dmf_no_rl": FIXED_TABLE}, {}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 3, "p": 2}), encoding="utf-8")
    for command in ("train", "ablate"):
        assert cli.main([command, "--data", str(corpus), "--config",
                         str(cfg), "--out", str(tmp_path / command)]) == 0
    for rel, text in EXPECTED_TABLES.items():
        assert (tmp_path / rel).read_bytes() == text.encode(), rel


def test_write_table_quotes_a_field_with_a_separator(tmp_path):
    # a registry read from a checkpoint is only checked to hold strings
    rows = rlagent.ranking(np.array([1, 3]), ['a,b', 'say "x"'])
    path = tmp_path / "ranking.csv"
    cli.write_table(path, cli.RANKING_HEADER, rows)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        '1,"a,b",1,0.25', '2,"say ""x""",3,0.75']
    with open(path, newline="", encoding="utf-8") as fh:
        assert [row[1] for row in csv.reader(fh)][1:] == ['a,b', 'say "x"']
