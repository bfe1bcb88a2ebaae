import importlib.util
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "outputs_diff.py")
spec = importlib.util.spec_from_file_location("outputs_diff", SCRIPT)
outputs_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs_diff)


def _write(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compare_reports_each_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"a/model.ckpt": b"\x00\x01", "a/metrics.csv": b"1,2\n",
                    "b/ranking.csv": b"x\n"})
    _write(change, {"a/model.ckpt": b"\x00\x01", "a/metrics.csv": b"1,3\n",
                    "c/ranking.csv": b"x\n"})
    files = ["a/model.ckpt", "a/metrics.csv", "b/ranking.csv",
             "c/ranking.csv", "d/ranking.csv"]
    assert outputs_diff.compare(parent, change, files) == [
        ("a/model.ckpt", "identical"), ("a/metrics.csv", "differs"),
        ("b/ranking.csv", "missing in change"),
        ("c/ranking.csv", "missing in parent"),
        ("d/ranking.csv", "missing in both")]


def test_compare_is_byte_exact(tmp_path):
    # the same text with another line ending is another file
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"metrics.csv": b"1,2\n"})
    _write(change, {"metrics.csv": b"1,2\r\n"})
    assert outputs_diff.compare(parent, change, ["metrics.csv"]) == [
        ("metrics.csv", "differs")]


def test_expected_files_cover_every_variant_and_command():
    files = outputs_diff.expected_files()
    assert len(files) == len(set(files))
    # per scenario: the corpus's 4 files, 3 RL variants x 6 files, 3
    # others x 4 files, and ablate's table; then the corpora alone of S3
    # and of the benchmark's 3 workloads at 2 seeds each
    assert len(files) == (len(outputs_diff.SCENARIOS) * (4 + 3 * 6 + 3 * 4 + 1)
                          + 4 + 3 * 2 * 4) == 98
    assert "S3/data/meta.csv" in files
    assert "S3/data/records.csv" in files
    assert "S3/data/scenario.json" in files
    assert "S3/data/manifest.json" in files
    assert not any(f.startswith("S3/") and not f.startswith("S3/data/")
                   for f in files)
    for workload in ("s1_rl_dmf", "s2_dmf_no_rl", "corridors100_rl_dmf"):
        for seed in (1, 2):
            assert f"bench/{workload}-seed{seed}/meta.csv" in files
            assert f"bench/{workload}-seed{seed}/records.csv" in files
            assert f"bench/{workload}-seed{seed}/manifest.json" in files
    assert "S1/data/meta.csv" in files
    assert "S2/data/records.csv" in files
    assert "S1/rl_dmf/rank-features/ranking.csv" in files
    assert "S1/ablate/ablation.csv" in files
    for variant in outputs_diff.VARIANTS:
        assert f"S2/{variant}/train/epochs.csv" in files
    assert "S2/ablate/ablation.csv" in files
    assert "S2/static_gcn_lstm/evaluate/metrics.csv" in files
    assert not any(f.startswith("S1/dmf_no_rl/") and f.endswith(
        "ranking.csv") for f in files)


def test_compare_cuts_wall_time_from_epochs_csv(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    header = b"epoch,train_loss,wall_time,val_rmse\n"
    _write(parent, {"a/epochs.csv": header + b"0,0.5,1.25,3.0\n",
                    "b/epochs.csv": header + b"0,0.5,1.25,3.0\n",
                    "c/epochs.csv": header + b"0,0.5,1.25,3.0\n",
                    "d/metrics.csv": b"RMSE,wall_time\n1.0,2.0\n"})
    _write(change, {"a/epochs.csv": header + b"0,0.5,9.875,3.0\n",
                    "b/epochs.csv": header + b"0,0.25,1.25,3.0\n",
                    "c/epochs.csv": header + b"0,0.5,1.25,3.0\r\n",
                    "d/metrics.csv": b"RMSE,wall_time\n1.0,3.0\n"})
    files = ["a/epochs.csv", "b/epochs.csv", "c/epochs.csv", "d/metrics.csv"]
    # only the clock column is cut, and only from an epochs.csv
    assert outputs_diff.compare(parent, change, files) == [
        ("a/epochs.csv", "identical"), ("b/epochs.csv", "differs"),
        ("c/epochs.csv", "differs"), ("d/metrics.csv", "differs")]


def test_largest_rel_diff_over_numeric_fields(tmp_path):
    parent, change = tmp_path / "p.csv", tmp_path / "c.csv"
    parent.write_text("horizon,RMSE,R2\n1,200.0,0.5\noverall,100.0,\n")
    change.write_text("horizon,RMSE,R2\n1,200.0,0.5\noverall,99.0,\n")
    # text and empty fields are skipped; 1 / 100 is the only difference
    assert outputs_diff.largest_rel_diff(parent, change) == 0.01
    change.write_text("horizon,RMSE,R2\n1,200.0,nan\noverall,100.0,\n")
    parent.write_text("horizon,RMSE,R2\n1,200.0,nan\noverall,100.0,\n")
    assert outputs_diff.largest_rel_diff(parent, change) == 0.0
    change.write_text("horizon,RMSE,R2\n1,nan,0.5\noverall,100.0,\n")
    assert outputs_diff.largest_rel_diff(parent, change) == float("inf")
    change.write_text("horizon,RMSE,R2\n1,200.0,0.5\n")
    assert outputs_diff.largest_rel_diff(parent, change) is None
    change.write_text("horizon,RMSE\n1,200.0\noverall,100.0\n")
    assert outputs_diff.largest_rel_diff(parent, change) is None


def test_describe_measures_only_differing_tables(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"a/metrics.csv": b"RMSE\n4.0\n",
                    "a/ranking.csv": b"rank,count\n1,3\n",
                    "a/model.ckpt": b"\x00", "a/ablation.csv": b"x\n1\n",
                    "b/metrics.csv": b"RMSE\n1.0\n"})
    _write(change, {"a/metrics.csv": b"RMSE\n5.0\n",
                    "a/ranking.csv": b"rank,count\n1,3\n2,1\n",
                    "a/model.ckpt": b"\x01", "a/ablation.csv": b"x\n1\n"})
    files = ["a/metrics.csv", "a/ranking.csv", "a/model.ckpt",
             "a/ablation.csv", "b/metrics.csv"]
    rows = outputs_diff.compare(parent, change, files)
    assert outputs_diff.describe(parent, change, rows) == [
        "a/metrics.csv: differs, largest relative difference 0.2",
        "a/ranking.csv: differs, rows or columns do not line up",
        "a/model.ckpt: differs",
        "a/ablation.csv: identical",
        "b/metrics.csv: missing in change"]


RANKING_HEADER = "rank,feature_name,mask_count,mask_fraction\n"


def test_ranking_diff_joins_on_feature_name(tmp_path):
    parent, change = tmp_path / "p.csv", tmp_path / "c.csv"
    parent.write_text(RANKING_HEADER + "1,vol,2,0.1\n2,speed,8,0.4\n"
                      "3,occ,10,0.5\n")
    # vol and speed swap ranks; row by row, rank 1 would compare vol's
    # count with speed's
    change.write_text(RANKING_HEADER + "1,speed,1,0.05\n2,vol,9,0.45\n"
                      "3,occ,10,0.5\n")
    rank, count = outputs_diff.ranking_diff(parent, change)
    assert rank == 1
    assert count == max(7 / 9, 7 / 8)
    assert outputs_diff.ranking_diff(parent, parent) == (0, 0.0)
    change.write_text(RANKING_HEADER + "1,vol,2,0.1\n2,speed,8,0.4\n"
                      "3,wind,10,0.5\n")
    assert outputs_diff.ranking_diff(parent, change) is None


def test_describe_measures_a_ranking_by_feature(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"a/ranking.csv": (RANKING_HEADER + "1,vol,0,0.0\n"
                                      "2,occ,4,1.0\n").encode()})
    _write(change, {"a/ranking.csv": (RANKING_HEADER + "1,occ,0,0.0\n"
                                      "2,vol,4,1.0\n").encode()})
    rows = outputs_diff.compare(parent, change, ["a/ranking.csv"])
    assert outputs_diff.describe(parent, change, rows) == [
        "a/ranking.csv: differs, largest |rank change| 1, largest "
        "relative mask_count difference 1"]
