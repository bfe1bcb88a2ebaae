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
    # per scenario: the corpus's 2 files, 3 RL variants x 5 files, 3
    # others x 3 files, and ablate's table
    assert len(files) == len(outputs_diff.SCENARIOS) * (2 + 3 * 5 + 3 * 3 + 1)
    assert "S1/data/meta.csv" in files
    assert "S2/data/records.csv" in files
    assert "S1/rl_dmf/rank-features/ranking.csv" in files
    assert "S1/ablate/ablation.csv" in files
    assert "S2/ablate/ablation.csv" in files
    assert "S2/static_gcn_lstm/evaluate/metrics.csv" in files
    assert not any(f.startswith("S1/dmf_no_rl/") and f.endswith(
        "ranking.csv") for f in files)
