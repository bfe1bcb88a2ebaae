import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_series_path_keeps_seeds_apart():
    seed1 = bench_pairs.series_path("s2_dmf_no_rl", 1)
    seed2 = bench_pairs.series_path("s2_dmf_no_rl", 2)
    assert seed1.name == "BENCH_s2_dmf_no_rl.json"
    assert seed2.name == "BENCH_s2_dmf_no_rl_seed2.json"
    assert seed1.parent == seed2.parent == SCRIPT.parent.parent
