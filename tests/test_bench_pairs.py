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


def test_outputs_match_equal_series():
    assert bench_pairs.outputs_match([0.5, 0.5], [0.5, 0.5, 0.5]) == {
        "equal": True, "max_rel_diff": 0.0}


def test_outputs_match_compares_every_change_run_with_every_parent_run():
    # |2.5 - 2| / 2 = 0.25 and |2.5 - 4| / 4 = 0.375
    assert bench_pairs.outputs_match([2.0, 4.0], [2.5]) == {
        "equal": False, "max_rel_diff": 0.375}


def test_summary_of_a_single_value():
    assert bench_pairs.summary([3.0]) == {"median": 3.0, "q1": 3.0,
                                          "q3": 3.0}


def test_summary_quartiles_even_and_odd_length():
    # statistics.quantiles' exclusive method: positions (n + 1) * k / 4
    assert bench_pairs.summary([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.25, "q3": 3.75}
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5}
