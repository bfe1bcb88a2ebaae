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


PARENT = [100.0, 98.0, 102.0, 101.0, 99.0, 100.0, 97.0, 103.0, 100.0, 100.0]


def test_compare_claim_met_on_a_clear_gain():
    # quartiles of PARENT: 98.75 and 101.25, so an IQR of 2.5
    row = bench_pairs.compare(PARENT, [p + 5.0 for p in PARENT], "higher",
                              0.25)
    assert (row["wins"], row["median_delta"], row["parent_iqr"]) == (
        10, 5.0, 2.5)
    assert row["claim_met"] and row["within_bound"]


def test_compare_claim_needs_nine_of_ten_wins():
    # the median gains 5, but two pairs are lost
    change = [p + 5.0 for p in PARENT]
    change[0] = change[1] = 90.0
    row = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert row["wins"] == 8 and row["median_delta"] == 5.0
    assert not row["claim_met"]
    change[1] = PARENT[1] + 5.0
    assert bench_pairs.compare(PARENT, change, "higher", 0.25)["claim_met"]


def test_compare_claim_needs_a_gain_above_the_parent_iqr():
    # every pair won by 2, less than the IQR of 2.5
    row = bench_pairs.compare(PARENT, [p + 2.0 for p in PARENT], "higher",
                              0.25)
    assert row["wins"] == 10 and not row["claim_met"]


def test_compare_lower_is_better():
    # a 10 % lower time wins every pair; the same samples read as a
    # throughput are 10 % worse, inside a 0.25 bound but not a 0.05 one
    change = [0.9 * p for p in PARENT]
    faster = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert faster["wins"] == 10 and faster["claim_met"]
    slower = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert slower["wins"] == 0 and not slower["claim_met"]
    assert slower["within_bound"]
    assert not bench_pairs.compare(PARENT, change, "higher",
                                   0.05)["within_bound"]


def test_compare_within_bound_at_the_bound():
    # medians 100 and 125: exactly 25 % worse is within a 0.25 bound
    worse = [p + 25.0 for p in PARENT]
    assert bench_pairs.compare(PARENT, worse, "lower", 0.25)["within_bound"]
    assert not bench_pairs.compare(PARENT, [p + 25.5 for p in PARENT],
                                   "lower", 0.25)["within_bound"]


def test_compare_counts_wins_by_the_position_the_change_ran_in():
    # the change runs first in the even pairs k = 2, 4, ..., 10; it wins
    # those five, and one of the five it ran second in: a gain that shows
    # in one position only
    change = [p + 5.0 if k % 2 == 0 else p - 1.0
              for k, p in enumerate(PARENT, 1)]
    change[0] = PARENT[0] + 1.0
    row = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert row["wins"] == 6
    assert row["wins_by_position"] == {
        "change_first": {"wins": 5, "pairs": 5},
        "change_second": {"wins": 1, "pairs": 5}}


def test_revision_ignores_the_series_files_it_writes(tmp_path):
    # a tracked BENCH_*.json at the root, rewritten by an earlier series,
    # leaves the checkout clean; any other tracked edit does not, a
    # BENCH_*.json below the root included
    bench_pairs.git("init", "-q", cwd=tmp_path)
    for name in ("BENCH_s1_rl_dmf.json", "README.md", "docs/BENCH_x.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("{}\n", encoding="utf-8")
    bench_pairs.git("add", ".", cwd=tmp_path)
    bench_pairs.git("-c", "user.name=t", "-c", "user.email=t@t", "commit",
                    "-q", "-m", "seed", cwd=tmp_path)
    commit = bench_pairs.git("rev-parse", "HEAD", cwd=tmp_path)
    (tmp_path / "BENCH_s1_rl_dmf.json").write_text('{"pairs": 10}\n',
                                                   encoding="utf-8")
    assert bench_pairs.revision(tmp_path) == (commit, False)
    for name in ("docs/BENCH_x.json", "README.md"):
        (tmp_path / name).write_text("changed\n", encoding="utf-8")
        assert bench_pairs.revision(tmp_path) == (commit, True)
        bench_pairs.git("checkout", "-q", "--", name, cwd=tmp_path)
