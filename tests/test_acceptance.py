"""End-to-end acceptance suite.

Each test prints one `[PASS]`/`[FAIL]` line per criterion; run with
`pytest tests/test_acceptance.py -s` to see them. Criteria and
tolerances are asserted exactly as stated in the line printed.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import predict, random_window, repropagate
from float64_params import float64_params
from evacnet import (cli, dataio, dmf, metrics, numcore as nc, rlagent,
                     synth, trainer)
from evacnet.dataio import INPUT_MODALITIES
from evacnet.rlagent import Agent, EpsilonSchedule, ReplayBuffer


def report(cid, desc):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                print(f"\n[PASS] {cid}: {desc}")
            else:
                print(f"\n[FAIL] {cid}: {desc} -- {exc}")
            return False
    return _Ctx()


@pytest.fixture(scope="module")
def s1_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("s1")
    meta, records, notes = synth.generate(synth.builtin_scenarios()["S1"],
                                          out)
    return dataio.prepare(meta, records, l=6, p=6), notes


@pytest.fixture(scope="module")
def s2_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("s2")
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"], out)
    return meta, records


@pytest.fixture(scope="module")
def s2_dataset(s2_corpus):
    return dataio.prepare(*s2_corpus, l=6, p=6)


@pytest.fixture(scope="module")
def s3_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("s3")
    meta, records, notes = synth.generate(synth.builtin_scenarios()["S3"],
                                          out)
    assert notes["fusion_signal_fraction"] >= 0.30
    return dataio.prepare(meta, records, l=6, p=6)


def test_c01_gradient_correctness():
    with report("C01", "full forward+MSE gradients match finite "
                       "differences (rel err < 1e-4, < 30 s)"):
        rng = np.random.default_rng(0)
        w, _ = random_window(rng, n=5, f_t=6, f_s=3, l=3, p=2,
                             extras_per_step=1)
        params = float64_params(dmf.DmfParameters.init(6, 3, 8, 2, seed=1))

        def f():
            y, _ = predict([w], params)
            return dmf.mse_loss(y, [w.targets])

        t0 = time.perf_counter()
        err = nc.finite_diff_check(f, list(params.tensors.values()))
        elapsed = time.perf_counter() - t0
        assert err < 1e-4, f"max rel err {err}"
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_c02_attention_invariant():
    with report("C02", "1000 random forwards: per-node fusion weights "
                       "sum to 1 within 1e-6 and lie in [0, 1]"):
        rng = np.random.default_rng(1)
        for k in range(1000):
            n = int(rng.integers(2, 5))
            w, _ = random_window(rng, n=n, f_t=4, f_s=2, l=2, p=1)
            params = dmf.DmfParameters.init(4, 2, 6, 1, seed=k)
            _, alphas = predict([w], params)
            assert alphas.shape == (2, n, 2)  # (l, n, M)
            np.testing.assert_allclose(alphas.sum(axis=2), 1.0, atol=1e-6)
            assert np.all(alphas >= 0.0) and np.all(alphas <= 1.0)


def test_c03_masking_semantics():
    with report("C03", "20 random actions: output bit-identical under "
                       "masked-column perturbation, sensitive to every "
                       "unmasked column"):
        rng = np.random.default_rng(2)
        f_t, f_s = 6, 3
        rows = INPUT_MODALITIES.index("identity")
        for _ in range(20):
            w, snapshots = random_window(rng, n=4, f_t=f_t, f_s=f_s, l=3,
                                         p=2, extras_per_step=1)
            params = dmf.DmfParameters.init(f_t, f_s, 8, 2,
                                            seed=int(rng.integers(1e6)))
            action = int(rng.integers(f_t + f_s))
            mask = rlagent.apply_mask(action, f_t, f_s)
            y0, _ = predict([w], params, mask=mask)

            saved = w.table.copy()
            for col in range(f_t + f_s):
                bump = float(rng.uniform(0.5, 100.0))
                # every node's value, the step extras' included
                w.table[:, rows, :, col] += bump
                repropagate(w.table, snapshots)
                y1, _ = predict([w], params, mask=mask)
                if col == action:
                    np.testing.assert_array_equal(y0.data, y1.data)
                else:
                    assert not np.array_equal(y0.data, y1.data), \
                        f"unmasked column {col} had no effect"
                w.table[:] = saved


def test_c04_ddqn_algebra():
    with report("C04", "gamma=0 targets equal rewards on 1000 "
                       "transitions; action chosen by online net, valued "
                       "by target net"):
        rng = np.random.default_rng(3)
        online = rlagent.QNetwork(4, seed=10)
        target = rlagent.QNetwork(4, seed=11)
        for _ in range(1000):
            r = float(rng.normal())
            y = rlagent.ddqn_target(r, rng.normal(size=4), 0.0, online,
                                    target)
            assert y == r

        class Fixed:
            def __init__(self, q):
                self.q = np.asarray(q, dtype=float)

            def q_values(self, state):
                return self.q

        # online prefers action 0, target prefers action 1; the result
        # must be the target's value at the online argmax
        y = rlagent.ddqn_target(0.0, np.zeros(2), 1.0,
                                Fixed([9.0, 0.0]), Fixed([3.0, 50.0]))
        assert y == 3.0


def test_c05_epsilon_schedule():
    with report("C05", "epsilon(n) = max(0.05, 0.995^n) exact for "
                       "n in [0, 2000]"):
        sched = EpsilonSchedule()
        for n in range(2001):
            assert sched.value(n) == max(0.05, 0.995 ** n)


def test_c06_prioritized_replay():
    with report("C06", "1e5 draws match priority^alpha probabilities "
                       "(chi^2 p > 0.01); beta=0 gives unit weights"):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(capacity=16)
        for _ in range(8):
            buf.push(rng.normal(size=3), 0, 0.0, rng.normal(size=3),
                     float(rng.uniform(0.2, 5.0)))
        probs = buf.probabilities()
        idx, _ = buf.sample(100_000, beta=0.4, rng=rng)
        counts = np.bincount(idx, minlength=8)
        p = stats.chisquare(counts, f_exp=100_000 * probs).pvalue
        assert p > 0.01, f"chi^2 p-value {p}"
        _, weights = buf.sample(64, beta=0.0, rng=rng)
        np.testing.assert_array_equal(weights, 1.0)


def test_c07_agent_learns_ranking():
    with report("C07", "after 500 steps the pure-noise feature is masked "
                       "> 2x uniform and the signal feature < 0.5x; "
                       "< 2 min"):
        t0 = time.perf_counter()
        n_features = 6
        signal, noise = 0, 5
        agent = Agent(n_features, seed=5, lr=5e-3, sync_every=50,
                      total_steps_hint=500)
        rng = np.random.default_rng(6)
        # analytic environment: loss incurred when a feature is masked
        loss_by_action = np.full(n_features, 0.01)
        loss_by_action[signal] = 1.0
        loss_by_action[noise] = 0.0
        state = rng.normal(size=n_features)
        for _ in range(500):
            action, _ = agent.act(state)
            reward = rlagent.compute_reward(loss_by_action[action])
            next_state = rng.normal(size=n_features)
            agent.observe(state, action, reward, next_state)
            agent.learn()
            state = next_state
        uniform = 500 / n_features
        counts = agent.mask_counts
        elapsed = time.perf_counter() - t0
        assert counts[noise] > 2 * uniform, \
            f"noise masked {counts[noise]} <= {2 * uniform:.1f}"
        assert counts[signal] < 0.5 * uniform, \
            f"signal masked {counts[signal]} >= {0.5 * uniform:.1f}"
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_c08_overfit_oracle(s1_dataset):
    with report("C08", "rl_dmf overfits 50 S1 windows to training RMSE "
                       "< 5% of mean flow within 2000 epochs, < 5 min"):
        dataset, _ = s1_dataset
        small = replace(dataset, train_windows=dataset.train_windows[:50],
                        val_windows=[])
        mean_flow = float(np.mean([w.targets_raw.mean()
                                   for w in small.train_windows]))
        threshold = 0.05 * mean_flow
        cfg = trainer.TrainConfig(variant="rl_dmf", epochs=2000,
                                  batch_size=16, lr=1e-2, seed=0, l=6,
                                  p=6, hidden=32,
                                  train_rmse_stop=threshold)
        t0 = time.perf_counter()
        result = trainer.train(cfg, small)
        elapsed = time.perf_counter() - t0
        final = trainer.evaluate(result.params, small.train_windows,
                                 small)["overall"].rmse
        assert final < threshold, \
            f"train RMSE {final:.2f} >= {threshold:.2f} " \
            f"after {len(result.epoch_logs)} epochs"
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_c09_dynamic_topology(s2_corpus, s2_dataset):
    with report("C09", "S2 with outages across window boundaries trains "
                       "and evaluates; predictions only for nodes active "
                       "over the full target span"):
        dataset = s2_dataset
        sizes = {len(w.det_indices) for w in dataset.train_windows}
        assert len(sizes) > 1, "outages did not vary the node sets"
        meta, records = s2_corpus
        active = dataio.engineer_features(
            *reversed(dataio.load_csv(meta, records))).active
        for w in dataset.train_windows + dataset.val_windows:
            anchor = w.anchor_index
            for i in w.det_indices:
                assert active[i, anchor:anchor + dataset.l
                              + dataset.p].all()
        cfg = trainer.TrainConfig(variant="rl_dmf", epochs=2,
                                  batch_size=8, lr=5e-3, seed=0, l=6,
                                  p=6, hidden=16)
        result = trainer.train(cfg, dataset)
        windows = dataset.eval_windows
        table = trainer.evaluate(result.params, windows, dataset)
        assert np.isfinite(table["overall"].rmse)


def test_c10_metrics_oracle():
    with report("C10", "metrics match brute-force recomputation within "
                       "1e-9 on 1000 vectors; worked example reproduced"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            actual = rng.uniform(1.0, 1000.0, size=n)
            predicted = actual + rng.normal(0.0, 40.0, size=n)
            r = metrics.compute(actual, predicted)
            sq = sum((a - p) ** 2 for a, p in zip(actual, predicted))
            rmse = math.sqrt(sq / n)
            mae = sum(abs(a - p) for a, p in zip(actual, predicted)) / n
            mape = 100.0 * sum(abs((a - p) / a)
                               for a, p in zip(actual, predicted)) / n
            mean_a = sum(actual) / n
            ss_tot = sum((a - mean_a) ** 2 for a in actual)
            assert abs(r.rmse - rmse) < 1e-9
            assert abs(r.mae - mae) < 1e-9
            assert abs(r.mape - mape) < 1e-9
            if ss_tot == 0:
                assert r.r2 is None
            else:
                assert abs(r.r2 - (1.0 - sq / ss_tot)) < 1e-9
        r = metrics.compute([100.0, 200.0, 300.0], [110.0, 190.0, 310.0])
        assert abs(r.rmse - 10.0) < 1e-12
        assert abs(r.mae - 10.0) < 1e-12
        assert abs(r.mape - 6.111) < 5e-4
        assert abs(r.r2 - 0.985) < 5e-4


def test_c11_ablation_harness(s3_dataset, tmp_path):
    with report("C11", "S3 ablation emits the 4-variant x 7-row table; "
                       "fused model overall RMSE <= 1.10x best "
                       "single-graph variant"):
        cfg = trainer.TrainConfig(variant="rl_dmf", epochs=60,
                                  batch_size=8, lr=5e-3, seed=0, l=6,
                                  p=6, hidden=16, patience=15)
        tables, failures = trainer.ablate(cfg, s3_dataset)
        assert failures == {}, f"variants failed: {failures}"
        path = tmp_path / "ablation.csv"
        cli.write_table(path, ("variant", *cli.METRICS_HEADER),
                        [row for v in trainer.ABLATION_VARIANTS
                         for row in cli.metric_rows(tables[v], v)])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 7  # header + 4 variants x 7 rows
        fused = tables["rl_dmf"]["overall"].rmse
        best_single = min(tables["rl_dgl_distance"]["overall"].rmse,
                          tables["rl_dgl_traveltime"]["overall"].rmse)
        assert fused <= 1.10 * best_single, \
            f"fused {fused:.2f} > 1.10 x single-graph {best_single:.2f}"


def test_c12_determinism(s1_dataset, tmp_path):
    with report("C12", "identical seed and config give byte-identical "
                       "metrics CSVs and checkpoints"):
        dataset, _ = s1_dataset
        small = replace(dataset, train_windows=dataset.train_windows[:30])
        cfg = trainer.TrainConfig(variant="rl_dmf", epochs=3,
                                  batch_size=8, lr=5e-3, seed=42, l=6,
                                  p=6, hidden=16)
        for name in ("a", "b"):
            run = tmp_path / name
            run.mkdir()
            result = trainer.train(cfg, small)
            trainer.save_checkpoint(result, small, run / "model.ckpt")
            windows = small.eval_windows
            table = trainer.evaluate(result.params, windows, small)
            cli.write_table(run / "metrics.csv", cli.METRICS_HEADER,
                            cli.metric_rows(table))
        for name in ("model.ckpt", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), f"{name} differs"
