import tracemalloc
from types import SimpleNamespace

import graphs_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, graphs, trainer
from evacnet.dataio import INPUT_MODALITIES, WindowSample


def chain(mileposts, speeds=None, highways=None):
    """`graphs.chain_edges` over detectors on one highway (or `highways`),
    at 60 mph unless `speeds` are given."""
    n = len(mileposts)
    return graphs.chain_edges(
        np.array(highways or ["I75"] * n), np.array(mileposts, dtype=float),
        np.array(speeds or [60.0] * n, dtype=float))


def test_chain_edges():
    i, j, miles, _ = chain([0.0, 2.0, 5.0])
    assert (i.tolist(), j.tolist(), miles.tolist()) == ([0, 1], [1, 2],
                                                        [2.0, 3.0])


def test_offline_detector_skipped_over():
    # middle detector at milepost 2 offline: neighbors connect directly
    i, j, miles, _ = chain([0.0, 5.0])
    assert (i.tolist(), j.tolist(), miles.tolist()) == ([0], [1], [5.0])


def test_single_node_no_edges():
    assert all(a.size == 0 for a in chain([3.0]))


def test_no_cross_highway_edges():
    hw = ["I4", "I4", "I75"]
    i, j, _, _ = chain([0.0, 1.0, 0.5], highways=hw)
    assert [(hw[a], hw[b]) for a, b in zip(i, j)] == [("I4", "I4")]


def test_edges_in_highway_then_milepost_order():
    i, j, miles, _ = chain([7.0, 0.0, 3.0, 1.0, 4.0],
                           highways=["I75", "I4", "I75", "I75", "I4"])
    assert (i.tolist(), j.tolist(), miles.tolist()) == (
        [1, 3, 2], [4, 2, 0], [4.0, 2.0, 4.0])


def test_no_edges_across_groups():
    # the same two detectors at two hours: one chain per hour
    i, j, miles, _ = graphs.chain_edges(
        np.array(["I75"] * 4), np.array([3.0, 0.0, 3.0, 0.0]),
        np.full(4, 60.0), group=np.array([0, 0, 1, 1]))
    assert (i.tolist(), j.tolist(), miles.tolist()) == ([1, 3], [0, 2],
                                                        [3.0, 3.0])


def test_distance_must_be_positive():
    with pytest.raises(ValueError, match="distance must be positive"):
        chain([1.0, 1.0])


def test_travel_time_equal_speeds():
    _, _, _, hours = chain([0.0, 10.0], [55.0, 55.0])
    assert hours[0] == pytest.approx(10.0 / 55.0)


def test_travel_time_hand_case():
    _, _, _, hours = chain([0.0, 2.0], [40.0, 60.0])
    assert hours[0] == pytest.approx(0.04)


def test_travel_time_floor():
    # a mean endpoint speed of zero or below takes V_MIN
    _, _, _, hours = chain([0.0, 2.0, 5.0], [0.0, 0.0, -4.0])
    np.testing.assert_array_equal(hours, [2.0 / graphs.V_MIN,
                                          3.0 / graphs.V_MIN])


# stalled (0) or a speed the loader accepts (at least MIN_SPEED)
speeds = st.just(0.0) | st.floats(dataio.MIN_SPEED, 90)


@given(st.floats(0.1, 100), speeds, speeds)
def test_travel_time_symmetric(d, vi, vj):
    assert chain([0.0, d], [vi, vj])[3] == chain([0.0, d], [vj, vi])[3]


def test_subnormal_mean_speed_overflows_to_inf_hours():
    # the loader rejects positive speeds below MIN_SPEED, so no real input
    # reaches this; a subnormal mean divides the miles past the float range
    with pytest.warns(RuntimeWarning, match="overflow"):
        _, _, _, hours = chain([0.0, 2.0], [1e-308, 1e-308])
    assert hours.tolist() == [np.inf]


def test_scale_weights_hand_case():
    assert graphs.W_FLOOR == 0.01
    out = graphs.scale_weights([2.0, 4.0, 6.0])
    np.testing.assert_allclose(out, [0.01, 0.505, 1.0])


def test_scale_weights_degenerate():
    np.testing.assert_array_equal(graphs.scale_weights([3.0, 3.0, 3.0]),
                                  [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(graphs.scale_weights([7.0]), [1.0])


def test_scale_weights_per_group():
    # each group over its own range; the second group's weights are equal
    np.testing.assert_allclose(
        graphs.scale_weights([2.0, 4.0, 6.0, 3.0, 3.0], [0, 0, 0, 1, 1]),
        [0.01, 0.505, 1.0, 1.0, 1.0])


@given(st.lists(st.floats(0.1, 1000), min_size=2, max_size=12, unique=True))
def test_scale_weights_range_and_order(raw):
    scaled = graphs.scale_weights(raw)
    assert np.all(scaled >= graphs.W_FLOOR - 1e-12)
    assert np.all(scaled <= 1.0 + 1e-12)
    # order preserved up to float ties in the affine map
    order = np.argsort(raw)
    assert np.all(np.diff(scaled[order]) >= 0)


# The dense oracle's hand cases; the edge-list product is checked against
# the oracle below.

def test_gcn_normalize_no_edges():
    np.testing.assert_array_equal(
        graphs_reference.gcn_normalize(np.zeros((3, 3))), np.eye(3))


def test_gcn_normalize_two_node():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(graphs_reference.gcn_normalize(a),
                               [[0.5, 0.5], [0.5, 0.5]])


def test_gcn_normalize_regular_graph_row_sums():
    # ring of 4, unit weights: every node degree 2, A+I row sum 3
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    norm = graphs_reference.gcn_normalize(a)
    np.testing.assert_allclose(norm.sum(axis=1), np.ones(4))
    # the same ring as edges: each node once in i and once in j, so the
    # product of a constant is that constant
    i, j, w = np.arange(4), (np.arange(4) + 1) % 4, np.ones(4)
    d = graphs.inv_sqrt_degree(4, i, j, w)
    np.testing.assert_allclose(d, np.full(4, 3 ** -0.5))
    np.testing.assert_allclose(
        graphs.normalized_product(i, j, w, d, np.ones((4, 2))),
        np.ones((4, 2)))


def test_snapshot_symmetry_and_uniform_speed_equivalence():
    mp = np.array([0.0, 2.0, 5.0, 6.0])
    snap = graphs.build_snapshot(np.array(["I75"] * 4), mp, np.full(4, 60.0))
    # a chain: no self loop, and the product is symmetric in x
    assert snap.i.tolist() == [0, 1, 2] and snap.j.tolist() == [1, 2, 3]
    assert snap.norm_d.shape == (4,)
    prop = graphs.propagate(snap, np.eye(4))["d"]
    np.testing.assert_allclose(prop, prop.T, atol=1e-12)
    # uniform network speed: tt weights are a scalar multiple of distance
    # weights before scaling, so identical after min-max scaling
    np.testing.assert_allclose(snap.adj_tt, snap.adj_d, atol=1e-12)
    np.testing.assert_allclose(snap.norm_tt, snap.norm_d, atol=1e-12)


@st.composite
def detector_hours(draw):
    """One hour's active detectors, in a random order: up to three highways
    of distinct mileposts with some detectors left out as offline, so an
    hour can hold gaps, a single node or none, and speeds whose endpoint
    means can be zero or negative."""
    # or an even hour: whole-mile spacing, every detector online and one
    # speed, so that every edge of both graphs has weight 1
    even = draw(st.booleans())
    dets = []
    for hw in draw(st.lists(st.sampled_from(["I10", "I4", "I75"]),
                            min_size=1, max_size=3, unique=True)):
        if even:
            k = draw(st.integers(1, 8))
            dets += [(hw, float(mp)) for mp in range(k)]
            continue
        mileposts = draw(st.lists(st.floats(0.0, 200.0), min_size=1,
                                  max_size=8, unique=True))
        online = draw(st.lists(st.booleans(), min_size=len(mileposts),
                               max_size=len(mileposts)))
        dets += [(hw, mp) for mp, on in zip(mileposts, online) if on]
    dets = draw(st.permutations(dets))
    # speeds to the hundredth of a mph: no mean so near zero that the
    # hours overflow
    speed = st.floats(-20.0, 90.0).map(lambda v: round(v, 2))
    speeds = ([draw(speed)] * len(dets) if even else
              draw(st.lists(speed, min_size=len(dets), max_size=len(dets))))
    return [(f"d{k}", hw, mp, v)
            for k, ((hw, mp), v) in enumerate(zip(dets, speeds))]


def snapshots(dets):
    """`graphs.build_snapshot` over drawn detectors, and the oracle's."""
    snap = graphs.build_snapshot(
        np.array([hw for _, hw, _, _ in dets]),
        np.array([mp for _, _, mp, _ in dets], dtype=float),
        np.array([v for _, _, _, v in dets], dtype=float))
    ref = graphs_reference.build_snapshot(
        [SimpleNamespace(detector_id=d, highway=hw, milepost=mp)
         for d, hw, mp, _ in dets], {d: v for d, _, _, v in dets})
    return snap, ref


@settings(max_examples=200, deadline=None)
@given(detector_hours())
def test_build_snapshot_equals_reference(dets):
    snap, ref = snapshots(dets)
    n = len(dets)
    # no detector twice in i or twice in j, so an indexed += adds once
    assert len(set(snap.i)) == len(snap.i) and len(set(snap.j)) == len(snap.j)
    for g in ("d", "tt"):
        # the edges and their weights are the oracle's adjacency, bit for
        # bit; D^-1/2 sums the same terms in another order
        adj = graphs_reference.dense(n, snap.i, snap.j, getattr(snap, f"adj_{g}"))
        assert adj.tobytes() == getattr(ref, f"adj_{g}").tobytes(), g
        np.testing.assert_allclose(
            getattr(snap, f"norm_{g}") ** 2, np.diag(getattr(ref, f"norm_{g}")),
            rtol=1e-12, atol=0)


@settings(max_examples=200, deadline=None)
@given(detector_hours(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_propagate_equals_dense_oracle(dets, f, seed):
    snap, ref = snapshots(dets)
    x = np.random.default_rng(seed).normal(size=(len(dets), f))
    got = graphs.propagate(snap, x.astype(np.float32))
    for g in ("d", "tt"):
        want = graphs_reference.product(getattr(ref, f"adj_{g}"),
                                        x.astype(np.float32))
        assert got[g].dtype == np.float64
        # relative to the rows' scale: each output sums at most three
        # terms of at most that size
        np.testing.assert_allclose(got[g], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(initial=0))


# Bytes that each detector and feature (and input hour) may add to a
# peak: a few float64 copies of the rows and some per-edge arrays, about
# 60 as measured. A dense n × n float64 matrix alone adds 8·n/F, 4000 at
# the 4000 detectors and 8 features below.
BYTES_PER_DETECTOR_FEATURE = 128


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_memory_linear_in_detectors():
    """The graph products hold no n × n array: their memory peak over four
    highways of 1000 detectors is linear in the detector count, for one
    hour's snapshot and products and for one static-baseline gather of a
    window over all the detectors."""
    rng = np.random.default_rng(0)
    n, f, l = 4000, 8, 2
    highway = np.repeat(np.array(["I10", "I4", "I75", "I95"]), n // 4)
    milepost = np.tile(np.arange(n // 4) * 0.3, 4)
    speed = rng.uniform(0.0, 70.0, n)
    x = rng.normal(size=(n, f)).astype(np.float32)
    peak = traced_peak(lambda: graphs.propagate(
        graphs.build_snapshot(highway, milepost, speed), x))
    assert peak < BYTES_PER_DETECTOR_FEATURE * f * n

    table = np.zeros((l, len(INPUT_MODALITIES), n, f), np.float32)
    table[:, 0] = x
    w = WindowSample(anchor_index=0, l=l, det_indices=np.arange(n),
                     targets=None, targets_raw=None, extra_temporal=[],
                     table=table)
    chain = trainer._frozen_chain(SimpleNamespace(
        detectors=SimpleNamespace(highway=highway, milepost=milepost)))
    assert len(chain) == n - 4
    peak = traced_peak(lambda: dataio.gather_inputs([w], ("identity",),
                                                    chain))
    assert peak < BYTES_PER_DETECTOR_FEATURE * f * l * n
