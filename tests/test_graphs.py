from types import SimpleNamespace

import graphs_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, graphs


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
    out = graphs.scale_weights([2.0, 4.0, 6.0], w_floor=0.01)
    np.testing.assert_allclose(out, [0.01, 0.505, 1.0])


def test_scale_weights_degenerate():
    np.testing.assert_array_equal(graphs.scale_weights([3.0, 3.0, 3.0]),
                                  [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(graphs.scale_weights([7.0]), [1.0])


@given(st.lists(st.floats(0.1, 1000), min_size=2, max_size=12, unique=True))
def test_scale_weights_range_and_order(raw):
    scaled = graphs.scale_weights(raw)
    assert np.all(scaled >= graphs.W_FLOOR - 1e-12)
    assert np.all(scaled <= 1.0 + 1e-12)
    # order preserved up to float ties in the affine map
    order = np.argsort(raw)
    assert np.all(np.diff(scaled[order]) >= 0)


def test_gcn_normalize_no_edges():
    np.testing.assert_array_equal(graphs.gcn_normalize(np.zeros((3, 3))),
                                  np.eye(3))


def test_gcn_normalize_two_node():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(graphs.gcn_normalize(a),
                               [[0.5, 0.5], [0.5, 0.5]])


def test_gcn_normalize_regular_graph_row_sums():
    # ring of 4, unit weights: every node degree 2, A+I row sum 3
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    norm = graphs.gcn_normalize(a)
    np.testing.assert_allclose(norm.sum(axis=1), np.ones(4))


def test_snapshot_symmetry_and_uniform_speed_equivalence():
    mp = np.array([0.0, 2.0, 5.0, 6.0])
    snap = graphs.build_snapshot(["a", "b", "c", "d"], np.array(["I75"] * 4),
                                 mp, np.full(4, 60.0))
    np.testing.assert_allclose(snap.adj_d, snap.adj_d.T, atol=1e-12)
    np.testing.assert_allclose(snap.adj_tt, snap.adj_tt.T, atol=1e-12)
    np.testing.assert_allclose(snap.norm_d, snap.norm_d.T, atol=1e-12)
    assert np.all(np.diag(snap.adj_d) == 0)
    # uniform network speed: tt weights are a scalar multiple of distance
    # weights before scaling, so identical after min-max scaling
    np.testing.assert_allclose(snap.adj_tt, snap.adj_d, atol=1e-12)


@st.composite
def detector_hours(draw):
    """One hour's active detectors, in a random order: up to three highways
    of distinct mileposts with some detectors left out as offline, so an
    hour can hold gaps, a single node or none, and speeds whose endpoint
    means can be zero or negative."""
    dets = []
    for hw in draw(st.lists(st.sampled_from(["I10", "I4", "I75"]),
                            min_size=1, max_size=3, unique=True)):
        mileposts = draw(st.lists(st.floats(0.0, 200.0), min_size=1,
                                  max_size=8, unique=True))
        online = draw(st.lists(st.booleans(), min_size=len(mileposts),
                               max_size=len(mileposts)))
        dets += [(hw, mp) for mp, on in zip(mileposts, online) if on]
    dets = draw(st.permutations(dets))
    # speeds to the hundredth of a mph: no mean so near zero that the
    # hours overflow
    speeds = draw(st.lists(st.floats(-20.0, 90.0).map(lambda v: round(v, 2)),
                           min_size=len(dets), max_size=len(dets)))
    return [(f"d{k}", hw, mp, v)
            for k, ((hw, mp), v) in enumerate(zip(dets, speeds))]


@settings(max_examples=200, deadline=None)
@given(detector_hours())
def test_build_snapshot_equals_reference(dets):
    ids = [d for d, _, _, _ in dets]
    snap = graphs.build_snapshot(
        ids, np.array([hw for _, hw, _, _ in dets]),
        np.array([mp for _, _, mp, _ in dets], dtype=float),
        np.array([v for _, _, _, v in dets], dtype=float))
    ref = graphs_reference.build_snapshot(
        [SimpleNamespace(detector_id=d, highway=hw, milepost=mp)
         for d, hw, mp, _ in dets], {d: v for d, _, _, v in dets})
    assert snap.node_ids == ref.node_ids
    for name in ("adj_d", "adj_tt", "norm_d", "norm_tt"):
        a, b = getattr(snap, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
