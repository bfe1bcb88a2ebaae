import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evacnet import graphs


class Meta:
    def __init__(self, detector_id, highway, milepost):
        self.detector_id = detector_id
        self.highway = highway
        self.milepost = milepost


def metas(mileposts, highway="I75"):
    return [Meta(f"d{k}", highway, mp) for k, mp in enumerate(mileposts)]


def test_chain_edges():
    edges = graphs.build_edges(metas([0.0, 2.0, 5.0]))
    assert edges == [(0, 1, 2.0), (1, 2, 3.0)]


def test_offline_detector_skipped_over():
    # middle detector at milepost 2 offline: neighbors connect directly
    edges = graphs.build_edges(metas([0.0, 5.0]))
    assert edges == [(0, 1, 5.0)]


def test_single_node_no_edges():
    assert graphs.build_edges(metas([3.0])) == []


def test_no_cross_highway_edges():
    ms = [Meta("a", "I4", 0.0), Meta("b", "I4", 1.0),
          Meta("c", "I75", 0.5)]
    edges = graphs.build_edges(ms)
    assert all(ms[i].highway == ms[j].highway for i, j, _ in edges)
    assert len(edges) == 1


def test_travel_time_equal_speeds():
    tt, floored = graphs.travel_time(10.0, 55.0, 55.0)
    assert tt == pytest.approx(10.0 / 55.0)
    assert not floored


def test_travel_time_hand_case():
    tt, _ = graphs.travel_time(2.0, 40.0, 60.0)
    assert tt == pytest.approx(0.04)


def test_travel_time_floor():
    tt, floored = graphs.travel_time(2.0, 0.0, 0.0)
    assert floored
    assert tt == pytest.approx(2.0 / graphs.V_MIN)


@given(st.floats(0.1, 100), st.floats(0, 90), st.floats(0, 90))
def test_travel_time_symmetric(d, vi, vj):
    assert graphs.travel_time(d, vi, vj)[0] == graphs.travel_time(d, vj, vi)[0]


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
    ms = metas([0.0, 2.0, 5.0, 6.0])
    speeds = {m.detector_id: 60.0 for m in ms}
    snap = graphs.build_snapshot(ms, speeds)
    np.testing.assert_allclose(snap.adj_d, snap.adj_d.T, atol=1e-12)
    np.testing.assert_allclose(snap.adj_tt, snap.adj_tt.T, atol=1e-12)
    np.testing.assert_allclose(snap.norm_d, snap.norm_d.T, atol=1e-12)
    assert np.all(np.diag(snap.adj_d) == 0)
    # uniform network speed: tt weights are a scalar multiple of distance
    # weights before scaling, so identical after min-max scaling
    np.testing.assert_allclose(snap.adj_tt, snap.adj_d, atol=1e-12)

