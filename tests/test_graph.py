import numpy as np
import pytest

import netforge as nf
from conftest import random_connected_network


def test_triangle_network_valid():
    net = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    assert net.vertex_count == 3
    assert net.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


def test_path_network_valid():
    net = nf.new_network(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    assert net.edge_count == 2


def test_unbalanced_sources_rejected():
    with pytest.raises(nf.UnbalancedSourcesError):
        nf.new_network(3, [(0, 1), (1, 2)], [1.0, -0.5, 0.0])


def test_self_loop_rejected():
    with pytest.raises(nf.SelfLoopError):
        nf.new_network(3, [(0, 0), (0, 1), (1, 2)], [1.0, -1.0, 0.0])


def test_duplicate_edge_rejected():
    with pytest.raises(nf.DuplicateEdgeError):
        nf.new_network(3, [(0, 1), (1, 0), (1, 2)], [1.0, -1.0, 0.0])


def test_nonpositive_length_rejected():
    with pytest.raises(nf.NonpositiveLengthError):
        nf.new_network(2, [(0, 1, 0.0)], [1.0, -1.0])


@pytest.mark.parametrize("sources", [[np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [1.0, 0.0, -np.inf]])
def test_nonfinite_sources_rejected(sources):
    with pytest.raises(nf.NonFiniteError):
        nf.new_network(3, [(0, 1), (1, 2)], sources)


@pytest.mark.parametrize("length", [np.inf, -np.inf, np.nan])
def test_nonfinite_length_rejected(length):
    with pytest.raises(nf.NonFiniteError):
        nf.new_network(3, [(0, 1, length), (1, 2)], [1.0, 0.0, -1.0])
    assert issubclass(nf.NonFiniteError, nf.NetworkValidationError)


@pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
def test_nonfinite_positions_rejected(coord):
    with pytest.raises(nf.NonFiniteError):
        nf.new_network(2, [(0, 1)], [1.0, -1.0], positions=[[0.0, coord], [1.0, 1.0]])


def test_disconnected_graph_rejected():
    with pytest.raises(nf.DisconnectedGraphError):
        nf.new_network(4, [(0, 1), (2, 3)], [1.0, -1.0, 0.5, -0.5])


def test_canonical_edge_ordering():
    net = nf.new_network(3, [(2, 1, 3.0), (1, 0, 2.0), (2, 0, 5.0)], [1.0, -1.0, 0.0])
    assert net.edges == ((0, 1, 2.0), (0, 2, 5.0), (1, 2, 3.0))
    assert net.edge_index[(1, 2)] == 2


def test_network_is_immutable():
    net = nf.new_network(2, [(0, 1)], [1.0, -1.0])
    with pytest.raises(ValueError):
        net.sources[0] = 2.0
    with pytest.raises(Exception):
        net.vertex_count = 5


def test_min_edge_length():
    tri = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    assert tri.min_length == 1.0
    net = nf.new_network(3, [(0, 1, 2.0), (0, 2, 3.0), (1, 2, 5.0)], [1.0, -1.0, 0.0])
    assert net.min_length == 2.0
    single = nf.new_network(2, [(0, 1, 0.25)], [1.0, -1.0])
    assert single.min_length == 0.25


def test_min_edge_length_bounds_every_edge():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = random_connected_network(rng)
        assert all(net.min_length <= length for _, _, length in net.edges)


def test_active_edges_examples():
    tri = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    assert nf.active_edges(tri, [1.0, 0.0, 0.0], 1e-8).tolist() == [0]
    assert len(nf.active_edges(tri, [1 / 3, 2 / 3, 0.0], 1e-8)) == 2
    # cutoff is relative to max(C, 1): 1e-12 falls below 1e-8 * 1
    assert nf.active_edges(tri, [1e-12, 1.0, 1.0], 1e-8).tolist() == [1, 2]


def test_active_edges_monotone_in_threshold():
    rng = np.random.default_rng(3)
    net = random_connected_network(rng, n_min=5, n_max=8)
    values = rng.uniform(0.0, 1.0, net.edge_count)
    previous = set(nf.active_edges(net, values, 0.0).tolist())
    for threshold in (1e-10, 1e-6, 1e-3, 0.1, 0.5):
        current = set(nf.active_edges(net, values, threshold).tolist())
        assert current <= previous
        previous = current


def test_conductivities_validation():
    with pytest.raises(ValueError):
        nf.Conductivities(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        nf.Conductivities(np.array([np.nan, 1.0]))
    c = nf.Conductivities(np.array([0.5, 0.0]))
    assert len(c) == 2
    with pytest.raises(ValueError):
        c.values[0] = 2.0  # stored vector is read-only


def test_model_params_validation():
    nf.ModelParams(gamma=0.5, nu=1.0)
    with pytest.raises(ValueError):
        nf.ModelParams(gamma=0.0, nu=1.0)
    with pytest.raises(ValueError):
        nf.ModelParams(gamma=1.0, nu=0.0)
    with pytest.raises(ValueError):
        nf.ModelParams(gamma=1.0, nu=1.0, mu=-0.1)
    for inf in ({"gamma": np.inf}, {"nu": np.inf}, {"mu": np.inf}):
        with pytest.raises(ValueError):
            nf.ModelParams(**{"gamma": 1.0, "nu": 1.0, **inf})


@pytest.mark.parametrize("threshold", [-1.0, np.nan])
def test_negative_or_nan_threshold_rejected(threshold):
    tri = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        nf.active_edges(tri, [1.0, 1.0, 1.0], threshold)
    with pytest.raises(ValueError):
        nf.is_loop_free(tri, [1.0, 1.0, 1.0], threshold=threshold)


def test_edge_values_shape_check():
    tri = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        nf.edge_values(tri, [1.0, 2.0])


def test_support_components():
    tri = nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])
    comps = nf.support_components(tri, [1.0, 0.0, 0.0])
    assert [c.tolist() for c in comps] == [[0, 1], [2]]
    assert len(nf.support_components(tri, [1.0, 1.0, 0.0])) == 1
