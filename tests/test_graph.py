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
    for name in (
        "band_order", "band_rank", "band_index", "band_sources", "band_edge", "band_sign",
        "laplacian_index", "laplacian_edge", "laplacian_sign",
    ):
        with pytest.raises(ValueError):
            getattr(net, name)[0] = 1
    with pytest.raises(Exception):
        net.bandwidth = 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: nf.leaf_network(40.5, 0),
        lambda: nf.leaf_network("40", 0),
        lambda: nf.leaf_network(40, True),
        lambda: nf.new_network("3", [(0, 1), (1, 2)], [1.0, 0.0, -1.0]),
        lambda: nf.new_network(True, [], [0.0]),
        lambda: nf.new_network(3.5, [(0, 1), (1, 2)], [1.0, 0.0, -1.0]),
    ],
)
def test_non_integer_counts_and_seeds_rejected(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_numpy_integer_counts_and_seeds_accepted():
    net = nf.new_network(np.int64(3), [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    assert type(net.vertex_count) is int and net.vertex_count == 3
    assert nf.leaf_network(np.int32(40), np.uint8(0)) == nf.leaf_network(40, 0)


def test_scatter_fields_rebuild_the_index_order():
    # each edge's entries are consecutive, in ascending edge order: its (u, u)
    # and (v, v) positions with sign +1, then its off-diagonal ones with -1
    rng = np.random.default_rng(5)
    nets = [random_connected_network(rng, n_min=2, n_max=20) for _ in range(10)]
    for net in nets + [nf.seven_node_network(), nf.leaf_network(40, 1), nf.new_network(1, [], [0.0])]:
        assert net.band_sources.tobytes() == net.sources[net.band_order].tobytes()
        dense_row, dense_col = np.divmod(net.laplacian_index, net.vertex_count)
        band_col, band_k = np.divmod(net.band_index, net.bandwidth + 1)
        ranks = net.band_rank[net.edge_u], net.band_rank[net.edge_v]
        for row, col, edge, sign, (a, b), per_edge in (
            (dense_row, dense_col, net.laplacian_edge, net.laplacian_sign, (net.edge_u, net.edge_v), 4),
            (band_col + band_k, band_col, net.band_edge, net.band_sign, ranks, 3),
        ):
            assert np.array_equal(edge, np.repeat(np.arange(net.edge_count), per_edge))
            ends = np.stack([a[edge], b[edge]])
            assert np.all((row == ends).any(axis=0)) and np.all((col == ends).any(axis=0))
            assert np.array_equal(sign, np.where(row == col, 1.0, -1.0))
            assert np.array_equal(row[sign > 0], np.stack([a, b], axis=1).ravel())


@pytest.mark.parametrize(
    "n, edges, sources, pressures",
    [(1, [], [0.0], [0.0]), (2, [(0, 1)], [1.0, -1.0], [0.25, -0.25])],
)
def test_smallest_networks_build_and_solve(n, edges, sources, pressures):
    net = nf.new_network(n, edges, sources)
    assert net.bandwidth == n - 1
    assert sorted(net.band_order.tolist()) == list(range(n))
    sol = nf.solve_kirchhoff(net, [2.0] * len(edges))
    assert sol.solvable
    assert np.allclose(sol.pressures, pressures, rtol=0.0, atol=1e-15)


def _expand_band(band):
    """Dense symmetric matrix of a lower band storage array."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for k in range(band.shape[0]):
        j = np.arange(n - k)
        dense[j + k, j] = band[k, : n - k]
        dense[j, j + k] = band[k, : n - k]
    return dense


def test_band_laplacian_is_the_permuted_dense_laplacian_bit_for_bit():
    rng = np.random.default_rng(3)
    nets = [random_connected_network(rng, n_min=2, n_max=30, extra_prob=0.2) for _ in range(20)]
    # the one-vertex network has no edges, and still a float Laplacian
    for net in nets + [nf.seven_node_network(), nf.leaf_network(40, 1), nf.new_network(1, [], [0.0])]:
        weights = rng.uniform(0.0, 2.0, net.edge_count)
        weights[rng.random(net.edge_count) < 0.3] = 0.0
        band = nf.graph.assemble_band_laplacian(net, weights)
        assert band.shape == (net.bandwidth + 1, net.vertex_count)
        assert band.flags.f_contiguous
        order = net.band_order
        dense = nf.graph.assemble_laplacian(net, weights)[np.ix_(order, order)]
        assert band.dtype == dense.dtype == np.float64
        assert _expand_band(band).tobytes() == dense.tobytes()
        assert np.array_equal(net.band_rank[order], np.arange(net.vertex_count))


@pytest.mark.parametrize("seed", range(4))
def test_leaf_mesh_bandwidth_stays_narrow(seed):
    # the banded pressure solve costs O(n b^2); reverse Cuthill-McKee gives
    # b between 37 and 53 on these planar meshes
    assert nf.leaf_network(400, seed).bandwidth <= 100


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
