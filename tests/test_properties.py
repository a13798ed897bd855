"""Property tests: invariants checked on generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import netforge as nf
from netforge.trees import _support_cycle

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _entry(keys):
    """A JSON object with a random subset of ``keys`` mapped to any value;
    numbers are likelier so that documents often get deep into validation."""
    value = st.integers(-2, 4) | st.floats(-2.0, 2.0) | json_values
    return st.dictionaries(st.sampled_from(keys), value, max_size=len(keys))


graph_documents = json_values | st.fixed_dictionaries(
    {
        "vertices": st.lists(_entry(["id", "source", "x", "y"]), max_size=4) | json_values,
        "edges": st.lists(_entry(["u", "v", "length"]), max_size=4) | json_values,
    }
)


@PROPERTY_SETTINGS
@given(graph_documents)
def test_network_from_dict_raises_only_documented_errors(doc):
    try:
        nf.io.network_from_dict(doc)
    except (ValueError, KeyError, nf.NetforgeError):
        pass


@st.composite
def networks(draw, min_length=1e-6, max_length=1e6):
    """Connected network: a random tree plus extra edges, lengths in
    [min_length, max_length], exactly balanced sources and optional
    positions."""
    n = draw(st.integers(2, 7))
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges[(u, v)] = None
    for pair in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if pair[0] != pair[1]:
            edges[tuple(sorted(pair))] = None
    lengths = st.floats(min_length, max_length)
    edge_list = [(u, v, draw(lengths)) for u, v in edges]
    # integer intensities times a power of two sum to exactly zero
    ints = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
    scale = 2.0 ** draw(st.integers(-20, 20))
    sources = [scale * k for k in ints] + [-scale * sum(ints)]
    positions = None
    if draw(st.booleans()):
        coords = st.floats(-1e3, 1e3)
        positions = [(draw(coords), draw(coords)) for _ in range(n)]
    return nf.new_network(n, edge_list, sources, positions)


@PROPERTY_SETTINGS
@given(networks())
def test_graph_document_round_trip(net):
    assert nf.io.network_from_dict(nf.io.network_to_dict(net)) == net


@PROPERTY_SETTINGS
@given(networks(min_length=0.5, max_length=2.0), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_kinetic_energy_scales_inversely_with_conductivity(net, seed, t):
    # P(tC) = P(C) / t for the same sources, so E_kin(tC) = E_kin(C) / t;
    # lengths within a factor 4 keep the Laplacian well conditioned
    params = nf.ModelParams(gamma=1.0, nu=1.0)
    C = np.random.default_rng(seed).uniform(0.1, 2.0, net.edge_count)
    base = nf.energy(net, C, params).kinetic
    scaled = nf.energy(net, t * C, params).kinetic
    assert np.isclose(scaled, base / t, rtol=1e-9, atol=0.0)


def _relabel(net, perm):
    """``net`` with vertex i renamed ``perm[i]``, and the new id of each of
    its edges."""
    edges = [(perm[u], perm[v], length) for u, v, length in net.edges]
    sources = np.empty(net.vertex_count)
    sources[perm] = net.sources
    positions = None
    if net.positions is not None:
        positions = np.empty_like(net.positions)
        positions[perm] = net.positions
    relabeled = nf.new_network(net.vertex_count, edges, sources, positions)
    eids = [relabeled.edge_index[tuple(sorted((perm[u], perm[v])))] for u, v, _ in net.edges]
    return relabeled, eids


@PROPERTY_SETTINGS
@given(networks(min_length=0.5, max_length=2.0), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_relabeling_vertices_permutes_pressures_and_keeps_energies(net, random, seed):
    perm = list(range(net.vertex_count))
    random.shuffle(perm)
    relabeled, eids = _relabel(net, perm)
    C = np.random.default_rng(seed).uniform(0.1, 2.0, net.edge_count)
    C_relabeled = np.empty_like(C)
    C_relabeled[eids] = C
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.5)

    assert np.isclose(nf.energy(relabeled, C_relabeled, params).total, nf.energy(net, C, params).total,
                      rtol=1e-12, atol=0.0)
    assert np.isclose(nf.modified_energy(relabeled, C_relabeled, params), nf.modified_energy(net, C, params),
                      rtol=1e-12, atol=0.0)
    P = nf.solve_kirchhoff(net, C).pressures
    P_relabeled = nf.solve_kirchhoff(relabeled, C_relabeled).pressures
    assert np.allclose(P_relabeled[perm], P, rtol=0.0, atol=1e-12 * np.abs(P).max())


@PROPERTY_SETTINGS
@given(networks(min_length=0.5, max_length=2.0), st.integers(0, 2**32 - 1))
def test_fluxes_conserve_flow_at_every_vertex(net, seed):
    # B Q = S: the flux divergence at each vertex is its source
    C = np.random.default_rng(seed).uniform(0.1, 2.0, net.edge_count)
    Q = nf.solve_kirchhoff(net, C).fluxes
    n = net.vertex_count
    divergence = np.bincount(net.edge_u, Q, n) - np.bincount(net.edge_v, Q, n)
    assert np.abs(divergence - net.sources).max() <= 1e-9 * np.abs(net.sources).max()


@PROPERTY_SETTINGS
@given(st.integers(2, 7), st.data())
def test_support_cycle_found_exactly_when_the_support_is_not_a_forest(n, data):
    # a random edge subset of the complete graph is any support on n vertices;
    # sparser generated networks rarely put a cycle off the walk's start
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    net = nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0])
    positive = data.draw(st.lists(st.booleans(), min_size=net.edge_count, max_size=net.edge_count))
    values = np.where(positive, 1.0, 0.0)
    cycle = _support_cycle(net, values)
    if sum(positive) == net.vertex_count - len(nf.support_components(net, values)):
        assert cycle is None
    else:
        assert len(set(cycle)) == len(cycle) >= 3
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert values[net.edge_index[(min(a, b), max(a, b))]] > 0.0
