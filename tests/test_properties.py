"""Property tests: invariants checked on generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import netforge as nf

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
