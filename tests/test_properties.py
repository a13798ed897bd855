"""Property tests: invariants checked on generated inputs."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netforge as nf
from netforge.energy import metabolic_energy
from netforge.graph import assemble_band_laplacian, assemble_laplacian
from netforge.spectral import _low_spectrum, _path_cholesky, fiedler_pair, gap_tolerance
from netforge.trees import _tree_energy_blocks
from oracles import (
    _support_cycle,
    broadcast_band_laplacian,
    broadcast_laplacian,
    power_metabolic_energy,
    window_multiplicity,
)

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


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(networks(), st.data())
def test_scatter_and_metabolic_kernels_match_their_oracles_bit_for_bit(net, data):
    m = net.edge_count
    entries = st.just(0.0) | st.floats(0.0, 1e6)
    weights = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)))
    assert _bits(assemble_laplacian(net, weights)) == _bits(broadcast_laplacian(net, weights))
    band = assemble_band_laplacian(net, weights)
    assert band.flags.f_contiguous
    assert _bits(band) == _bits(broadcast_band_laplacian(net, weights))

    gamma = data.draw(st.just(1.0) | st.floats(0.1, 3.0))
    params = nf.ModelParams(gamma=gamma, nu=data.draw(st.floats(0.1, 10.0)))
    stack = np.stack([weights, weights[::-1]])
    for values in (weights, stack):
        cost = metabolic_energy(values, net.lengths, params)
        assert _bits(cost) == _bits(power_metabolic_energy(values, net.lengths, params))


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-8, 1.0]), st.data())
def test_fiedler_multiplicity_matches_its_oracle(fiedler, data):
    # an ascending window whose Fiedler value w[1] may repeat exactly, or
    # recur within, at or just beyond the gap tolerance
    tol = gap_tolerance(fiedler)
    gap = st.sampled_from([0.0, 0.5 * tol, tol, 1.5 * tol]) | st.floats(0.0, 4.0 * tol)
    rest = sorted(fiedler + g for g in data.draw(st.lists(gap, min_size=1, max_size=6)))
    w = np.array([fiedler - data.draw(st.sampled_from([0.0, tol]) | st.floats(0.0, 1.0)), fiedler, *rest])
    multiplicity = fiedler_pair(w, np.eye(w.size))[2]
    assert type(multiplicity) is int
    assert multiplicity == window_multiplicity(w)


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


@st.composite
def supported_networks(draw):
    """A network and conductivities whose support (edges with C > 0) may be
    disconnected, with integer sources times a power of two that sum to
    exactly zero on every support component (zero on isolated vertices)."""
    net = draw(networks(min_length=0.5, max_length=2.0))
    C = np.array([draw(st.sampled_from([0.0, 0.1, 0.7, 2.0])) for _ in range(net.edge_count)])
    scale = 2.0 ** draw(st.integers(-20, 20))
    sources = np.zeros(net.vertex_count)
    for comp in nf.support_components(net, C):
        ints = draw(st.lists(st.integers(-1000, 1000), min_size=comp.size - 1, max_size=comp.size - 1))
        sources[comp] = [scale * k for k in ints] + [-scale * sum(ints)]
    return nf.new_network(net.vertex_count, net.edges, sources), C


@PROPERTY_SETTINGS
@given(supported_networks())
def test_grounded_solve_sums_to_zero_per_component_and_conserves_flow(case):
    net, C = case
    sol = nf.solve_kirchhoff(net, C)
    assert sol.solvable
    P_scale = np.abs(sol.pressures).max()
    for comp in sol.components:
        assert abs(sol.pressures[list(comp)].sum()) <= 1e-12 * len(comp) * P_scale
    n = net.vertex_count
    Q = sol.fluxes
    divergence = np.bincount(net.edge_u, Q, n) - np.bincount(net.edge_v, Q, n)
    assert np.abs(divergence - net.sources).max() <= 1e-9 * np.abs(net.sources).max()


def _solve_outcome(net, weights, comps, scale):
    try:
        P = nf.kirchhoff.solve_pressures(net, weights, comps, scale)
    except nf.IllConditionedError:
        return "raised"
    return None if P is None else P.tobytes()


@PROPERTY_SETTINGS
@given(networks(min_length=0.5, max_length=2.0), st.data())
def test_one_ground_solve_is_none_or_the_solve_with_the_components(net, data):
    # with unknown components the solve answers only on a connected support,
    # and there with the bits of the solve given its single component
    value = st.sampled_from([0.0, 1e-3, 0.1, 0.7, 2.0])
    C = np.array(data.draw(st.lists(value, min_size=net.edge_count, max_size=net.edge_count)))
    weights, scale = C / net.lengths, np.abs(net.sources).max()
    comps = nf.support_components(net, C)
    outcome = _solve_outcome(net, weights, None, scale)
    if outcome is not None:
        assert len(comps) == 1
        assert outcome == _solve_outcome(net, weights, comps, scale)


@st.composite
def weighted_graphs(draw):
    """A network of 2-16 vertices (a random tree plus extra edges) and edge
    weights of 0.1-10, in half the draws with zeros among them, so the
    weighted support is often disconnected."""
    n = draw(st.integers(2, 16))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    net = nf.new_network(n, sorted(edges), np.zeros(n))
    weight = st.floats(0.1, 10.0)
    if draw(st.booleans()):
        weight = st.just(0.0) | weight
    weights = [draw(weight) for _ in range(net.edge_count)]
    return net, np.array(weights)


@PROPERTY_SETTINGS
@given(weighted_graphs(), st.floats(-2.0, 2.0))
def test_path_cholesky_succeeds_exactly_below_the_fiedler_value(graph, r):
    # Sylvester's law of inertia on Q^T (L - sigma I) Q, Q the path basis of
    # the complement of the ones vector: positive definite iff sigma < lambda_1.
    # The Fiedler value of a disconnected support is 0; there sigma is r itself
    net, weights = graph
    fied = _low_spectrum(nf.laplacian(net, weights))[0][1]
    connected = len(nf.support_components(net, weights)) == 1
    scale = fied if connected else 1.0
    sigma = fied + r * scale
    assume(abs(sigma - fied) > 1e-6 * scale)
    factor = _path_cholesky(nf.graph.assemble_band_laplacian(net, weights), sigma)
    assert (factor is not None) == (sigma < fied)


@st.composite
def bridged_networks(draw):
    """A connected network of 2-9 vertices: two parts (random trees of 1-4
    vertices plus up to three extra edges each) joined by a bridge, whose
    ends are articulation points unless their part is a single vertex, and
    in half the draws a pendant vertex.  Labels are shuffled, so vertex 0 may
    lie anywhere; the sources are dyadic, so subtree sums are exact."""
    sizes = [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
    n = sum(sizes) + draw(st.integers(0, 1))
    edges, start = set(), 0
    for size in sizes:
        vertices = st.integers(start, start + size - 1)
        edges |= {(draw(st.integers(start, v - 1)), v) for v in range(start + 1, start + size)}
        edges |= {(min(e), max(e)) for e in draw(st.lists(st.tuples(vertices, vertices), max_size=3)) if e[0] != e[1]}
        start += size
    edges.add((draw(st.integers(0, sizes[0] - 1)), draw(st.integers(sizes[0], start - 1))))
    if n > start:
        edges.add((draw(st.integers(0, start - 1)), start))
    label = draw(st.permutations(range(n)))
    edge_list = [(label[u], label[v], draw(st.floats(0.5, 2.0))) for u, v in sorted(edges)]
    ints = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
    scale = 2.0 ** draw(st.integers(-20, 20))
    return nf.new_network(n, edge_list, [scale * k for k in ints] + [-scale * sum(ints)])


@PROPERTY_SETTINGS
@given(bridged_networks(), st.sampled_from([0.5, 1.0, 1.5]))
def test_spanning_tree_enumeration_invariants(net, gamma):
    trees = [tree.edge_ids for tree in nf.enumerate_spanning_trees(net)]
    # strictly ascending in lexicographic order, hence unique; one per tree
    assert all(a < b for a, b in zip(trees, trees[1:]))
    assert len(trees) == nf.spanning_tree_count(net)
    n = net.vertex_count
    # the generator's blocks hold every tree once, with the frontier whole
    # and split into chunks of one or two rows
    for split in (nf.trees.SPLIT_ENTRIES, 2 * n):
        with mock.patch.object(nf.trees, "SPLIT_ENTRIES", split):
            ids = np.sort(np.concatenate(list(nf.trees._spanning_trees(net))), axis=1).tolist()
        assert len(ids) == len(trees)
        assert len(set(map(tuple, ids))) == len(ids)
        for row in ids:
            nf.make_spanning_tree(net, row)
    params = nf.ModelParams(gamma=gamma, nu=1.0)
    singles = []
    for ids in trees:
        tree = nf.make_spanning_tree(net, ids)
        assert tree.edge_ids == ids
        solution = nf.tree_local_minimizer(net, tree, params)
        Q = solution.fluxes
        assert np.array_equal(np.bincount(net.edge_u, Q, n) - np.bincount(net.edge_v, Q, n), net.sources)
        singles.append(solution.energy)
    # a tree's energy does not depend on the block it is evaluated in
    blocks = list(_tree_energy_blocks(net, params))
    assert [tuple(row) for ids, _ in blocks for row in ids.tolist()] == trees
    assert np.array_equal(np.concatenate([energies for _, energies in blocks]), singles)


@st.composite
def searched_networks(draw):
    """A network of ``networks`` whose sources but vertex 0's have one sign
    (zeros allowed) in two of three draws, and mixed signs otherwise."""
    net = draw(networks(min_length=1e-3, max_length=1e3))
    n, sign = net.vertex_count, draw(st.sampled_from([1, -1, 0]))
    ints = st.integers(0, 1000) if sign else st.integers(-1000, 1000)
    rest = [(sign or 1) * k for k in draw(st.lists(ints, min_size=n - 1, max_size=n - 1))]
    edges = [(int(u), int(v), float(L)) for u, v, L in zip(net.edge_u, net.edge_v, net.lengths)]
    return nf.new_network(n, edges, [-float(sum(rest))] + [float(k) for k in rest])


@PROPERTY_SETTINGS
@given(searched_networks(), st.sampled_from([0.5, 1.0, 2.0]))
def test_global_tree_search_matches_the_exhaustive_scan(net, gamma):
    params = nf.ModelParams(gamma=gamma, nu=1.0)
    ids, energies = (np.concatenate(arrays) for arrays in zip(*_tree_energy_blocks(net, params)))
    first = int(np.argmin(energies))  # the first tree of least energy
    best = nf.global_tree_search(net, params)
    expected = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, ids[first]), params)
    assert best.tree.edge_ids == tuple(ids[first].tolist())
    assert best.energy == energies[first] == expected.energy
    assert best.conductivities.values.tobytes() == expected.conductivities.values.tobytes()
