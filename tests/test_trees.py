import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

import netforge as nf
import oracles
from conftest import LINEAR, random_connected_network, random_spanning_tree_ids, triangle
from netforge.trees import (
    SCORE_MARGIN,
    _lexicographic,
    _spanning_trees,
    _tree_energy_blocks,
    _tree_scores,
    _tree_states,
)


def square_cycle(lengths=(1.0, 1.0, 1.0, 1.0)):
    # canonical edge order: (0,1), (0,3), (1,2), (2,3)
    l01, l03, l12, l23 = lengths
    return nf.new_network(
        4,
        [(0, 1, l01), (0, 3, l03), (1, 2, l12), (2, 3, l23)],
        [1.0, -1.0, 1.0, -1.0],
    )


def bridged_triangles(count):
    # unit triangles joined in a chain by unit bridges: 3^count trees
    edges = []
    for i in range(count):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i:
            edges.append((a - 1, a))
    n = 3 * count
    return nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0])


def unit_grid(side):
    # side x side unit grid with alternating unit sources (one idle vertex
    # balances an odd count)
    n = side * side
    edges = [(v, v + 1) for v in range(n) if (v + 1) % side]
    edges += [(v, v + side) for v in range(n - side)]
    sources = [(-1.0) ** v for v in range(n)]
    if n % 2:
        sources[-1] = 0.0
    return nf.new_network(n, edges, sources)


#: the tree-search benchmark's 10-node leaves at workload seed 1
BENCH_LEAF_SEEDS = (798405205, 415021730, 1933120797, 1911094848, 1163803912, 943150665, 699638994)


def with_sources(net, sources):
    edges = [(int(u), int(v), float(L)) for u, v, L in zip(net.edge_u, net.edge_v, net.lengths)]
    return nf.new_network(net.vertex_count, edges, sources)


def single_source_grid(side):
    # the unit grid with a unit source at vertex 0 and equal sinks elsewhere
    n = side * side
    return with_sources(unit_grid(side), [1.0] + [-1.0 / (n - 1)] * (n - 1))


# ------------------------------------------------------------ tree fluxes

def test_path_fluxes_forced_by_conservation():
    net = nf.new_network(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    tree = nf.make_spanning_tree(net, [0, 1])
    assert nf.tree_local_minimizer(net, tree, LINEAR).fluxes.tolist() == [1.0, 1.0]


def test_vee_tree_fluxes():
    net = triangle((1.0, -1.0 / 3.0, -2.0 / 3.0))
    tree = nf.make_spanning_tree(net, [0, 1])  # edges (0,1) and (0,2)
    fluxes = nf.tree_local_minimizer(net, tree, LINEAR).fluxes
    assert fluxes[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert fluxes[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fluxes[2] == 0.0


def test_star_fluxes_point_inward():
    net = nf.new_network(4, [(0, 1), (0, 2), (0, 3)], [-3.0, 1.0, 1.0, 1.0])
    tree = nf.make_spanning_tree(net, [0, 1, 2])
    # canonical orientation is center -> leaf, so inbound unit flow is -1
    assert nf.tree_local_minimizer(net, tree, LINEAR).fluxes.tolist() == [-1.0, -1.0, -1.0]


def test_make_spanning_tree_rejects_non_trees():
    # a triangle with a pendant vertex: (0,1), (0,2), (1,2), (2,3)
    net = nf.new_network(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        nf.make_spanning_tree(net, [0, 3])  # two edges for four vertices
    with pytest.raises(ValueError):
        nf.make_spanning_tree(net, [0, 1, 2])  # closes the triangle, misses 3
    with pytest.raises(ValueError):
        nf.make_spanning_tree(net, [0, 3, -1])  # -1 is no edge id
    with pytest.raises(ValueError):
        nf.make_spanning_tree(net, [0, 3, 4])
    assert nf.make_spanning_tree(net, [3, 0, 1]).edge_ids == (0, 1, 3)


def test_tree_fluxes_conserve_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        net = random_connected_network(rng, n_max=9)
        tree = nf.make_spanning_tree(net, random_spanning_tree_ids(rng, net))
        fluxes = nf.tree_local_minimizer(net, tree, LINEAR).fluxes
        n = net.vertex_count
        outflow = np.bincount(net.edge_u, fluxes, n) - np.bincount(net.edge_v, fluxes, n)
        assert np.abs(outflow - net.sources).max() <= 1e-12


# --------------------------------------------------- tree local minimizer

def test_vee_tree_minimizer_matches_benchmark():
    net = triangle((1.0, -1.0 / 3.0, -2.0 / 3.0))
    sol = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, [0, 1]), LINEAR)
    assert np.allclose(sol.conductivities.values, [1 / 3, 2 / 3, 0.0], atol=1e-15)
    assert sol.energy == pytest.approx(2.0, rel=1e-12)


def test_single_edge_sublinear_minimizer():
    net = nf.new_network(2, [(0, 1)], [1.0, -1.0])
    params = nf.ModelParams(gamma=0.5, nu=1.0)
    sol = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, [0]), params)
    assert sol.conductivities.values[0] == pytest.approx(1.0)


def test_zero_flux_tree_edge_gets_zero_conductivity():
    # the idle vertex contributes no flux, so its tree edge vanishes and the
    # energy matches the sparse optimum 2 sqrt(nu)
    for nu in (0.5, 1.0, 2.0):
        params = nf.ModelParams(gamma=1.0, nu=nu)
        net = triangle()
        sol = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, [0, 1]), params)
        assert sol.conductivities.values[0] == pytest.approx(1.0 / math.sqrt(nu))
        assert sol.conductivities.values[1] == 0.0
        assert sol.energy == pytest.approx(2.0 * math.sqrt(nu), rel=1e-12)


def test_tree_minimizer_stationarity_sublinear():
    rng = np.random.default_rng(1)
    params = nf.ModelParams(gamma=0.5, nu=1.0)
    for _ in range(10):
        net = random_connected_network(rng, n_max=7)
        tree = nf.make_spanning_tree(net, random_spanning_tree_ids(rng, net))
        sol = nf.tree_local_minimizer(net, tree, params)
        values = sol.conductivities.values
        grad = nf.energy_gradient(net, values, params)
        on_tree = values > 0.0
        assert np.abs(grad[on_tree]).max() <= 1e-8
        off = ~on_tree
        assert np.all(np.isinf(grad[off])) and np.all(grad[off] > 0)


def test_tree_energy_matches_general_energy_on_seven_node_trees():
    # the tree energy uses the shared metabolic formula and the solve-free
    # kinetic sum; it must agree with the general evaluation on a fixed
    # sample of 174 of the 16807 trees
    net = nf.seven_node_network()
    trees = list(nf.enumerate_spanning_trees(net))[::97]
    for gamma in (1.0, 0.5):
        params = nf.ModelParams(gamma=gamma, nu=1.0)
        for tree in trees:
            sol = nf.tree_local_minimizer(net, tree, params)
            expected = nf.energy(net, sol.conductivities, params).total
            assert sol.energy == pytest.approx(expected, rel=1e-12, abs=0.0)


# ------------------------------------------------------------ enumeration

def test_triangle_has_three_trees():
    trees = list(nf.enumerate_spanning_trees(triangle()))
    assert [t.edge_ids for t in trees] == [(0, 1), (0, 2), (1, 2)]


def test_complete4_has_sixteen_trees():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    net = nf.new_network(4, edges, [1.0, -1.0, 1.0, -1.0])
    trees = list(nf.enumerate_spanning_trees(net))
    assert len(trees) == 16
    assert len(set(t.edge_ids for t in trees)) == 16


def test_path_has_one_tree():
    net = nf.new_network(4, [(0, 1), (1, 2), (2, 3)], [1.0, 0.0, 0.0, -1.0])
    assert [t.edge_ids for t in nf.enumerate_spanning_trees(net)] == [(0, 1, 2)]


def test_enumeration_count_matches_determinant():
    rng = np.random.default_rng(2)
    for _ in range(8):
        net = random_connected_network(rng, n_min=4, n_max=8, extra_prob=0.5)
        count = nf.spanning_tree_count(net)
        assert sum(1 for _ in nf.enumerate_spanning_trees(net)) == count


def test_tree_limit_is_exact_at_the_count(monkeypatch):
    # K4 has 16 trees: a limit of 16 admits it and 15 refuses it
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    net = nf.new_network(4, edges, [1.0, -1.0, 1.0, -1.0])
    monkeypatch.setattr(nf.trees, "TREE_LIMIT", 16)
    assert sum(1 for _ in nf.enumerate_spanning_trees(net)) == 16
    assert nf.global_tree_search(net, LINEAR).energy > 0.0
    monkeypatch.setattr(nf.trees, "TREE_LIMIT", 15)
    with pytest.raises(nf.TooManyTreesError):
        next(iter(nf.enumerate_spanning_trees(net)))
    with pytest.raises(nf.TooManyTreesError):
        nf.global_tree_search(net, LINEAR)


def test_exact_count_is_skipped_far_below_the_limit(monkeypatch):
    # the float estimate alone admits counts up to half the limit
    calls, exact = [], nf.trees._exact_tree_count
    monkeypatch.setattr(nf.trees, "_exact_tree_count", lambda reduced: calls.append(1) or exact(reduced))
    net = nf.seven_node_network()
    assert sum(1 for _ in nf.enumerate_spanning_trees(net)) == 7**5 and calls == []
    monkeypatch.setattr(nf.trees, "TREE_LIMIT", 2 * 7**5 - 1)
    assert sum(1 for _ in nf.enumerate_spanning_trees(net)) == 7**5 and calls == [1]


def test_too_many_trees_rejected():
    n = 9  # 9^7 = 4782969 spanning trees on the complete graph
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sources = np.zeros(n)
    sources[0], sources[-1] = 1.0, -1.0
    net = nf.new_network(n, edges, sources)
    assert nf.spanning_tree_count(net) == 4782969
    with pytest.raises(nf.TooManyTreesError):
        next(iter(nf.enumerate_spanning_trees(net)))


@pytest.mark.parametrize("n", [16, 20])
def test_tree_count_is_exact_beyond_float_precision(n):
    # Cayley: K_n has n^(n-2) spanning trees, past 2^53 for n >= 16
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    net = nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0])
    assert nf.spanning_tree_count(net) == n ** (n - 2)


def test_tree_count_overflow_rejected():
    # K_150 has 150^148 > 1e308 spanning trees: the determinant overflows
    n = 150
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    net = nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0])
    with pytest.raises(nf.TooManyTreesError):
        nf.spanning_tree_count(net)
    with pytest.raises(nf.TooManyTreesError):
        next(iter(nf.enumerate_spanning_trees(net)))
    with pytest.raises(nf.TooManyTreesError):
        nf.global_tree_search(net, LINEAR)


def test_bridged_triangle_chain_enumeration():
    # hung nearest-first without pruning the neighbours that reach vertex 0
    # only through the vertex, the frontier grew to 16 times the tree count
    # and the enumeration took 5x longer; hung farthest-first, those copies
    # close a cycle at once, no row is a dead end, and the frontier passes
    # through 177 143 rows in all, at most 8738 at once
    net = bridged_triangles(10)
    assert nf.spanning_tree_count(net) == 3**10
    assert sum(1 for _ in nf.enumerate_spanning_trees(net)) == 3**10


# ---------------------------------------------------------- global search

def test_global_search_vee_benchmark():
    net = triangle((1.0, -1.0 / 3.0, -2.0 / 3.0))
    best = nf.global_tree_search(net, LINEAR)
    assert best.tree.edge_ids == (0, 1)
    assert best.energy == pytest.approx(2.0, rel=1e-12)


def test_global_search_idle_vertex_benchmark():
    best = nf.global_tree_search(triangle(), LINEAR)
    assert best.energy == pytest.approx(2.0, rel=1e-12)


def test_global_search_ties_go_to_the_first_enumerated_tree():
    # unit square with alternating unit sources: each of the 4 trees is a
    # path around the square carrying fluxes 1, 0, 1 in path order, so at
    # gamma = nu = 1 every tree's energy is exactly 2 + 2 = 4
    net = square_cycle()
    trees = nf.enumerate_spanning_trees(net)
    energies = [nf.tree_local_minimizer(net, tree, LINEAR).energy for tree in trees]
    assert energies == [4.0] * 4
    assert nf.global_tree_search(net, LINEAR).tree.edge_ids == (0, 1, 2)


def one_signed_networks():
    # every source but vertex 0's has one sign, so the search prunes (the
    # all-zero graphs excepted)
    nets = [nf.leaf_network(10, seed) for seed in BENCH_LEAF_SEEDS[:4]] + [nf.leaf_network(10, 5)]
    nets += [bridged_triangles(6), single_source_grid(3)]
    nets += [with_sources(bridged_triangles(4), [0.0] * 12), with_sources(square_cycle(), [0.0] * 4)]
    return nets


def assert_same_solution(got, want):
    assert got.tree == want.tree
    assert got.energy == want.energy
    assert got.conductivities.values.tobytes() == want.conductivities.values.tobytes()


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_global_search_matches_a_per_tree_scan(gamma):
    # the seven-node graph's 16807 trees span many blocks of the batched
    # evaluation; the reference is the first of the single-tree solutions of
    # least energy (the square, grid, bridged triangles and the leaf have
    # many trees of exactly equal energy; on the leaf the lowest tree score
    # at gamma = 0.5 belongs to the second of two such trees); the one-signed
    # networks are searched by branch and bound
    params = nf.ModelParams(gamma=gamma, nu=1.0)
    rng = np.random.default_rng(3)
    nets = [nf.seven_node_network()] + [random_connected_network(rng, n_max=7) for _ in range(10)]
    nets += [square_cycle(), unit_grid(3)] + one_signed_networks()
    for net in nets:
        scan = [nf.tree_local_minimizer(net, tree, params) for tree in nf.enumerate_spanning_trees(net)]
        # a tree's energy does not depend on the block it is evaluated in
        blocks = np.concatenate([energies for _, energies in _tree_energy_blocks(net, params)])
        assert np.array_equal(blocks, [sol.energy for sol in scan])
        assert_same_solution(nf.global_tree_search(net, params), min(scan, key=lambda sol: sol.energy))


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("nu", [0.3, 1.0, 3.0])
def test_tree_scores_agree_with_exact_energies(gamma, nu):
    # the closed form (1 + 1/gamma) nu^(1/(gamma+1)) sum L (Q^2)^(gamma/(gamma+1))
    # stays within the (n + 6) eps that SCORE_MARGIN is derived from
    params = nf.ModelParams(gamma=gamma, nu=nu)
    eps = np.finfo(float).eps
    for net in [nf.seven_node_network(), nf.leaf_network(10, 1933120797), nf.leaf_network(10, 5)]:
        n = net.vertex_count
        assert 2 * (n + 6) * eps <= SCORE_MARGIN
        child, ids = _lexicographic(_spanning_trees(net))
        energies = _tree_states(net, child, ids, params)[2]
        scores = (1.0 + 1.0 / gamma) * nu ** (1.0 / (gamma + 1.0)) * _tree_scores(net, child, params)
        assert np.all(np.abs(scores - energies) <= (n + 6) * eps * energies)


def test_one_signed_search_prunes_and_mixed_signs_visit_every_tree(monkeypatch):
    emitted, spanning_trees = [], nf.trees._spanning_trees

    def counted(*args):
        for child in spanning_trees(*args):
            emitted.append(len(child))
            yield child

    monkeypatch.setattr(nf.trees, "_spanning_trees", counted)
    for net, pruned in [(nf.leaf_network(10, BENCH_LEAF_SEEDS[0]), True), (nf.seven_node_network(), False)]:
        for gamma in (0.5, 1.0):
            emitted.clear()
            nf.global_tree_search(net, nf.ModelParams(gamma=gamma, nu=1.0))
            count = nf.spanning_tree_count(net)
            assert sum(emitted) < count / 4 if pruned else sum(emitted) == count


def shortest_path_tree(net):
    n = net.vertex_count
    lengths = csr_array((net.lengths, (net.edge_u, net.edge_v)), shape=(n, n))
    parent = dijkstra(lengths, directed=False, indices=0, return_predecessors=True)[1]
    return nf.make_spanning_tree(net, [net.edge_index[min(p, v), max(p, v)] for v, p in enumerate(parent) if v])


def test_linear_one_signed_optimum_is_a_shortest_path_tree():
    # at gamma = 1 a tree's score is sum_x |S_x| dist_T(x, 0), least on a
    # shortest-path tree from the single source
    for seed in BENCH_LEAF_SEEDS:
        net = nf.leaf_network(10, seed)
        best = nf.global_tree_search(net, LINEAR)
        shortest = nf.tree_local_minimizer(net, shortest_path_tree(net), LINEAR)
        assert best.energy <= shortest.energy
        assert best.energy == pytest.approx(shortest.energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_split_frontier_gives_the_same_search(gamma, monkeypatch):
    # the bench graphs never split their frontier; chunks of a few rows must
    # give the same tree, energy bits and conductivity bytes, with and
    # without pruning
    params = nf.ModelParams(gamma=gamma, nu=1.0)
    nets = [nf.seven_node_network(), square_cycle(), unit_grid(3)] + one_signed_networks()
    nets += [nf.new_network(1, [], [0.0]), nf.new_network(2, [(0, 1)], [1.0, -1.0])]
    expected = [nf.global_tree_search(net, params) for net in nets]
    monkeypatch.setattr(nf.trees, "SPLIT_ENTRIES", 32)
    for net, want in zip(nets, expected):
        assert_same_solution(nf.global_tree_search(net, params), want)


def test_search_memory_does_not_grow_with_the_tree_count():
    # 3^11 = 177 147 trees on 33 vertices; holding them all at once traced
    # 18.5 MB, the split frontier and the kept near-minimal trees about 4 MB
    net, params = bridged_triangles(11), nf.ModelParams(gamma=0.5, nu=1.0)
    nf.global_tree_search(bridged_triangles(2), params)
    tracemalloc.start()
    try:
        nf.global_tree_search(net, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_search_memory_stays_bounded_when_every_tree_scores_zero():
    # with no sources every tree scores 0 and has energy 0, and keeping them
    # all traced 42 MB; only the lexicographically first of them can win
    net, params = with_sources(bridged_triangles(11), [0.0] * 33), nf.ModelParams(gamma=0.5, nu=1.0)
    nf.global_tree_search(bridged_triangles(2), params)
    tracemalloc.start()
    try:
        best = nf.global_tree_search(net, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert best.tree == next(iter(nf.enumerate_spanning_trees(net)))


# ------------------------------------------------------------- loop tools

def test_is_loop_free():
    net = triangle()
    assert nf.is_loop_free(net, [1.0, 1.0, 0.0])
    assert not nf.is_loop_free(net, [1.0, 1.0, 1.0])
    assert nf.is_loop_free(net, [0.0, 0.0, 0.0])
    # below the relative threshold the closing edge does not count
    assert nf.is_loop_free(net, [1.0, 1.0, 1e-12], threshold=1e-6)


def test_loop_perturbation_requires_cycle():
    with pytest.raises(oracles.NoCycleError):
        oracles.loop_perturbation(triangle(), [1.0, 0.0, 0.0], LINEAR, 0.01)


def test_loop_perturbation_preserves_energy():
    # the uniform square cycle carrying +-1/2 on every edge is stationary:
    # (dP)^2 = nu L^2 holds, and the circular-flow shift keeps E unchanged
    net = square_cycle()
    values = np.full(4, 0.5)
    base = nf.energy(net, values, LINEAR).total
    for eps in (0.05, -0.05, 0.2):
        shifted = oracles.loop_perturbation(net, values, LINEAR, eps)
        moved = nf.energy(net, shifted.values, LINEAR).total
        assert abs(moved - base) <= 1e-8 * base
        assert np.abs(shifted.values - values).max() == pytest.approx(abs(eps))


def test_loop_perturbation_rejects_leaving_cone():
    net = square_cycle()
    with pytest.raises(ValueError):
        oracles.loop_perturbation(net, np.full(4, 0.5), LINEAR, 0.6)


def test_loop_perturbation_rejects_nonstationary():
    net = square_cycle()
    with pytest.raises(oracles.NotStationaryError):
        oracles.loop_perturbation(net, np.full(4, 0.7), LINEAR, 0.01)


def test_loop_perturbation_requires_linear_cost():
    net = square_cycle()
    with pytest.raises(ValueError):
        oracles.loop_perturbation(net, np.full(4, 0.5), nf.ModelParams(gamma=0.5, nu=1.0), 0.01)


def test_minimizer_segment_on_asymmetric_cycle():
    # lengths chosen so the alternating sign-length sum cancels: the whole
    # segment q in (0,1) of splits is stationary with equal energy, its ends
    # are the two spanning-tree solutions (extremal points are loop-free)
    net = square_cycle((2.0, 4.0, 1.0, 3.0))
    energies = []
    for q in (0.2, 0.5, 0.8):
        values = np.array([q, 1 - q, 1 - q, q])
        grad = nf.energy_gradient(net, values, LINEAR)
        assert np.abs(grad).max() <= 1e-10
        energies.append(nf.energy(net, values, LINEAR).total)
    assert max(energies) - min(energies) <= 1e-10
    best = nf.global_tree_search(net, LINEAR)
    assert best.energy == pytest.approx(energies[0], rel=1e-12)
