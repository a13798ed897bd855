import math

import numpy as np
import pytest

import netforge as nf
from conftest import random_connected_network, random_spanning_tree_ids
from netforge.trees import _tree_energy_blocks


def triangle(sources=(1.0, -1.0, 0.0)):
    return nf.new_network(3, [(0, 1), (0, 2), (1, 2)], sources)


def square_cycle(lengths=(1.0, 1.0, 1.0, 1.0)):
    # canonical edge order: (0,1), (0,3), (1,2), (2,3)
    l01, l03, l12, l23 = lengths
    return nf.new_network(
        4,
        [(0, 1, l01), (0, 3, l03), (1, 2, l12), (2, 3, l23)],
        [1.0, -1.0, 1.0, -1.0],
    )


LINEAR = nf.ModelParams(gamma=1.0, nu=1.0)


# ------------------------------------------------------------ tree fluxes

def test_path_fluxes_forced_by_conservation():
    net = nf.new_network(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    tree = nf.make_spanning_tree(net, [0, 1])
    assert nf.tree_fluxes(net, tree).tolist() == [1.0, 1.0]


def test_vee_tree_fluxes():
    net = triangle((1.0, -1.0 / 3.0, -2.0 / 3.0))
    tree = nf.make_spanning_tree(net, [0, 1])  # edges (0,1) and (0,2)
    fluxes = nf.tree_fluxes(net, tree)
    assert fluxes[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert fluxes[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert fluxes[2] == 0.0


def test_star_fluxes_point_inward():
    net = nf.new_network(4, [(0, 1), (0, 2), (0, 3)], [-3.0, 1.0, 1.0, 1.0])
    tree = nf.make_spanning_tree(net, [0, 1, 2])
    # canonical orientation is center -> leaf, so inbound unit flow is -1
    assert nf.tree_fluxes(net, tree).tolist() == [-1.0, -1.0, -1.0]


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
        fluxes = nf.tree_fluxes(net, tree)
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
    # ten triangles joined by bridges: 3^10 trees; without the deletion
    # branch's connectivity check the enumeration takes about 30x longer
    edges = []
    for i in range(10):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i:
            edges.append((a - 1, a))
    net = nf.new_network(30, edges, [1.0] + [0.0] * 28 + [-1.0])
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


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_global_search_matches_a_per_tree_scan(gamma):
    # the seven-node graph's 16807 trees span many blocks of the batched
    # evaluation; the reference is a strict-< scan of single-tree solutions
    params = nf.ModelParams(gamma=gamma, nu=1.0)
    rng = np.random.default_rng(3)
    nets = [nf.seven_node_network()] + [random_connected_network(rng, n_max=7) for _ in range(10)]
    for net in nets:
        trees = nf.enumerate_spanning_trees(net)
        scan = [nf.tree_local_minimizer(net, tree, params) for tree in trees]
        # a tree's energy does not depend on the block it is evaluated in
        blocks = np.concatenate([energies for _, energies in _tree_energy_blocks(net, params)])
        assert np.array_equal(blocks, [sol.energy for sol in scan])
        expected = None
        for sol in scan:
            if expected is None or sol.energy < expected.energy:
                expected = sol
        best = nf.global_tree_search(net, params)
        assert best.tree == expected.tree
        assert best.energy == expected.energy
        assert best.energy == nf.tree_local_minimizer(net, best.tree, params).energy


# ------------------------------------------------------------- loop tools

def test_is_loop_free():
    net = triangle()
    assert nf.is_loop_free(net, [1.0, 1.0, 0.0])
    assert not nf.is_loop_free(net, [1.0, 1.0, 1.0])
    assert nf.is_loop_free(net, [0.0, 0.0, 0.0])
    # below the relative threshold the closing edge does not count
    assert nf.is_loop_free(net, [1.0, 1.0, 1e-12], threshold=1e-6)


def test_loop_perturbation_requires_cycle():
    with pytest.raises(nf.NoCycleError):
        nf.loop_perturbation(triangle(), [1.0, 0.0, 0.0], LINEAR, 0.01)


def test_loop_perturbation_preserves_energy():
    # the uniform square cycle carrying +-1/2 on every edge is stationary:
    # (dP)^2 = nu L^2 holds, and the circular-flow shift keeps E unchanged
    net = square_cycle()
    values = np.full(4, 0.5)
    base = nf.energy(net, values, LINEAR).total
    for eps in (0.05, -0.05, 0.2):
        shifted = nf.loop_perturbation(net, values, LINEAR, eps)
        moved = nf.energy(net, shifted.values, LINEAR).total
        assert abs(moved - base) <= 1e-8 * base
        assert np.abs(shifted.values - values).max() == pytest.approx(abs(eps))


def test_loop_perturbation_rejects_leaving_cone():
    net = square_cycle()
    with pytest.raises(ValueError):
        nf.loop_perturbation(net, np.full(4, 0.5), LINEAR, 0.6)


def test_loop_perturbation_rejects_nonstationary():
    net = square_cycle()
    with pytest.raises(nf.NotStationaryError):
        nf.loop_perturbation(net, np.full(4, 0.7), LINEAR, 0.01)


def test_loop_perturbation_requires_linear_cost():
    net = square_cycle()
    with pytest.raises(ValueError):
        nf.loop_perturbation(net, np.full(4, 0.5), nf.ModelParams(gamma=0.5, nu=1.0), 0.01)


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
