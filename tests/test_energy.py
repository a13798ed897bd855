import math

import numpy as np
import pytest

import netforge as nf
import oracles
from conftest import central_difference, random_conductivities, random_connected_network
from conftest import LINEAR, single_edge, triangle


# ----------------------------------------------------------------- energy

def test_triangle_energy_closed_form():
    # E = 2 / (2 c0 + c1) + nu (c0 + 2 c1) for conductivities (c0, c1, c1)
    rng = np.random.default_rng(0)
    for nu in (0.5, 1.0, 2.0):
        params = nf.ModelParams(gamma=1.0, nu=nu)
        for _ in range(5):
            c0, c1 = rng.uniform(0.1, 2.0, 2)
            breakdown = nf.energy(triangle(), [c0, c1, c1], params)
            expected = 2.0 / (2 * c0 + c1) + nu * (c0 + 2 * c1)
            assert breakdown.total == pytest.approx(expected, rel=1e-10)


def test_triangle_energy_at_sparse_optimum():
    for nu in (0.25, 1.0, 4.0):
        params = nf.ModelParams(gamma=1.0, nu=nu)
        breakdown = nf.energy(triangle(), [1.0 / math.sqrt(nu), 0.0, 0.0], params)
        assert breakdown.total == pytest.approx(2.0 * math.sqrt(nu), rel=1e-12)


def test_single_edge_energy():
    for c in (0.5, 1.0, 3.0):
        breakdown = nf.energy(single_edge(), [c], LINEAR)
        assert breakdown.total == pytest.approx(1.0 / c + c, rel=1e-12)


def test_unsolvable_energy_is_infinite():
    net = triangle((1.0, -0.5, -0.5))
    breakdown = nf.energy(net, [1.0, 0.0, 0.0], LINEAR)  # vertex 2 cut off
    assert math.isinf(breakdown.total)
    assert math.isinf(breakdown.kinetic)
    assert math.isfinite(breakdown.metabolic)
    assert not breakdown.finite


def test_kinetic_edge_sum_matches_quadratic_form():
    rng = np.random.default_rng(1)
    for _ in range(15):
        net = random_connected_network(rng, n_max=10)
        values = random_conductivities(rng, net)
        breakdown = nf.energy(net, values, LINEAR)
        sol = nf.solve_kirchhoff(net, values)
        quad = sol.pressures @ nf.laplacian(net, values, use_lengths=True) @ sol.pressures
        assert abs(breakdown.kinetic - quad) <= 1e-9 * max(1.0, abs(quad))


def test_zero_conductivity_edges_contribute_nothing():
    full = nf.energy(triangle(), [1.0, 0.0, 0.0], LINEAR)
    sub = nf.energy(single_edge(), [1.0], LINEAR)
    assert full.total == pytest.approx(sub.total, rel=1e-12)


# --------------------------------------------------------------- gradient

def test_single_edge_gradient():
    for c in (0.5, 1.0, 2.0):
        grad = nf.energy_gradient(single_edge(), [c], LINEAR)
        assert grad[0] == pytest.approx(-1.0 / c**2 + 1.0, rel=1e-10)
    assert nf.energy_gradient(single_edge(), [1.0], LINEAR)[0] == pytest.approx(0.0, abs=1e-12)


def test_gradient_zero_on_supported_optimum():
    for nu in (0.5, 1.0, 2.0):
        params = nf.ModelParams(gamma=1.0, nu=nu)
        grad = nf.energy_gradient(triangle(), [1.0 / math.sqrt(nu), 0.0, 0.0], params)
        assert abs(grad[0]) <= 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    params = LINEAR
    for _ in range(20):
        net = random_connected_network(rng, n_min=4, n_max=10)
        values = random_conductivities(rng, net)
        grad = nf.energy_gradient(net, values, params)

        def total(c):
            return nf.energy(net, c, params).total

        fd = central_difference(total, values, 1e-6 * np.maximum(values, 1.0))
        rel = np.abs(grad - fd) / np.maximum.reduce([np.abs(grad), np.abs(fd), np.ones_like(fd)])
        assert rel.max() <= 1e-5


def test_gradient_infinite_marker_for_sublinear_cost():
    params = nf.ModelParams(gamma=0.5, nu=1.0)
    grad = nf.energy_gradient(triangle(), [1.0, 1.0, 0.0], params)
    assert math.isinf(grad[2]) and grad[2] > 0
    assert np.all(np.isfinite(grad[:2]))


def test_gradient_raises_when_unsolvable():
    net = triangle((1.0, -0.5, -0.5))
    with pytest.raises(nf.DisconnectedSupportError):
        nf.energy_gradient(net, [1.0, 0.0, 0.0], LINEAR)


def test_increasing_conductivity_never_raises_kinetic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_connected_network(rng)
        values = random_conductivities(rng, net)
        base = nf.energy(net, values, LINEAR).kinetic
        bumped = values.copy()
        eid = int(rng.integers(net.edge_count))
        bumped[eid] += 0.5
        assert nf.energy(net, bumped, LINEAR).kinetic <= base + 1e-12


# ------------------------------------------------------- convexity probe

def test_convexity_probe_linear_cost():
    rng = np.random.default_rng(4)
    for _ in range(20):
        c1 = rng.uniform(0.05, 2.0, 3)
        c2 = rng.uniform(0.05, 2.0, 3)
        assert oracles.convexity_probe(triangle(), c1, c2, LINEAR).ok


def test_convexity_probe_equal_arguments():
    probe = oracles.convexity_probe(triangle(), [1.0, 0.4, 0.2], [1.0, 0.4, 0.2], LINEAR)
    assert probe.ok
    assert abs(probe.worst_violation) <= 1e-12


def test_convexity_probe_reports_sublinear_violation():
    # two tree-supported stationary states straddled at the midpoint expose
    # the nonconvexity of the sublinear metabolic cost; the probe's report
    # must equal the directly computed violation
    params = nf.ModelParams(gamma=0.5, nu=1.0)
    net = triangle()
    t1 = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, [0, 1]), params)
    t2 = nf.tree_local_minimizer(net, nf.make_spanning_tree(net, [1, 2]), params)
    c1, c2 = t1.conductivities.values, t2.conductivities.values
    probe = oracles.convexity_probe(net, c1, c2, params, samples=1)
    e1 = nf.energy(net, c1, params).total
    e2 = nf.energy(net, c2, params).total
    emid = nf.energy(net, 0.5 * (c1 + c2), params).total
    assert probe.worst_violation == pytest.approx(emid - 0.5 * (e1 + e2), abs=1e-12)
    assert probe.worst_violation > 0  # recorded as expected-nonconvex


# ----------------------------------------------------- kinetic bound

def test_kinetic_bound_complete_graph_formula():
    n, c, ell = 5, 0.7, 2.0
    edges = [(u, v, ell) for u in range(n) for v in range(u + 1, n)]
    sources = np.zeros(n)
    sources[0], sources[-1] = 1.0, -1.0
    net = nf.new_network(n, edges, sources)
    ekin, bound = nf.kinetic_bound_check(net, [c] * len(edges))
    s2 = float(sources @ sources)
    assert bound == pytest.approx(s2 * ell / (c * n), rel=1e-12)
    assert ekin <= bound + 1e-9


def test_kinetic_bound_disconnected_is_vacuous():
    ekin, bound = nf.kinetic_bound_check(triangle(), [1.0, 0.0, 0.0])
    assert math.isinf(bound)
    assert ekin <= bound


def test_kinetic_bound_random_instance():
    rng = np.random.default_rng(5)
    net = random_connected_network(rng, n_min=8, n_max=8)
    values = random_conductivities(rng, net)
    ekin, bound = nf.kinetic_bound_check(net, values)
    assert ekin <= bound + 1e-9


def test_kinetic_bound_matches_the_full_spectrum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        net = random_connected_network(rng, n_max=12)
        values = random_conductivities(rng, net)
        fiedler = np.linalg.eigvalsh(nf.laplacian(net, values, use_lengths=True))[1]
        bound = nf.kinetic_bound_check(net, values)[1]
        assert bound == pytest.approx(float(net.sources @ net.sources) / fiedler, rel=1e-12)


def test_kinetic_bound_requires_nonzero_sources():
    net = triangle((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        nf.kinetic_bound_check(net, [1.0, 1.0, 1.0])


# ---------------------------------------------------- length homogeneity

def test_minimized_energy_scales_with_lengths():
    # scaling every length by lambda scales the minimized energy by lambda,
    # checked on the benchmark triangle where the optimum is known
    for lam in (0.5, 2.0, 3.0):
        net = nf.new_network(
            3, [(0, 1, lam), (0, 2, lam), (1, 2, lam)], [1.0, -1.0, 0.0]
        )
        best = nf.global_tree_search(net, LINEAR)
        assert best.energy == pytest.approx(lam * 2.0, rel=1e-12)
