import numpy as np
import pytest

import netforge as nf
from conftest import random_conductivities, random_connected_network


def triangle(sources=(1.0, -1.0, 0.0)):
    return nf.new_network(3, [(0, 1), (0, 2), (1, 2)], sources)


def complete4(sources):
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return nf.new_network(4, edges, sources)


# ------------------------------------------------------------- operator

def test_single_edge_operator():
    net = nf.new_network(2, [(0, 1, 2.0)], [1.0, -1.0])
    lap = nf.laplacian(net, [3.0], use_lengths=True)
    w = 3.0 / 2.0
    assert np.allclose(lap, [[w, -w], [-w, w]])


def test_triangle_operator_diagonal():
    # conductivity c0 on (0,1) and c1 on the two detour edges, unit lengths
    c0, c1 = 0.7, 0.4
    lap = nf.laplacian(triangle(), [c0, c1, c1], use_lengths=True)
    assert np.allclose(np.diag(lap), [c0 + c1, c0 + c1, 2 * c1])


def test_zero_conductivities_zero_operator():
    lap = nf.laplacian(triangle(), [0.0, 0.0, 0.0], use_lengths=True)
    assert np.all(lap == 0.0)


# ---------------------------------------------------------------- solves

def test_triangle_flux_split():
    # flux on the direct edge is 2 c0 / (2 c0 + c1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        c0, c1 = rng.uniform(0.1, 2.0, 2)
        sol = nf.solve_kirchhoff(triangle(), [c0, c1, c1])
        assert sol.solvable
        assert sol.fluxes[0] == pytest.approx(2 * c0 / (2 * c0 + c1), rel=1e-12)


def test_triangle_flux_second_benchmark():
    rng = np.random.default_rng(1)
    net = triangle((1.0, -1.0 / 3.0, -2.0 / 3.0))
    for _ in range(5):
        c01, c02, c12 = rng.uniform(0.1, 2.0, 3)
        sol = nf.solve_kirchhoff(net, [c01, c02, c12])
        expected = c01 * (c02 + 3 * c12) / (3 * (c01 * c02 + c01 * c12 + c02 * c12))
        assert sol.fluxes[0] == pytest.approx(expected, rel=1e-10)


def test_disconnected_balanced_components_solvable():
    # support on (0,1) and (2,3): both components balance, pressures are
    # normalized to sum zero per component
    net = complete4([1.0, -1.0, 1.0, -1.0])
    C = np.zeros(6)
    C[net.edge_index[(0, 1)]] = 1.0
    C[net.edge_index[(2, 3)]] = 1.0
    sol = nf.solve_kirchhoff(net, C)
    assert sol.solvable
    assert sol.components == ((0, 1), (2, 3))
    assert np.allclose(sol.pressures, [0.5, -0.5, 0.5, -0.5])


def test_disconnected_unbalanced_components_unsolvable():
    net = complete4([1.0, 1.0, -1.0, -1.0])
    C = np.zeros(6)
    C[net.edge_index[(0, 1)]] = 1.0
    C[net.edge_index[(2, 3)]] = 1.0
    sol = nf.solve_kirchhoff(net, C)
    assert not sol.solvable
    assert np.all(np.isnan(sol.pressures))


def test_bridged_components_pressures():
    # adding the (1,2) bridge with any positive weight pins P = (1,0,0,-1);
    # the (0,3) bridge instead pins P = (0,-1,1,0)
    net = complete4([1.0, -1.0, 1.0, -1.0])
    for t in (0.5, 1.0, 3.0):
        C = np.zeros(6)
        C[net.edge_index[(0, 1)]] = 1.0
        C[net.edge_index[(2, 3)]] = 1.0
        C[net.edge_index[(1, 2)]] = t
        sol = nf.solve_kirchhoff(net, C)
        assert np.allclose(sol.pressures, [1.0, 0.0, 0.0, -1.0], atol=1e-12)

        C = np.zeros(6)
        C[net.edge_index[(0, 1)]] = 1.0
        C[net.edge_index[(2, 3)]] = 1.0
        C[net.edge_index[(0, 3)]] = t
        sol = nf.solve_kirchhoff(net, C)
        assert np.allclose(sol.pressures, [0.0, -1.0, 1.0, 0.0], atol=1e-12)


def test_vertex_conservation_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        net = random_connected_network(rng, n_min=3, n_max=12)
        sol = nf.solve_kirchhoff(net, random_conductivities(rng, net))
        scale = np.abs(net.sources).max()
        n = net.vertex_count
        outflow = np.bincount(net.edge_u, sol.fluxes, n) - np.bincount(net.edge_v, sol.fluxes, n)
        assert np.abs(outflow - net.sources).max() <= 1e-9 * scale


def test_pressure_gauge_invariance():
    # shifting a component's pressures by a constant leaves the fluxes alone
    rng = np.random.default_rng(5)
    net = random_connected_network(rng, n_min=4, n_max=8)
    values = random_conductivities(rng, net)
    sol = nf.solve_kirchhoff(net, values)
    shifted = sol.pressures + 17.3
    fluxes = values / net.lengths * (shifted[net.edge_u] - shifted[net.edge_v])
    assert np.allclose(fluxes, sol.fluxes, atol=1e-12)


def test_solvable_set_is_convex():
    # if the solve succeeds at C1 and C2 it succeeds on the segment
    rng = np.random.default_rng(11)
    net = complete4([1.0, -1.0, 1.0, -1.0])
    for _ in range(20):
        c1 = np.zeros(6)
        c2 = np.zeros(6)
        c1[[0, 5]] = rng.uniform(0.2, 1.0, 2)     # support {(0,1),(2,3)}
        c2[[0, 5, 3]] = rng.uniform(0.2, 1.0, 3)  # plus the (1,2) bridge
        assert nf.solve_kirchhoff(net, c1).solvable
        assert nf.solve_kirchhoff(net, c2).solvable
        for alpha in (0.25, 0.5, 0.75):
            assert nf.solve_kirchhoff(net, alpha * c1 + (1 - alpha) * c2).solvable


def test_all_zero_sources_solution_is_zero():
    net = triangle((0.0, 0.0, 0.0))
    sol = nf.solve_kirchhoff(net, [1.0, 2.0, 3.0])
    assert sol.solvable
    assert np.allclose(sol.pressures, 0.0)
    assert np.allclose(sol.fluxes, 0.0)


def test_accurate_solve_with_large_pressures_is_accepted():
    # a 477874-long edge gives pressures near 5e6, so a backward-stable
    # solve leaves a residual far above 1e-8 max|S| yet within the
    # componentwise bound; the flux 1 runs through edges (0,4) and (0,5)
    lengths = (0.03125, 0.5, 0.125, 477874.0, 1.0)
    net = nf.new_network(6, [(0, i + 1, l) for i, l in enumerate(lengths)], [0, 0, 0, 0, 1, -1])
    C = np.random.default_rng(0).uniform(0.1, 2.0, 5)
    params = nf.ModelParams(gamma=1.0, nu=1.0)
    for t in (0.25, 0.5, 1.0, 2.0):
        kinetic = nf.energy(net, t * C, params).kinetic
        exact = (lengths[3] / C[3] + lengths[4] / C[4]) / t
        assert kinetic == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("lengths", [(1.0, 1e300), (1.0, 1e300, 1.0)])
def test_inaccurate_solve_is_rejected(lengths):
    # the 1e300 edge's conductance 5e-301 vanishes beside 0.5 in the
    # operator, so the solve cannot reach the pressure drop 2e300 it needs;
    # on the 4-vertex path every vertex touches a strong edge, and the
    # pressures the solve returns are near 1e16
    n = len(lengths) + 1
    sources = [1.0] + [0.0] * (n - 2) + [-1.0]
    net = nf.new_network(n, [(i, i + 1, l) for i, l in enumerate(lengths)], sources)
    with pytest.raises(nf.IllConditionedError):
        nf.energy(net, [0.5] * (n - 1), nf.ModelParams(gamma=1.0, nu=1.0))


# ----------------------------------------------------- continuity probe

def test_continuity_probe_two_scales_agree():
    net = triangle()
    coarse = nf.kirchhoff_continuity_probe(net, [1.0, 1.0, 1.0], 1e-6)
    fine = nf.kirchhoff_continuity_probe(net, [1.0, 1.0, 1.0], 1e-7)
    assert np.isfinite(coarse) and coarse > 0
    assert abs(coarse - fine) <= 0.1 * max(coarse, fine)


def test_continuity_probe_requires_connected_support():
    with pytest.raises(nf.DisconnectedSupportError):
        nf.kirchhoff_continuity_probe(triangle(), [1.0, 0.0, 0.0], 1e-6)


def test_continuity_probe_rejects_zero_delta():
    with pytest.raises(ValueError):
        nf.kirchhoff_continuity_probe(triangle(), [1.0, 1.0, 1.0], 0.0)
