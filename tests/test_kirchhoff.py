import numpy as np
import pytest

import netforge as nf
import oracles
from conftest import pendant, random_conductivities, random_connected_network, triangle


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


def _oracle_pressures(net, C):
    """Minimum-norm least-squares pressures: the solution whose sum is zero
    on every support component."""
    return np.linalg.lstsq(nf.laplacian(net, C, use_lengths=True), net.sources, rcond=None)[0]


def _balanced_per_component(net, C, rng):
    """``net`` with new random sources summing to zero on every support
    component of ``C`` (zero on isolated vertices)."""
    S = np.zeros(net.vertex_count)
    for comp in nf.support_components(net, C):
        if comp.size > 1:
            s = rng.uniform(-1.0, 1.0, comp.size)
            S[comp] = s - s.mean()
    return nf.new_network(net.vertex_count, net.edges, S)


def _sparse_support(rng, net):
    C = random_conductivities(rng, net)
    C[rng.random(net.edge_count) < 0.6] = 0.0
    return C


def test_grounded_solve_matches_least_squares_on_connected_supports():
    rng = np.random.default_rng(8)
    for _ in range(25):
        net = random_connected_network(rng, n_min=2, n_max=30, extra_prob=0.2)
        C = random_conductivities(rng, net)
        sol = nf.solve_kirchhoff(net, C)
        assert sol.solvable and len(sol.components) == 1
        assert np.allclose(sol.pressures, _oracle_pressures(net, C), rtol=0.0, atol=1e-10)


def test_grounded_solve_matches_least_squares_on_disconnected_supports():
    # balanced components, isolated zero-source vertices among them; then a
    # bridge of positive conductance between two components
    rng = np.random.default_rng(9)
    isolated = bridged = 0
    for _ in range(40):
        net = random_connected_network(rng, n_min=4, n_max=30, extra_prob=0.2)
        C = _sparse_support(rng, net)
        net = _balanced_per_component(net, C, rng)
        sol = nf.solve_kirchhoff(net, C)
        assert sol.solvable
        assert np.allclose(sol.pressures, _oracle_pressures(net, C), rtol=0.0, atol=1e-10)
        label = np.empty(net.vertex_count, dtype=int)
        for i, comp in enumerate(sol.components):
            label[list(comp)] = i
            assert abs(sol.pressures[list(comp)].sum()) <= 1e-12 * len(comp)
            isolated += len(comp) == 1
        across = np.flatnonzero(label[net.edge_u] != label[net.edge_v])
        if across.size:
            C[across[0]] = 0.7
            sol = nf.solve_kirchhoff(net, C)
            assert sol.solvable
            assert np.allclose(sol.pressures, _oracle_pressures(net, C), rtol=0.0, atol=1e-10)
            bridged += 1
    assert isolated > 0 and bridged > 0


def test_unbalanced_components_stay_unsolvable():
    rng = np.random.default_rng(10)
    unbalanced = 0
    for _ in range(40):
        net = random_connected_network(rng, n_min=4, n_max=30, extra_prob=0.2)
        C = _sparse_support(rng, net)
        comps = nf.support_components(net, C)
        scale = np.abs(net.sources).max()
        if all(abs(net.sources[c].sum()) <= 1e-10 * scale for c in comps):
            continue
        unbalanced += 1
        assert nf.kirchhoff.solve_pressures(net, C / net.lengths, comps, scale) is None
        sol = nf.solve_kirchhoff(net, C)
        assert not sol.solvable
        assert np.all(np.isnan(sol.pressures)) and np.all(np.isnan(sol.fluxes))
    assert unbalanced > 30


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
    coarse = oracles.kirchhoff_continuity_probe(net, [1.0, 1.0, 1.0], 1e-6)
    fine = oracles.kirchhoff_continuity_probe(net, [1.0, 1.0, 1.0], 1e-7)
    assert np.isfinite(coarse) and coarse > 0
    assert abs(coarse - fine) <= 0.1 * max(coarse, fine)


def test_continuity_probe_requires_connected_support():
    with pytest.raises(nf.DisconnectedSupportError):
        oracles.kirchhoff_continuity_probe(triangle(), [1.0, 0.0, 0.0], 1e-6)


def test_continuity_probe_rejects_zero_delta():
    with pytest.raises(ValueError):
        oracles.kirchhoff_continuity_probe(triangle(), [1.0, 1.0, 1.0], 0.0)


@pytest.mark.parametrize("cut", [((1, 3), (3, 4)), ((1, 2), (1, 3))])
def test_one_ground_solve_refuses_a_disconnected_support(cut):
    # cutting (1, 3) and (3, 4) isolates vertex 4; cutting (1, 2) and (1, 3)
    # isolates vertex 2, the ground, and leaves the rest ungrounded with a
    # rounding-sized positive last pivot
    net = pendant()
    C = np.full(5, 0.1)
    C[[net.edge_index[pair] for pair in cut]] = 0.0
    assert len(nf.support_components(net, C)) == 2
    assert nf.kirchhoff.solve_pressures(net, C / net.lengths, None, 1.0) is None
    weights = np.full(5, 0.1) / net.lengths
    P = nf.kirchhoff.solve_pressures(net, weights, None, 1.0)
    assert P.tobytes() == nf.kirchhoff.solve_pressures(net, weights, [np.arange(5)], 1.0).tobytes()
