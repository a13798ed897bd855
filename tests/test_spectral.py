from itertools import combinations

import numpy as np
import pytest

import netforge as nf
import oracles
from netforge.spectral import _low_spectrum, _path_cholesky, _warm_block, _warm_fiedler, fiedler_pair
from conftest import central_difference, random_conductivities, random_connected_network, triangle


def dense_laplacian_oracle(net, values):
    """Independent Laplacian assembly: explicit scatter loop."""
    n = net.vertex_count
    lap = np.zeros((n, n))
    for eid, (u, v, _) in enumerate(net.edges):
        w = values[eid]
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def cheeger_oracle(net, present):
    """Independent Cheeger enumeration via itertools subsets."""
    n = net.vertex_count
    best = np.inf
    pairs = [(int(net.edge_u[e]), int(net.edge_v[e])) for e in np.flatnonzero(present)]
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            inside = set(subset)
            boundary = sum(1 for u, v in pairs if (u in inside) != (v in inside))
            best = min(best, boundary / size)
    return best


# -------------------------------------------------------------- laplacian

def test_triangle_eigenvalues_two_parameter():
    c0, c1 = 0.9, 0.4
    w = np.linalg.eigvalsh(nf.laplacian(triangle(), [c0, c1, c1]))
    assert np.allclose(w, sorted([0.0, 3 * c1, 2 * c0 + c1]), atol=1e-12)


def test_two_vertex_eigenvalues():
    net = nf.new_network(2, [(0, 1)], [1.0, -1.0])
    w = np.linalg.eigvalsh(nf.laplacian(net, [0.7]))
    assert np.allclose(w, [0.0, 1.4], atol=1e-12)


def test_complete_graph_fiedler_is_c_times_n():
    n, c = 5, 0.8
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sources = np.zeros(n)
    sources[0], sources[-1] = 1.0, -1.0
    net = nf.new_network(n, edges, sources)
    res = nf.spectral_decompose(nf.laplacian(net, [c] * len(edges)))
    assert res.fiedler == pytest.approx(c * n, rel=1e-12)


def test_laplacian_matches_oracle_assembly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = random_connected_network(rng)
        values = random_conductivities(rng, net)
        # both add each entry's edge weights in ascending edge order
        assert np.array_equal(nf.laplacian(net, values), dense_laplacian_oracle(net, values))
        weighted = dense_laplacian_oracle(net, values / net.lengths)
        assert np.allclose(nf.laplacian(net, values, use_lengths=True), weighted)


# -------------------------------------------------------------- decompose

def test_general_triangle_eigenvalue_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = rng.uniform(0.1, 2.0, 3)
        res = nf.spectral_decompose(nf.laplacian(triangle(), [a, b, c]))
        s = a + b + c
        root = np.sqrt(a * a + b * b + c * c - a * b - a * c - b * c)
        assert res.eigenvalues[1] == pytest.approx(s - root, abs=1e-10)
        assert res.eigenvalues[2] == pytest.approx(s + root, abs=1e-10)


def test_symmetric_triangle_double_fiedler():
    res = nf.spectral_decompose(nf.laplacian(triangle(), [0.6, 0.6, 0.6]))
    assert res.multiplicity == 2
    assert not res.simple


def test_zero_matrix():
    res = nf.spectral_decompose(np.zeros((3, 3)))
    assert np.allclose(res.eigenvalues, 0.0)
    assert res.fiedler == 0.0


def test_non_symmetric_rejected():
    with pytest.raises(nf.NonSymmetricError):
        nf.spectral_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("mat", [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, -1.0], [-1.0, 1.0]]])
def test_non_finite_matrix_rejected(mat):
    with pytest.raises(ValueError):
        nf.spectral_decompose(np.array(mat))


def test_eigendecomposition_residual():
    rng = np.random.default_rng(4)
    for _ in range(10):
        net = random_connected_network(rng, n_max=10)
        lap = nf.laplacian(net, random_conductivities(rng, net))
        res = nf.spectral_decompose(lap)
        scale = max(1.0, np.abs(lap).max())
        for k in range(net.vertex_count):
            defect = lap @ res.eigenvectors[:, k] - res.eigenvalues[k] * res.eigenvectors[:, k]
            assert np.abs(defect).max() <= 1e-9 * scale


def test_fiedler_vector_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        net = random_connected_network(rng)
        res = nf.spectral_decompose(nf.laplacian(net, random_conductivities(rng, net)))
        assert np.linalg.norm(res.fiedler_vector) == pytest.approx(1.0, abs=1e-12)
        assert abs(res.fiedler_vector.sum()) <= 1e-9
        assert res.fiedler > 0.0  # connected support
        # trivial eigenvalue ~ 0 with constant eigenvector
        assert abs(res.eigenvalues[0]) <= 1e-9 * max(1.0, res.eigenvalues[-1])


def test_fiedler_zero_iff_disconnected():
    net = triangle()
    res = nf.spectral_decompose(nf.laplacian(net, [1.0, 0.0, 0.0]))
    assert res.fiedler == pytest.approx(0.0, abs=1e-12)


def test_fiedler_upper_bound_by_min_degree():
    rng = np.random.default_rng(6)
    for _ in range(20):
        net = random_connected_network(rng, n_max=10)
        values = random_conductivities(rng, net)
        lap = nf.laplacian(net, values)
        res = nf.spectral_decompose(lap)
        n = net.vertex_count
        assert res.fiedler <= n / (n - 1) * np.diag(lap).min() + 1e-9


def test_fiedler_homogeneity():
    rng = np.random.default_rng(7)
    net = random_connected_network(rng)
    values = random_conductivities(rng, net)
    base = nf.spectral_decompose(nf.laplacian(net, values)).fiedler
    for lam in (0.0, 0.3, 2.5):
        scaled = nf.spectral_decompose(nf.laplacian(net, lam * values)).fiedler
        assert scaled == pytest.approx(lam * base, abs=1e-10)


# ------------------------------------------------------ low-spectrum kernel

#: eigenvalue agreement with the full solve, in units of max|L|
LOW_SPECTRUM_RTOL = 64 * np.finfo(float).eps


def complete_network(n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0])


def test_low_spectrum_matches_full_solve():
    rng = np.random.default_rng(30)
    for _ in range(20):
        net = random_connected_network(rng, n_min=5, n_max=30, extra_prob=0.2)
        lap = nf.laplacian(net, random_conductivities(rng, net))
        w, V = _low_spectrum(lap)
        full = np.linalg.eigh(lap)[0]
        assert w.size >= 4 and V.shape == (net.vertex_count, w.size)
        assert np.abs(w - full[: w.size]).max() <= LOW_SPECTRUM_RTOL * np.abs(lap).max()
        assert np.allclose(V.T @ V, np.eye(w.size), atol=1e-12)


@pytest.mark.parametrize(
    "net, multiplicity, window",
    [
        # star K_{1,5}: eigenvalues 0, 1 (x4), 6; indices 0..3 all miss the
        # end of the Fiedler eigenspace, so the window widens
        (nf.new_network(6, [(0, v) for v in range(1, 6)], [1.0, -1.0, 0.0, 0.0, 0.0, 0.0]), 4, 6),
        # K_6: eigenvalues 0, 6 (x5); the window covers all of n
        (complete_network(6), 5, 6),
        # hypercube Q_4: eigenvalues 0, 2 (x4), 4 (x6), ...; one doubling
        # reaches past the Fiedler eigenspace and stops short of n = 16
        (
            nf.new_network(
                16,
                [(u, u ^ (1 << b)) for u in range(16) for b in range(4) if u < u ^ (1 << b)],
                [1.0] + [0.0] * 14 + [-1.0],
            ),
            4,
            8,
        ),
    ],
)
def test_low_spectrum_widens_over_degenerate_fiedler_value(net, multiplicity, window):
    lap = nf.laplacian(net, np.ones(net.edge_count))
    w, V = _low_spectrum(lap)
    assert w.size == window
    fied, vec, mult = fiedler_pair(w, V)
    full = nf.spectral_decompose(lap)
    assert mult == full.multiplicity == multiplicity
    assert abs(fied - full.fiedler) <= LOW_SPECTRUM_RTOL * np.abs(lap).max()
    assert np.abs(lap @ vec - fied * vec).max() <= 1e-12 * np.abs(lap).max()


@pytest.mark.parametrize("n", [2, 3])
def test_low_spectrum_of_small_networks(n):
    net = nf.new_network(n, [(u, u + 1) for u in range(n - 1)], [1.0] + [0.0] * (n - 2) + [-1.0])
    lap = nf.laplacian(net, np.linspace(0.5, 1.5, n - 1))
    w, V = _low_spectrum(lap)
    assert w.size == n and V.shape == (n, n)
    full = np.linalg.eigh(lap)[0]
    assert np.abs(w - full).max() <= LOW_SPECTRUM_RTOL * np.abs(lap).max()


def test_fiedler_pair_from_partial_window():
    # the partial V has fewer columns than rows: the vector's mean must be
    # taken over the vertices, not over the eigenvalues in the window
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = random_connected_network(rng, n_min=9, n_max=20)
        lap = nf.laplacian(net, random_conductivities(rng, net))
        w, V = _low_spectrum(lap)
        assert w.size < net.vertex_count
        fied, vec, _ = fiedler_pair(w, V)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(vec.sum()) <= 1e-12
        assert np.abs(lap @ vec - fied * vec).max() <= 1e-9 * np.abs(lap).max()
    # a disconnected support: 0 is a double eigenvalue, and the vector is
    # still orthogonal to ones
    net = nf.new_network(6, [(u, u + 1) for u in range(5)], [1.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    w, V = _low_spectrum(nf.laplacian(net, [1.0, 1.0, 0.0, 1.0, 1.0]))
    fied, vec, mult = fiedler_pair(w, V)
    assert abs(fied) <= 1e-12 and mult == 1
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert abs(vec.sum()) <= 1e-12


# ---------------------------------------------------------- warm kernel

def _expand_lower_band(ab):
    """Dense lower triangle of a lower band storage array."""
    rows, n = ab.shape
    dense = np.zeros((n, n))
    for k in range(min(rows, n)):
        j = np.arange(n - k)
        dense[j + k, j] = ab[k, : n - k]
    return dense


def _cold_pair(net, values):
    """Fiedler value and warm-start block of the low-spectrum window."""
    w, V = _low_spectrum(nf.laplacian(net, values))
    fied, vec, _ = fiedler_pair(w, V)
    return fied, _warm_block(net, vec, V)


def test_path_cholesky_factors_the_projected_laplacian():
    # R R^T = Q^T (L - shift I) Q with Q the path basis e_j - e_{j+1} in band order
    rng = np.random.default_rng(40)
    for _ in range(20):
        net = random_connected_network(rng, n_min=2, n_max=30, extra_prob=0.2)
        values = random_conductivities(rng, net)
        n = net.vertex_count
        lap = nf.laplacian(net, values)[np.ix_(net.band_order, net.band_order)]
        shift = 0.5 * _low_spectrum(lap)[0][1]
        factor = _path_cholesky(nf.graph.assemble_band_laplacian(net, values), shift)
        assert factor.shape == (net.bandwidth + 2, n - 1)
        Q = np.eye(n, n - 1) - np.eye(n, n - 1, -1)
        R = _expand_lower_band(factor)
        expected = Q.T @ (lap - shift * np.eye(n)) @ Q
        assert np.abs(R @ R.T - expected).max() <= 1e-12 * np.abs(expected).max()


def test_warm_fiedler_matches_the_low_spectrum_window():
    rng = np.random.default_rng(41)
    net = nf.leaf_network(120, 0)
    values = rng.uniform(0.5, 1.5, net.edge_count)
    _, block = _cold_pair(net, values)
    # a nearby state, as the next optimizer iterate would be
    moved = values * rng.uniform(0.97, 1.03, net.edge_count)
    fied, new_block = _warm_fiedler(net, moved, block)
    cold, _ = _cold_pair(net, moved)
    assert abs(fied - cold) <= 1e-10 * cold
    assert np.allclose(new_block @ new_block.T, np.eye(2), atol=1e-12)
    assert np.abs(new_block.sum(axis=1)).max() <= 1e-12
    vec = new_block[0, net.band_rank]
    lap = nf.laplacian(net, moved)
    assert np.linalg.norm(lap @ vec - fied * vec) <= nf.spectral.WARM_RTOL * fied


def test_warm_fiedler_refuses_a_disconnected_support():
    # cutting the path 0-1-...-59 in the middle makes the Fiedler value 0, below
    # any positive shift, so the factorization at the shift fails
    net = nf.new_network(60, [(u, u + 1) for u in range(59)], [1.0] + [0.0] * 58 + [-1.0])
    values = np.ones(net.edge_count)
    _, block = _cold_pair(net, values)
    values[29] = 0.0
    assert _warm_fiedler(net, values, block) is None


def test_warm_fiedler_refuses_below_the_cholesky_resolution():
    # a path of 200 vertices held together by a 1e-8 link: its Fiedler value,
    # about 2e-10, lies within WARM_MARGIN of the banded Cholesky's worst-case
    # error seen through Q^T Q, whose smallest eigenvalue is about (pi / n)^2
    net = nf.new_network(200, [(u, u + 1) for u in range(199)], [1.0] + [0.0] * 198 + [-1.0])
    values = np.ones(net.edge_count)
    values[99] = 1e-8
    fied, block = _cold_pair(net, values)
    assert fied < 1e-9
    assert _warm_fiedler(net, values, block) is None


def test_warm_fiedler_refuses_an_unconverged_vector(monkeypatch):
    # a start vector 5% off the Fiedler vector, scaled so the shift sits near
    # 0: three steps leave a Ritz value well within WARM_MARGIN, which the
    # certificate accepts, but a residual above WARM_MARGIN times it
    rng = np.random.default_rng(42)
    net = nf.leaf_network(80, 0)
    values = rng.uniform(0.5, 1.5, net.edge_count)
    order = net.band_order
    w, V = np.linalg.eigh(nf.laplacian(net, values)[np.ix_(order, order)])
    start = np.sqrt(1.0 - 0.05**2) * V[:, 1] + 0.05 * V[:, 2]
    block = np.stack([0.01 * start, V[:, 3]])
    assert _warm_fiedler(net, values, block) is None
    monkeypatch.setattr(nf.spectral, "WARM_STEPS", 40)
    assert _warm_fiedler(net, values, block)[0] == pytest.approx(w[1], rel=1e-10)


def test_warm_fiedler_refuses_when_the_certificate_fails(monkeypatch):
    # a start vector scaled by 0.98 puts the shift near 0.96 of the Fiedler
    # value, so the certificate at (1 - WARM_MARGIN) of the Ritz value needs a
    # second factorization; when only that one fails, the answer is refused
    rng = np.random.default_rng(42)
    net = nf.leaf_network(80, 0)
    values = rng.uniform(0.5, 1.5, net.edge_count)
    fied, block = _cold_pair(net, values)
    block[0] *= 0.98
    assert _warm_fiedler(net, values, block)[0] == pytest.approx(fied, rel=1e-10)

    shifts = []
    path_cholesky = nf.spectral._path_cholesky

    def certificate_fails(band, shift):
        shifts.append(shift)
        return path_cholesky(band, shift) if len(shifts) == 1 else None

    monkeypatch.setattr(nf.spectral, "_path_cholesky", certificate_fails)
    assert _warm_fiedler(net, values, block) is None
    assert len(shifts) == 2
    assert shifts[0] < shifts[1] == pytest.approx(fied * (1.0 - nf.spectral.WARM_MARGIN), rel=1e-10)


# ------------------------------------------------------------ subgradient

def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 10:
        net = random_connected_network(rng, n_min=5, n_max=7)
        values = random_conductivities(rng, net)
        res = nf.spectral_decompose(nf.laplacian(net, values))
        w = res.eigenvalues
        if w[2] - w[1] < 1e-4 or w[1] - w[0] < 1e-4:
            continue  # keep only safely simple Fiedler eigenvalues
        sub = nf.fiedler_subgradient(net, values)

        def fiedler_of(c):
            return np.linalg.eigvalsh(dense_laplacian_oracle(net, c))[1]

        fd = central_difference(fiedler_of, values, 1e-6)
        assert np.abs(sub - fd).max() <= 1e-6
        checked += 1


def test_subgradient_zero_on_flat_edge():
    # equal eigenvector components across an edge produce a zero entry
    rng = np.random.default_rng(9)
    net = random_connected_network(rng, n_min=4, n_max=6)
    values = random_conductivities(rng, net)
    res = nf.spectral_decompose(nf.laplacian(net, values))
    sub = nf.fiedler_subgradient(net, values)
    dv = res.fiedler_vector[net.edge_u] - res.fiedler_vector[net.edge_v]
    assert np.allclose(sub, dv * dv)


def test_subgradient_refused_on_disconnected_support():
    with pytest.raises(nf.DisconnectedSupportError):
        nf.fiedler_subgradient(triangle(), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize(
    "entry", ["modified_energy", "subgradient_step", "fiedler_subgradient", "robustness_coefficient"]
)
def test_one_vertex_network_has_no_fiedler_value(entry, mu):
    net = nf.new_network(1, [], [0.0])
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    args = {
        "modified_energy": (net, [], params),
        "subgradient_step": (net, [], params, 0.1),
        "fiedler_subgradient": (net, []),
        "robustness_coefficient": (net, params),
    }
    if entry != "fiedler_subgradient" and mu == 0.0:
        # the mu = 0 objective is the energy alone, which needs no Fiedler value
        assert nf.robustness_coefficient(net, params) == 0.0
        assert nf.modified_energy(net, [], params) == nf.energy(net, [], params).total == 0.0
        assert nf.subgradient_step(net, [], params, 0.1).values.shape == (0,)
        return
    with pytest.raises(ValueError, match="need at least two vertices for a Fiedler value"):
        getattr(nf, entry)(*args[entry])


def test_library_reads_fiedler_pairs_without_the_full_decomposition(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("np.linalg.eigh called"))
    net, values = nf.seven_node_network(), np.full(21, 0.5)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=1.0)
    assert nf.fiedler_subgradient(net, values).shape == (21,)
    assert np.isfinite(nf.kinetic_bound_check(net, values)[1])
    assert np.isfinite(nf.modified_energy(net, values, params))
    assert nf.subgradient_step(net, values, params, 0.1).values.shape == (21,)
    run = nf.optimize(net, params, nf.OptimConfig(iters=50, seed=0, trace_stride=10))
    assert run.termination == "completed"


def test_subgradient_is_global_upper_linearization():
    # concavity: f(C + tD) <= f(C) + t <g, D> exactly, and difference
    # quotients shrink as t grows; on the unit triangle and unit K_5 the
    # Fiedler value is multiple and g comes from one vector of its eigenspace
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(10):
        net = random_connected_network(rng, n_min=4, n_max=8)
        cases.append((net, random_conductivities(rng, net), rng.uniform(-1.0, 1.0, net.edge_count)))
    for net in (triangle(), complete_network(5)):
        cases.append((net, np.ones(net.edge_count), rng.uniform(-1.0, 1.0, net.edge_count)))
    for net, values, direction in cases:
        g = nf.fiedler_subgradient(net, values)
        f0 = nf.spectral_decompose(nf.laplacian(net, values)).fiedler
        slopes = []
        for t in (1e-4, 1e-5):
            ft = nf.spectral_decompose(nf.laplacian(net, values + t * direction)).fiedler
            assert ft <= f0 + t * float(g @ direction) + 1e-12
            slopes.append((ft - f0) / t)
        assert slopes[1] >= slopes[0] - 1e-9


# --------------------------------------------------------------- probes

def test_concavity_probe_random_pairs():
    rng = np.random.default_rng(11)
    net = triangle()
    for _ in range(20):
        c1 = rng.uniform(0.05, 2.0, 3)
        c2 = rng.uniform(0.05, 2.0, 3)
        assert oracles.fiedler_concavity_probe(net, c1, c2).ok


def test_concavity_probe_identical_arguments():
    probe = oracles.fiedler_concavity_probe(triangle(), [1.0, 0.5, 0.2], [1.0, 0.5, 0.2])
    assert probe.ok
    assert abs(probe.worst_violation) <= 1e-12


def test_concavity_probe_against_zero_is_equality():
    # homogeneity: f(alpha C) = alpha f(C), so the segment to zero is flat
    values = np.array([0.8, 0.3, 0.5])
    probe = oracles.fiedler_concavity_probe(triangle(), values, np.zeros(3))
    assert probe.ok
    assert abs(probe.worst_violation) <= 1e-9


# --------------------------------------------------------------- cheeger

def test_cheeger_triangle():
    assert nf.cheeger_bruteforce(triangle()) == pytest.approx(2.0)
    assert cheeger_oracle(triangle(), np.ones(3, dtype=bool)) == pytest.approx(2.0)


def test_cheeger_path():
    net = nf.new_network(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    assert nf.cheeger_bruteforce(net) == pytest.approx(1.0)


def test_cheeger_disconnected_support():
    assert nf.cheeger_bruteforce(triangle(), [1.0, 0.0, 0.0]) == 0.0


def test_cheeger_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        net = random_connected_network(rng, n_min=4, n_max=7)
        assert nf.cheeger_bruteforce(net) == pytest.approx(
            cheeger_oracle(net, np.ones(net.edge_count, dtype=bool))
        )


def test_cheeger_refuses_large_graphs():
    n = 17
    edges = [(i, i + 1) for i in range(n - 1)]
    sources = np.zeros(n)
    sources[0], sources[-1] = 1.0, -1.0
    net = nf.new_network(n, edges, sources)
    with pytest.raises(nf.TooLargeError):
        nf.cheeger_bruteforce(net)
