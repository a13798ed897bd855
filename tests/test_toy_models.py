import math

import numpy as np
import pytest

import netforge as nf

# Frozen oracle values for the middle branch of benchmark 2 at nu = 1,
# computed with an independent Nelder-Mead minimization of the full
# three-variable objective from four starting points (xatol 1e-12):
#   mu    F*                C*
NELDER_MEAD_ORACLE = {
    0.10: (1.956847515100, (0.350861, 0.671628, 0.0)),
    0.30: (1.864756936976, (0.391570, 0.685215, 0.0)),
    0.45: (1.789972619067, (0.427716, 0.699683, 0.0)),
}


def test_toy1_zero_mu():
    opt = nf.toy1_optimum(1.0, 0.0)
    assert np.allclose(opt.conductivities, [1.0, 0.0, 0.0])
    assert opt.E_value == pytest.approx(2.0)
    assert opt.flux == 1.0
    assert opt.regime == "below_half"


def test_toy1_above_half():
    opt = nf.toy1_optimum(1.0, 0.75)
    c = math.sqrt(8.0) / 3.0  # ~ 0.9428
    assert np.allclose(opt.conductivities, [c, c, c], atol=1e-12)
    assert opt.regime == "above_half"


def test_toy1_scaled_nu():
    opt = nf.toy1_optimum(4.0, 0.0)
    assert opt.conductivities[0] == pytest.approx(0.5)
    assert opt.E_value == pytest.approx(4.0)


def test_toy1_rejects_mu_at_or_above_nu():
    with pytest.raises(ValueError):
        nf.toy1_optimum(1.0, 1.0)
    with pytest.raises(ValueError):
        nf.toy1_optimum(1.0, -0.2)


@pytest.mark.parametrize("factory", [nf.toy1_optimum, nf.toy2_optimum])
@pytest.mark.parametrize("nu, mu", [(math.inf, 0.0), (math.inf, 0.2), ("1", 0.0), (1.0, None), (True, 0.0)])
def test_toy_optima_reject_invalid_weights(factory, nu, mu):
    with pytest.raises(ValueError):
        factory(nu, mu)


def test_toy1_value_continuous_at_regime_boundary():
    below = nf.toy1_optimum(1.0, 0.5 - 1e-9)
    above = nf.toy1_optimum(1.0, 0.5 + 1e-9)
    assert below.F_value == pytest.approx(above.F_value, abs=1e-6)
    assert below.regime != above.regime


def test_toy1_optimum_is_stationary_for_the_functional():
    # the closed form should sit at the bottom of the explicit objective
    for mu in (0.2, 0.6, 0.9):
        opt = nf.toy1_optimum(1.0, mu)
        c0, c1 = opt.conductivities[0], opt.conductivities[1]

        def F(x0, x1):
            if x0 < 0 or x1 < 0 or 2 * x0 + x1 <= 0:
                return math.inf
            return 2 / (2 * x0 + x1) + (x0 + 2 * x1) - mu * min(2 * x0 + x1, 3 * x1)

        base = F(c0, c1)
        assert base == pytest.approx(opt.F_value, rel=1e-12)
        for d0 in (-1e-4, 0.0, 1e-4):
            for d1 in (-1e-4, 0.0, 1e-4):
                if c1 + d1 < 0:
                    continue
                assert F(c0 + d0, c1 + d1) >= base - 1e-9


def test_toy2_zero_mu():
    opt = nf.toy2_optimum(1.0, 0.0)
    assert np.allclose(opt.conductivities, [1 / 3, 2 / 3, 0.0])
    assert opt.flux == pytest.approx(1.0 / 3.0)
    assert opt.E_value == pytest.approx(2.0)
    # Fiedler value of the optimal vee: 1 - sqrt(1/3) ~ 0.423
    fied = nf.spectral_decompose(nf.laplacian(nf.toy2_network(), opt.conductivities)).fiedler
    assert fied == pytest.approx(1.0 - math.sqrt(1.0 / 3.0), abs=1e-12)


def test_toy2_above_half():
    opt = nf.toy2_optimum(1.0, 0.9)
    c = math.sqrt(140.0) / 9.0  # ~ 1.3147
    assert np.allclose(opt.conductivities, [c, c, c], atol=1e-12)
    assert opt.flux == pytest.approx(4.0 / 9.0)


def test_toy2_flux_from_flow_solver():
    for mu in (0.0, 0.9):
        opt = nf.toy2_optimum(1.0, mu)
        sol = nf.solve_kirchhoff(nf.toy2_network(), opt.conductivities)
        assert sol.fluxes[0] == pytest.approx(opt.flux, abs=1e-12)


def test_toy2_middle_regime_matches_independent_minimizer():
    for mu, (f_star, c_star) in NELDER_MEAD_ORACLE.items():
        opt = nf.toy2_optimum(1.0, mu)
        assert opt.regime == "below_half"
        assert opt.F_value == pytest.approx(f_star, abs=1e-12)
        assert np.allclose(opt.conductivities, c_star, rtol=0.0, atol=1e-6)
        assert opt.conductivities[2] == 0.0
        assert opt.flux == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("nu", [1.0, 4.0])
def test_toy2_middle_branch_at_half_is_exact(nu):
    opt = nf.toy2_optimum(nu, nu / 2.0)
    s7, root = math.sqrt(7.0), math.sqrt(nu)
    expected = np.array([s7 / 6.0, 4.0 * s7 / 15.0, 0.0]) / root
    assert opt.regime == "below_half"
    assert np.allclose(opt.conductivities, expected, rtol=1e-15, atol=0.0)
    assert opt.F_value == pytest.approx(2.0 / 3.0 * s7 * root, rel=1e-15, abs=0.0)


def test_toy2_middle_branch_is_stationary():
    # gradient of the nu = 1 objective over (C0, C1) with the (1, 2) edge empty
    for mu in np.linspace(0.0, 0.5, 201)[1:]:
        a, b, c2 = nf.toy2_optimum(1.0, mu).conductivities
        s = math.sqrt(a * a + b * b - a * b)
        grad_a = -1.0 / (9.0 * a * a) + (1.0 - mu) + mu * (2.0 * a - b) / (2.0 * s)
        grad_b = -4.0 / (9.0 * b * b) + (1.0 - mu) + mu * (2.0 * b - a) / (2.0 * s)
        assert c2 == 0.0
        assert max(abs(grad_a), abs(grad_b)) <= 1e-12


def test_toy2_fiedler_grows_through_middle_regime():
    net = nf.toy2_network()
    values = []
    for mu in (0.1, 0.3, 0.45):
        opt = nf.toy2_optimum(1.0, mu)
        values.append(nf.spectral_decompose(nf.laplacian(net, opt.conductivities)).fiedler)
    assert values == sorted(values)
    assert values[-1] < 0.55  # approaches ~0.527 at the regime boundary


def test_toy2_value_continuous_at_regime_boundary():
    below = nf.toy2_optimum(1.0, 0.5)          # reduced branch
    above = nf.toy2_optimum(1.0, 0.5 + 1e-9)   # closed form
    assert below.F_value == pytest.approx(above.F_value, abs=1e-5)


def test_toy_optima_fiedler_multiplicity_above_half():
    tri1, tri2 = nf.toy1_network(), nf.toy2_network()
    res1 = nf.spectral_decompose(nf.laplacian(tri1, nf.toy1_optimum(1.0, 0.8).conductivities))
    res2 = nf.spectral_decompose(nf.laplacian(tri2, nf.toy2_optimum(1.0, 0.8).conductivities))
    assert res1.multiplicity == 2
    assert res2.multiplicity == 2


def test_toy_scaling_relation():
    # C*(nu, mu) = C*(1, mu/nu) / sqrt(nu) and F*(nu, mu) = sqrt(nu) F*(1, mu/nu)
    for factory in (nf.toy1_optimum, nf.toy2_optimum):
        for nu, mu in ((4.0, 1.2), (0.25, 0.2)):
            scaled = factory(nu, mu)
            unit = factory(1.0, mu / nu)
            assert np.allclose(scaled.conductivities, unit.conductivities / math.sqrt(nu), atol=1e-9)
            assert scaled.F_value == pytest.approx(math.sqrt(nu) * unit.F_value, rel=1e-9)
