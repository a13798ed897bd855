"""Exact optima of two 3-vertex benchmark networks.

Both benchmarks live on the unit triangle: vertices {0, 1, 2}, edges
(0, 1), (0, 2), (1, 2) of unit length, linear metabolic cost.  Benchmark 1
pushes one unit of flow from vertex 0 to vertex 1 while vertex 2 is idle;
benchmark 2 pushes one unit out of vertex 0, a third of it into vertex 1 and
the rest into vertex 2.

With robustness weight mu the optimum switches branches at mu = nu / 2:
below, the (1, 2) edge stays empty (benchmark 1 keeps the bare path, while
benchmark 2's vee widens with mu and is found by a one-variable root
bracketed in [1, 2]); above, connectivity pays off and the optimum becomes
the symmetric configuration whose Fiedler eigenvalue is shared between
edges.  These values anchor the optimizer's acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .graph import ModelParams, Network, new_network


@dataclass(frozen=True)
class ToyOptimum:
    """Optimal state of a benchmark triangle.

    ``conductivities`` follows the canonical edge order (0,1), (0,2), (1,2);
    ``flux`` is the optimal flow on edge (0, 1).  ``regime`` records which
    side of mu = nu/2 the weights fall on.
    """

    conductivities: np.ndarray
    flux: float
    F_value: float
    E_value: float
    regime: str


def toy1_network() -> Network:
    """Unit triangle with sources (+1, -1, 0)."""
    return new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0, 0.0])


def toy2_network() -> Network:
    """Unit triangle with sources (+1, -1/3, -2/3)."""
    return new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -1.0 / 3.0, -2.0 / 3.0])


def _check_weights(nu: float, mu: float) -> None:
    ModelParams(gamma=1.0, nu=nu, mu=mu)
    if not mu < nu:
        raise ValueError("the augmented objective has no minimizer for mu >= nu")


def toy1_optimum(nu: float, mu: float) -> ToyOptimum:
    """Exact optimum of benchmark 1 for 0 <= mu < nu.

    For mu <= nu/2 the direct edge alone is optimal: C = (1/sqrt(nu), 0, 0)
    with energy 2 sqrt(nu) (the idle vertex may stay disconnected since it
    carries no source).  For mu > nu/2 the two detour edges activate at the
    same conductivity as the direct edge would split, C0 = C1 =
    sqrt(2 / (nu - mu)) / 3, making the Fiedler eigenvalue degenerate.
    """
    _check_weights(nu, mu)
    if mu <= nu / 2.0:
        c0 = 1.0 / sqrt(nu)
        value = 2.0 * sqrt(nu)  # Fiedler value is 0, so F == E
        return ToyOptimum(
            conductivities=np.array([c0, 0.0, 0.0]),
            flux=1.0,
            F_value=value,
            E_value=value,
            regime="below_half",
        )
    c = sqrt(2.0 / (nu - mu)) / 3.0
    e_value = 2.0 / (3.0 * c) + 3.0 * nu * c
    return ToyOptimum(
        conductivities=np.array([c, c, c]),
        flux=2.0 / 3.0,
        F_value=e_value - 3.0 * mu * c,  # Fiedler value is 3c there
        E_value=e_value,
        regime="above_half",
    )


def toy2_optimum(nu: float, mu: float) -> ToyOptimum:
    """Optimum of benchmark 2 for 0 <= mu < nu.

    For mu > nu/2 it is the fully symmetric C = sqrt(14 / (nu - mu)) / 9
    with flux 4/9 and a doubly degenerate Fiedler eigenvalue.  For
    mu <= nu/2 the (1, 2) edge stays empty, the flux is 1/3, and with
    m = mu/nu the scaled conductivities (a, b) = sqrt(nu) (C0, C1) minimize

        h(t)/r + r g(t),  (a, b) = r (1, t),
        h = 1/9 + 4/(9t),  g = (1 - m)(1 + t) + m sqrt(t^2 - t + 1),

    the nu = 1 objective with Fiedler value a + b - sqrt(a^2 - ab + b^2).
    The best r is sqrt(h/g), so F = 2 sqrt(h g) along the rays, and
    (h g)' = 0 where 2(1 - m)(t^2 - 4) sqrt(t^2 - t + 1) + m(2t^3 - t^2 +
    4t - 8) = 0.  That left side is negative at t = 1 and nonnegative at
    t = 2, and F is convex, so bisection on its sign finds the one root;
    m = 0 gives the vee (1/3, 2/3, 0) and m = 1/2 meets the symmetric
    branch's F.  Objective values scale by sqrt(nu).
    """
    _check_weights(nu, mu)
    if mu > nu / 2.0:
        c = sqrt(14.0 / (nu - mu)) / 9.0
        f_value = 2.0 / 3.0 * sqrt(14.0 * (nu - mu))
        return ToyOptimum(
            conductivities=np.array([c, c, c]),
            flux=4.0 / 9.0,
            F_value=f_value,
            E_value=f_value + 3.0 * mu * c,  # Fiedler value 3c, double
            regime="above_half",
        )
    m = mu / nu
    lo, hi = 1.0, 2.0
    for _ in range(64):
        t = 0.5 * (lo + hi)
        s = sqrt(t * t - t + 1.0)
        if 2.0 * (1.0 - m) * (t * t - 4.0) * s + m * (2.0 * t**3 - t * t + 4.0 * t - 8.0) < 0.0:
            lo = t
        else:
            hi = t
    h = 1.0 / 9.0 + 4.0 / (9.0 * hi)
    g = (1.0 - m) * (1.0 + hi) + m * sqrt(hi * hi - hi + 1.0)
    a = sqrt(h / g)
    b = a * hi
    f_reduced = 2.0 * sqrt(h * g)
    lam1 = (a + b) - sqrt(a * a + b * b - a * b)
    root = sqrt(nu)
    return ToyOptimum(
        conductivities=np.array([a, b, 0.0]) / root,
        flux=1.0 / 3.0,
        F_value=root * f_reduced,
        E_value=root * (f_reduced + m * lam1),
        regime="below_half",
    )
