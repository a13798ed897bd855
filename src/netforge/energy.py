"""Transport energy: pumping (kinetic) plus metabolic cost of a network.

The kinetic part is the power needed to push the flow through the edges,
sum of Q^2 / C * L, which equals P . S for the Kirchhoff pressures P; the
metabolic part charges (nu / gamma) * C^gamma * L per edge for maintaining
conductivity.  Conductivity states whose flow problem is unsolvable carry
infinite energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import DisconnectedSupportError
from .graph import ModelParams, Network, edge_values
from .kirchhoff import solve_kirchhoff
from .spectral import _low_spectrum, laplacian


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic / metabolic split of the transport energy.

    ``total == kinetic + metabolic`` whenever finite; an unsolvable flow
    problem is reported as infinite kinetic and total energy (the metabolic
    part is always finite).
    """

    kinetic: float
    metabolic: float
    total: float

    @property
    def finite(self) -> bool:
        return isfinite(self.total)


def kinetic_energy(P: np.ndarray, S: np.ndarray) -> float:
    """Pumping power P . S = sum Q^2 L / C of a Kirchhoff solution."""
    return float(P @ S)


def metabolic_energy(values: np.ndarray, lengths: np.ndarray, params: ModelParams):
    """Maintenance cost nu / gamma * sum C^gamma L; for a stack of states
    (one per row of ``values``), an array of the rows' costs."""
    # C**1.0 == C bit for bit, so the linear cost skips the power
    cost = np.vecdot(values if params.gamma == 1.0 else values**params.gamma, lengths)
    return params.nu / params.gamma * (float(cost) if cost.ndim == 0 else cost)


def energy(net: Network, C, params: ModelParams) -> EnergyBreakdown:
    """Evaluate the transport energy at conductivities ``C``.

    The kinetic part is P . S, the sum of Q^2 L / C over the support:
    zero-conductivity edges carry zero flux and contribute nothing (the 0/0
    limit convention).  ``optimize`` evaluates the same two formulas, so its
    recorded energies match this function bit for bit.
    """
    values = edge_values(net, C)
    metabolic = metabolic_energy(values, net.lengths, params)
    sol = solve_kirchhoff(net, values)
    if not sol.solvable:
        return EnergyBreakdown(np.inf, metabolic, np.inf)
    kinetic = kinetic_energy(sol.pressures, net.sources)
    return EnergyBreakdown(kinetic, metabolic, kinetic + metabolic)


def energy_gradient(net: Network, C, params: ModelParams) -> np.ndarray:
    """Per-edge derivative of the energy: -(P_u - P_v)^2 / L + nu C^(gamma-1) L.

    For ``gamma < 1`` the right derivative at a zero conductivity is +inf,
    reported as an infinite entry so stationarity of tree-supported optima
    can be asserted symbolically.  Pressures are normalized to sum to zero
    per support component; entries on zero-conductivity edges that straddle
    two components depend on that normalization (everything else is
    gauge-invariant).

    Raises DisconnectedSupportError when the flow problem is unsolvable
    (which implies a disconnected support).
    """
    values = edge_values(net, C)
    sol = solve_kirchhoff(net, values)
    if not sol.solvable:
        raise DisconnectedSupportError(
            "energy gradient undefined: flow problem unsolvable at C"
        )
    dp = sol.pressures[net.edge_u] - sol.pressures[net.edge_v]
    with np.errstate(divide="ignore"):
        power = values ** (params.gamma - 1.0)
    return -dp * dp / net.lengths + params.nu * power * net.lengths


def kinetic_bound_check(net: Network, C) -> tuple:
    """Both sides of the spectral bound E_kin <= ||S||^2 / fiedler(C / L).

    Returns ``(ekin, bound)``; the bound is infinite when the support is
    disconnected (Fiedler value zero), which makes the inequality vacuous.
    Requires a nonzero source vector.
    """
    values = edge_values(net, C)
    s_norm2 = float(net.sources @ net.sources)
    if s_norm2 == 0.0:
        raise ValueError("kinetic bound requires a nonzero source vector")

    sol = solve_kirchhoff(net, values)
    ekin = kinetic_energy(sol.pressures, net.sources) if sol.solvable else np.inf
    if len(sol.components) != 1:
        return ekin, np.inf
    fiedler = float(_low_spectrum(laplacian(net, values, use_lengths=True))[0][1])
    bound = s_norm2 / fiedler if fiedler > 0.0 else np.inf
    return ekin, bound
