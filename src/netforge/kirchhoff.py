"""Flow conservation (Kirchhoff law) on the weighted graph Laplacian.

Pressures solve L[C/L] P = S.  The operator is singular (constant vectors per
connected component of the conductivity support), so each component is
grounded by a Dirichlet row at its vertex that comes last in the network's
reverse Cuthill-McKee order, one banded Cholesky solve covers all
components, and each component's pressures are shifted to sum to zero.  The
system is solvable exactly when every component's sources balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbsv

from .errors import IllConditionedError
from .graph import Network, assemble_band_laplacian, edge_values, support_components

#: per-component source balance is required within this fraction of max|S|
COMPONENT_BALANCE_RTOL = 1e-10

#: a solve is rejected when some row's residual exceeds this fraction of
#: max|S| plus the size of the fluxes through the row's vertex
RESIDUAL_RTOL = 1e-8

#: a solve with unknown components grounds one vertex and proves the support
#: connected when every other squared pivot of its Cholesky factor exceeds
#: this times the largest diagonal entry of the Laplacian.  A component B
#: without the ground ends on a pivot equal to min x^T L_B x over the x on B
#: that are 1 at its last vertex, at most 1^T L_B 1.  That is 0 in exact
#: arithmetic; stored, it is the rounding of B's diagonal sums (each adds at
#: most deg terms), and the factorization adds its backward error of the
#: same order: about |B| deg eps times the largest diagonal entry.  The test
#: refuses such a B while |B| deg < 1e-10 / eps = 4.5e5, e.g. components of
#: up to 10^4 vertices of degree up to 40.  A connected support with a pivot
#: that small (a near-cut conductance) fails the test too and only pays for
#: its exact components.
CONNECTED_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class FlowSolution:
    """Pressures and fluxes for one conductivity state.

    pressures sum to zero on every connected component of the support graph;
    fluxes hold one value per canonical edge (u, v), positive when flow runs
    u -> v.  When ``solvable`` is False (some component's sources do not
    balance) both arrays are NaN and any downstream energy is infinite.
    """

    pressures: np.ndarray
    fluxes: np.ndarray
    components: tuple
    solvable: bool


def solve_pressures(net: Network, weights, comps, scale) -> np.ndarray:
    """Pressures P with L[weights] P = ``net.sources`` summing to zero on
    each support component in ``comps``, or None when some component's
    sources do not balance within ``COMPONENT_BALANCE_RTOL * scale``.  A
    single component needs no balance check: a network's sources balance.

    Each component is grounded at its vertex last in band order: a unit
    Dirichlet row and column with right-hand side 0 (isolated vertices get
    pressure 0), so one ``dpbsv`` banded Cholesky solves all components.

    ``comps`` None means the components are unknown: only the vertex last
    in band order is grounded, and the result is None unless the factor's
    pivots prove the support connected (``CONNECTED_PIVOT_RTOL``).  A
    connected support then gets the bits a single component in ``comps``
    gives.

    Raises IllConditionedError when the grounded operator is not positive
    definite to working precision (with ``comps`` given) or the residual of
    the ungrounded system in some row i exceeds ``RESIDUAL_RTOL * (scale + sum_j |L_ij| |P_i - P_j|)``:
    no relative change of RESIDUAL_RTOL in each edge conductance and in the
    source scale then explains the residual (the solve is not backward stable).
    """
    S = net.sources
    n, b = net.vertex_count, net.bandwidth
    several = comps is not None and len(comps) > 1
    if several and any(abs(S[c].sum()) > COMPONENT_BALANCE_RTOL * scale for c in comps):
        return None
    ranks = [net.band_rank[c] for c in comps] if several else None
    band = assemble_band_laplacian(net, weights)
    lap = band.copy(order="F")
    rhs = net.band_sources.copy()
    # band position g's column sits at flat positions g (b+1) .. g (b+1) + b
    # and its row at g (b+1) - k b for k = 1 .. min(b, g), none when b = 0
    flat = band.ravel(order="F")
    for g in (n - 1,) if ranks is None else [r.max() for r in ranks]:
        flat[g * (b + 1) - min(b, g) * b : g * (b + 1) : max(b, 1)] = 0.0
        flat[g * (b + 1) : (g + 1) * (b + 1)] = 0.0
        flat[g * (b + 1)] = 1.0
        rhs[g] = 0.0
    factor, x, info = dpbsv(band, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if comps is None:
        # the ground is last in band order; a small pivot may end an ungrounded component
        if info != 0 or factor[0, :-1].min(initial=np.inf) ** 2 <= CONNECTED_PIVOT_RTOL * lap[0].max():
            return None
    if info != 0:
        raise IllConditionedError("grounded operator is not positive definite to working precision")
    if ranks is None:
        x -= x.sum() / n
    else:
        for r in ranks:
            x[r] -= x[r].mean()

    residual = np.abs(dsbmv(b, 1.0, lap, x, lower=1) - net.band_sources)
    worst = residual.max()
    P = x[net.band_rank]
    if worst > RESIDUAL_RTOL * scale:
        # large pressures leave a backward-stable solve residuals above
        # RESIDUAL_RTOL max|S|; measure each row against the fluxes through
        # its vertex too.  Conductance-weighted pressure differences, not
        # pressures, set that size, so the huge pressures a singular solve
        # returns across a vanishing conductance do not raise the bound
        q = np.abs(weights * (P[net.edge_u] - P[net.edge_v]))
        through = np.bincount(net.edge_u, q, n) + np.bincount(net.edge_v, q, n)
        if np.any(residual > RESIDUAL_RTOL * (scale + through[net.band_order])):
            raise IllConditionedError(
                f"relative solve residual {worst / scale if scale else worst:.3e}"
            )
    return P


def solve_kirchhoff(net: Network, C) -> FlowSolution:
    """Solve the flow-conservation system for the conductivities ``C``.

    Connected components of the support graph (edges with C > 0) are
    identified first.  If every component's sources sum to zero (within
    ``COMPONENT_BALANCE_RTOL * max|S|``) the grounded system is solved by
    :func:`solve_pressures` with the sum-zero normalization per component;
    otherwise the solution is marked unsolvable.  Fluxes follow from
    Q_e = (C_e / L_e) (P_u - P_v), which is zero on every zero-conductivity
    edge.

    Raises
    ------
    IllConditionedError
        If the grounded operator is singular to working precision or the
        assembled solution fails the residual check of
        :func:`solve_pressures` - the signal for an optimizer to restart.
    """
    values = edge_values(net, C)
    S = net.sources
    comps = support_components(net, values)
    components = tuple(tuple(comp.tolist()) for comp in comps)

    weights = values * (1.0 / net.lengths)
    P = solve_pressures(net, weights, comps, np.abs(S).max() if S.size else 0.0)
    if P is None:
        nan_v = np.full(net.vertex_count, np.nan)
        nan_e = np.full(net.edge_count, np.nan)
        return FlowSolution(nan_v, nan_e, components, solvable=False)

    fluxes = weights * (P[net.edge_u] - P[net.edge_v])
    return FlowSolution(P, fluxes, components, solvable=True)

