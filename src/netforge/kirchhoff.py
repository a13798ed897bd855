"""Flow conservation (Kirchhoff law) on the weighted graph Laplacian.

Pressures solve L[C/L] P = S.  The operator is singular (constant vectors per
connected component of the conductivity support), so each component is solved
with a rank-one deflation that pins the component pressure sum to zero, and
the system is solvable exactly when every component's sources balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import DisconnectedSupportError, IllConditionedError
from .graph import Network, assemble_laplacian, edge_values, support_components

#: per-component source balance is required within this fraction of max|S|
COMPONENT_BALANCE_RTOL = 1e-10

#: a solve is rejected when some row's residual exceeds this fraction of
#: max|S| plus the size of the fluxes through the row's vertex
RESIDUAL_RTOL = 1e-8


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


def deflated_solve(lap: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lap @ P = rhs on the sum-zero subspace for a connected-support
    Laplacian, by adding a scaled all-ones rank-one term.

    The correction shifts only the constant-vector eigenvalue (scaled to the
    operator's magnitude so conditioning is not degraded), leaving the
    sum-zero solution of the original singular system untouched.  The
    corrected matrix is symmetric positive definite, so a Cholesky solve
    applies; its failure means the operator is singular to working precision.
    """
    n = lap.shape[0]
    alpha = lap.trace() / n
    if not alpha > 0.0:
        alpha = 1.0
    _, P, info = dposv(lap + alpha / n, rhs)
    if info != 0:
        raise IllConditionedError("deflated operator is singular to working precision")
    P -= P.sum() / n
    return P


def solve_pressures(lap, S, comps, scale) -> np.ndarray:
    """Component-wise sum-zero solve of lap @ P = S for the support
    components ``comps``, or None when some component's sources do not
    balance within ``COMPONENT_BALANCE_RTOL * scale`` (the system is then
    unsolvable).  A single component needs no balance check: a network's
    sources balance by construction.

    Raises IllConditionedError when a component operator is singular or
    the residual of some row i exceeds
    ``RESIDUAL_RTOL * (scale + sum_j |lap_ij| |P_i - P_j|)``: no relative
    change of RESIDUAL_RTOL in each edge conductance and in the source
    scale then explains the residual (the solve is not backward stable).
    """
    if len(comps) == 1:
        P = deflated_solve(lap, S)
    else:
        for comp in comps:
            if abs(S[comp].sum()) > COMPONENT_BALANCE_RTOL * scale:
                return None
        P = np.zeros(lap.shape[0])
        for comp in comps:
            if comp.size == 1:
                continue  # isolated balanced vertex: pressure 0
            ix = np.ix_(comp, comp)
            P[comp] = deflated_solve(lap[ix], S[comp])
    residual = np.abs(lap @ P - S)
    worst = residual.max()
    if worst > RESIDUAL_RTOL * scale:
        # large pressures leave a backward-stable solve residuals above
        # RESIDUAL_RTOL max|S|; measure each row against the fluxes through
        # its vertex too.  Conductance-weighted pressure differences, not
        # pressures, set that size, so the huge pressures a singular solve
        # returns across a vanishing conductance do not raise the bound;
        # the off-diagonal of a Laplacian is nonpositive
        through = -(lap * np.abs(P[:, None] - P)).sum(axis=1)
        if np.any(residual > RESIDUAL_RTOL * (scale + through)):
            raise IllConditionedError(
                f"relative solve residual {worst / scale if scale else worst:.3e}"
            )
    return P


def solve_kirchhoff(net: Network, C) -> FlowSolution:
    """Solve the flow-conservation system for the conductivities ``C``.

    Connected components of the support graph (edges with C > 0) are
    identified first.  If every component's sources sum to zero (within
    ``COMPONENT_BALANCE_RTOL * max|S|``) the reduced system is solved per
    component with the sum-zero normalization; otherwise the solution is
    marked unsolvable.  Fluxes follow from Q_e = (C_e / L_e) (P_u - P_v),
    which is zero on every zero-conductivity edge.

    Raises
    ------
    IllConditionedError
        If a component operator is singular to working precision or the
        assembled solution fails the residual check of
        :func:`solve_pressures` - the signal for an optimizer to restart.
    """
    values = edge_values(net, C)
    S = net.sources
    comps = support_components(net, values)
    components = tuple(tuple(comp.tolist()) for comp in comps)

    weights = values * (1.0 / net.lengths)
    lap = assemble_laplacian(net, weights)
    P = solve_pressures(lap, S, comps, np.abs(S).max() if S.size else 0.0)
    if P is None:
        nan_v = np.full(net.vertex_count, np.nan)
        nan_e = np.full(net.edge_count, np.nan)
        return FlowSolution(nan_v, nan_e, components, solvable=False)

    fluxes = weights * (P[net.edge_u] - P[net.edge_v])
    return FlowSolution(P, fluxes, components, solvable=True)


def kirchhoff_continuity_probe(net: Network, C, delta: float) -> float:
    """Empirical Lipschitz estimate of the flux map C -> Q.

    Perturbs each edge conductivity by +/- delta (skipping probes that would
    leave the nonnegative cone or the solvable set) and returns the largest
    observed ||Q' - Q||_inf / delta.  Requires a connected support, where the
    flux map is differentiable and Lipschitz.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    values = edge_values(net, C)
    base = solve_kirchhoff(net, values)
    if len(base.components) != 1:
        raise DisconnectedSupportError("continuity probe requires a connected support")

    worst = 0.0
    for k in range(net.edge_count):
        for sign in (1.0, -1.0):
            perturbed = values.copy()
            perturbed[k] += sign * delta
            if perturbed[k] < 0.0:
                continue
            probe = solve_kirchhoff(net, perturbed)
            if not probe.solvable:
                continue
            worst = max(worst, np.abs(probe.fluxes - base.fluxes).max() / delta)
    return worst
