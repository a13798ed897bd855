"""Numerical probes of the paper's structural claims: convexity of the energy,
concavity of the Fiedler number, Lipschitz fluxes and energy-neutral loop
perturbations under linear cost.  They check the library's kernels from the
outside and are used only by the tests."""

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

import netforge as nf

#: relative slack allowed in the stationarity relation (P_u - P_v)^2 = nu L^2
STATIONARITY_RTOL = 1e-6


class NoCycleError(nf.NetforgeError):
    """No active cycle exists in the conductivity support."""


class NotStationaryError(nf.NetforgeError):
    """The stationarity an energy-preserving cycle perturbation needs fails."""


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a convexity/concavity midpoint probe."""

    ok: bool
    worst_violation: float


def _midpoint_probe(net, f, C1, C2, samples, sign):
    """Worst sign * (f(a c1 + (1-a) c2) - a f(c1) - (1-a) f(c2)) over
    ``samples`` interior values of a, skipping infinite chords; ok when it is
    at most 1e-9 (sign +1 probes convexity, -1 concavity)."""
    c1, c2 = nf.edge_values(net, C1), nf.edge_values(net, C2)
    f1, f2 = f(c1), f(c2)
    worst = -np.inf
    for alpha in np.linspace(0.0, 1.0, samples + 2)[1:-1]:
        chord = alpha * f1 + (1.0 - alpha) * f2
        if isfinite(chord):
            worst = max(worst, sign * (f(alpha * c1 + (1.0 - alpha) * c2) - chord))
    return ProbeResult(ok=worst <= 1e-9, worst_violation=float(worst))


def convexity_probe(net, C1, C2, params, samples=9) -> ProbeResult:
    """Midpoint convexity check of the energy along [C1, C2]; convexity is
    guaranteed for gamma >= 1 only."""
    return _midpoint_probe(net, lambda c: nf.energy(net, c, params).total, C1, C2, samples, 1.0)


def fiedler_concavity_probe(net, C1, C2, samples=9) -> ProbeResult:
    """Midpoint concavity check of the Fiedler number along [C1, C2]."""
    return _midpoint_probe(
        net, lambda c: nf.spectral_decompose(nf.laplacian(net, c)).fiedler, C1, C2, samples, -1.0
    )


def kirchhoff_continuity_probe(net, C, delta: float) -> float:
    """Empirical Lipschitz constant of the flux map C -> Q on a connected
    support: the largest ||Q' - Q||_inf / delta over +/- delta changes of one
    conductivity that stay nonnegative and solvable."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    values = nf.edge_values(net, C)
    base = nf.solve_kirchhoff(net, values)
    if len(base.components) != 1:
        raise nf.DisconnectedSupportError("continuity probe requires a connected support")

    worst = 0.0
    for k in range(net.edge_count):
        for sign in (1.0, -1.0):
            perturbed = values.copy()
            perturbed[k] += sign * delta
            if perturbed[k] < 0.0:
                continue
            probe = nf.solve_kirchhoff(net, perturbed)
            if not probe.solvable:
                continue
            worst = max(worst, np.abs(probe.fluxes - base.fluxes).max() / delta)
    return worst


def _support_cycle(net, values):
    """Vertex sequence of a cycle of the positive-conductivity subgraph, or
    None.  Peeling pendant edges leaves the 2-core, empty exactly on a forest;
    each core vertex has two edges to leave by, so the walk must close."""
    u, v = net.edge_u[values > 0.0], net.edge_v[values > 0.0]
    while u.size:
        degree = np.bincount(np.concatenate([u, v]))
        core = (degree[u] > 1) & (degree[v] > 1)
        if core.all():
            break
        u, v = u[core], v[core]
    if not u.size:
        return None

    adj = {}  # (core edge index, other end) at each vertex, in edge-id order
    for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        adj.setdefault(a, []).append((i, b))
        adj.setdefault(b, []).append((i, a))
    path, vertex, via = [], int(u[0]), -1
    while vertex not in path:
        path.append(vertex)
        via, vertex = next((e, w) for e, w in adj[vertex] if e != via)
    return path[path.index(vertex):]


def loop_perturbation(net, C, params, epsilon: float) -> nf.Conductivities:
    """Energy-preserving circular-flow perturbation along an active cycle.

    At a stationary state with linear metabolic cost every active edge has
    (P_u - P_v)^2 = nu L^2, so shifting each conductivity of a support cycle
    (:func:`_support_cycle`) by (epsilon / sqrt(nu)) sign(P_a - P_b) leaves
    the energy unchanged.  Raises NoCycleError on an acyclic support,
    NotStationaryError when the relation fails on the cycle beyond
    STATIONARITY_RTOL, and ValueError when C leaves the nonnegative cone.
    """
    if params.gamma != 1.0:
        raise ValueError("cycle perturbation requires the linear metabolic cost (gamma == 1)")
    values = nf.edge_values(net, C)

    cycle = _support_cycle(net, values)
    if cycle is None:
        raise NoCycleError("conductivity support contains no cycle")

    sol = nf.solve_kirchhoff(net, values)
    if not sol.solvable:
        raise nf.DisconnectedSupportError("flow problem unsolvable at C")
    P = sol.pressures

    shifted = values.copy()
    scale = epsilon / sqrt(params.nu)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        eid = net.edge_index[(a, b) if a < b else (b, a)]
        target = params.nu * net.lengths[eid] ** 2
        dp = P[a] - P[b]
        if abs(dp * dp - target) > STATIONARITY_RTOL * target:
            raise NotStationaryError(
                f"edge ({a}, {b}): (dP)^2 = {dp * dp:.6e} vs nu L^2 = {target:.6e}"
            )
        shifted[eid] += scale * (1.0 if dp > 0 else -1.0)

    if np.any(shifted < 0.0):
        raise ValueError("perturbation leaves the admissible (nonnegative) set")
    return nf.Conductivities(shifted)
