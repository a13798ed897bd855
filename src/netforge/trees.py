"""Spanning-tree constructions and loop diagnostics.

On a tree, vertex conservation pins each edge flux combinatorially: the flux
through an edge is the net source of the side of the tree the edge drains.
Choosing the conductivity that balances pumping against metabolic cost per
edge then yields a stationary point of the energy supported on the tree, and
for a sublinear metabolic exponent such tree states are local minimizers.
Exhaustive enumeration of spanning trees turns this into a global (if
exponential) solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import sqrt

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .energy import metabolic_energy
from .errors import (
    DisconnectedSupportError,
    NoCycleError,
    NotStationaryError,
    TooManyTreesError,
)
from .graph import (
    ACTIVE_EDGE_THRESHOLD,
    Conductivities,
    ModelParams,
    Network,
    active_edges,
    assemble_laplacian,
    component_count,
    edge_values,
)
from .kirchhoff import solve_kirchhoff

#: default cap on the estimated number of trees the enumerator will visit
TREE_LIMIT = 10**6

#: relative slack allowed in the stationarity relation (P_u - P_v)^2 = nu L^2
STATIONARITY_RTOL = 1e-6


@dataclass(frozen=True)
class SpanningTree:
    """Edge ids of a spanning tree, in ascending order."""

    edge_ids: tuple


@dataclass(frozen=True)
class TreeSolution:
    """A spanning tree with its forced fluxes, stationary conductivities
    (zero off the tree) and the resulting energy."""

    tree: SpanningTree
    fluxes: np.ndarray
    conductivities: Conductivities
    energy: float


def make_spanning_tree(net: Network, edge_ids) -> SpanningTree:
    """Build a :class:`SpanningTree` from edge ids, validating that they form
    a tree spanning every vertex."""
    edge_ids = tuple(sorted(int(e) for e in edge_ids))
    n = net.vertex_count
    if len(edge_ids) != n - 1:
        raise ValueError(f"a spanning tree needs {n - 1} edges, got {len(edge_ids)}")
    if edge_ids and not 0 <= edge_ids[0] <= edge_ids[-1] < net.edge_count:
        raise ValueError(f"edge ids must lie in [0, {net.edge_count})")

    # n - 1 edges that connect all n vertices form a tree
    ids = list(edge_ids)
    pairs = zip(net.edge_u[ids].tolist(), net.edge_v[ids].tolist())
    if component_count(n, pairs) != 1:
        raise ValueError("edge ids do not span all vertices")
    return SpanningTree(edge_ids)


def _tree_count_estimate(net: Network) -> float:
    """The matrix-tree determinant of the unweighted Laplacian in floating
    point; TooManyTreesError when it overflows a float."""
    if net.vertex_count == 1:
        return 1.0
    lap = assemble_laplacian(net, np.ones(net.edge_count))
    with np.errstate(over="ignore"):
        det = np.linalg.det(lap[1:, 1:])
    if not np.isfinite(det):
        raise TooManyTreesError("the spanning-tree count overflows a float")
    return float(det)


def spanning_tree_count(net: Network) -> int:
    """Exact number of spanning trees: the matrix-tree determinant of the
    unweighted Laplacian by fraction-free (Bareiss) integer elimination, about
    |V|^3 / 3 big-integer operations.  TooManyTreesError when the determinant
    overflows a float."""
    _tree_count_estimate(net)
    if net.vertex_count == 1:
        return 1
    lap = assemble_laplacian(net, np.ones(net.edge_count))
    M = np.rint(lap[1:, 1:]).astype(np.int64).astype(object)
    # each pivot is a leading principal minor of a positive semidefinite
    # matrix, so it is positive, or zero only when the whole determinant is
    previous = 1
    for k in range(M.shape[0] - 1):
        pivot = M[k, k]
        if pivot == 0:
            return 0
        rest = M[k + 1 :, k + 1 :]
        M[k + 1 :, k + 1 :] = (rest * pivot - np.outer(M[k + 1 :, k], M[k, k + 1 :])) // previous
        previous = pivot
    return int(M[-1, -1])


def _trees(edges, verts, chosen, vertex_count):
    """Contraction/deletion enumeration over (eid, a, b) triples; yields edge-id
    tuples in lexicographic order of the sorted id sets."""
    if len(verts) == 1:
        yield tuple(chosen)
        return
    if len(edges) < len(verts) - 1:
        return
    eid, a, b = edges[0]
    rest = edges[1:]

    contracted = []
    for id2, x, y in rest:
        if x == b:
            x = a
        if y == b:
            y = a
        if x != y:
            contracted.append((id2, x, y))
    chosen.append(eid)
    yield from _trees(contracted, verts - {b}, chosen, vertex_count)
    chosen.pop()

    # deleting the edge must keep verts connected; contraction keeps vertex
    # labels, so the vertex_count - len(verts) contracted-away ones are isolated
    if component_count(vertex_count, ((x, y) for _, x, y in rest)) + len(verts) == vertex_count + 1:
        yield from _trees(rest, verts, chosen, vertex_count)


def _spanning_tree_ids(net: Network):
    """The ascending edge-id tuples of :func:`enumerate_spanning_trees`."""
    # the float determinant settles large counts without the exact count's
    # cubic big-integer elimination
    estimate = _tree_count_estimate(net)
    if estimate > 2 * TREE_LIMIT or spanning_tree_count(net) > TREE_LIMIT:
        raise TooManyTreesError(f"about {estimate:.6g} spanning trees exceed the limit {TREE_LIMIT}")

    edges = [(eid, int(u), int(v)) for eid, (u, v, _) in enumerate(net.edges)]
    yield from _trees(edges, frozenset(range(net.vertex_count)), [], net.vertex_count)


def enumerate_spanning_trees(net: Network):
    """Exhaustive, duplicate-free iterator over all spanning trees.

    The tree count is estimated first with the matrix-tree determinant and
    the enumeration refuses to start beyond ``TREE_LIMIT`` (the count grows
    like |V|^(|V|-2) on complete graphs).
    """
    return map(SpanningTree, _spanning_tree_ids(net))  # ascending ids of a tree by construction


def _tree_fluxes(net: Network, id_rows: np.ndarray) -> np.ndarray:
    """Forced fluxes of a stack of trees, given as a (T, |V|-1) array of edge
    ids, as a (T, |E|) array (zero off each tree).

    Each tree's fluxes solve its incidence system B_T Q = S without vertex
    0's row (the source balance implies it).  B_T is totally unimodular, so
    elimination only adds and subtracts sources: the fluxes are subtree sums
    of the sources.  One sparse LU in the natural column order eliminates
    each tree's block of the stack on its own, so a tree's fluxes do not
    depend on its block; one-column panels keep SuperLU's workspace small.
    """
    count, size = id_rows.shape
    ends = np.stack([net.edge_u[id_rows], net.edge_v[id_rows]], axis=-1)
    keep = ends > 0  # vertex 0's row is dropped
    rows = (ends + (np.arange(count) * size - 1)[:, None, None])[keep]
    signs = np.broadcast_to([1.0, -1.0], ends.shape)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=2).ravel())])
    system = csc_array((signs, rows, indptr), shape=(count * size, count * size))
    lu = splu(system, permc_spec="NATURAL", panel_size=1)
    solved = lu.solve(np.tile(net.sources[1:], count))
    fluxes = np.zeros((count, net.edge_count))
    np.put_along_axis(fluxes, id_rows, solved.reshape(count, size), axis=1)
    return fluxes


def _tree_states(net: Network, id_rows: np.ndarray, params: ModelParams):
    """Forced fluxes, stationary conductivities and energies of a stack of
    trees, given as a (T, |V|-1) array of edge ids: two (T, |E|) arrays
    (zero off each tree) and a (T,) array."""
    fluxes = _tree_fluxes(net, id_rows)
    values = (fluxes**2 / params.nu) ** (1.0 / (params.gamma + 1.0))
    ratio = np.divide(fluxes**2, values, out=np.zeros_like(values), where=values > 0.0)
    kinetic = np.vecdot(ratio, net.lengths)
    return fluxes, values, kinetic + metabolic_energy(values, net.lengths, params)


def _tree_energy_blocks(net: Network, params: ModelParams):
    """Energies of all spanning trees in enumeration order, as blocks
    ``(id_rows, energies)``: a (T, |V|-1) array of edge ids and the (T,)
    energies of those trees' local minimizers.

    A block of 2^10 / |V| trees stacks a sparse system of about 2^10 columns;
    larger blocks were at most 10% faster and raised a search's peak memory.
    """
    trees = _spanning_tree_ids(net)
    block_size = max(1, 2**10 // net.vertex_count)
    while block := list(islice(trees, block_size)):
        id_rows = np.array(block, dtype=np.intp)
        yield id_rows, _tree_states(net, id_rows, params)[2]


def tree_fluxes(net: Network, tree: SpanningTree) -> np.ndarray:
    """Fluxes forced by vertex conservation on the tree, as a full per-edge
    vector (zero off the tree).

    Removing a tree edge splits the vertices in two; the flux on the
    canonical edge (u, v) equals the net source of u's side, oriented
    u -> v.  The fluxes do not depend on the model parameters.
    """
    return _tree_fluxes(net, np.array([tree.edge_ids], dtype=np.intp))[0]


def tree_local_minimizer(net: Network, tree: SpanningTree, params: ModelParams) -> TreeSolution:
    """Stationary tree-supported conductivities C_e = (Q_e^2 / nu)^(1/(gamma+1)).

    The construction works for any gamma > 0; for gamma < 1 the result is a
    local minimizer of the energy (gradient zero on its support, right
    derivative +inf on the remaining edges).  Tree edges with zero forced
    flux get zero conductivity, leaving their endpoints isolated in the
    support; that is harmless exactly when those vertices carry no source.
    """
    fluxes, values, energies = _tree_states(net, np.array([tree.edge_ids], dtype=np.intp), params)
    return TreeSolution(
        tree=tree,
        fluxes=fluxes[0],
        conductivities=Conductivities(values[0]),
        energy=float(energies[0]),
    )


def global_tree_search(net: Network, params: ModelParams) -> TreeSolution:
    """Minimum-energy tree solution over all spanning trees (first enumerated
    tree wins ties, which makes the result reproducible)."""
    best_ids, best_energy = None, None
    for id_rows, energies in _tree_energy_blocks(net, params):
        i = int(np.argmin(energies))  # first minimum of the block
        if best_ids is None or energies[i] < best_energy:
            best_ids, best_energy = id_rows[i], energies[i]
    return tree_local_minimizer(net, SpanningTree(tuple(best_ids.tolist())), params)


def is_loop_free(net: Network, C, threshold: float = ACTIVE_EDGE_THRESHOLD) -> bool:
    """True when the active-edge subgraph of C is acyclic, i.e. a forest:
    exactly |V| - (number of components) edges."""
    ids = active_edges(net, C, threshold)
    comps = component_count(
        net.vertex_count, zip(net.edge_u[ids].tolist(), net.edge_v[ids].tolist())
    )
    return ids.size == net.vertex_count - comps


def _support_cycle(net: Network, values):
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


def loop_perturbation(net: Network, C, params: ModelParams, epsilon: float) -> Conductivities:
    """Energy-preserving circular-flow perturbation along an active cycle.

    At a stationary state with linear metabolic cost, every active edge
    satisfies (P_u - P_v)^2 = nu L^2.  Adding a circular flow of magnitude
    ``epsilon`` along an active cycle and shifting each cycle conductivity by
    (epsilon / sqrt(nu)) * sign(P_a - P_b) then leaves the energy unchanged.

    The cycle closes a walk through the 2-core of the support (C > 0) that
    starts on its lowest edge and leaves each vertex by the lowest other edge.

    Raises NoCycleError when the support is acyclic, NotStationaryError when
    the stationarity relation fails on the cycle (beyond 1e-6 relative), and
    ValueError when the shifted conductivities leave the nonnegative cone.
    """
    if params.gamma != 1.0:
        raise ValueError("cycle perturbation requires the linear metabolic cost (gamma == 1)")
    values = edge_values(net, C)

    cycle = _support_cycle(net, values)
    if cycle is None:
        raise NoCycleError("conductivity support contains no cycle")

    sol = solve_kirchhoff(net, values)
    if not sol.solvable:
        raise DisconnectedSupportError("flow problem unsolvable at C")
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
    return Conductivities(shifted)
