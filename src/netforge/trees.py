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
from math import sqrt

import numpy as np

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
    connected_components,
    edge_values,
)
from .energy import metabolic_energy
from .kirchhoff import solve_kirchhoff

#: default cap on the estimated number of trees the enumerator will visit
TREE_LIMIT = 10**6

#: relative slack allowed in the stationarity relation (P_u - P_v)^2 = nu L^2
STATIONARITY_RTOL = 1e-6


@dataclass(frozen=True)
class SpanningTree:
    """Edge ids of a spanning tree plus its parent array rooted at vertex 0
    (parent[0] == -1)."""

    edge_ids: tuple
    parent: tuple


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

    adj = [[] for _ in range(n)]
    for eid in edge_ids:
        u, v = int(net.edge_u[eid]), int(net.edge_v[eid])
        adj[u].append(v)
        adj[v].append(u)

    parent = [-2] * n
    parent[0] = -1
    queue = [0]
    seen = 1
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if parent[y] == -2:
                parent[y] = x
                seen += 1
                queue.append(y)
    if seen != n:
        raise ValueError("edge ids do not span all vertices")
    return SpanningTree(edge_ids=edge_ids, parent=tuple(parent))


def spanning_tree_count(net: Network) -> int:
    """Number of spanning trees via the matrix-tree determinant of the
    unweighted Laplacian."""
    if net.vertex_count == 1:
        return 1
    lap = assemble_laplacian(net, np.ones(net.edge_count))
    return int(round(np.linalg.det(lap[1:, 1:])))


def _is_connected(edges, verts) -> bool:
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    roots = len(verts)
    for _, a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            roots -= 1
    return roots == 1


def _trees(edges, verts, chosen):
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
    yield from _trees(contracted, verts - {b}, chosen)
    chosen.pop()

    if _is_connected(rest, verts):
        yield from _trees(rest, verts, chosen)


def enumerate_spanning_trees(net: Network, limit: int = TREE_LIMIT):
    """Exhaustive, duplicate-free iterator over all spanning trees.

    The tree count is estimated first with the matrix-tree determinant and
    the enumeration refuses to start beyond ``limit`` (the count grows like
    |V|^(|V|-2) on complete graphs).
    """
    count = spanning_tree_count(net)
    if count > limit:
        raise TooManyTreesError(f"{count} spanning trees exceed the limit {limit}")

    edges = [(eid, int(u), int(v)) for eid, (u, v, _) in enumerate(net.edges)]
    verts = frozenset(range(net.vertex_count))
    for ids in _trees(edges, verts, []):
        yield make_spanning_tree(net, ids)


def tree_fluxes(net: Network, tree: SpanningTree) -> np.ndarray:
    """Fluxes forced by vertex conservation on the tree, as a full per-edge
    vector (zero off the tree).

    Removing a tree edge splits the vertices in two; the flux on the
    canonical edge (u, v) equals the net source of u's side, oriented
    u -> v.  Pure subtree arithmetic, no linear solve.
    """
    n = net.vertex_count
    parent = tree.parent
    children = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)

    order = [0]
    for x in order:
        order.extend(children[x])

    subtree = net.sources.astype(float).copy()
    for v in reversed(order):
        if parent[v] >= 0:
            subtree[parent[v]] += subtree[v]

    fluxes = np.zeros(net.edge_count)
    for eid in tree.edge_ids:
        u, v = int(net.edge_u[eid]), int(net.edge_v[eid])
        if parent[u] == v:
            fluxes[eid] = subtree[u]
        elif parent[v] == u:
            fluxes[eid] = -subtree[v]
        else:
            raise ValueError(f"edge {eid} is not part of the tree")
    return fluxes


def tree_local_minimizer(net: Network, tree: SpanningTree, params: ModelParams) -> TreeSolution:
    """Stationary tree-supported conductivities C_e = (Q_e^2 / nu)^(1/(gamma+1)).

    The construction works for any gamma > 0; for gamma < 1 the result is a
    local minimizer of the energy (gradient zero on its support, right
    derivative +inf on the remaining edges).  Tree edges with zero forced
    flux get zero conductivity, leaving their endpoints isolated in the
    support; that is harmless exactly when those vertices carry no source.
    """
    fluxes = tree_fluxes(net, tree)
    ids = np.asarray(tree.edge_ids, dtype=np.intp)
    values = np.zeros(net.edge_count)
    values[ids] = (fluxes[ids] ** 2 / params.nu) ** (1.0 / (params.gamma + 1.0))

    mask = values > 0.0
    kinetic = float(np.sum(fluxes[mask] ** 2 / values[mask] * net.lengths[mask]))
    return TreeSolution(
        tree=tree,
        fluxes=fluxes,
        conductivities=Conductivities(values),
        energy=kinetic + metabolic_energy(values, net.lengths, params),
    )


def global_tree_search(net: Network, params: ModelParams, limit: int = TREE_LIMIT) -> TreeSolution:
    """Minimum-energy tree solution over all spanning trees (first enumerated
    tree wins ties, which makes the result reproducible)."""
    best = None
    for tree in enumerate_spanning_trees(net, limit):
        sol = tree_local_minimizer(net, tree, params)
        if best is None or sol.energy < best.energy:
            best = sol
    return best


def is_loop_free(net: Network, C, threshold: float = ACTIVE_EDGE_THRESHOLD) -> bool:
    """True when the active-edge subgraph of C is acyclic, i.e. a forest:
    exactly |V| - (number of components) edges."""
    ids = active_edges(net, C, threshold)
    comps = connected_components(
        net.vertex_count, zip(net.edge_u[ids].tolist(), net.edge_v[ids].tolist())
    )
    return ids.size == net.vertex_count - len(comps)


def _find_support_cycle(net: Network, values):
    """Vertex sequence of some cycle of the positive-conductivity subgraph,
    or None.  Deterministic: DFS in adjacency order from the lowest vertex."""
    adj = [[] for _ in range(net.vertex_count)]
    for eid in np.flatnonzero(values > 0.0):
        u, v = int(net.edge_u[eid]), int(net.edge_v[eid])
        adj[u].append((v, eid))
        adj[v].append((u, eid))

    color = [0] * net.vertex_count
    for start in range(net.vertex_count):
        if color[start]:
            continue
        path = [start]
        stack = [(start, -1, iter(adj[start]))]
        color[start] = 1
        while stack:
            v, via, it = stack[-1]
            for w, eid in it:
                if eid == via:
                    continue
                if color[w] == 1:  # w is on the current path: cycle found
                    return path[path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    stack.append((w, eid, iter(adj[w])))
                    break
            else:
                color[v] = 2
                path.pop()
                stack.pop()
    return None


def loop_perturbation(net: Network, C, params: ModelParams, epsilon: float) -> Conductivities:
    """Energy-preserving circular-flow perturbation along an active cycle.

    At a stationary state with linear metabolic cost, every active edge
    satisfies (P_u - P_v)^2 = nu L^2.  Adding a circular flow of magnitude
    ``epsilon`` along an active cycle and shifting each cycle conductivity by
    (epsilon / sqrt(nu)) * sign(P_a - P_b) then leaves the energy unchanged.

    Raises NoCycleError when the support is acyclic, NotStationaryError when
    the stationarity relation fails on the cycle (beyond 1e-6 relative), and
    ValueError when the shifted conductivities leave the nonnegative cone.
    """
    if params.gamma != 1.0:
        raise ValueError("cycle perturbation requires the linear metabolic cost (gamma == 1)")
    values = edge_values(net, C)

    cycle = _find_support_cycle(net, values)
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
