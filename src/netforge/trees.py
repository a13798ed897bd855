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

import heapq
from dataclasses import dataclass

import numpy as np

from .energy import metabolic_energy
from .errors import TooManyTreesError
from .graph import (
    ACTIVE_EDGE_THRESHOLD,
    Conductivities,
    ModelParams,
    Network,
    active_edges,
    assemble_laplacian,
    component_count,
)

#: default cap on the estimated number of trees the enumerator will visit
TREE_LIMIT = 10**6

#: entries of a stack of trees evaluated at once, which bounds the memory of
#: the batched float work
STACK_ENTRIES = 2**13

#: relative distance from the lowest tree score within which trees are
#: evaluated exactly.  A score and an exact energy each add n - 1
#: nonnegative terms, every term a few roundings from its exact value, so
#: (1 + 1/gamma) nu^(1/(gamma+1)) times a tree's score and its energy differ
#: by about (n + 6) eps relative (for gamma <= 1; the upkeep's power gamma
#: adds about gamma eps).  The tree of least energy then scores within about
#: 2 (n + 6) eps of the lowest score, which is below 1e-12 up to n = 2200.
#: Scores order nearly equal trees by their last bits, which differ from the
#: energies', so they cannot settle near-ties themselves.
SCORE_MARGIN = 1e-12

#: entries (rows times |V|) of a frontier above which the enumeration splits
#: it into chunks of ``SPLIT_ENTRIES`` / |V| rows and grows those depth-first.
#: A chunk grows into at most d times its rows, d the largest degree, and each
#: of the |V| - 1 levels of the stack holds what is left of one such array:
#: at most (|V| - 1) d ``SPLIT_ENTRIES`` child and as many chain-end entries,
#: of one or two bytes each, and in a pruned search as many masses of eight
#: bytes, whatever the tree count
SPLIT_ENTRIES = 16 * STACK_ENTRIES


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
    if None in _search(net, edge_ids)[1][1:]:
        raise ValueError("edge ids do not span all vertices")
    return SpanningTree(edge_ids)


def _unit_laplacian(net: Network) -> np.ndarray:
    """The Laplacian of unit edge weights without its first row and column,
    whose determinant is the number of spanning trees."""
    return assemble_laplacian(net, np.ones(net.edge_count))[1:, 1:]


def _tree_count_estimate(reduced: np.ndarray) -> float:
    """The matrix-tree determinant of :func:`_unit_laplacian` in floating
    point; TooManyTreesError when it overflows a float."""
    with np.errstate(over="ignore"):
        det = np.linalg.det(reduced)
    if not np.isfinite(det):
        raise TooManyTreesError("the spanning-tree count overflows a float")
    return float(det)


def _exact_tree_count(reduced: np.ndarray) -> int:
    """The determinant of :func:`_unit_laplacian` in integers."""
    if not reduced.size:
        return 1
    M = np.rint(reduced).astype(np.int64).astype(object)
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


def spanning_tree_count(net: Network) -> int:
    """Exact number of spanning trees: the matrix-tree determinant of the
    unweighted Laplacian by fraction-free (Bareiss) integer elimination, about
    |V|^3 / 3 big-integer operations.  TooManyTreesError when the determinant
    overflows a float."""
    reduced = _unit_laplacian(net)
    _tree_count_estimate(reduced)
    return _exact_tree_count(reduced)


def _search(net: Network, edge_ids):
    """Breadth-first search from vertex 0 along ``edge_ids``: the vertices
    reached in order, the edge each was reached by (None for vertex 0 and
    unreached ones) and the adjacency lists of (neighbour, edge id) pairs."""
    adj = [[] for _ in range(net.vertex_count)]
    for e in edge_ids:
        u, v, _ = net.edges[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    order, via = [0], [None] * net.vertex_count
    for x in order:
        for y, e in adj[x]:
            if y and via[y] is None:
                via[y] = e
                order.append(y)
    return order, via, adj


def _spanning_trees(net: Network, bound=None):
    """Every spanning tree once, as blocks of child rows, (rows, |V|-1) arrays.

    A child row roots the tree at vertex 0; column j holds the edge joining
    vertex j + 1 to its parent.  Rows grow a vertex v at a time, one copy per
    neighbour u, and ``top`` holds the end of each vertex's parent chain (0,
    or a vertex without a parent yet): hanging v from u closes a cycle
    exactly when ``top[u] == v``.  Vertices hang farthest from vertex 0 first,
    in reverse breadth-first order, so a neighbour one step nearer vertex 0
    has no parent yet and every row grows; a neighbour that reaches vertex 0
    only through v lies farther out, and its chain already ends at v.  A
    frontier of more than ``SPLIT_ENTRIES`` / |V| rows is split into chunks
    of that many rows, which grow depth-first from a stack.

    With ``bound`` = (a, threshold), a row is dropped as soon as its lower
    bound on sum_e L_e (Q_e^2)^a exceeds ``threshold``; the bound of
    :func:`global_tree_search` holds when every source but vertex 0's has
    one sign.  Each row then also carries the masses (source sums) of the
    fragments rooted at vertex 0 and at the vertices without a parent yet,
    and the sum of L_e (M_v^2)^a over its hung vertices v, M_v the mass of
    v's fragment when it hung."""
    # the float determinant spares counts far from the limit the exact
    # count's cubic cost
    reduced = _unit_laplacian(net)
    estimate = _tree_count_estimate(reduced)
    if estimate > 2 * TREE_LIMIT or (
        estimate > TREE_LIMIT / 2 and _exact_tree_count(reduced) > TREE_LIMIT
    ):
        raise TooManyTreesError(f"about {estimate:.6g} spanning trees exceed the limit {TREE_LIMIT}")

    n = net.vertex_count
    order, _, adj = _search(net, range(net.edge_count))
    hang = order[:0:-1]
    top = np.arange(n, dtype=np.min_scalar_type(n))[None]
    rows = [top, np.zeros((1, n - 1), dtype=np.min_scalar_type(net.edge_count))]
    if bound is not None:
        exponent, threshold = bound
        # at level k, mass column j belongs to hang[k + j] and the last one to
        # vertex 0, whose fragment needs no edge: its shortest edge counts 0
        columns = hang + [0]
        slot = np.empty(n, dtype=np.intp)
        slot[columns] = np.arange(n)
        shortest = np.full(n, np.inf)
        np.minimum.at(shortest, net.edge_u, net.lengths)
        np.minimum.at(shortest, net.edge_v, net.lengths)
        shortest[0] = 0.0
        shortest = shortest[columns]
        rows += [net.sources[columns][None], np.zeros(1)]
    chunk = max(1, SPLIT_ENTRIES // n)
    stack = [(0, rows)]
    while stack:
        k, rows = stack.pop()
        if k == len(hang):
            yield rows[1]
            continue
        if len(rows[0]) > chunk:
            starts = reversed(range(0, len(rows[0]), chunk))
            stack += [(k, [array[s : s + chunk] for array in rows]) for s in starts]
            continue
        top, child = rows[:2]
        v = hang[k]
        if bound is not None:
            mass, hung = rows[2:]
            term = (mass * mass) ** exponent
            # column j of joins: the bound once v's fragment joins column j's,
            # less v's own edge term; v's own column closes a cycle, and
            # vertex 0's fragment adds no term
            base = hung + term[:, 1:] @ shortest[k + 1 :]
            gain = ((mass[:, 1:-1] + mass[:, :1]) ** 2) ** exponent - term[:, 1:-1]
            joins = [np.full(len(top), np.inf), base[:, None] + shortest[k + 1 : -1] * gain, base]
            joins = np.column_stack(joins).ravel()
            offsets = np.arange(0, len(joins), mass.shape[1]) - k
        nbrs, edges = (np.array(pairs, dtype=np.intp) for pairs in zip(*adj[v]))
        ends = top[:, nbrs]
        if bound is None:
            keep = ends != v
        else:
            steps = term[:, :1] * net.lengths[edges]
            keep = joins[offsets[:, None] + slot[ends]] + steps <= threshold
        # rows of the first neighbour's copies first, then the next's
        out, row = np.nonzero(keep.T)
        ends = ends[row, out]
        grown = child[row]
        grown[:, v - 1] = edges[out]
        moved = top[row] if k + 1 < len(hang) else top[:0]  # no tops after the last
        np.copyto(moved, ends[:len(moved), None], where=moved == v)
        rows = [moved, grown]
        if bound is not None:
            merged = mass[row, 1:]
            merged[np.arange(len(row)), slot[ends] - k - 1] += mass[row, 0]
            rows += [merged, hung[row] + steps[row, out]]
        stack.append((k + 1, rows))


def _lexicographic(blocks):
    """Blocks of child rows joined and sorted into lexicographic order of the
    trees' ascending edge ids, and those ids: two (T, |V|-1) arrays."""
    child = np.concatenate(list(blocks))
    ids = np.sort(child, axis=1)
    order = np.lexsort(ids.T[::-1]) if ids.shape[1] else slice(None)
    return child[order], ids[order]


def enumerate_spanning_trees(net: Network):
    """Exhaustive, duplicate-free iterator over all spanning trees, in
    lexicographic order of their ascending edge ids.  It refuses to start
    when the matrix-tree count exceeds ``TREE_LIMIT`` (the count grows like
    |V|^(|V|-2) on complete graphs)."""
    ids = _lexicographic(_spanning_trees(net))[1]
    for start in range(0, len(ids), STACK_ENTRIES):
        yield from map(SpanningTree, map(tuple, ids[start : start + STACK_ENTRIES].tolist()))


def _subtree_sums(net: Network, child: np.ndarray):
    """The (T, |V|-1) parents of the vertices 1.. of trees given as child
    rows, and the (T, |V|) sums of the sources in each vertex's subtree.

    A vertex sends its subtree's source to its parent, sum_k P^k S with P
    moving each value to the parent and the root keeping its own.  Depths
    are below 2^J, J = (|V| - 1).bit_length(), so that is prod_{j<J} (I +
    P^(2^j)) S: one ``np.bincount`` along the 2^j-th ancestors per factor.
    Each row is summed alone in a fixed order, whatever stack it is in."""
    count, n = child.shape[0], child.shape[1] + 1
    rows = np.arange(count)[:, None]
    parent = (net.edge_u + net.edge_v)[child] - np.arange(1, n)
    up = np.hstack([rows * n, parent + rows * n]).ravel()
    sums = np.tile(net.sources, count)
    for j in range((n - 1).bit_length()):
        if j:
            up = up[up]
        sums += np.bincount(up, sums, count * n)
    return parent, sums.reshape(count, n)


def _tree_states(net: Network, child: np.ndarray, ids: np.ndarray, params: ModelParams):
    """(T, |E|) fluxes, the conductivities on ``ids`` and the (T,) energies
    (summed over ``ids`` in order) of trees given as child rows and their
    ascending edge ids."""
    count, n = child.shape[0], child.shape[1] + 1
    rows = np.arange(count)[:, None]
    parent, sums = _subtree_sums(net, child)
    fluxes = np.zeros((count, net.edge_count))
    # the canonical edge (u, v) runs u -> v
    fluxes[rows, child] = np.where(parent > np.arange(1, n), 1.0, -1.0) * sums[:, 1:]
    on = fluxes[rows, ids]
    lengths = net.lengths[ids]
    values = (on**2 / params.nu) ** (1.0 / (params.gamma + 1.0))
    ratio = np.divide(on**2, values, out=np.zeros_like(values), where=values > 0.0)
    return fluxes, values, np.vecdot(ratio, lengths) + metabolic_energy(values, lengths, params)


def _blocks(net: Network, count: int):
    """Slices of ``STACK_ENTRIES`` / |V| trees that cover ``count`` trees."""
    size = max(1, STACK_ENTRIES // net.vertex_count)
    return (slice(start, start + size) for start in range(0, count, size))


def _energy_blocks(net: Network, child: np.ndarray, ids: np.ndarray, params: ModelParams):
    """Energies of the trees given as child rows and ascending edge ids, in
    :func:`_blocks`: each block's ids and energies."""
    for block in _blocks(net, len(child)):
        yield ids[block], _tree_states(net, child[block], ids[block], params)[2]


def _tree_energy_blocks(net: Network, params: ModelParams):
    """Energies of all spanning trees in enumeration order, in blocks of
    ``STACK_ENTRIES`` / |V| trees: (T, |V|-1) ascending edge ids and the (T,)
    energies of those trees' local minimizers."""
    return _energy_blocks(net, *_lexicographic(_spanning_trees(net)), params)


def tree_local_minimizer(net: Network, tree: SpanningTree, params: ModelParams) -> TreeSolution:
    """Stationary tree-supported conductivities C_e = (Q_e^2 / nu)^(1/(gamma+1)).

    The construction works for any gamma > 0; for gamma < 1 the result is a
    local minimizer of the energy (gradient zero on its support, right
    derivative +inf on the remaining edges).  Tree edges with zero forced
    flux get zero conductivity, leaving their endpoints isolated in the
    support; that is harmless exactly when those vertices carry no source.
    """
    ids = np.array([tree.edge_ids], dtype=np.intp)
    child = np.array([_search(net, tree.edge_ids)[1][1:]], dtype=np.intp)
    fluxes, values, energies = _tree_states(net, child, ids, params)
    conductivities = Conductivities(np.bincount(ids[0], values[0], net.edge_count))
    return TreeSolution(tree, fluxes[0], conductivities, float(energies[0]))


def _tree_scores(net: Network, child: np.ndarray, params: ModelParams) -> np.ndarray:
    """sum_e L_e (Q_e^2)^(gamma/(gamma+1)) over each tree's edges, in child
    order.  A tree's energy is (1 + 1/gamma) nu^(1/(gamma+1)) times it: at
    C_e = (Q_e^2/nu)^(1/(gamma+1)) the pumping Q_e^2/C_e and the upkeep
    (nu/gamma) C_e^gamma per unit length are nu^(1/(gamma+1)) and
    nu^(1/(gamma+1))/gamma times (Q_e^2)^(gamma/(gamma+1))."""
    child = child.astype(np.intp)  # one cast, not one per gather
    flux = _subtree_sums(net, child)[1][:, 1:]
    return np.vecdot(net.lengths[child], (flux * flux) ** (params.gamma / (params.gamma + 1.0)))


def _shortest_path_tree(net: Network) -> np.ndarray:
    """The (1, |V|-1) child row of a shortest-path tree from vertex 0, by
    Dijkstra's algorithm."""
    adj, lengths = _search(net, range(net.edge_count))[2], net.lengths.tolist()
    dist, via, heap = [0.0] + [np.inf] * (net.vertex_count - 1), [0] * net.vertex_count, [(0.0, 0)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue  # x was reached more cheaply since
        for y, e in adj[x]:
            if d + lengths[e] < dist[y]:
                dist[y], via[y] = d + lengths[e], e
                heapq.heappush(heap, (dist[y], y))
    return np.array([via[1:]])


def global_tree_search(net: Network, params: ModelParams) -> TreeSolution:
    """Minimum-energy tree solution over all spanning trees; among trees of
    equal energy the first in enumeration order wins, which makes the result
    reproducible.

    Every tree is scored by :func:`_tree_scores` as its block is generated,
    and only the trees within ``SCORE_MARGIN`` (relative) of the lowest score
    so far are kept.  Those within it of the lowest score of all are ordered
    and evaluated exactly by :func:`_tree_states`, so the tree, its energy
    and its conductivities are those of an exact scan over all trees.  A
    zero score means zero flux on every edge (barring underflow) and an
    energy of exactly 0, so of those trees only the lexicographically first
    is kept.

    When every source but vertex 0's has one sign (zeros allowed), a
    subtree's flux only grows in magnitude as vertices hang below it, and
    the search is a branch and bound.  With a = gamma / (gamma + 1), a
    partial tree's score is at least the sum of L_e (M_v^2)^a over its hung
    vertices v, M_v the source sum below v when it hung, plus for each
    vertex w without a parent yet the length of its shortest edge times
    (M_w^2)^a, M_w the source sum of the fragment below w.  Partial trees
    whose bound exceeds the score of a shortest-path tree from vertex 0 by
    more than 2 ``SCORE_MARGIN`` (relative) are dropped; at gamma = 1 the
    score is sum_x |S_x| dist_T(x, 0), and that tree is optimal.  Other
    sources, enumeration and ``netforge trees`` visit every tree."""
    bound, rest = None, net.sources[1:]
    if np.all(rest >= 0.0) or np.all(rest <= 0.0):
        incumbent = _tree_scores(net, _shortest_path_tree(net), params)[0]
        # a tree within SCORE_MARGIN of the lowest score scores at most
        # 1 + SCORE_MARGIN times the incumbent, and its partial bounds are at
        # most its score; a computed bound and a computed score each lie within
        # about (n + 6) eps of exact, as SCORE_MARGIN's derivation counts, so
        # its computed bounds stay below 1 + 2 SCORE_MARGIN times the incumbent.
        # The incumbent scores 0 only when every source is 0, and so does every
        # bound, so then nothing can be pruned
        if incumbent > 0.0:
            bound = (params.gamma / (params.gamma + 1.0), incumbent * (1.0 + 2.0 * SCORE_MARGIN))
    kept, low = [], np.inf
    for child in _spanning_trees(net, bound):
        for block in _blocks(net, len(child)):
            scores = _tree_scores(net, child[block], params)
            low = min(low, scores.min())
            near = scores <= low * (1.0 + SCORE_MARGIN)
            rows, scores = child[block][near], scores[near]
            if low == 0.0 and len(rows) > 1:
                # copies, which let the block go
                rows, scores = _lexicographic([rows])[0][:1].copy(), scores[:1].copy()
            kept.append((rows, scores))
    child, scores = (np.concatenate(arrays) for arrays in zip(*kept))
    near = child[scores <= low * (1.0 + SCORE_MARGIN)]
    best_ids, best_energy = None, None
    for id_rows, energies in _energy_blocks(net, *_lexicographic([near]), params):
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

