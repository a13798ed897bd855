"""Built-in benchmark networks: a 7-vertex complete instance with fixed
planar layout, and generated leaf-shaped triangulations."""

from __future__ import annotations

from itertools import combinations
from math import pi, sin

import numpy as np

from .graph import Network, new_network

#: (x, y, source) per vertex of the 7-vertex benchmark.  The printed sources
#: sum to zero only up to their three decimals; the constructor below spreads
#: the tiny residual evenly so the balance holds to machine precision.
SEVEN_NODE_TABLE = (
    (0.100, 0.000, 0.164),
    (0.874, -0.104, 0.794),
    (0.581, 0.790, -0.128),
    (-0.043, 1.0547, 0.936),
    (-0.945, 0.371, -0.299),
    (-0.818, -0.161, 0.750),
    (-0.206, -1.023, -2.217),
)


def seven_node_network() -> Network:
    """Complete graph on the 7 fixed vertices, Euclidean edge lengths."""
    positions = np.array([(x, y) for x, y, _ in SEVEN_NODE_TABLE])
    sources = np.array([s for _, _, s in SEVEN_NODE_TABLE])
    sources = sources - sources.sum() / sources.size
    edges = []
    for u, v in combinations(range(7), 2):
        length = float(np.hypot(*(positions[u] - positions[v])))
        edges.append((u, v, length))
    return new_network(7, edges, sources, positions)


def _leaf_half_width(x: float) -> float:
    """Half width of the leaf outline over the midrib x in [0, 1]."""
    return 0.35 * sin(pi * min(max(x, 0.0), 1.0))


def leaf_network(nodes: int = 40, seed: int = 0) -> Network:
    """Leaf-shaped planar triangulation with a single unit source at the stem.

    The outline is a lens (concave half-width profile, hence a convex region,
    so its Delaunay triangulation stays inside).  Roughly 45% of the nodes sit
    on the outline, the rest are sampled inside it with the given seed.  The
    leftmost node (the stem tip at the origin) carries source +1; every other
    node is a uniform sink of -1/(nodes-1), with the source adjusted by the
    float rounding residual so the balance is exact.
    """
    if nodes < 8:
        raise ValueError("a leaf triangulation needs at least 8 nodes")
    from scipy.spatial import Delaunay  # loaded with the first leaf, not with netforge

    n_boundary = max(8, round(0.45 * nodes))
    n_top = (n_boundary - 2 + 1) // 2
    n_bottom = n_boundary - 2 - n_top

    points = [(0.0, 0.0), (1.0, 0.0)]
    for x in np.linspace(0.0, 1.0, n_top + 2)[1:-1]:
        points.append((float(x), _leaf_half_width(x)))
    for x in np.linspace(0.0, 1.0, n_bottom + 2)[1:-1]:
        points.append((float(x), -_leaf_half_width(x)))

    rng = np.random.default_rng(seed)
    interior = nodes - len(points)
    while interior > 0:
        x = rng.uniform(0.03, 0.97)
        y = rng.uniform(-0.35, 0.35)
        if abs(y) < 0.82 * _leaf_half_width(x):
            points.append((float(x), float(y)))
            interior -= 1

    positions = np.asarray(points)
    triangulation = Delaunay(positions)
    edges = set()
    for simplex in triangulation.simplices:
        a, b, c = (int(s) for s in simplex)
        edges.update({(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))})

    stem = int(np.lexsort((positions[:, 1], positions[:, 0]))[0])
    sources = np.full(nodes, -1.0 / (nodes - 1))
    sources[stem] = 0.0
    sources[stem] = -sources.sum()

    edge_list = [
        (u, v, float(np.hypot(*(positions[u] - positions[v])))) for u, v in sorted(edges)
    ]
    return new_network(nodes, edge_list, sources, positions)
