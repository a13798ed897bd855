"""Shared test helpers: fixed and seeded random networks, finite-difference oracles."""

import numpy as np

import netforge as nf

LINEAR = nf.ModelParams(gamma=1.0, nu=1.0)


def triangle(sources=(1.0, -1.0, 0.0)):
    return nf.new_network(3, [(0, 1), (0, 2), (1, 2)], sources)


def single_edge():
    return nf.new_network(2, [(0, 1)], [1.0, -1.0])


def pendant():
    """Five vertices, unit source at 0 and sink at 2; the support disconnects
    while the optimizer runs on it at mu = 0 and mu = 0.5."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 0.5), (3, 4, 0.7), (0, 3, 2.0)]
    return nf.new_network(5, edges, [1.0, 0.0, -1.0, 0.0, 0.0])


def random_connected_network(
    rng,
    n_min=3,
    n_max=8,
    extra_prob=0.4,
    unit_lengths=False,
):
    """Random connected network: a random spanning tree over a shuffled vertex
    order plus independent extra edges, balanced uniform sources."""
    n = int(rng.integers(n_min, n_max + 1))
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u = int(order[int(rng.integers(0, i))])
        v = int(order[i])
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_prob:
                edges.add((u, v))
    sources = rng.uniform(-1.0, 1.0, n)
    sources -= sources.mean()
    if unit_lengths:
        edge_list = [(u, v, 1.0) for u, v in sorted(edges)]
    else:
        edge_list = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(edges)]
    return nf.new_network(n, edge_list, sources)


def random_conductivities(rng, net, low=0.2, high=1.5):
    """Strictly positive conductivities (connected support)."""
    return rng.uniform(low, high, net.edge_count)


def random_spanning_tree_ids(rng, net):
    """Edge ids of a uniform-ish random spanning tree (randomized Kruskal)."""
    ids = rng.permutation(net.edge_count)
    parent = list(range(net.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for eid in ids:
        ru = find(int(net.edge_u[eid]))
        rv = find(int(net.edge_v[eid]))
        if ru != rv:
            parent[ru] = rv
            chosen.append(int(eid))
    return chosen


def central_difference(f, x, step):
    """Per-coordinate central finite differences; ``step`` is a scalar or a
    per-coordinate array."""
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(step, dtype=float), x.shape)
    grad = np.zeros(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        grad[i] = (f(xp) - f(xm)) / (2.0 * h[i])
    return grad
