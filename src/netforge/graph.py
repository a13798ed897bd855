"""Immutable network description and the per-edge conductivity state.

A network is an undirected connected graph with positive edge lengths and a
balanced source/sink vector.  Conductivities are stored as one nonnegative
value per edge (canonical order), which makes symmetry and the support
structure of the conductivity matrix automatic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    NonFiniteError,
    NonpositiveLengthError,
    SelfLoopError,
    UnbalancedSourcesError,
)

#: relative tolerance on global mass balance, scaled by max|S|
BALANCE_RTOL = 1e-12

#: default relative cutoff below which an edge counts as removed
ACTIVE_EDGE_THRESHOLD = 1e-8


@dataclass(frozen=True, eq=False)
class Network:
    """Undirected connected graph with lengths, sources and optional 2D layout.

    Instances are immutable after construction and safe to share between
    threads.  Use :func:`new_network` to build one; the constructor arguments
    here are assumed already validated and canonically ordered.
    """

    vertex_count: int
    edges: tuple  # ((u, v, length), ...) with u < v, sorted by (u, v)
    sources: np.ndarray
    positions: Optional[np.ndarray]
    # derived indexes (built by new_network)
    edge_u: np.ndarray = field(repr=False, default=None)
    edge_v: np.ndarray = field(repr=False, default=None)
    lengths: np.ndarray = field(repr=False, default=None)
    # flat (row-major n x n) Laplacian positions of each edge's (u,u), (v,v),
    # (u,v) and (v,u) entries, edge after edge, and each entry's edge id and
    # sign
    laplacian_index: np.ndarray = field(repr=False, default=None)
    laplacian_edge: np.ndarray = field(repr=False, default=None)
    laplacian_sign: np.ndarray = field(repr=False, default=None)
    edge_index: dict = field(repr=False, default=None)
    # reverse Cuthill-McKee order of the vertices (band position -> vertex),
    # its inverse (vertex -> band position), the sources in that order, the
    # half-bandwidth b of the Laplacian in that order, and the flat positions
    # in the column-major (b+1) x n lower band storage of each edge's (u,u),
    # (v,v) and off-diagonal entries, edge after edge, with each entry's
    # edge id and sign
    band_order: np.ndarray = field(repr=False, default=None)
    band_rank: np.ndarray = field(repr=False, default=None)
    band_sources: np.ndarray = field(repr=False, default=None)
    bandwidth: int = field(repr=False, default=0)
    band_index: np.ndarray = field(repr=False, default=None)
    band_edge: np.ndarray = field(repr=False, default=None)
    band_sign: np.ndarray = field(repr=False, default=None)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def min_length(self) -> float:
        return float(self.lengths.min()) if self.edge_count else float("inf")

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        if self.vertex_count != other.vertex_count or self.edges != other.edges:
            return False
        if not np.array_equal(self.sources, other.sources):
            return False
        if (self.positions is None) != (other.positions is None):
            return False
        if self.positions is not None and not np.array_equal(
            self.positions, other.positions
        ):
            return False
        return True

    __hash__ = None


@dataclass(frozen=True)
class Conductivities:
    """Nonnegative per-edge conductivity vector in canonical edge order."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("conductivity values must form a 1D vector")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("conductivities must be finite and nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ModelParams:
    """Transport-energy parameters.

    gamma
        Metabolic exponent (> 0, finite).  The robustness-aware optimizer additionally
        requires ``gamma == 1`` because the augmented functional is unbounded
        from below for ``gamma < 1`` with positive robustness weight.
    nu
        Metabolic coefficient (> 0, finite).
    mu
        Robustness weight on the Fiedler number (>= 0, finite).
    """

    gamma: float
    nu: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "nu", "mu"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if not 0 < self.nu < math.inf:
            raise ValueError("nu must be positive and finite")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be nonnegative and finite")


def require_integer(name: str, value) -> int:
    """``value`` as an int; ValueError for bools and values that are not
    ``numbers.Integral`` (numpy integers are)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _union_find(vertex_count: int, pairs: Iterable):
    """Union-find forest of the graph on ``vertex_count`` vertices with the
    given (u, v) edge pairs: its ``find`` and the number of components.  The
    root of each component is its smallest vertex."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    count = vertex_count
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
            count -= 1
    return find, count


def component_count(vertex_count: int, pairs: Iterable) -> int:
    """Number of connected components of the graph on ``vertex_count``
    vertices with the given (u, v) edge pairs."""
    return _union_find(vertex_count, pairs)[1]


def new_network(
    vertex_count: int,
    edges: Sequence,
    sources,
    positions=None,
) -> Network:
    """Validate and build a :class:`Network`.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, at least 1 (a bool or a non-integral value
        raises ValueError); vertex ids are 0 .. vertex_count-1.
    edges : sequence of (u, v) or (u, v, length)
        Undirected edges.  A missing length defaults to 1.0.  Edges are
        canonicalized to u < v and sorted by (u, v).
    sources : array_like
        Source/sink intensity per vertex; must sum to zero within
        ``BALANCE_RTOL * max|S|``.
    positions : array_like of shape (vertex_count, 2), optional
        Plot-only finite 2D coordinates; they never influence any computation.

    Raises
    ------
    SelfLoopError, DuplicateEdgeError, NonpositiveLengthError, NonFiniteError,
    UnbalancedSourcesError, DisconnectedGraphError
    """
    vertex_count = require_integer("vertex_count", vertex_count)
    if vertex_count < 1:
        raise ValueError("vertex_count must be positive")

    canonical = []
    for e in edges:
        if len(e) == 2:
            u, v = e
            length = 1.0
        else:
            u, v, length = e
        u, v, length = int(u), int(v), float(length)
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) references a missing vertex")
        if u > v:
            u, v = v, u
        if not math.isfinite(length):
            raise NonFiniteError(f"edge ({u}, {v}) has length {length}")
        if not length > 0.0:
            raise NonpositiveLengthError(f"edge ({u}, {v}) has length {length}")
        canonical.append((u, v, length))
    canonical.sort()
    for (u1, v1, _), (u2, v2, _) in zip(canonical, canonical[1:]):
        if (u1, v1) == (u2, v2):
            raise DuplicateEdgeError(f"duplicate edge ({u1}, {v1})")

    sources = np.ascontiguousarray(sources, dtype=float)
    if sources.shape != (vertex_count,):
        raise ValueError("sources must have one entry per vertex")
    if not np.all(np.isfinite(sources)):
        raise NonFiniteError("sources must be finite")
    scale = np.abs(sources).max() if sources.size else 0.0
    if abs(sources.sum()) > BALANCE_RTOL * scale:
        raise UnbalancedSourcesError(
            f"sources sum to {sources.sum()!r}, expected 0"
        )

    if positions is not None:
        positions = np.ascontiguousarray(positions, dtype=float)
        if positions.shape != (vertex_count, 2):
            raise ValueError("positions must have shape (vertex_count, 2)")
        if not np.all(np.isfinite(positions)):
            raise NonFiniteError("positions must be finite")
        positions.flags.writeable = False

    comps = component_count(vertex_count, [(u, v) for u, v, _ in canonical])
    if comps != 1:
        raise DisconnectedGraphError(
            f"graph has {comps} connected components"
        )

    edge_u = np.asarray([u for u, _, _ in canonical], dtype=np.intp)
    edge_v = np.asarray([v for _, v, _ in canonical], dtype=np.intp)
    lengths = np.asarray([l for _, _, l in canonical], dtype=float)
    n = vertex_count
    laplacian_index = np.column_stack(
        [edge_u * n + edge_u, edge_v * n + edge_v, edge_u * n + edge_v, edge_v * n + edge_u]
    ).ravel()

    pattern = csr_array(
        (np.ones(2 * edge_u.size), (np.r_[edge_u, edge_v], np.r_[edge_v, edge_u])), shape=(n, n)
    )
    band_order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
    band_rank = np.empty(n, dtype=np.intp)
    band_rank[band_order] = np.arange(n)
    rank_u, rank_v = band_rank[edge_u], band_rank[edge_v]
    low, offset = np.minimum(rank_u, rank_v), np.abs(rank_u - rank_v)
    bandwidth = int(offset.max(initial=0))
    rows = bandwidth + 1
    band_index = np.column_stack([rank_u * rows, rank_v * rows, low * rows + offset]).ravel()
    band_sources = sources[band_order]

    # the edge id and sign of every scatter entry, in index order
    edge_ids = np.arange(edge_u.size)
    laplacian_edge, band_edge = np.repeat(edge_ids, 4), np.repeat(edge_ids, 3)
    laplacian_sign = np.tile([1.0, 1.0, -1.0, -1.0], edge_u.size)
    band_sign = np.tile([1.0, 1.0, -1.0], edge_u.size)

    for arr in (
        sources, edge_u, edge_v, lengths, laplacian_index, laplacian_edge, laplacian_sign,
        band_order, band_rank, band_sources, band_index, band_edge, band_sign,
    ):
        arr.flags.writeable = False

    edge_index = {(u, v): eid for eid, (u, v, _) in enumerate(canonical)}

    return Network(
        vertex_count=vertex_count,
        edges=tuple(canonical),
        sources=sources,
        positions=positions,
        edge_u=edge_u,
        edge_v=edge_v,
        lengths=lengths,
        laplacian_index=laplacian_index,
        laplacian_edge=laplacian_edge,
        laplacian_sign=laplacian_sign,
        edge_index=edge_index,
        band_order=band_order,
        band_rank=band_rank,
        band_sources=band_sources,
        bandwidth=bandwidth,
        band_index=band_index,
        band_edge=band_edge,
        band_sign=band_sign,
    )


def edge_values(net: Network, C) -> np.ndarray:
    """Coerce ``C`` (a :class:`Conductivities` or array_like) to a validated
    per-edge float vector for ``net``."""
    values = C.values if isinstance(C, Conductivities) else np.asarray(C, dtype=float)
    if values.shape != (net.edge_count,):
        raise ValueError(
            f"expected {net.edge_count} conductivities, got shape {values.shape}"
        )
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("conductivities must be finite and nonnegative")
    return values


def assemble_laplacian(net: Network, weights: np.ndarray) -> np.ndarray:
    """Dense Laplacian D - W of the per-edge ``weights`` (not validated).

    Every entry adds its edges' weights in ascending edge order, so the
    result is independent of BLAS blocking and thread count.
    """
    n = net.vertex_count
    flat = weights[net.laplacian_edge] * net.laplacian_sign
    # bincount of no entries is int64 whatever the weights
    return np.bincount(net.laplacian_index, flat, n * n).astype(float, copy=False).reshape(n, n)


def assemble_band_laplacian(net: Network, weights: np.ndarray) -> np.ndarray:
    """Lower band storage of the Laplacian of the per-edge ``weights`` (not
    validated) in band order: a Fortran-ordered (bandwidth + 1, n) array whose
    entry [k, j] is the Laplacian entry of band positions (j + k, j).

    Entries add their edges' weights in ascending edge order, as in
    :func:`assemble_laplacian`, so the band equals the permuted dense
    Laplacian bit for bit.
    """
    rows = net.bandwidth + 1
    flat = weights[net.band_edge] * net.band_sign
    band = np.bincount(net.band_index, flat, net.vertex_count * rows).astype(float, copy=False)
    return band.reshape(-1, rows).T


def active_cutoff(values: np.ndarray, threshold: float = ACTIVE_EDGE_THRESHOLD) -> float:
    """``threshold * max(max(values), 1)``: an edge whose conductivity exceeds
    it counts as active.

    The cutoff is relative to the largest conductivity so that a uniform
    rescaling of C does not change which edges count as present, while
    all-small vectors fall back to an absolute cutoff of ``threshold``.
    Raises ValueError unless ``threshold`` is a number >= 0 (NaN is not).
    """
    if not threshold >= 0:
        raise ValueError("threshold must be a number >= 0")
    return threshold * max(float(values.max(initial=0.0)), 1.0)


def active_edges(net: Network, C, threshold: float = ACTIVE_EDGE_THRESHOLD) -> np.ndarray:
    """Ascending ids of the edges whose conductivity exceeds
    :func:`active_cutoff`; a larger threshold never yields edges the
    smaller one missed."""
    values = edge_values(net, C)
    return np.flatnonzero(values > active_cutoff(values, threshold))


def support_components(net: Network, C) -> list:
    """Connected components of the support graph (edges with C > 0), as
    sorted vertex-index arrays ordered by their smallest vertex."""
    values = edge_values(net, C)
    pairs = zip(net.edge_u[values > 0.0].tolist(), net.edge_v[values > 0.0].tolist())
    find, _ = _union_find(net.vertex_count, pairs)
    groups = {}
    for i in range(net.vertex_count):
        groups.setdefault(find(i), []).append(i)
    return [np.asarray(groups[r], dtype=int) for r in sorted(groups)]
