"""Weighted graph Laplacians and their spectra.

The Fiedler number (algebraic connectivity) is the second smallest Laplacian
eigenvalue; it is positive exactly when the weighted support graph is
connected, and for any unit eigenvector v of that eigenvalue the per-edge
quantity (v_u - v_v)^2 is a generalized-gradient element of the Fiedler
number with respect to the edge weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbtrf, dpbtrs, dsyevr

from .errors import DisconnectedSupportError, IllConditionedError, NonSymmetricError, TooLargeError
from .graph import Network, assemble_band_laplacian, assemble_laplacian, edge_values, support_components

#: absolute / relative floor of the eigenvalue gap that still counts as a
#: degenerate (multiple) Fiedler eigenvalue
GAP_TOL = 1e-8

#: relative margin of the warm Fiedler solve (:func:`_warm_fiedler`): its
#: shift lies this fraction below the previous Fiedler vector's Rayleigh
#: quotient, its inertia certificate this fraction below the Ritz value, and
#: a larger Ritz residual or Cholesky resolution refuses the answer
WARM_MARGIN = 1e-3

#: the warm solve stops once the Ritz residual is below this fraction of the
#: Ritz value, or after WARM_STEPS shift-invert steps
WARM_RTOL = 1e-6
WARM_STEPS = 3

#: brute-force Cheeger search refuses graphs above this vertex count
CHEEGER_MAX_VERTICES = 16


@dataclass(frozen=True)
class SpectralResult:
    """Full symmetric eigendecomposition with Fiedler-number bookkeeping.

    eigenvalues are sorted ascending; ``fiedler`` is eigenvalues[1];
    ``fiedler_vector`` is a unit vector of the corresponding eigenspace,
    orthogonal to the all-ones vector, with a deterministic sign (first
    nonzero component positive); ``multiplicity`` counts the eigenvalues
    (index >= 1) within the gap tolerance of the Fiedler value.
    """

    eigenvalues: np.ndarray
    fiedler: float
    fiedler_vector: np.ndarray
    multiplicity: int
    simple: bool
    eigenvectors: np.ndarray = field(repr=False, default=None)


def laplacian(net: Network, C, use_lengths: bool = False) -> np.ndarray:
    """Dense matrix Laplacian D - W of the weighted adjacency.

    With ``use_lengths`` the weights are C_e / L_e (the operator of the
    flow-conservation linear system, bit for bit); without, the raw
    conductivities (the operator whose second eigenvalue the robustness term
    rewards).
    """
    values = edge_values(net, C)
    if use_lengths:
        values = values * (1.0 / net.lengths)
    return assemble_laplacian(net, values)


def gap_tolerance(fiedler: float) -> float:
    """Eigenvalue distance from the Fiedler value that still counts as equal."""
    return max(GAP_TOL, GAP_TOL * abs(fiedler))


def _low_spectrum(lap: np.ndarray):
    """The lowest eigenvalues of a symmetric matrix, ascending, and their unit
    eigenvectors as columns, from LAPACK's MRRR driver ``dsyevr``.

    The window holds indices 0..3 (all of them below n = 4) and doubles until
    its last eigenvalue lies beyond the gap tolerance of the Fiedler value or
    it covers all n, so every eigenvalue equal to the Fiedler value is in it.
    Raises ValueError below 2 x 2, where a second eigenvalue does not exist,
    and IllConditionedError when ``dsyevr`` fails.
    """
    n = lap.shape[0]
    if n < 2:
        raise ValueError("need at least two vertices for a Fiedler value")
    count = min(n, 4)
    while True:
        w, V, _, _, info = dsyevr(lap, range="I", iu=count)
        if info != 0:
            raise IllConditionedError(f"dsyevr failed with info = {info}")
        w = w[:count]
        if count == n or w[-1] - w[1] > gap_tolerance(w[1]):
            return w, V
        count = min(n, 2 * count)


def fiedler_pair(w: np.ndarray, V: np.ndarray):
    """Fiedler value, deterministic eigenvector and multiplicity from the low
    end of a sorted eigendecomposition (w ascending, V columns matching; a
    window such as :func:`_low_spectrum`'s that holds every eigenvalue equal
    to the Fiedler value, or the full spectrum).

    The vector is taken from the Fiedler eigenspace and orthogonalized
    against the all-ones vector; for a connected graph this is the solver's
    eigenvector unchanged (up to sign).  Orthogonality to ones matters at
    disconnected points, where the trivial eigenvalue is degenerate with the
    Fiedler value and the raw solver basis may mix in the constant vector.
    """
    n = V.shape[0]
    fiedler = float(w[1])
    tol = gap_tolerance(fiedler)
    multiplicity = int(np.count_nonzero(np.abs(w[1:] - fiedler) <= tol))

    vec = V[:, 1] - V[:, 1].sum() / n
    norm2 = vec @ vec
    if norm2 > 1e-16:
        vec = vec / np.sqrt(norm2)
    else:
        # the first basis vector collapsed onto the constant vector: walk the
        # rest of the eigenspace (including the trivial column if degenerate)
        block = [k for k in range(2, w.size) if abs(w[k] - fiedler) <= tol]
        if abs(w[0] - fiedler) <= tol:
            block.append(0)
        vec = V[:, 1].copy()
        for k in block:
            candidate = V[:, k] - V[:, k].sum() / n
            norm = np.linalg.norm(candidate)
            if norm > 1e-8:
                vec = candidate / norm
                break
    return fiedler, vec, multiplicity


def _path_cholesky(band: np.ndarray, shift: float):
    """Banded Cholesky factor of Q^T (L - shift I) Q, or None when that
    matrix is not positive definite.

    ``band`` is the lower band of L in band order (as from
    :func:`graph.assemble_band_laplacian`) and Q the n x (n-1) path basis
    e_j - e_{j+1} of the complement of the all-ones vector, so the product is
    a band one wider.  Q spans an invariant subspace of L, so by Sylvester's
    law of inertia the factorization succeeds exactly when every eigenvalue
    of L off the constant mode lies above ``shift``.
    """
    rows, n = band.shape
    # P[j, k + 1] = L[j + k, j] - shift [k = 0]; column 0 holds L[j - 1, j],
    # the upper neighbour the product needs on its diagonal
    P = np.zeros((n, rows + 3))
    P[:, 1 : rows + 1] = band.T
    P[:, 1] -= shift
    P[1:, 0] = band[1, :-1]
    product = P[:-1, 1:-1] + P[1:, 1:-1] - P[:-1, 2:] - P[1:, :-2]
    factor, info = dpbtrf(product.T, lower=1, overwrite_ab=1)
    return None if info else factor


def _warm_fiedler(net: Network, C: np.ndarray, block: np.ndarray):
    """The Fiedler value of the raw-conductivity Laplacian L of ``C`` and a new
    block, from the previous iterate's block, or None when the warm solve
    cannot certify its answer.

    ``block`` holds two orthonormal vectors orthogonal to the all-ones vector,
    in band order, the first the previous Fiedler vector v.  The shift
    sigma sits ``WARM_MARGIN`` below the Rayleigh quotient sum_e C_e (v_u -
    v_v)^2, an upper bound on the new Fiedler value; a successful factor at
    sigma proves no eigenvalue lies below it (:func:`_path_cholesky`).  Up to
    ``WARM_STEPS`` shift-invert steps y = Q (Q^T (L - sigma I) Q)^-1 Q^T x on
    the block, each followed by a 2 x 2 Rayleigh-Ritz step built from edge
    differences, run until the Ritz residual |L x - theta x| falls below
    ``WARM_RTOL`` theta.  The answer is refused when that residual still
    exceeds ``WARM_MARGIN`` theta, when theta (1 - ``WARM_MARGIN``) lies above
    sigma and a factor there fails (the inertia certificate), or when the
    Cholesky's resolution at this size reaches ``WARM_MARGIN`` theta.  The new
    block holds the two Ritz vectors, the Fiedler vector first.
    """
    ru, rv = net.band_rank[net.edge_u], net.band_rank[net.edge_v]
    band = assemble_band_laplacian(net, C)
    dv = block[0, ru] - block[0, rv]
    sigma = float(C @ (dv * dv)) * (1.0 - WARM_MARGIN)
    factor = _path_cholesky(band, sigma)
    if factor is None:
        return None

    Y = block
    for _ in range(WARM_STEPS):
        z = dpbtrs(factor, (Y[:, :-1] - Y[:, 1:]).T, lower=1)[0].T
        Y = np.zeros_like(Y)
        Y[:, :-1] = z
        Y[:, 1:] -= z
        _orthonormalize(Y)
        D = Y[:, ru] - Y[:, rv]
        (a, b), (_, c) = (D * C) @ D.T
        # the Jacobi rotation that diagonalizes [[a, b], [b, c]]
        t = 0.0
        if b != 0.0:
            h = (c - a) / (2.0 * b)
            t = math.copysign(1.0, h) / (abs(h) + math.hypot(h, 1.0))
        cs = 1.0 / math.hypot(t, 1.0)
        sn = t * cs
        rotated = np.array([[cs, -sn], [sn, cs]]) @ Y
        fiedler, other = a - t * b, c + t * b
        if other < fiedler:
            fiedler, rotated = other, rotated[::-1]
        Y = rotated
        x = Y[0]
        residual = np.linalg.norm(dsbmv(net.bandwidth, 1.0, band, x, lower=1) - fiedler * x)
        if residual <= WARM_RTOL * fiedler:
            break

    # normwise backward error of the banded Cholesky, about (b + 2) eps |A|
    # with |A| <= |Q|^2 |L| <= 8 max(diag L), seen through the smallest
    # eigenvalue 4 sin^2(pi / 2n) of Q^T Q
    n = net.vertex_count
    eps = np.finfo(float).eps
    resolution = 2.0 * (net.bandwidth + 2) * eps * band[0].max() / math.sin(math.pi / (2 * n)) ** 2
    if not (residual <= WARM_MARGIN * fiedler and resolution <= WARM_MARGIN * fiedler):
        return None
    certified = fiedler * (1.0 - WARM_MARGIN)
    if certified > sigma and _path_cholesky(band, certified) is None:
        return None
    return fiedler, Y


def _orthonormalize(Y: np.ndarray) -> np.ndarray:
    """Make the two rows of Y orthonormal in place, the first keeping its
    direction.  Gram-Schmidt runs twice, which keeps the second row
    orthogonal to the first even when the two are nearly parallel."""
    Y[0] /= np.linalg.norm(Y[0])
    Y[1] -= (Y[0] @ Y[1]) * Y[0]
    Y[1] -= (Y[0] @ Y[1]) * Y[0]
    Y[1] /= np.linalg.norm(Y[1])
    return Y


def _warm_block(net: Network, vec: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The block :func:`_warm_fiedler` starts from, built from a low-spectrum
    window: the Fiedler vector ``vec`` and the window's third eigenvector
    orthonormalized against it and the all-ones vector, as rows in band
    order."""
    return _orthonormalize(np.stack([vec, V[:, 2] - V[:, 2].mean()])[:, net.band_order])


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Flip the vector so its first nonzero component is positive."""
    lead = int(np.argmax(np.abs(vec) > 1e-12))
    return -vec if vec[lead] < 0 else vec


def spectral_decompose(mat) -> SpectralResult:
    """Eigendecomposition of a symmetric matrix with Fiedler bookkeeping, the
    public full-spectrum call; library code reads :func:`_low_spectrum`.

    Raises NonSymmetricError when the input is not symmetric (within
    1e-12 relative) and ValueError for matrices smaller than 2x2, where a
    second eigenvalue does not exist, and for non-finite entries.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if mat.shape[0] < 2:
        raise ValueError("need at least two vertices for a Fiedler value")
    peak = np.abs(mat).max()  # NaN or inf when an entry is
    if not np.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, peak)
    if np.abs(mat - mat.T).max() > 1e-12 * scale:
        raise NonSymmetricError("matrix is not symmetric")

    w, V = np.linalg.eigh(mat)
    fiedler, vec, multiplicity = fiedler_pair(w, V)
    return SpectralResult(
        eigenvalues=w,
        fiedler=fiedler,
        fiedler_vector=_fix_sign(vec),
        multiplicity=multiplicity,
        simple=multiplicity == 1,
        eigenvectors=V,
    )


def fiedler_subgradient(net: Network, C) -> np.ndarray:
    """Per-edge entries (v_u - v_v)^2 of a generalized-gradient element of the
    Fiedler number at C.

    Valid for any multiplicity of the Fiedler eigenvalue, but only where the
    support graph is connected; a disconnected support has Fiedler value 0
    and the eigenspace construction breaks down, so it is refused.
    """
    values = edge_values(net, C)
    if len(support_components(net, values)) != 1:
        raise DisconnectedSupportError(
            "Fiedler subgradient requires a connected conductivity support"
        )
    vec = fiedler_pair(*_low_spectrum(laplacian(net, values)))[1]
    dv = vec[net.edge_u] - vec[net.edge_v]
    return dv * dv


def cheeger_bruteforce(net: Network, C=None) -> float:
    """Cheeger constant of the (unweighted) support graph by enumeration.

    Minimizes boundary-edge count over |W| for every nonempty vertex subset
    W with |W| <= |V|/2.  Exponential in |V|; refuses |V| > 16.  With
    ``C=None`` every edge of the network counts as present, otherwise the
    support is the set of edges with positive conductivity.
    """
    n = net.vertex_count
    if n > CHEEGER_MAX_VERTICES:
        raise TooLargeError(f"brute-force Cheeger limited to |V| <= {CHEEGER_MAX_VERTICES}")
    if n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")

    if C is None:
        present = np.ones(net.edge_count, dtype=bool)
    else:
        present = edge_values(net, C) > 0.0

    masks = np.arange(1, 1 << n, dtype=np.uint32)
    sizes = np.bitwise_count(masks)
    keep = sizes <= n // 2
    masks, sizes = masks[keep], sizes[keep]

    boundary = np.zeros(masks.size, dtype=np.uint32)
    for u, v in zip(net.edge_u[present].tolist(), net.edge_v[present].tolist()):
        boundary += ((masks >> u) ^ (masks >> v)) & 1
    return float((boundary / sizes).min())
