"""Weighted graph Laplacians and their spectra.

The Fiedler number (algebraic connectivity) is the second smallest Laplacian
eigenvalue; it is positive exactly when the weighted support graph is
connected, and for any unit eigenvector v of that eigenvalue the per-edge
quantity (v_u - v_v)^2 is a generalized-gradient element of the Fiedler
number with respect to the edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dsyevr

from .errors import DisconnectedSupportError, IllConditionedError, NonSymmetricError, TooLargeError
from .graph import Network, assemble_laplacian, edge_values, support_components

#: absolute / relative floor of the eigenvalue gap that still counts as a
#: degenerate (multiple) Fiedler eigenvalue
GAP_TOL = 1e-8

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


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a convexity/concavity midpoint probe."""

    ok: bool
    worst_violation: float


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
    Raises IllConditionedError when ``dsyevr`` fails.
    """
    n = lap.shape[0]
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


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Flip the vector so its first nonzero component is positive."""
    lead = int(np.argmax(np.abs(vec) > 1e-12))
    return -vec if vec[lead] < 0 else vec


def spectral_decompose(mat) -> SpectralResult:
    """Eigendecomposition of a symmetric matrix with Fiedler bookkeeping.

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
    result = spectral_decompose(laplacian(net, values))
    dv = result.fiedler_vector[net.edge_u] - result.fiedler_vector[net.edge_v]
    return dv * dv


def fiedler_concavity_probe(net: Network, C1, C2, samples: int = 9) -> ProbeResult:
    """Midpoint-style concavity check of the Fiedler number along a segment.

    Evaluates f(a*C1 + (1-a)*C2) >= a*f(C1) + (1-a)*f(C2) - 1e-9 at
    ``samples`` interior values of a and reports the worst violation.
    """
    c1 = edge_values(net, C1)
    c2 = edge_values(net, C2)
    f1 = spectral_decompose(laplacian(net, c1)).fiedler
    f2 = spectral_decompose(laplacian(net, c2)).fiedler
    worst = -np.inf
    for alpha in np.linspace(0.0, 1.0, samples + 2)[1:-1]:
        mix = alpha * c1 + (1.0 - alpha) * c2
        fmix = spectral_decompose(laplacian(net, mix)).fiedler
        worst = max(worst, alpha * f1 + (1.0 - alpha) * f2 - fmix)
    return ProbeResult(ok=worst <= 1e-9, worst_violation=float(worst))


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
