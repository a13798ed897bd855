"""Projected subgradient minimization of the robustness-augmented energy.

With the linear metabolic cost the transport energy is convex and the Fiedler
number of the conductivity-weighted Laplacian is concave, so

    F[C] = E[C] - mu * lmin * (|V| - 1) / 2 * fiedler[C]

is convex but generally nonsmooth (eigenvalue crossings).  The minimizer is a
projected subgradient method: diminishing steps tau_0 / sqrt(k), entrywise
clamping at zero, and best-iterate tracking, since subgradient steps do not
monotonically descend.  Iterates that leave the solvable set (or make the
flow solve ill-conditioned) trigger a restart from the best feasible iterate
with a reduced tau_0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .energy import energy, kinetic_energy, metabolic_energy
from .errors import DisconnectedSupportError, IllConditionedError
from .graph import (
    Conductivities,
    ModelParams,
    Network,
    active_cutoff,
    assemble_laplacian,
    edge_values,
    require_integer,
    support_components,
)
from .kirchhoff import solve_kirchhoff, solve_pressures
from .spectral import _low_spectrum, _warm_block, _warm_fiedler, fiedler_pair, laplacian

MAX_RESTARTS = 10

#: factor applied to tau0 on every restart
RESTART_SHRINK = 0.5

#: mu > 0 runs on networks with at least this many vertices take the Fiedler
#: pair of most iterates from the warm banded solve (spectral._warm_fiedler);
#: below it the dense low-spectrum window is cheaper
WARM_MIN_VERTICES = 50

#: from the WARM_BACKOFF-th warm solve refused in a row on, the next attempt
#: waits 1, 2, 4, ... iterates: O(log K) attempts in a run that refuses all
WARM_BACKOFF = 3

#: the run counts as diverged once max(C) exceeds this times the initial scale
DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class OptimConfig:
    """Knobs of one optimizer run.

    tau0
        Initial step scale; the step at (per-restart) index k is tau0/sqrt(k).
    iters
        Total iteration budget K (shared across restarts); iterates
        0 .. K are evaluated.
    seed
        Seed of the uniform(0, 1) conductivity initialization.
    trace_stride
        A trace record is stored every this many iterations, at the final
        iterate and at the best one: at most iters // trace_stride + 3.
    """

    tau0: float = 0.1
    iters: int = 100_000
    seed: int = 0
    trace_stride: int = 1000

    def __post_init__(self):
        tau0 = self.tau0
        if isinstance(tau0, bool) or not isinstance(tau0, numbers.Real) or not 0 < tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
        for name in ("iters", "seed", "trace_stride"):
            require_integer(name, getattr(self, name))
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")


@dataclass(frozen=True)
class TraceRecord:
    """One evaluated iterate: objective values, spectral summary and step.

    ``fiedler``, ``lambda2`` and ``lambda3`` are eigenvalues 1, 2 and 3 of the
    raw-conductivity Laplacian, read from its low-spectrum window (NaN where
    the graph has too few vertices); ``multiplicity`` counts the eigenvalues
    within the gap tolerance of the Fiedler value.  ``active_edges`` counts
    the edges above :func:`graph.active_cutoff`.  Its fields are the report
    columns: trace rows carry all of them, sweep summary rows all but ``k``
    and ``tau`` (``io.SUMMARY_FIELDS``).
    """

    k: int
    F: float
    E: float
    E_kin: float
    E_met: float
    fiedler: float
    lambda2: float
    lambda3: float
    multiplicity: int
    active_edges: int
    tau: float


RECORD_FIELDS = tuple(f.name for f in fields(TraceRecord))


@dataclass
class OptimRun:
    """Result of :func:`optimize`: best iterate, its F (``best_record.F``),
    its record, the trace, the termination status ('completed',
    'restarted_then_completed', 'diverged', or 'gave_up' after more than
    ``MAX_RESTARTS`` restarts) and the ``params`` and ``config`` the run was
    made with."""

    best_C: Conductivities
    best_F: float
    best_record: TraceRecord
    trace: list
    termination: str
    restarts: int
    params: ModelParams
    config: OptimConfig


def _require_linear_metabolic(params: ModelParams) -> None:
    if params.gamma != 1.0:
        raise ValueError(
            "the robustness-augmented functional requires gamma == 1 "
            "(it is unbounded below for gamma < 1 with mu > 0)"
        )


def robustness_coefficient(net: Network, params: ModelParams) -> float:
    """Weight mu * lmin * (|V| - 1) / 2 multiplying the Fiedler number; 0 at
    mu = 0, also on edgeless networks, whose lmin is infinite.  Raises
    ValueError at mu != 0 below two vertices, which have no Fiedler value."""
    if params.mu == 0.0:
        return 0.0
    if net.vertex_count < 2:
        raise ValueError("need at least two vertices for a Fiedler value")
    return params.mu * net.min_length * (net.vertex_count - 1) / 2.0


def modified_energy(net: Network, C, params: ModelParams) -> float:
    """The robustness-augmented objective F[C]; +inf when the flow problem is
    unsolvable, the energy at mu = 0.  The Fiedler term uses the raw
    conductivities (not C / L)."""
    _require_linear_metabolic(params)
    breakdown = energy(net, C, params)
    if not math.isfinite(breakdown.total):
        return math.inf
    coef = robustness_coefficient(net, params)
    if coef == 0.0:
        return breakdown.total
    return breakdown.total - coef * float(_low_spectrum(laplacian(net, C))[0][1])


def _projected_step(net: Network, C, P, vec, tau, inv_L, nu_L, coef) -> np.ndarray:
    """max(0, C + tau ((P_u-P_v)^2/L - nu L + coef (v_u-v_v)^2)); ``vec`` is
    only read when ``coef`` is nonzero."""
    dp = P[net.edge_u] - P[net.edge_v]
    direction = dp * dp * inv_L - nu_L
    if coef != 0.0:
        dv = vec[net.edge_u] - vec[net.edge_v]
        direction += coef * dv * dv
    return np.maximum(C + tau * direction, 0.0)


def subgradient_step(net: Network, C, params: ModelParams, tau: float) -> Conductivities:
    """One projected subgradient step of size tau:

        C_e <- max(0, C_e + tau ((P_u-P_v)^2/L_e - nu L_e + coef (v_u-v_v)^2))

    with P the pressures at C and v the deterministic Fiedler eigenvector.
    Raises DisconnectedSupportError when the flow problem at C is unsolvable
    (the support has then lost the connectivity it needs to carry S).
    """
    _require_linear_metabolic(params)
    values = edge_values(net, C)
    sol = solve_kirchhoff(net, values)
    if not sol.solvable:
        raise DisconnectedSupportError("subgradient step needs a solvable flow state")
    coef = robustness_coefficient(net, params)
    vec = fiedler_pair(*_low_spectrum(laplacian(net, values)))[1] if coef != 0.0 else None
    step = _projected_step(
        net, values, sol.pressures, vec, tau, 1.0 / net.lengths, params.nu * net.lengths, coef
    )
    return Conductivities(step)


def _pressures(net: Network, weights, comps, scale):
    """:func:`kirchhoff.solve_pressures`, None also where it raises
    IllConditionedError."""
    try:
        return solve_pressures(net, weights, comps, scale)
    except IllConditionedError:
        return None


def _record(net: Network, C, k, e_kin, e_met, coef, tau, w=None, fied=None, mult=None) -> TraceRecord:
    """The record of iterate ``k``, with F = E - ``coef`` * fiedler (E at
    mu = 0, bit for bit).  The raw Laplacian's low-spectrum window (``w``,
    ``fied``, ``mult``) is computed here when the loop had none (mu = 0, or a
    Fiedler pair from the warm solve)."""
    if w is None:
        w, V = _low_spectrum(assemble_laplacian(net, C))
        fied, _, mult = fiedler_pair(w, V)
    return TraceRecord(
        k=k,
        F=e_kin + e_met - coef * fied,
        E=e_kin + e_met,
        E_kin=e_kin,
        E_met=e_met,
        fiedler=fied,
        lambda2=float(w[2]) if w.size > 2 else math.nan,
        lambda3=float(w[3]) if w.size > 3 else math.nan,
        multiplicity=mult,
        active_edges=int(np.count_nonzero(C > active_cutoff(C))),
        tau=tau,
    )


def optimize(net: Network, params: ModelParams, config: OptimConfig) -> OptimRun:
    """Run the projected subgradient method.

    Deterministic given (net, params, config): the only randomness is the
    uniform(0, 1) initialization on every edge, which guarantees a connected
    support at iterate 0.  Divergence (max(C) beyond 1e8 times the initial
    scale) and more than ``MAX_RESTARTS`` restarts are reported through
    ``termination``, not raised.  The pressures, energies and step come from
    the same kernels as :func:`solve_kirchhoff`, :func:`energy` and
    :func:`subgradient_step`.  The trace holds the records of iterates 0, s,
    2s, ... (s = ``trace_stride``), K and the best one (``best_record``), in
    k order and once each.

    At mu > 0 on networks of at least ``WARM_MIN_VERTICES`` vertices, an
    iterate's Fiedler value and vector come from the warm banded solve
    :func:`spectral._warm_fiedler`, started from the previous iterate's
    Fiedler block.  Iterate 0, the iterate after a restart, every record
    iterate and every iterate whose warm solve is refused use the
    low-spectrum window of :func:`spectral._low_spectrum` instead, as
    :func:`modified_energy` and :func:`subgradient_step` do; so do the
    iterates of the ``WARM_BACKOFF`` wait after refusals.  Records are built
    from that window only, the best iterate's too, so ``best_F`` is
    ``modified_energy(best_C)`` even when the warm solve found it.

    When the support changes, its components are computed
    (:func:`graph.support_components`) only when the pivots of the pressure
    Cholesky do not prove it connected (:func:`kirchhoff.solve_pressures`
    with unknown components).  A connected support costs one solve either
    way, and its pressures carry the same bits.

    Raises IllConditionedError when iterate 0 is already infeasible, so no
    feasible iterate exists to restart from, and when ``dsyevr`` fails.
    """
    _require_linear_metabolic(params)
    if net.vertex_count < 2:
        raise ValueError("optimization needs at least two vertices")

    L = net.lengths
    inv_L = 1.0 / L
    nu_L = params.nu * L
    S = net.sources
    s_scale = float(np.abs(S).max())
    coef = robustness_coefficient(net, params)
    K = config.iters

    rng = np.random.default_rng(config.seed)
    C = rng.uniform(0.0, 1.0, net.edge_count)
    divergence_cap = DIVERGENCE_FACTOR * max(1.0, float(C.max()))

    # the warm solve starts from the last iterate's Fiedler block; without
    # one (warm off, iterate 0, after a restart) the iterate is evaluated cold
    warm = coef != 0.0 and net.vertex_count >= WARM_MIN_VERTICES
    block = None
    refused = retry = 0  # warm solves refused in a row, iterate of the next attempt
    whole = [np.arange(net.vertex_count)]
    support_key = (C > 0.0).tobytes()
    comps = None  # components of the support of C; None until computed

    tau0 = config.tau0
    step_idx = 0
    restarts = 0
    best_F = math.inf
    best_C = None
    best = None  # record arguments of the best iterate (a record needs no eigenvectors)
    trace = []
    termination = "completed"

    for k in range(K + 1):
        w = vec = fied = mult = pair = None
        record = k % config.trace_stride == 0 or k == K
        if coef != 0.0:
            if block is not None and not record and k >= retry:
                pair = _warm_fiedler(net, C, block)
                refused = 0 if pair is not None else refused + 1
                retry = k + 1 + ((1 << refused) >> WARM_BACKOFF)
            if pair is None:
                w, V = _low_spectrum(assemble_laplacian(net, C))
                fied, vec, mult = fiedler_pair(w, V)
                if warm and k < K and k + 1 >= retry:  # the next iterate may try the warm solve
                    block = _warm_block(net, vec, V)
            else:
                fied, block = pair
                vec = block[0, net.band_rank]

        weights = C * inv_L
        P = None
        if comps is None:
            # the pivots of a one-ground solve prove a connected support
            # without a union-find pass; any failure of that solve only means
            # the components are needed
            P = _pressures(net, weights, None, s_scale)
            comps = whole if P is not None else support_components(net, C)
        if P is None:
            P = _pressures(net, weights, comps, s_scale)

        if P is None:
            # left the solvable set (or the solve degraded): shrink the step
            # scale and resume from the best iterate.  The step index keeps
            # counting so the step size stays below its pre-restart value --
            # resetting it would re-enlarge the steps right next to the
            # boundary that caused the failure and cascade into more restarts.
            if best_C is None:
                raise IllConditionedError("the flow solve fails at iterate 0")
            restarts += 1
            if restarts > MAX_RESTARTS:
                termination = "gave_up"
                break
            tau0 *= RESTART_SHRINK
            C = best_C.copy()
            block = None
            support_key = (C > 0.0).tobytes()
            comps = None
            continue

        e_kin = kinetic_energy(P, S)
        e_met = metabolic_energy(C, L, params)
        F = e_kin + e_met
        if coef != 0.0:
            F -= coef * fied

        tau = tau0 / math.sqrt(step_idx + 1)
        args = (k, e_kin, e_met, coef, tau, w, fied, mult)
        if F < best_F:
            best_F = F
            best_C = C.copy()
            best = args
        if record:
            trace.append(_record(net, C, *args))

        if k == K:
            break

        step_idx += 1
        C = _projected_step(net, C, P, vec, tau, inv_L, nu_L, coef)

        if float(C.max()) > divergence_cap:
            termination = "diverged"
            break

        new_key = (C > 0.0).tobytes()
        if new_key != support_key:
            support_key = new_key
            comps = None

    if termination == "completed" and restarts:
        termination = "restarted_then_completed"

    # the best iterate's record is built only when no stride or final record
    # holds it already (at mu = 0 that saves an eigensolve)
    by_k = {rec.k: rec for rec in trace}
    if best[0] not in by_k:
        by_k[best[0]] = _record(net, best_C, *best)
    best_record = by_k[best[0]]
    trace = [by_k[k] for k in sorted(by_k)]

    return OptimRun(
        best_C=Conductivities(best_C),
        best_F=best_record.F,
        best_record=best_record,
        trace=trace,
        termination=termination,
        restarts=restarts,
        params=params,
        config=config,
    )


def sweep_mu(net: Network, params_base: ModelParams, mu_values, config: OptimConfig) -> list[OptimRun]:
    """One optimizer run per mu value, in ``mu_values`` order, run ``i``
    seeded with ``config.seed + i``."""
    return [
        optimize(net, replace(params_base, mu=float(mu)), replace(config, seed=config.seed + i))
        for i, mu in enumerate(mu_values)
    ]
