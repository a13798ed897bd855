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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

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
    support_components,
)
from .kirchhoff import solve_kirchhoff, solve_pressures
from .spectral import _low_spectrum, fiedler_pair, laplacian

MAX_RESTARTS = 10

#: factor applied to tau0 on every restart
RESTART_SHRINK = 0.5

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
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
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
    and ``tau`` (``SUMMARY_FIELDS``).
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
SUMMARY_FIELDS = tuple(name for name in RECORD_FIELDS if name not in ("k", "tau"))


@dataclass
class OptimRun:
    """Result of :func:`optimize`: best iterate, its record, the trace, the
    termination status ('completed', 'restarted_then_completed', 'diverged',
    or 'gave_up' after more than ``MAX_RESTARTS`` restarts) and the
    ``params`` and ``config`` the run was made with."""

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
    """Weight mu * lmin * (|V| - 1) / 2 multiplying the Fiedler number."""
    return params.mu * net.min_length * (net.vertex_count - 1) / 2.0


def modified_energy(net: Network, C, params: ModelParams) -> float:
    """The robustness-augmented objective F[C]; +inf when the flow problem is
    unsolvable.  The Fiedler term uses the raw conductivities (not C / L)."""
    _require_linear_metabolic(params)
    breakdown = energy(net, C, params)
    if not math.isfinite(breakdown.total):
        return math.inf
    fied = float(_low_spectrum(laplacian(net, C))[0][1])
    return breakdown.total - robustness_coefficient(net, params) * fied


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


def _record(net: Network, C, k, F, e_kin, e_met, tau, w, fied, mult) -> TraceRecord:
    """The record of iterate ``k``; the raw Laplacian's low-spectrum window
    (``w``, ``fied``, ``mult``) is computed here only when the loop had none
    (mu = 0)."""
    if w is None:
        w, V = _low_spectrum(assemble_laplacian(net, C))
        fied, _, mult = fiedler_pair(w, V)
    return TraceRecord(
        k=k,
        F=F,
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
    k order and once each.  Every Fiedler evaluation is the low-spectrum
    window of :func:`spectral._low_spectrum`, as in :func:`modified_energy`
    and :func:`subgradient_step`.

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

    k = 0
    while k <= K:
        lap_flow = assemble_laplacian(net, C * inv_L)

        w = V = vec = fied = mult = None
        if coef != 0.0:
            lap_raw = assemble_laplacian(net, C)
            w, V = _low_spectrum(lap_raw)

        if comps is None:
            # a safely positive second eigenvalue of the raw Laplacian
            # certifies a connected support without a union-find pass
            if w is not None and w[1] > 1e-10 * lap_raw.diagonal().max():
                comps = whole
            else:
                comps = support_components(net, C)

        try:
            P = solve_pressures(lap_flow, S, comps, s_scale)
        except IllConditionedError:
            P = None

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
            support_key = (C > 0.0).tobytes()
            comps = None
            k += 1
            continue

        e_kin = kinetic_energy(P, S)
        e_met = metabolic_energy(C, L, params)
        F = e_kin + e_met

        if coef != 0.0:
            fied, vec, mult = fiedler_pair(w, V)
            F -= coef * fied

        tau = tau0 / math.sqrt(step_idx + 1)
        if F < best_F:
            best_F = F
            best_C = C.copy()
            best = (k, F, e_kin, e_met, tau, w, fied, mult)
        if k % config.trace_stride == 0 or k == K:
            trace.append(_record(net, C, k, F, e_kin, e_met, tau, w, fied, mult))

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
        k += 1

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
        best_F=best_F,
        best_record=best_record,
        trace=trace,
        termination=termination,
        restarts=restarts,
        params=params,
        config=config,
    )


@dataclass
class SweepResult:
    """Per-mu optimizer runs and one summary row per mu."""

    mu_values: tuple
    runs: list
    summary: list = field(default_factory=list)


def sweep_mu(net: Network, params_base: ModelParams, mu_values, config: OptimConfig, jobs: int = 1) -> SweepResult:
    """One optimizer run per mu value, run ``i`` seeded with ``config.seed +
    i``.  Runs are independent and may execute in parallel worker processes
    (``jobs`` > 1).  Each summary row holds the run's mu, the
    ``SUMMARY_FIELDS`` of its best record, its termination and restarts."""
    params = [replace(params_base, mu=float(mu)) for mu in mu_values]
    configs = [replace(config, seed=config.seed + i) for i in range(len(params))]
    nets = [net] * len(params)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(optimize, nets, params, configs))
    else:
        runs = list(map(optimize, nets, params, configs))

    summary = [
        {
            "mu": run.params.mu,
            **{name: getattr(run.best_record, name) for name in SUMMARY_FIELDS},
            "termination": run.termination,
            "restarts": run.restarts,
        }
        for run in runs
    ]
    return SweepResult(mu_values=tuple(p.mu for p in params), runs=runs, summary=summary)
