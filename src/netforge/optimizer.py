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
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import energy, kinetic_energy, metabolic_energy
from .errors import DisconnectedSupportError, IllConditionedError
from .graph import (
    Conductivities,
    ModelParams,
    Network,
    assemble_laplacian,
    edge_values,
    support_components,
)
from .kirchhoff import solve_kirchhoff, solve_pressures
from .spectral import fiedler_pair, laplacian, spectral_decompose

MAX_RESTARTS = 10

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
    restart_shrink
        Factor applied to tau0 on every restart.
    zero_threshold
        Relative cutoff used when counting active edges in the trace.
    trace_stride
        A trace record is stored every this many iterations, at every
        improvement of the best value, and at the final iterate.
    """

    tau0: float = 0.1
    iters: int = 100_000
    seed: int = 0
    restart_shrink: float = 0.5
    zero_threshold: float = 1e-8
    trace_stride: int = 1000

    def __post_init__(self):
        if not self.tau0 > 0:
            raise ValueError("tau0 must be positive")
        if self.iters < 1:
            raise ValueError("iters must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 < self.restart_shrink < 1.0:
            raise ValueError("restart_shrink must lie in (0, 1)")
        if self.zero_threshold < 0:
            raise ValueError("zero_threshold must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")


@dataclass(frozen=True)
class TraceRecord:
    """One evaluated iterate: objective values, spectral summary and step."""

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


@dataclass
class OptimRun:
    """Result of :func:`optimize`: best iterate, its record, the trace and the
    termination status ('completed', 'restarted_then_completed', 'diverged',
    or 'gave_up' after more than ``MAX_RESTARTS`` restarts)."""

    best_C: Conductivities
    best_F: float
    best_record: TraceRecord
    trace: list
    termination: str
    restarts: int


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
    fied = spectral_decompose(laplacian(net, C)).fiedler
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
    vec = spectral_decompose(laplacian(net, values)).fiedler_vector if coef != 0.0 else None
    step = _projected_step(
        net, values, sol.pressures, vec, tau, 1.0 / net.lengths, params.nu * net.lengths, coef
    )
    return Conductivities(step)


def optimize(net: Network, params: ModelParams, config: OptimConfig) -> OptimRun:
    """Run the projected subgradient method.

    Deterministic given (net, params, config): the only randomness is the
    uniform(0, 1) initialization on every edge, which guarantees a connected
    support at iterate 0.  Divergence (max(C) beyond 1e8 times the initial
    scale) and more than ``MAX_RESTARTS`` restarts are reported through
    ``termination``, not raised.  The pressures, energies and step come from
    the same kernels as :func:`solve_kirchhoff`, :func:`energy` and
    :func:`subgradient_step`.

    Raises IllConditionedError when iterate 0 is already infeasible, so no
    feasible iterate exists to restart from.
    """
    _require_linear_metabolic(params)
    if net.vertex_count < 2:
        raise ValueError("optimization needs at least two vertices")

    n = net.vertex_count
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

    whole = [np.arange(n)]
    support_key = (C > 0.0).tobytes()
    comps = None  # components of the support of C; None until computed

    tau0 = config.tau0
    step_idx = 0
    restarts = 0
    best_F = math.inf
    best_C = None
    best_record = None
    trace = []
    termination = "completed"

    k = 0
    while k <= K:
        lap_flow = assemble_laplacian(net, C * inv_L)

        w = V = None
        if coef != 0.0:
            lap_raw = assemble_laplacian(net, C)
            w, V = np.linalg.eigh(lap_raw)

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
            tau0 *= config.restart_shrink
            C = best_C.copy()
            support_key = (C > 0.0).tobytes()
            comps = None
            k += 1
            continue

        e_kin = kinetic_energy(P, S)
        e_met = metabolic_energy(C, L, params)
        e_tot = e_kin + e_met

        vec = None
        fied = mult = None
        if coef != 0.0:
            fied, vec, mult = fiedler_pair(w, V)
            F = e_tot - coef * fied
        else:
            F = e_tot

        improved = F < best_F
        if improved or k % config.trace_stride == 0 or k == K:
            if w is None:  # spectral summary only needed for the record
                w, V = np.linalg.eigh(assemble_laplacian(net, C))
                fied, _, mult = fiedler_pair(w, V)
            active = int(
                np.count_nonzero(C > config.zero_threshold * max(float(C.max()), 1.0))
            )
            rec = TraceRecord(
                k=k,
                F=F,
                E=e_tot,
                E_kin=e_kin,
                E_met=e_met,
                fiedler=fied,
                lambda2=float(w[2]) if n > 2 else math.nan,
                lambda3=float(w[3]) if n > 3 else math.nan,
                multiplicity=mult,
                active_edges=active,
                tau=tau0 / math.sqrt(step_idx + 1),
            )
            trace.append(rec)
            if improved:
                best_F = F
                best_C = C.copy()
                best_record = rec

        if k == K:
            break

        step_idx += 1
        C = _projected_step(net, C, P, vec, tau0 / math.sqrt(step_idx), inv_L, nu_L, coef)

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

    return OptimRun(
        best_C=Conductivities(best_C),
        best_F=best_F,
        best_record=best_record,
        trace=trace,
        termination=termination,
        restarts=restarts,
    )


@dataclass
class SweepResult:
    """Per-mu optimizer runs and one summary row per mu."""

    mu_values: tuple
    runs: list
    summary: list = field(default_factory=list)


def _sweep_task(args):
    net, params, config = args
    return optimize(net, params, config)


def sweep_mu(net: Network, params_base: ModelParams, mu_values, config: OptimConfig, jobs: int = 1) -> SweepResult:
    """One optimizer run per mu value, with per-run seeds derived from the
    base seed (seed + index).  Runs are independent and may execute in
    parallel worker processes (``jobs`` > 1)."""
    mu_values = tuple(float(mu) for mu in mu_values)
    tasks = [
        (
            net,
            replace(params_base, mu=mu),
            replace(config, seed=config.seed + i),
        )
        for i, mu in enumerate(mu_values)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_sweep_task, tasks))
    else:
        runs = [_sweep_task(t) for t in tasks]

    summary = []
    for mu, run in zip(mu_values, runs):
        rec = run.best_record
        summary.append(
            {
                "mu": mu,
                "F": rec.F,
                "E": rec.E,
                "E_kin": rec.E_kin,
                "E_met": rec.E_met,
                "fiedler": rec.fiedler,
                "lambda2": rec.lambda2,
                "lambda3": rec.lambda3,
                "multiplicity": rec.multiplicity,
                "active_edges": rec.active_edges,
                "termination": run.termination,
                "restarts": run.restarts,
            }
        )
    return SweepResult(mu_values=mu_values, runs=runs, summary=summary)
