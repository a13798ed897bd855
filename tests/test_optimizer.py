import dataclasses
import math

import numpy as np
import pytest

import netforge as nf
from conftest import LINEAR, pendant, random_conductivities, random_connected_network, single_edge, triangle
from netforge.spectral import _low_spectrum


# -------------------------------------------------------- modified energy

def test_modified_energy_triangle_closed_form():
    rng = np.random.default_rng(0)
    for mu in (0.0, 0.3, 0.8):
        params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
        for _ in range(5):
            c0, c1 = rng.uniform(0.1, 2.0, 2)
            value = nf.modified_energy(triangle(), [c0, c1, c1], params)
            expected = (
                2.0 / (2 * c0 + c1)
                + (c0 + 2 * c1)
                - mu * min(2 * c0 + c1, 3 * c1)
            )
            assert value == pytest.approx(expected, rel=1e-10)


def test_modified_energy_reduces_to_energy_at_zero_mu():
    rng = np.random.default_rng(1)
    net = random_connected_network(rng)
    values = random_conductivities(rng, net)
    assert nf.modified_energy(net, values, LINEAR) == pytest.approx(
        nf.energy(net, values, LINEAR).total, rel=1e-12
    )


def test_robustness_coefficient_unit_triangle():
    # unit lengths and three vertices make the coefficient exactly mu
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.7)
    assert nf.robustness_coefficient(triangle(), params) == pytest.approx(0.7)


def test_modified_energy_infinite_when_unsolvable():
    net = triangle((1.0, -0.5, -0.5))
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.5)
    assert math.isinf(nf.modified_energy(net, [1.0, 0.0, 0.0], params))


def test_modified_energy_requires_linear_cost():
    with pytest.raises(ValueError):
        nf.modified_energy(triangle(), [1.0, 1.0, 1.0], nf.ModelParams(gamma=0.5, nu=1.0))


# -------------------------------------------------------- subgradient step

def test_step_hand_computed_value():
    # C=2 on a single unit edge: dP = 1/2, update 2 + 0.1 (1/4 - 1) = 1.925
    stepped = nf.subgradient_step(single_edge(), [2.0], LINEAR, 0.1)
    assert stepped.values[0] == pytest.approx(1.925, abs=1e-12)


def test_step_fixed_point_at_stationary_state():
    stepped = nf.subgradient_step(single_edge(), [1.0], LINEAR, 0.1)
    assert stepped.values[0] == pytest.approx(1.0, abs=1e-12)

    # interior stationary segment on an asymmetric cycle (see test_trees):
    # every split q gives a zero subgradient, so the step is a fixed point
    net = nf.new_network(
        4,
        [(0, 1, 2.0), (0, 3, 4.0), (1, 2, 1.0), (2, 3, 3.0)],
        [1.0, -1.0, 1.0, -1.0],
    )
    q = 0.3
    values = np.array([q, 1 - q, 1 - q, q])
    stepped = nf.subgradient_step(net, values, LINEAR, 0.05)
    assert np.abs(stepped.values - values).max() <= 1e-12


def test_step_projects_onto_nonnegative_cone():
    stepped = nf.subgradient_step(single_edge(), [10.0], LINEAR, 20.0)
    assert stepped.values[0] == 0.0


def test_step_raises_when_unsolvable():
    net = triangle((1.0, -0.5, -0.5))
    with pytest.raises(nf.DisconnectedSupportError):
        nf.subgradient_step(net, [1.0, 0.0, 0.0], LINEAR, 0.1)


# ---------------------------------------------------------------- optimize

def test_optimize_is_deterministic():
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.4)
    config = nf.OptimConfig(iters=2000, seed=7, trace_stride=100)
    a = nf.optimize(triangle(), params, config)
    b = nf.optimize(triangle(), params, config)
    assert a.best_F == b.best_F
    assert np.array_equal(a.best_C.values, b.best_C.values)
    assert a.trace == b.trace


def test_optimize_traces_are_feasible_and_monotone():
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.4)
    run = nf.optimize(triangle(), params, nf.OptimConfig(iters=3000, seed=1, trace_stride=50))
    ks = [rec.k for rec in run.trace]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    assert all(math.isfinite(rec.F) for rec in run.trace)
    assert np.all(run.best_C.values >= 0.0)
    assert run.best_F == min(rec.F for rec in run.trace)
    running = math.inf
    for rec in run.trace:
        running = min(running, rec.F)
    assert running == run.best_F


def test_optimize_lower_bound_with_small_mu():
    # mu <= nu keeps the objective above the kinetic energy
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.9)
    run = nf.optimize(triangle((1.0, -1.0 / 3.0, -2.0 / 3.0)), params, nf.OptimConfig(iters=3000, seed=3))
    for rec in run.trace:
        assert rec.F >= rec.E_kin - 1e-9
        assert rec.E_kin >= -1e-12


def test_optimize_records_stride_and_final():
    run = nf.optimize(triangle(), LINEAR, nf.OptimConfig(iters=500, seed=2, trace_stride=100))
    ks = {rec.k for rec in run.trace}
    assert {0, 100, 200, 300, 400, 500} <= ks


@pytest.mark.parametrize("mu, iters, stride", [(0.0, 2500, 1000), (0.0, 500, 7), (0.6, 2500, 1000), (0.6, 500, 7)])
def test_optimize_trace_holds_stride_final_and_best_records_only(monkeypatch, mu, iters, stride):
    solves = []
    low_spectrum = nf.optimizer._low_spectrum

    def counted_low_spectrum(mat):
        solves.append(mat.shape)
        return low_spectrum(mat)

    monkeypatch.setattr(nf.optimizer, "_low_spectrum", counted_low_spectrum)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    run = nf.optimize(nf.seven_node_network(), params, nf.OptimConfig(iters=iters, seed=1, trace_stride=stride))
    assert run.termination == "completed"
    ks = [rec.k for rec in run.trace]
    assert ks == sorted({*range(0, iters + 1, stride), iters, run.best_record.k})
    assert len(run.trace) <= iters // stride + 3
    assert sum(rec is run.best_record for rec in run.trace) == 1
    assert run.best_record.F == run.best_F
    if mu == 0.0:
        # one eigensolve per record: stride points, K, and the best
        assert len(solves) == len(run.trace)
    else:
        assert len(solves) == iters + 1


def test_optimize_divergence_detection():
    # with mu > nu on a single edge the update direction is bounded below by
    # mu - nu > 0, so a huge tau0 drives the conductivity past the cap
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=2.0)
    run = nf.optimize(single_edge(), params, nf.OptimConfig(tau0=1e6, iters=5000, seed=0))
    assert run.termination == "diverged"


def test_optimize_infeasible_first_iterate_raises():
    # lengths 1 and 1e300 make the flow solve at the random initialization
    # fail its residual check: nothing to restart from
    net = nf.new_network(3, [(0, 1, 1.0), (1, 2, 1e300)], [1.0, 0.0, -1.0])
    with pytest.raises(nf.IllConditionedError):
        nf.optimize(net, LINEAR, nf.OptimConfig(iters=200))


def test_optimize_reports_giving_up_after_max_restarts():
    # the first step keeps only edge (0, 2) and cuts sink 1 off; ten halvings
    # of the huge tau0 still leave a step that does so, so every restart
    # fails until the restart budget runs out
    net = triangle((1.0, -0.5, -0.5))
    run = nf.optimize(net, LINEAR, nf.OptimConfig(tau0=1e6, iters=300, seed=0))
    assert run.termination == "gave_up"
    assert run.restarts == nf.optimizer.MAX_RESTARTS + 1
    assert [rec.k for rec in run.trace] == [0]
    assert run.trace[0] is run.best_record and run.best_record.F == run.best_F


def test_optimize_shares_the_energy_kernels():
    # optimize evaluates iterates through the same assembly, solve and energy
    # formulas as the public functions, so they agree to the last bit
    cases = [(net, mu) for net in (triangle(), nf.seven_node_network()) for mu in (0.0, 0.5)]
    cases += [(nf.leaf_network(40, 0), 0.0), (nf.leaf_network(40, 0), 1.0)]
    for net, mu in cases:
        params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
        run = nf.optimize(net, params, nf.OptimConfig(iters=300, seed=1))
        assert run.best_F == nf.modified_energy(net, run.best_C, params)
        assert run.best_record.E == nf.energy(net, run.best_C, params).total


def test_optimize_requires_linear_cost():
    with pytest.raises(ValueError):
        nf.optimize(triangle(), nf.ModelParams(gamma=0.5, nu=1.0), nf.OptimConfig(iters=10))


# ----------------------------------------------------- warm Fiedler solve

@pytest.mark.parametrize("n, mu, warm", [(40, 1.0, False), (60, 1.0, True), (120, 0.0, False)])
def test_warm_solve_runs_at_mu_above_zero_from_the_size_switch(monkeypatch, n, mu, warm):
    # the leaf acceptance mesh (n = 40) stays on the low-spectrum window
    calls = []
    warm_fiedler = nf.optimizer._warm_fiedler

    def counted(*args):
        calls.append(args)
        return warm_fiedler(*args)

    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", counted)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    nf.optimize(nf.leaf_network(n, 0), params, nf.OptimConfig(iters=20, seed=1))
    assert len(calls) == (19 if warm else 0)


@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_warm_fiedler_values_match_the_low_spectrum_window(monkeypatch, mu):
    net = nf.leaf_network(120, 0)
    attempts, errors = [], []
    warm_fiedler = nf.optimizer._warm_fiedler

    def checked(net_, C, block):
        pair = warm_fiedler(net_, C, block)
        attempts.append(pair)
        if pair is not None:
            cold = _low_spectrum(nf.laplacian(net_, C))[0][1]
            errors.append(abs(pair[0] - cold) / cold)
        return pair

    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", checked)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    nf.optimize(net, params, nf.OptimConfig(iters=300, seed=0))
    # iterates 1 .. 299 try the warm solve (0 and 300 are records); the first
    # steps may move the Fiedler value too far for its shift
    assert len(attempts) == 299 and len(errors) >= 290
    assert max(errors) <= 1e-10


def test_warm_solve_resumes_cold_after_a_restart(monkeypatch):
    events = []
    warm_fiedler, low_spectrum = nf.optimizer._warm_fiedler, nf.optimizer._low_spectrum
    solve_pressures = nf.optimizer.solve_pressures

    def logged_warm(*args):
        events.append("warm")
        return warm_fiedler(*args)

    def logged_cold(*args):
        events.append("cold")
        return low_spectrum(*args)

    def logged_solve(*args):
        try:
            P = solve_pressures(*args)
        except nf.IllConditionedError:
            P = None
        if P is None:
            if args[2] is not None:  # not the connectivity probe, which has no components
                events.append("restart")
            raise nf.IllConditionedError("solve failed")
        return P

    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", logged_warm)
    monkeypatch.setattr(nf.optimizer, "_low_spectrum", logged_cold)
    monkeypatch.setattr(nf.optimizer, "solve_pressures", logged_solve)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=1.0)
    run = nf.optimize(nf.leaf_network(120, 0), params, nf.OptimConfig(tau0=10.0, iters=150, seed=1))
    assert run.restarts >= 2
    assert events.count("restart") == run.restarts and "warm" in events
    # the iterate after each restart goes straight to the low-spectrum window
    after = [events[i + 1] for i, event in enumerate(events) if event == "restart"]
    assert after == ["cold"] * run.restarts


def test_failed_inertia_factorizations_take_the_cold_path(monkeypatch):
    net = nf.leaf_network(60, 0)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=1.0)
    config = nf.OptimConfig(iters=100, seed=1, trace_stride=30)
    switch = nf.optimizer.WARM_MIN_VERTICES
    monkeypatch.setattr(nf.optimizer, "WARM_MIN_VERTICES", net.vertex_count + 1)
    cold = nf.optimize(net, params, config)

    solves = []
    low_spectrum = nf.optimizer._low_spectrum

    def counted_low_spectrum(mat):
        solves.append(mat.shape)
        return low_spectrum(mat)

    monkeypatch.setattr(nf.optimizer, "WARM_MIN_VERTICES", switch)
    monkeypatch.setattr(nf.optimizer, "_low_spectrum", counted_low_spectrum)
    monkeypatch.setattr(nf.spectral, "_path_cholesky", lambda band, shift: None)
    run = nf.optimize(net, params, config)
    assert len(solves) == config.iters + 1
    assert run.best_F == cold.best_F
    assert np.array_equal(run.best_C.values, cold.best_C.values)
    assert run.trace == cold.trace


def test_refused_warm_solves_back_off(monkeypatch):
    # at tau0 = 1 every step moves the Fiedler vector too far for the warm
    # shift, so every warm solve is refused: the backoff keeps the attempts
    # near log2 K, and the run equals a cold one bit for bit
    net = nf.leaf_network(60, 0)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=1.0)
    config = nf.OptimConfig(tau0=1.0, iters=300, seed=0)
    switch = nf.optimizer.WARM_MIN_VERTICES
    monkeypatch.setattr(nf.optimizer, "WARM_MIN_VERTICES", net.vertex_count + 1)
    cold = nf.optimize(net, params, config)

    attempts = []
    warm_fiedler = nf.optimizer._warm_fiedler

    def counted(*args):
        attempts.append(warm_fiedler(*args))
        return attempts[-1]

    monkeypatch.setattr(nf.optimizer, "WARM_MIN_VERTICES", switch)
    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", counted)
    run = nf.optimize(net, params, config)
    assert attempts and all(pair is None for pair in attempts)
    assert len(attempts) <= 2 * math.log2(config.iters)
    assert run.best_F == cold.best_F
    assert np.array_equal(run.best_C.values, cold.best_C.values)
    assert run.trace == cold.trace


#: the record builder, taken before any test wraps it
_RECORD = nf.optimizer._record


def _capture_records(monkeypatch):
    """Every record optimize builds, with the iterate's C, E_kin, E_met and the
    robustness coefficient it was given."""
    records = []

    def captured(net, C, k, e_kin, e_met, coef, tau, w=None, fied=None, mult=None):
        rec = _RECORD(net, C, k, e_kin, e_met, coef, tau, w, fied, mult)
        records.append((C.copy(), e_kin, e_met, coef, rec))
        return rec

    monkeypatch.setattr(nf.optimizer, "_record", captured)
    return records


def _assert_cold_report(net, params, run, records):
    """best_F and every trace record are what the low-spectrum window gives."""
    assert run.best_F == nf.modified_energy(net, run.best_C, params)
    assert run.best_record.F == run.best_F
    assert sorted((rec for *_, rec in records), key=lambda rec: rec.k) == run.trace
    for C, e_kin, e_met, coef, rec in records:
        assert coef == nf.robustness_coefficient(net, params)
        assert rec.F == nf.modified_energy(net, C, params)
        assert rec == _RECORD(net, C, rec.k, e_kin, e_met, coef, rec.tau)


@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_warm_runs_report_low_spectrum_evaluations(monkeypatch, mu):
    net = nf.leaf_network(120, 0)
    warm = []
    warm_fiedler = nf.optimizer._warm_fiedler

    def counted_warm(*args):
        pair = warm_fiedler(*args)
        warm.append(pair is not None)
        return pair

    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", counted_warm)
    records = _capture_records(monkeypatch)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    run = nf.optimize(net, params, nf.OptimConfig(iters=150, seed=1, trace_stride=40))
    assert len(warm) == 146 and sum(warm) >= 140
    _assert_cold_report(net, params, run, records)


def test_a_best_iterate_from_the_warm_solve_is_reevaluated(monkeypatch):
    # leaf runs improve at every iterate, so their best is the final record;
    # the seven-node run at mu = 1 oscillates, and with the switch lowered and
    # no backoff after refusals its best iterate 922 comes from the warm solve
    net = nf.seven_node_network()
    certified = {}
    warm_fiedler = nf.optimizer._warm_fiedler

    def logged_warm(net_, C, block):
        pair = warm_fiedler(net_, C, block)
        certified[C.tobytes()] = pair is not None
        return pair

    monkeypatch.setattr(nf.optimizer, "WARM_MIN_VERTICES", 2)
    monkeypatch.setattr(nf.optimizer, "WARM_BACKOFF", 10**6)
    monkeypatch.setattr(nf.optimizer, "_warm_fiedler", logged_warm)
    records = _capture_records(monkeypatch)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=1.0)
    run = nf.optimize(net, params, nf.OptimConfig(iters=1000, seed=1))
    assert certified[run.best_C.values.tobytes()]
    assert run.best_record.k not in (0, 1000)
    _assert_cold_report(net, params, run, records)


# ------------------------------------------------------------------ sweep

def test_sweep_summary_and_seeds(tmp_path):
    config = nf.OptimConfig(iters=20_000, seed=5, trace_stride=5000)
    runs = nf.sweep_mu(triangle(), LINEAR, [0.0, 0.8], config)
    assert [run.params.mu for run in runs] == [0.0, 0.8]
    nf.write_sweep_csv(runs, tmp_path / "summary.csv")
    header, *rows = [line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines()]
    assert header == [
        "mu", "F", "E", "E_kin", "E_met", "fiedler", "lambda2", "lambda3",
        "multiplicity", "active_edges", "termination", "restarts",
    ]
    assert [row[0] for row in rows] == ["0.0", "0.8"]
    # mu = 0 row reproduces the pure-energy optimum
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-3)
    # per-run seeds are derived from the base seed: rerunning matches
    again = nf.sweep_mu(triangle(), LINEAR, [0.0, 0.8], config)
    assert [r.best_F for r in again] == [r.best_F for r in runs]


def test_sweep_runs_match_single_runs():
    # each run carries its own mu and seed + index
    net = nf.seven_node_network()
    config = nf.OptimConfig(iters=400, seed=2, trace_stride=50)
    runs = nf.sweep_mu(net, LINEAR, [0.0, 0.4, 1.0], config)
    assert [run.params.mu for run in runs] == [0.0, 0.4, 1.0]
    assert [run.config for run in runs] == [
        nf.OptimConfig(iters=400, seed=seed, trace_stride=50) for seed in (2, 3, 4)
    ]
    for a in runs:
        b = nf.optimize(net, a.params, a.config)
        assert b.best_F == a.best_F
        assert np.array_equal(b.best_C.values, a.best_C.values)
        assert b.trace == a.trace
        assert b.best_record == a.best_record
        assert (b.termination, b.restarts) == (a.termination, a.restarts)


def test_optim_config_fields():
    names = [f.name for f in dataclasses.fields(nf.OptimConfig)]
    assert names == ["tau0", "iters", "seed", "trace_stride"]


@pytest.mark.parametrize("tau0", [0.0, math.inf, math.nan])
def test_optim_config_rejects_nonpositive_or_nonfinite_step(tau0):
    with pytest.raises(ValueError):
        nf.OptimConfig(tau0=tau0)


@pytest.mark.parametrize(
    "field, value",
    [("iters", 2.5), ("iters", True), ("iters", 100.0), ("seed", 1.5), ("seed", False),
     ("seed", "0"), ("trace_stride", 2.5), ("trace_stride", np.float64(5.0))],
)
def test_optim_config_rejects_noninteger_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        nf.OptimConfig(**{field: value})


def test_optim_config_accepts_numpy_integers():
    config = nf.OptimConfig(iters=np.int64(20), seed=np.uint32(3), trace_stride=np.int32(5))
    run = nf.optimize(triangle(), LINEAR, config)
    ks = [rec.k for rec in run.trace]
    assert [k for k in ks if k % 5 == 0] == [0, 5, 10, 15, 20] and len(ks) <= 6


def test_convexity_of_modified_energy_midpoints():
    rng = np.random.default_rng(4)
    net = triangle()
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=0.6)
    for _ in range(25):
        c1 = rng.uniform(0.05, 2.0, 3)
        c2 = rng.uniform(0.05, 2.0, 3)
        f1 = nf.modified_energy(net, c1, params)
        f2 = nf.modified_energy(net, c2, params)
        fm = nf.modified_energy(net, 0.5 * (c1 + c2), params)
        assert fm <= 0.5 * (f1 + f2) + 1e-9


@pytest.mark.parametrize(
    "nodes, mu",
    # mu = 1 takes the dense window at 40 vertices and the warm solve at 60
    [(40, 0.0), (40, 1.0), (60, 1.0)],
)
def test_iterates_take_connectivity_from_the_pressure_factor(monkeypatch, nodes, mu):
    calls = []
    support_components = nf.optimizer.support_components

    def counted(*args):
        calls.append(args)
        return support_components(*args)

    monkeypatch.setattr(nf.optimizer, "support_components", counted)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    run = nf.optimize(nf.leaf_network(nodes, 0), params, nf.OptimConfig(iters=200, seed=0))
    assert run.termination == "completed" and not calls
    # a support that really disconnects still gets its components
    run = nf.optimize(pendant(), LINEAR, nf.OptimConfig(iters=3000, seed=0))
    assert run.termination == "completed" and calls
    assert all(len(support_components(*args)) > 1 for args in calls)
