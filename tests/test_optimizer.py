import dataclasses
import math

import numpy as np
import pytest

import netforge as nf
from conftest import random_conductivities, random_connected_network


def triangle(sources=(1.0, -1.0, 0.0)):
    return nf.new_network(3, [(0, 1), (0, 2), (1, 2)], sources)


def single_edge():
    return nf.new_network(2, [(0, 1)], [1.0, -1.0])


LINEAR = nf.ModelParams(gamma=1.0, nu=1.0)


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
    eigh = np.linalg.eigh

    def counted_eigh(mat):
        solves.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    run = nf.optimize(nf.seven_node_network(), params, nf.OptimConfig(iters=iters, seed=1, trace_stride=stride))
    assert run.termination == "completed"
    ks = [rec.k for rec in run.trace]
    assert ks == sorted({*range(0, iters + 1, stride), iters, run.best_record.k})
    assert len(run.trace) <= iters // stride + 3
    assert sum(rec is run.best_record for rec in run.trace) == 1
    assert run.best_record.F == run.best_F
    if mu == 0.0:
        # eigensolves only for the records: stride points, K, and the best
        assert len(solves) <= len(run.trace) + 1
    else:
        assert len(solves) == iters + 1


def test_optimize_divergence_detection():
    # with mu > nu on a single edge the update direction is bounded below by
    # mu - nu > 0, so a huge tau0 drives the conductivity past the cap
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=2.0)
    run = nf.optimize(single_edge(), params, nf.OptimConfig(tau0=1e6, iters=5000, seed=0))
    assert run.termination == "diverged"


def test_optimize_infeasible_first_iterate_raises():
    # lengths spanning 18 decades make the flow solve at the random
    # initialization fail its residual check: nothing to restart from
    net = nf.new_network(3, [(0, 1, 1e-9), (1, 2, 1e9), (0, 2, 1.0)], [1.0, 0.0, -1.0])
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
    for net in (triangle(), nf.seven_node_network()):
        for mu in (0.0, 0.5):
            params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
            run = nf.optimize(net, params, nf.OptimConfig(iters=300, seed=1))
            assert run.best_F == nf.modified_energy(net, run.best_C, params)
            assert run.best_record.E == nf.energy(net, run.best_C, params).total


def test_optimize_requires_linear_cost():
    with pytest.raises(ValueError):
        nf.optimize(triangle(), nf.ModelParams(gamma=0.5, nu=1.0), nf.OptimConfig(iters=10))


# ------------------------------------------------------------------ sweep

def test_sweep_summary_and_seeds():
    config = nf.OptimConfig(iters=20_000, seed=5, trace_stride=5000)
    sweep = nf.sweep_mu(triangle(), LINEAR, [0.0, 0.8], config)
    assert sweep.mu_values == (0.0, 0.8)
    assert [row["mu"] for row in sweep.summary] == [0.0, 0.8]
    for row in sweep.summary:
        for key in ("F", "E", "E_kin", "E_met", "fiedler", "multiplicity", "active_edges"):
            assert key in row
    # mu = 0 row reproduces the pure-energy optimum
    assert sweep.summary[0]["F"] == pytest.approx(2.0, abs=1e-3)
    # per-run seeds are derived from the base seed: rerunning matches
    again = nf.sweep_mu(triangle(), LINEAR, [0.0, 0.8], config)
    assert [r.best_F for r in again.runs] == [r.best_F for r in sweep.runs]


def test_parallel_sweep_matches_serial():
    # each run carries its own mu and seed + index, also through the pool
    net = nf.seven_node_network()
    config = nf.OptimConfig(iters=400, seed=2, trace_stride=50)
    serial = nf.sweep_mu(net, LINEAR, [0.0, 0.4, 1.0], config, jobs=1)
    parallel = nf.sweep_mu(net, LINEAR, [0.0, 0.4, 1.0], config, jobs=2)
    assert [run.params.mu for run in serial.runs] == [0.0, 0.4, 1.0]
    assert [run.config for run in serial.runs] == [
        nf.OptimConfig(iters=400, seed=seed, trace_stride=50) for seed in (2, 3, 4)
    ]
    assert parallel.mu_values == serial.mu_values
    assert parallel.summary == serial.summary
    for a, b in zip(serial.runs, parallel.runs):
        assert b.best_F == a.best_F
        assert np.array_equal(b.best_C.values, a.best_C.values)
        assert b.trace == a.trace
        assert b.best_record == a.best_record
        assert (b.params, b.config) == (a.params, a.config)
        assert (b.termination, b.restarts) == (a.termination, a.restarts)


def test_optim_config_fields():
    names = [f.name for f in dataclasses.fields(nf.OptimConfig)]
    assert names == ["tau0", "iters", "seed", "trace_stride"]


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
