"""Tests of the benchmark itself: stored references, correctness checks,
seeded inputs and the command's contract.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import netforge as nf  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())


def _job(tmp_path, workload, i, seed=0, iters=None):
    graphs = workloads.build_inputs(NullTracer(), workload, seed, tmp_path)
    job = workloads.job_at(workload, graphs, seed, i)
    if iters is not None:
        job = replace(job, config=replace(job.config, iters=iters))
    outdir = tmp_path / f"out_{i}"
    net, result, summary, _, _ = workloads.run_job(NullTracer(), job, outdir)
    return job, net, result, summary, outdir


def test_mu0_reference_is_the_tree_search_optimum():
    sol = nf.global_tree_search(nf.seven_node_network(), nf.ModelParams(gamma=1.0, nu=1.0))
    ref = REFS["seven_node"]["F_ref"]["0.0"]["F"]
    assert math.isclose(sol.energy, ref, rel_tol=1e-12)


@pytest.mark.parametrize("gamma", workloads.TREE_GAMMA)
def test_stored_tree_search_optima(gamma):
    sol = nf.global_tree_search(nf.seven_node_network(), nf.ModelParams(gamma=gamma, nu=1.0))
    stored = REFS["tree_search_seven_node"]["optimum"][repr(gamma)]
    assert math.isclose(sol.energy, stored["energy"], rel_tol=1e-12)
    assert list(sol.tree.edge_ids) == stored["edge_ids"]


def test_references_cover_every_seven_sweep_mu():
    refs = REFS["seven_node"]["F_ref"]
    assert sorted(refs) == sorted(repr(mu) for mu in workloads.SEVEN_MU)
    values = [refs[repr(mu)]["F"] for mu in workloads.SEVEN_MU]
    assert values == sorted(values, reverse=True)  # F falls as mu grows


@pytest.mark.parametrize("i", [0, 2])
def test_optimizer_checks_reject_corrupted_results(tmp_path, i):
    job, net, run, summary, outdir = _job(tmp_path, "seven-sweep", i)
    ref = REFS["seven_node"]["F_ref"][repr(job.params.mu)]
    assert checks.check_optimizer_job(net, job.params, run, outdir, summary, ref) == []

    values = run.best_C.values.copy()
    values[np.argmin(values)] += 0.05 * values.max()
    perturbed = replace(run, best_C=nf.Conductivities(values))
    assert checks.check_optimizer_job(net, job.params, perturbed, outdir, summary, ref)

    wrong_energy = replace(run, best_F=run.best_F * (1.0 - 1e-7))
    assert checks.check_optimizer_job(net, job.params, wrong_energy, outdir, summary, ref)

    diverged = replace(run, termination="diverged")
    assert checks.check_optimizer_job(net, job.params, diverged, outdir, summary, ref)


def test_optimizer_checks_reject_a_damaged_trace_file(tmp_path):
    job, net, run, summary, outdir = _job(tmp_path, "leaf-sweep", 1, iters=3)
    assert checks.check_optimizer_job(net, job.params, run, outdir, summary) == []
    lines = (outdir / "trace.csv").read_text().splitlines()
    (outdir / "trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_optimizer_job(net, job.params, run, outdir, summary)


def test_tree_checks_reject_corrupted_results(tmp_path):
    seven_node = workloads.cycle_length("tree-search") * workloads.TREE_LEAF_MESHES
    job, net, sol, _, outdir = _job(tmp_path, "tree-search", seven_node)
    assert job.graph.mesh_seed is None
    ref = REFS["tree_search_seven_node"]["optimum"][repr(job.params.gamma)]["energy"]
    assert checks.check_tree_job(net, job.params, sol, outdir, ref) == []

    wrong_energy = replace(sol, energy=sol.energy * (1.0 + 1e-7))
    assert checks.check_tree_job(net, job.params, wrong_energy, outdir, ref)

    values = sol.conductivities.values * 1.01
    perturbed = replace(sol, conductivities=nf.Conductivities(values))
    assert checks.check_tree_job(net, job.params, perturbed, outdir, ref)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        graphs = workloads.build_inputs(NullTracer(), "leaf-sweep", seed, tmp_path / sub)
        return [g.path.read_text() for g in graphs]

    first = files(5, "a")
    assert files(5, "b") == first
    assert files(6, "c") != first


def test_tree_search_leaves_have_banded_tree_counts(tmp_path):
    graphs = workloads.build_inputs(NullTracer(), "tree-search", 3, tmp_path)
    low, high = workloads.TREE_LEAF_BAND
    assert [g.mesh_seed is None for g in graphs] == [False] * workloads.TREE_LEAF_MESHES + [True]
    assert all(low <= g.trees <= high for g in graphs[:-1])
    assert len({g.mesh_seed for g in graphs}) == len(graphs)


def test_every_workload_cycles_its_parameters(tmp_path):
    for workload in workloads.WORKLOADS:
        (tmp_path / workload).mkdir()
        graphs = workloads.build_inputs(NullTracer(), workload, 0, tmp_path / workload)
        per_round = workloads.cycle_length(workload)
        labels = [workloads.job_at(workload, graphs, 0, i).label for i in range(2 * per_round)]
        assert len(set(labels)) == per_round
        assert labels[:per_round] == labels[per_round:]


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("job"):
        with tr.span("io.load_graph"):
            pass
    job, child = tr.spans
    own = tr.self_times()
    assert own[1] == child["end"] - child["start"]
    assert math.isclose(own[0] + own[1], job["end"] - job["start"])


def test_tail_keeps_ten_jobs_beyond():
    assert harness.tail(list(range(20)))[1] == 50
    assert harness.tail(list(range(42)))[1] == 75
    assert harness.tail(list(range(1000)))[1] == 99
    value, level = harness.tail(list(range(27)))
    assert level == 60 and sum(v > value for v in range(27)) >= 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "seven-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
