"""The benchmark's workloads: their inputs, the job each one runs, and the
kernel replay of the traced run.

A job is one user-visible call.  Optimizer jobs mirror the ``netforge
optimize`` handler in-process (load graph, optimize, write best_c.json,
trace.csv and summary.json); tree-search jobs load a graph, run the
exhaustive search and write the optimum's conductivities.  Inputs come only
from the workload seed; netforge sees nothing but the generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

import netforge as nf
from netforge import io

from checks import LOOP_THRESHOLD

NU = 1.0

#: seven-sweep: robustness weights cycled over, iterations per job.  The
#: mu = 0 jobs run longer because they must reach the tree-search optimum
#: (see checks.TREE_AGREEMENT_RTOL): after 5000 iterations 8 of 60 seeds
#: still carried a loop, and the slowest of 300 seeds needed 9018.
SEVEN_MU = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
SEVEN_ITERS = 5000
SEVEN_MU0_ITERS = 20000

#: leaf-sweep: mesh size, weights as in the leaf acceptance test, iterations,
#: and how many seeded meshes the jobs rotate through
LEAF_NODES = 400
LEAF_MU = (0.0, 1.0, 2.0)
LEAF_ITERS = 20
LEAF_MESHES = 4

#: tree-search: metabolic exponents, and the seeded 10-node leaves searched
#: besides the seven-node graph.  Leaf meshes are drawn until their
#: spanning-tree count lies in TREE_LEAF_BAND (about half of all meshes do),
#: so every seed searches the same amount of work per leaf job.  Seven leaves,
#: with the seven-node graph last in each cycle, keep the slower seven-node
#: jobs (16 807 trees) to at most an eighth of a run's jobs, so the median and
#: tail jobs are leaf jobs whatever the job count.
TREE_GAMMA = (0.5, 1.0)
TREE_LEAF_NODES = 10
TREE_LEAF_MESHES = 7
TREE_LEAF_BAND = (11000, 11400)

#: replay: timed calls per kernel and state, step size, and the length of the
#: optimize run replayed on tree-search graphs
REPLAY_REPEATS = 3
REPLAY_TAU = 0.1
REPLAY_ITERS = 1000

WORKLOADS = ("seven-sweep", "leaf-sweep", "tree-search")


def derive_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed determined by the workload seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


@dataclass(frozen=True)
class Graph:
    path: Path
    mesh_seed: Optional[int]  # None for the seven-node graph
    trees: Optional[int]  # spanning-tree count, tree-search inputs only


@dataclass(frozen=True)
class Job:
    index: int
    graph: Graph
    params: nf.ModelParams
    config: Optional[nf.OptimConfig]  # None for a tree-search job

    @property
    def label(self) -> str:
        if self.config is None:
            return f"gamma={self.params.gamma:g}"
        return f"mu={self.params.mu:g}"


def cycle_length(workload: str) -> int:
    """Jobs per round: one per robustness weight or metabolic exponent."""
    return {"seven-sweep": len(SEVEN_MU), "leaf-sweep": len(LEAF_MU),
            "tree-search": len(TREE_GAMMA)}[workload]


def _banded_leaf_seed(seed: int, i: int) -> int:
    """The first mesh seed, in a sequence fixed by the workload seed and i,
    whose 10-node leaf has a spanning-tree count within TREE_LEAF_BAND."""
    low, high = TREE_LEAF_BAND
    for attempt in range(1000):
        mesh_seed = derive_seed(seed, 2, i, attempt)
        if low <= nf.spanning_tree_count(nf.leaf_network(TREE_LEAF_NODES, mesh_seed)) <= high:
            return mesh_seed
    raise RuntimeError(f"no leaf mesh with {low}..{high} spanning trees for seed {seed}")


def build_inputs(tr, workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's graphs from the seed and write them as files."""
    if workload == "seven-sweep":
        specs = [None]
    elif workload == "leaf-sweep":
        specs = [(LEAF_NODES, derive_seed(seed, 1, i)) for i in range(LEAF_MESHES)]
    else:
        specs = [(TREE_LEAF_NODES, _banded_leaf_seed(seed, i)) for i in range(TREE_LEAF_MESHES)] + [None]

    graphs = []
    for i, spec in enumerate(specs):
        if spec is None:
            with tr.span("datasets.seven_node_network"):
                net = nf.seven_node_network()
            mesh_seed = None
        else:
            nodes, mesh_seed = spec
            with tr.span("datasets.leaf_network"):
                net = nf.leaf_network(nodes, mesh_seed)
        path = workdir / f"graph_{i}.json"
        io.save_graph(net, path)
        trees = nf.spanning_tree_count(net) if workload == "tree-search" else None
        graphs.append(Graph(path, mesh_seed, trees))
    return graphs


def job_at(workload: str, graphs: list, seed: int, i: int) -> Job:
    """The i-th job of the workload; every optimizer job has its own seed."""
    if workload == "seven-sweep":
        mu, graph = SEVEN_MU[i % len(SEVEN_MU)], graphs[0]
        iters = SEVEN_MU0_ITERS if mu == 0.0 else SEVEN_ITERS
    elif workload == "leaf-sweep":
        mu, iters = LEAF_MU[i % len(LEAF_MU)], LEAF_ITERS
        graph = graphs[(i // len(LEAF_MU)) % len(graphs)]
    else:
        gamma = TREE_GAMMA[i % len(TREE_GAMMA)]
        graph = graphs[(i // len(TREE_GAMMA)) % len(graphs)]
        return Job(i, graph, nf.ModelParams(gamma=gamma, nu=NU), None)
    config = nf.OptimConfig(iters=iters, seed=derive_seed(seed, 0, i))
    return Job(i, graph, nf.ModelParams(gamma=1.0, nu=NU, mu=mu), config)


def _optimize(tr, net, params, config):
    """``optimize`` under a span that records the run's counts."""
    with tr.span("optimizer.optimize") as span:
        start = perf_counter()
        run = nf.optimize(net, params, config)
        solver_s = perf_counter() - start
    # iterates 0 .. k of the last record were evaluated
    span.update(work=run.trace[-1].k + 1, records=len(run.trace), restarts=run.restarts,
                multiplicity=run.best_record.multiplicity)
    return run, solver_s, span["work"]


def _write_trace(tr, run, path: Path) -> None:
    with tr.span("io.write_trace_csv") as span:
        io.write_trace_csv(run, path)
    span["kb"] = path.stat().st_size / 1024.0


def run_job(tr, job: Job, outdir: Path):
    """Run one job; returns (net, result, summary, solver seconds, work units).

    The result is an ``OptimRun`` or a ``TreeSolution``; work units are
    iterates evaluated or spanning trees searched.
    """
    with tr.span("io.load_graph"):
        net = io.load_graph(job.graph.path)
    outdir.mkdir(parents=True)
    if job.config is None:
        with tr.span("trees.global_tree_search", work=job.graph.trees):
            start = perf_counter()
            sol = nf.global_tree_search(net, job.params)
            solver_s = perf_counter() - start
        with tr.span("io.save_conductivities"):
            io.save_conductivities(net, sol.conductivities, outdir / "best_c.json")
        return net, sol, None, solver_s, job.graph.trees

    run, solver_s, work = _optimize(tr, net, job.params, job.config)
    with tr.span("io.save_conductivities"):
        io.save_conductivities(net, run.best_C, outdir / "best_c.json")
    _write_trace(tr, run, outdir / "trace.csv")
    with tr.span("io.run_summary"):
        summary = {
            "gamma": job.params.gamma, "nu": job.params.nu, "mu": job.params.mu,
            "tau0": job.config.tau0, "iters": job.config.iters, "seed": job.config.seed,
            **io.run_summary(run),
        }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return net, run, summary, solver_s, work


def _length_spanning_tree(net) -> nf.SpanningTree:
    """The minimum-length spanning tree, as a fixed tree on any graph."""
    lengths = coo_matrix((net.lengths, (net.edge_u, net.edge_v)), shape=(net.vertex_count,) * 2)
    mst = minimum_spanning_tree(lengths).tocoo()
    pairs = zip(np.minimum(mst.row, mst.col).tolist(), np.maximum(mst.row, mst.col).tolist())
    return nf.make_spanning_tree(net, [net.edge_index[p] for p in pairs])


def replay(tr, job: Job, net, result, seed: int, workdir: Path, extras: bool) -> None:
    """Time each public kernel of the layer table on one job's inputs.

    The kernels run at iterate 0 (the optimizer's uniform initialisation)
    and at the job's result.  Optimizer kernels use gamma = 1, the only
    exponent they accept.  With ``extras``, the kernels this workload's jobs
    never call run once as well: the tree enumeration and search (on the
    job's graph when it has at most ten vertices, else on a ten-node leaf
    from the same mesh seed), and on tree-search a short ``optimize`` run.
    """
    is_tree = job.config is None
    p1 = nf.ModelParams(gamma=1.0, nu=job.params.nu, mu=job.params.mu)
    init_seed = derive_seed(seed, 3, job.index) if is_tree else job.config.seed
    c0 = np.random.default_rng(init_seed).uniform(0.0, 1.0, net.edge_count)
    best = result.conductivities if is_tree else result.best_C
    tree = result.tree if is_tree else _length_spanning_tree(net)

    for state, C in (("iter0", c0), ("best", best)):
        for _ in range(REPLAY_REPEATS):
            with tr.span("spectral.laplacian", state=state):
                lap = nf.laplacian(net, C)
            with tr.span("spectral.spectral_decompose", state=state):
                nf.spectral_decompose(lap)
            with tr.span("kirchhoff.solve_kirchhoff", state=state):
                nf.solve_kirchhoff(net, C)
            with tr.span("energy.energy", state=state):
                nf.energy(net, C, job.params)
            with tr.span("optimizer.modified_energy", state=state):
                nf.modified_energy(net, C, p1)
            with tr.span("optimizer.subgradient_step", state=state):
                nf.subgradient_step(net, C, p1, REPLAY_TAU)
            with tr.span("graph.support_components", state=state):
                nf.support_components(net, C)
            with tr.span("trees.is_loop_free", state=state):
                nf.is_loop_free(net, C, threshold=LOOP_THRESHOLD)
            with tr.span("trees.tree_local_minimizer", state=state):
                nf.tree_local_minimizer(net, tree, job.params)

    if not extras:
        return
    small = net
    if net.vertex_count > TREE_LEAF_NODES:
        small = nf.leaf_network(TREE_LEAF_NODES, job.graph.mesh_seed)
    with tr.span("trees.enumerate_spanning_trees") as span:
        count = sum(1 for _ in nf.enumerate_spanning_trees(small))
    span["work"] = count
    if is_tree:
        config = nf.OptimConfig(iters=REPLAY_ITERS, seed=init_seed)
        run, _, _ = _optimize(tr, net, nf.ModelParams(gamma=1.0, nu=job.params.nu), config)
        _write_trace(tr, run, workdir / f"replay_trace_{job.index}.csv")
    else:
        with tr.span("trees.global_tree_search", work=count):
            nf.global_tree_search(small, nf.ModelParams(gamma=1.0, nu=job.params.nu))
