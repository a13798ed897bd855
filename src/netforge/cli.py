"""Command-line interface.

``optimize`` and ``sweep`` take ``--graph``, ``--gamma`` (default 1),
``--nu``, ``--tau0`` (0.1), ``--iters`` (100000), ``--seed`` (0),
``--trace-stride`` (1000) and ``--out``; ``optimize`` adds ``--mu`` (0),
``sweep`` adds ``--mu-list`` and ``--jobs`` (1) and seeds its runs
consecutively from ``--seed``.  Every run writes ``best_c.json``,
``trace.csv`` and ``summary.json`` with the keys gamma, nu, mu, tau0, iters,
seed, best_F, E, E_kin, E_met, fiedler, multiplicity, active_edges,
best_iteration, termination and restarts.

Exit codes: 0 on success, 1 on validation or input errors (a machine-readable
``{"error": ..., "message": ...}`` JSON line goes to stderr), 2 when an
optimizer run (any run of a sweep) ended ``diverged`` or ``gave_up``; its
output files are still written.  The environment variable ``NETFORGE_SEED``
overrides any ``--seed`` option.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .datasets import leaf_network
from .errors import NetforgeError
from .graph import ACTIVE_EDGE_THRESHOLD, ModelParams
from .kirchhoff import solve_kirchhoff
from .optimizer import OptimConfig, optimize, sweep_mu
from .trees import _tree_energy_blocks


#: run terminations that make ``optimize`` and ``sweep`` exit with code 2
_FAILED_TERMINATIONS = ("diverged", "gave_up")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors into the JSON channel
        raise _UsageError(message)


def _seed(value: int) -> int:
    env = os.environ.get("NETFORGE_SEED")
    return int(env) if env is not None else value


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    net = io.load_graph(args.graph)
    if args.conductivities:
        C = io.load_conductivities(net, args.conductivities)
    else:
        C = [1.0] * net.edge_count
    sol = solve_kirchhoff(net, C)
    doc = {
        "solvable": sol.solvable,
        "components": [list(comp) for comp in sol.components],
        "pressures": [None if math.isnan(p) else p for p in sol.pressures.tolist()],
        "fluxes": [None if math.isnan(q) else q for q in sol.fluxes.tolist()],
    }
    _emit(json.dumps(doc, indent=1) + "\n", args.out)
    return 0


def _run_config(args) -> OptimConfig:
    return OptimConfig(
        tau0=args.tau0,
        iters=args.iters,
        seed=_seed(args.seed),
        trace_stride=args.trace_stride,
    )


def _write_run(net, run, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    io.save_conductivities(net, run.best_C, outdir / "best_c.json")
    io.write_trace_csv(run, outdir / "trace.csv")
    (outdir / "summary.json").write_text(json.dumps(io.run_summary(run), indent=1) + "\n")


def _cmd_optimize(args) -> int:
    net = io.load_graph(args.graph)
    run = optimize(net, ModelParams(gamma=args.gamma, nu=args.nu, mu=args.mu), _run_config(args))
    _write_run(net, run, Path(args.out))
    return 2 if run.termination in _FAILED_TERMINATIONS else 0


def _cmd_sweep(args) -> int:
    net = io.load_graph(args.graph)
    params = ModelParams(gamma=args.gamma, nu=args.nu, mu=0.0)
    mu_values = [float(x) for x in args.mu_list.split(",") if x.strip() != ""]
    if not mu_values:
        raise ValueError("--mu-list is empty")
    runs = sweep_mu(net, params, mu_values, _run_config(args), jobs=args.jobs)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, run in enumerate(runs):
        _write_run(net, run, outdir / f"run_{i:02d}_mu_{run.params.mu:g}")
    io.write_sweep_csv(runs, outdir / "summary.csv")
    failed = any(run.termination in _FAILED_TERMINATIONS for run in runs)
    return 2 if failed else 0


def _cmd_trees(args) -> int:
    net = io.load_graph(args.graph)
    params = ModelParams(gamma=args.gamma, nu=args.nu, mu=0.0)
    ids, energies = map(np.concatenate, zip(*_tree_energy_blocks(net, params)))
    order = np.argsort(energies, kind="stable")  # equal energies keep enumeration order
    rows = (
        f"{rank},{float(energies[i])!r},{' '.join(map(str, ids[i].tolist()))}\n"
        for rank, i in enumerate(order, start=1)
    )
    _emit("rank,energy,edges\n" + "".join(rows), args.out)
    return 0


def _cmd_render(args) -> int:
    net = io.load_graph(args.graph)
    C = io.load_conductivities(net, args.conductivities)
    io.save_svg(net, C, args.out, threshold=args.threshold)
    return 0


def _cmd_gen_leaf(args) -> int:
    net = leaf_network(nodes=args.nodes, seed=_seed(args.seed))
    _emit(json.dumps(io.network_to_dict(net), indent=1) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the flow-conservation system")
    p.add_argument("--graph", required=True)
    p.add_argument("--conductivities", help="JSON document; defaults to 1 on every edge")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    def add_opt_args(p, with_mu=True):
        p.add_argument("--graph", required=True)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--nu", type=float, required=True)
        if with_mu:
            p.add_argument("--mu", type=float, default=0.0)
        p.add_argument("--tau0", type=float, default=0.1)
        p.add_argument("--iters", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trace-stride", type=int, default=1000)
        p.add_argument("--out", required=True)

    p = sub.add_parser("optimize", help="projected subgradient minimization")
    add_opt_args(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="one optimizer run per mu value")
    add_opt_args(p, with_mu=False)
    p.add_argument("--mu-list", required=True, help='comma-separated, e.g. "0,0.2,0.4"')
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trees", help="rank all spanning-tree solutions by energy")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("render", help="draw the network as SVG, width ~ sqrt(C)")
    p.add_argument("--graph", required=True)
    p.add_argument("--conductivities", required=True)
    p.add_argument("--threshold", type=float, default=ACTIVE_EDGE_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen-leaf", help="generate a leaf-shaped triangulated network")
    p.add_argument("--nodes", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_leaf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, NetforgeError, ValueError, KeyError, OSError) as exc:
        message = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
