"""Command-line interface.

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
from dataclasses import replace
from pathlib import Path

from . import io
from .datasets import leaf_network
from .errors import NetforgeError
from .graph import ModelParams
from .kirchhoff import solve_kirchhoff
from .optimizer import OptimConfig, optimize, sweep_mu
from .trees import enumerate_spanning_trees, tree_local_minimizer


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


def _emit(doc: dict, out) -> None:
    text = json.dumps(doc, indent=1) + "\n"
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
    _emit(doc, args.out)
    return 0


def _run_config(args) -> OptimConfig:
    return OptimConfig(
        tau0=args.tau0,
        iters=args.iters,
        seed=_seed(args.seed),
        trace_stride=args.trace_stride,
        zero_threshold=args.zero_threshold,
    )


def _write_run(net, run, params, config, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    io.save_conductivities(net, run.best_C, outdir / "best_c.json")
    io.write_trace_csv(run, outdir / "trace.csv")
    summary = {
        "gamma": params.gamma,
        "nu": params.nu,
        "mu": params.mu,
        "tau0": config.tau0,
        "iters": config.iters,
        "seed": config.seed,
        **io.run_summary(run),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")


def _cmd_optimize(args) -> int:
    net = io.load_graph(args.graph)
    params = ModelParams(gamma=args.gamma, nu=args.nu, mu=args.mu)
    config = _run_config(args)
    run = optimize(net, params, config)
    _write_run(net, run, params, config, Path(args.out))
    return 2 if run.termination in _FAILED_TERMINATIONS else 0


def _cmd_sweep(args) -> int:
    net = io.load_graph(args.graph)
    params = ModelParams(gamma=args.gamma, nu=args.nu, mu=0.0)
    config = _run_config(args)
    mu_values = [float(x) for x in args.mu_list.split(",") if x.strip() != ""]
    if not mu_values:
        raise ValueError("--mu-list is empty")
    sweep = sweep_mu(net, params, mu_values, config, jobs=args.jobs)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i, (mu, run) in enumerate(zip(sweep.mu_values, sweep.runs)):
        rundir = outdir / f"run_{i:02d}_mu_{mu:g}"
        _write_run(net, run, replace(params, mu=mu), replace(config, seed=config.seed + i), rundir)
    io.write_sweep_csv(sweep, outdir / "summary.csv")
    failed = any(run.termination in _FAILED_TERMINATIONS for run in sweep.runs)
    return 2 if failed else 0


def _cmd_trees(args) -> int:
    net = io.load_graph(args.graph)
    params = ModelParams(gamma=args.gamma, nu=args.nu, mu=0.0)
    ranked = sorted(
        (
            (sol.energy, sol.tree.edge_ids)
            for sol in (
                tree_local_minimizer(net, tree, params)
                for tree in enumerate_spanning_trees(net, args.limit)
            )
        ),
        key=lambda item: item[0],
    )
    out = sys.stdout if not args.out else open(args.out, "w")
    try:
        out.write("rank,energy,edges\n")
        for rank, (value, ids) in enumerate(ranked, start=1):
            out.write(f"{rank},{value!r},{' '.join(map(str, ids))}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_render(args) -> int:
    net = io.load_graph(args.graph)
    C = io.load_conductivities(net, args.conductivities)
    io.save_svg(net, C, args.out, threshold=args.threshold)
    return 0


def _cmd_gen_leaf(args) -> int:
    net = leaf_network(nodes=args.nodes, seed=_seed(args.seed))
    _emit(io.network_to_dict(net), args.out)
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
        p.add_argument("--zero-threshold", type=float, default=1e-8)
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
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("render", help="draw the network as SVG, width ~ sqrt(C)")
    p.add_argument("--graph", required=True)
    p.add_argument("--conductivities", required=True)
    p.add_argument("--threshold", type=float, default=1e-8)
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
