"""Recompute bench/references.json: the reference optima the benchmark's
correctness checks and its F_excess metric compare against.

    python3 bench/make_references.py [--iters 1000000] [--seeds 0,1]

Seven-node references, gamma = nu = 1:

* mu = 0: the optimum is a spanning tree, so the exhaustive tree search
  gives it exactly (``global_tree_search`` at gamma = 1).
* mu > 0: the objective is nonsmooth and no closed form is known, so the
  reference is the lowest best_F of long ``optimize`` runs (tau0 = 0.1,
  ``--iters`` iterations, one run per seed).  ``accuracy`` bounds how far
  the reference may sit above the true optimum: four times the spread of
  the per-seed values, and at least 1e-9 relative.

Tree-search references: the exhaustive optimum on the seven-node graph at
each benchmark gamma (nu = 1), with its tree's edge ids.

Takes about 20 minutes on one core with the defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import netforge as nf  # noqa: E402

SEVEN_MU = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
TREE_GAMMA = (0.5, 1.0)


def seven_reference(net, mu, iters, seeds):
    if mu == 0.0:
        sol = nf.global_tree_search(net, nf.ModelParams(gamma=1.0, nu=1.0))
        return {"F": sol.energy, "accuracy": 1e-12 * abs(sol.energy),
                "method": "global_tree_search, gamma=1, nu=1 (exact)"}
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    values = []
    for seed in seeds:
        config = nf.OptimConfig(iters=iters, seed=seed, trace_stride=iters)
        values.append(nf.optimize(net, params, config).best_F)
    best = min(values)
    spread = max(values) - best
    return {"F": best, "accuracy": max(4.0 * spread, 1e-9 * abs(best)),
            "per_seed": values,
            "method": f"min best_F of optimize, tau0=0.1, iters={iters}, seeds={list(seeds)}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--iters", type=int, default=1_000_000)
    parser.add_argument("--seeds", default="0,1")
    parser.add_argument("--out", default=str(HERE / "references.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    net = nf.seven_node_network()
    seven = {}
    for mu in SEVEN_MU:
        start = time.perf_counter()
        seven[repr(mu)] = seven_reference(net, mu, args.iters, seeds)
        print(f"seven mu={mu}: {seven[repr(mu)]['F']!r} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)

    trees = {}
    for gamma in TREE_GAMMA:
        sol = nf.global_tree_search(net, nf.ModelParams(gamma=gamma, nu=1.0))
        trees[repr(gamma)] = {"energy": sol.energy, "edge_ids": list(sol.tree.edge_ids)}

    doc = {
        "about": "written by bench/make_references.py; see its docstring",
        "seven_node": {"gamma": 1.0, "nu": 1.0, "F_ref": seven},
        "tree_search_seven_node": {"nu": 1.0, "optimum": trees},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
