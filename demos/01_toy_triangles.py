#!/usr/bin/env python3
"""Two benchmark triangles: exact optima vs the subgradient optimizer.

Both networks live on the unit triangle.  The first sends one unit of flow
from vertex 0 to vertex 1 (vertex 2 idle), the second splits it 1/3 : 2/3
between vertices 1 and 2.  Without a robustness reward the optimum is a bare
path / vee; once the reward outweighs the metabolic cost (mu > nu/2) the
ring closes and all edges stay active.
"""

from pathlib import Path

import numpy as np

import netforge as nf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ITERS = 30_000


def run(label, net, oracle_fn):
    print(f"\n=== {label} ===")
    print(f"{'mu':>5} {'F (optimizer)':>15} {'F (exact)':>16} {'diff':>9}  best C")
    for mu in (0.0, 0.2, 0.4, 0.6, 0.8):
        params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
        result = nf.optimize(net, params, nf.OptimConfig(iters=ITERS, seed=0))
        oracle = oracle_fn(1.0, mu)
        print(
            f"{mu:5.2f} {result.best_F:15.8f} {oracle.F_value:16.8f} "
            f"{abs(result.best_F - oracle.F_value):9.1e}  "
            + np.array2string(result.best_C.values, precision=4)
        )
    return result


net1 = nf.toy1_network()
net2 = nf.toy2_network()
run("triangle with sources (+1, -1, 0)", net1, nf.toy1_optimum)
run("triangle with sources (+1, -1/3, -2/3)", net2, nf.toy2_optimum)

# side-by-side pictures: the sparse optimum vs the robust ring
for tag, mu in (("sparse", 0.0), ("robust", 0.8)):
    params = nf.ModelParams(gamma=1.0, nu=1.0, mu=mu)
    result = nf.optimize(net2, params, nf.OptimConfig(iters=ITERS, seed=0))
    path = OUT / f"triangle_{tag}.svg"
    nf.save_svg(net2, result.best_C, path)
    print(f"wrote {path}")
