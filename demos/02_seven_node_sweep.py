#!/usr/bin/env python3
"""Robustness sweep on the built-in 7-vertex complete network.

As the robustness weight grows, the optimal transport network keeps more
edges alive: the pure-energy optimum is a spanning tree, and each increase
of mu buys connectivity (a larger Fiedler value) at the price of metabolic
cost.  Writes one SVG per mu plus a summary CSV.
"""

from pathlib import Path

import netforge as nf

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

net = nf.seven_node_network()
params = nf.ModelParams(gamma=1.0, nu=1.0)
config = nf.OptimConfig(iters=30_000, seed=0)
mu_values = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

runs = nf.sweep_mu(net, params, mu_values, config)
nf.write_sweep_csv(runs, OUT / "seven_node_summary.csv")

print(f"{'mu':>4} {'E':>10} {'E_kin':>9} {'E_met':>9} {'fiedler':>9} {'edges':>6}  loop-free")
for mu, run in zip(mu_values, runs):
    rec = run.best_record
    loop_free = nf.is_loop_free(net, run.best_C, threshold=1e-6)
    print(
        f"{mu:4.1f} {rec.E:10.6f} {rec.E_kin:9.6f} {rec.E_met:9.6f} "
        f"{rec.fiedler:9.6f} {rec.active_edges:6d}  {loop_free}"
    )
    nf.save_svg(net, run.best_C, OUT / f"seven_node_mu_{mu:g}.svg")

print(f"\nwrote {OUT / 'seven_node_summary.csv'} and one SVG per mu")
