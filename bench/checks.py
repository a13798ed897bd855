"""Correctness checks of one benchmark job, run outside the timed region.

Each check returns a list of failure messages; an empty list means the job's
result is right.  Every value is recomputed through netforge's public API,
never read back from the object under test.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import netforge as nf
from netforge import io

#: relative agreement required between a reported and a recomputed energy
ENERGY_RTOL = 1e-9

#: flow conservation B Q = S must hold within this fraction of max|S|
CONSERVATION_RTOL = 1e-8

#: at mu = 0 the optimizer must land this close (relative) to the tree search
TREE_AGREEMENT_RTOL = 1e-4

#: edges above this relative conductivity count when testing for loops
LOOP_THRESHOLD = 1e-6


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _conservation_error(net, fluxes) -> float:
    """max |B Q - S| / max |S|, with B applied edge by edge (no dense matrix)."""
    n = net.vertex_count
    divergence = np.bincount(net.edge_u, fluxes, n) - np.bincount(net.edge_v, fluxes, n)
    return float(np.abs(divergence - net.sources).max() / np.abs(net.sources).max())


def _check_conductivity_file(net, values, path) -> list:
    loaded = io.load_conductivities(net, path).values
    if not np.array_equal(loaded, values):
        return [f"{path.name} does not reload bit-exactly"]
    return []


def check_optimizer_job(net, params, run, outdir, summary, ref=None) -> list:
    """Checks of one ``optimize`` job and the files it wrote.

    ``ref`` is the seven-node reference ``{"F": ..., "accuracy": ...}`` for
    the job's mu, or None where no reference exists.
    """
    if run.termination == "diverged" or not math.isfinite(run.best_F):
        return [f"run ended {run.termination!r} with best_F {run.best_F!r}"]

    fails = []
    recomputed = nf.modified_energy(net, run.best_C, params)
    if not _close(recomputed, run.best_F, ENERGY_RTOL):
        fails.append(f"best_F {run.best_F!r} but modified_energy(best_C) = {recomputed!r}")
    if not run.best_F <= run.trace[0].F:
        fails.append(f"best_F {run.best_F!r} above the first iterate's {run.trace[0].F!r}")

    sol = nf.solve_kirchhoff(net, run.best_C)
    if not sol.solvable:
        fails.append("flow problem at best_C is unsolvable")
    elif _conservation_error(net, sol.fluxes) > CONSERVATION_RTOL:
        fails.append("B Q != S at best_C")

    if ref is not None:
        if run.best_F < ref["F"] - ref["accuracy"]:
            fails.append(f"best_F {run.best_F!r} below the reference {ref['F']!r}")
        if params.mu == 0.0:
            if not nf.is_loop_free(net, run.best_C, threshold=LOOP_THRESHOLD):
                fails.append("mu = 0 optimum contains a loop")
            if not _close(run.best_F, ref["F"], TREE_AGREEMENT_RTOL):
                fails.append(f"mu = 0 best_F {run.best_F!r} far from tree search {ref['F']!r}")

    fails += _check_conductivity_file(net, run.best_C.values, outdir / "best_c.json")
    if json.loads((outdir / "summary.json").read_text()) != summary:
        fails.append("summary.json does not reload to the written summary")
    with open(outdir / "trace.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(run.trace):
        fails.append(f"trace.csv has {len(rows)} rows for {len(run.trace)} records")
    elif any(float(row["F"]) != rec.F or int(row["k"]) != rec.k for row, rec in zip(rows, run.trace)):
        fails.append("trace.csv does not reload bit-exactly")
    return fails


def check_tree_job(net, params, sol, outdir, ref_energy=None) -> list:
    """Checks of one ``global_tree_search`` job; ``ref_energy`` is the stored
    optimum for fixed inputs, None for seeded ones."""
    fails = []
    recomputed = nf.energy(net, sol.conductivities, params).total
    if not _close(recomputed, sol.energy, ENERGY_RTOL):
        fails.append(f"tree energy {sol.energy!r} but energy(C) = {recomputed!r}")
    if ref_energy is not None and not _close(sol.energy, ref_energy, ENERGY_RTOL):
        fails.append(f"tree energy {sol.energy!r} differs from the stored optimum {ref_energy!r}")
    fails += _check_conductivity_file(net, sol.conductivities.values, outdir / "best_c.json")
    return fails
