"""File formats: JSON graph and conductivity documents, CSV traces and
sweep summaries, deterministic SVG rendering.

Floats are serialized through Python's shortest round-trip repr, so loading
a saved document reproduces the original values bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .graph import (
    ACTIVE_EDGE_THRESHOLD,
    Conductivities,
    Network,
    edge_values,
    new_network,
)
from .optimizer import OptimRun, SweepResult

TRACE_COLUMNS = (
    "k", "F", "E", "E_kin", "E_met", "fiedler", "lambda2", "lambda3",
    "multiplicity", "active_edges", "tau", "best",
)

SWEEP_COLUMNS = (
    "mu", "F", "E", "E_kin", "E_met", "fiedler", "lambda2", "lambda3",
    "multiplicity", "active_edges", "termination", "restarts",
)


# ---------------------------------------------------------------- graphs

def network_to_dict(net: Network) -> dict:
    vertices = []
    for i in range(net.vertex_count):
        entry = {"id": i}
        if net.positions is not None:
            entry["x"] = float(net.positions[i, 0])
            entry["y"] = float(net.positions[i, 1])
        entry["source"] = float(net.sources[i])
        vertices.append(entry)
    edges = [
        {"u": int(u), "v": int(v), "length": float(length)}
        for u, v, length in net.edges
    ]
    return {"vertices": vertices, "edges": edges}


def _object_list(doc, key: str) -> list:
    """``doc[key]``, checked to be a list of JSON objects."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    entries = doc[key]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"{key!r} must be a list of objects")
    return entries


def network_from_dict(doc: dict) -> Network:
    vertices = _object_list(doc, "vertices")
    ids = sorted(int(v["id"]) for v in vertices)
    if ids != list(range(len(vertices))):
        raise ValueError("vertex ids must be 0-based and dense")
    n = len(vertices)

    sources = np.zeros(n)
    has_xy = all("x" in v and "y" in v for v in vertices)
    positions = np.zeros((n, 2)) if has_xy else None
    for v in vertices:
        i = int(v["id"])
        sources[i] = float(v["source"])
        if has_xy:
            positions[i] = (float(v["x"]), float(v["y"]))

    edges = []
    for e in _object_list(doc, "edges"):
        u, v = int(e["u"]), int(e["v"])
        if "length" in e and e["length"] is not None:
            length = float(e["length"])
        elif has_xy:
            length = float(np.hypot(*(positions[u] - positions[v])))
        else:
            length = 1.0
        edges.append((u, v, length))
    return new_network(n, edges, sources, positions)


def save_graph(net: Network, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=1) + "\n")


def load_graph(path) -> Network:
    return network_from_dict(json.loads(Path(path).read_text()))


# -------------------------------------------------------- conductivities

def conductivities_to_dict(net: Network, C) -> dict:
    values = edge_values(net, C)
    return {
        "edges": [
            {"u": int(u), "v": int(v), "c": float(values[eid])}
            for eid, (u, v, _) in enumerate(net.edges)
        ]
    }


def conductivities_from_dict(net: Network, doc: dict) -> Conductivities:
    """Per-edge values from a document; edges absent from it default to 0."""
    values = np.zeros(net.edge_count)
    for entry in _object_list(doc, "edges"):
        u, v = int(entry["u"]), int(entry["v"])
        key = (u, v) if u < v else (v, u)
        if key not in net.edge_index:
            raise ValueError(f"conductivity given for missing edge {key}")
        values[net.edge_index[key]] = float(entry["c"])
    return Conductivities(values)


def save_conductivities(net: Network, C, path) -> None:
    Path(path).write_text(json.dumps(conductivities_to_dict(net, C), indent=1) + "\n")


def load_conductivities(net: Network, path) -> Conductivities:
    return conductivities_from_dict(net, json.loads(Path(path).read_text()))


# ----------------------------------------------------------------- traces

def _csv_cell(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def write_trace_csv(run: OptimRun, path) -> None:
    """Iterate trace of one run; the row of the best iterate carries best=1."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for rec in run.trace:
            writer.writerow(
                [
                    _csv_cell(v)
                    for v in (
                        rec.k, rec.F, rec.E, rec.E_kin, rec.E_met, rec.fiedler,
                        rec.lambda2, rec.lambda3, rec.multiplicity,
                        rec.active_edges, rec.tau,
                        1 if rec is run.best_record else 0,
                    )
                ]
            )


def write_sweep_csv(sweep: SweepResult, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for row in sweep.summary:
            writer.writerow([_csv_cell(row[c]) for c in SWEEP_COLUMNS])


def run_summary(run: OptimRun) -> dict:
    rec = run.best_record
    return {
        "best_F": run.best_F,
        "E": rec.E,
        "E_kin": rec.E_kin,
        "E_met": rec.E_met,
        "fiedler": rec.fiedler,
        "multiplicity": rec.multiplicity,
        "active_edges": rec.active_edges,
        "best_iteration": rec.k,
        "termination": run.termination,
        "restarts": run.restarts,
    }


# ------------------------------------------------------------------- SVG

def _layout(net: Network) -> np.ndarray:
    if net.positions is not None:
        return np.asarray(net.positions, dtype=float)
    angles = 2.0 * math.pi * np.arange(net.vertex_count) / net.vertex_count
    return np.column_stack([np.cos(angles), np.sin(angles)])


def render_svg(
    net: Network,
    C=None,
    threshold: float = ACTIVE_EDGE_THRESHOLD,
    size: int = 480,
) -> str:
    """Deterministic SVG drawing of the network.

    Edge stroke width is proportional to sqrt(C_e); edges below the active
    threshold are omitted entirely.  With ``C=None`` all edges are drawn
    hairline.  Vertices use stored positions when available, otherwise a
    circular layout.
    """
    pos = _layout(net)
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    pad = 0.08 * span

    def to_px(p):
        x = (p[0] - lo[0] + pad) / (span + 2 * pad) * size
        y = (hi[1] - p[1] + pad) / (span + 2 * pad) * size
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]

    if C is None:
        widths = {eid: 1.0 for eid in range(net.edge_count)}
    else:
        values = edge_values(net, C)
        cut = threshold * max(float(values.max(initial=0.0)), 1.0)
        peak = math.sqrt(values.max()) if values.size and values.max() > 0 else 1.0
        widths = {
            eid: 8.0 * math.sqrt(values[eid]) / peak
            for eid in range(net.edge_count)
            if values[eid] > cut
        }

    for eid in sorted(widths):
        u, v = int(net.edge_u[eid]), int(net.edge_v[eid])
        x1, y1 = to_px(pos[u])
        x2, y2 = to_px(pos[v])
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#2b6cb0" stroke-width="{widths[eid]:.3f}" stroke-linecap="round"/>'
        )

    for i in range(net.vertex_count):
        x, y = to_px(pos[i])
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#1a1a1a"/>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(net: Network, C, path, threshold: float = ACTIVE_EDGE_THRESHOLD) -> None:
    Path(path).write_text(render_svg(net, C, threshold=threshold))
