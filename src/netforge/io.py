"""File formats: JSON graph and conductivity documents, CSV traces and
sweep summaries, deterministic SVG rendering.

Floats are serialized through Python's shortest round-trip repr, so loading
a saved document reproduces the original values bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from operator import attrgetter
from pathlib import Path

import numpy as np

from .graph import (
    ACTIVE_EDGE_THRESHOLD,
    Conductivities,
    Network,
    active_cutoff,
    edge_values,
    new_network,
)
from .optimizer import RECORD_FIELDS, OptimRun

TRACE_COLUMNS = (*RECORD_FIELDS, "best")

#: the record fields of a sweep row: all but the iterate index and step size
SUMMARY_FIELDS = tuple(name for name in RECORD_FIELDS if name not in ("k", "tau"))

SWEEP_COLUMNS = ("mu", *SUMMARY_FIELDS, "termination", "restarts")

#: width and height of the drawings of :func:`render_svg`, in pixels
SVG_SIZE = 480

_record_values = attrgetter(*RECORD_FIELDS)
_summary_values = attrgetter(*SUMMARY_FIELDS)


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


def _number(entry: dict, key: str, kind=float):
    """``kind(entry[key])``, with ValueError for values that are no number
    and, for ``kind=int``, for floats that are not whole numbers."""
    value = entry[key]
    try:
        number = kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{key!r} must be a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ValueError(f"{key!r} must be a whole number, got {value!r}")
    return number


def network_from_dict(doc: dict) -> Network:
    vertices = _object_list(doc, "vertices")
    ids = sorted(_number(v, "id", int) for v in vertices)
    if ids != list(range(len(vertices))):
        raise ValueError("vertex ids must be 0-based and dense")
    n = len(vertices)

    sources = np.zeros(n)
    has_xy = all("x" in v and "y" in v for v in vertices)
    positions = np.zeros((n, 2)) if has_xy else None
    for v in vertices:
        i = _number(v, "id", int)
        sources[i] = _number(v, "source")
        if has_xy:
            positions[i] = (_number(v, "x"), _number(v, "y"))

    edges = []
    for e in _object_list(doc, "edges"):
        u, v = _number(e, "u", int), _number(e, "v", int)
        if "length" in e and e["length"] is not None:
            length = _number(e, "length")
        elif has_xy:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
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
    """Per-edge values from a document; absent edges default to 0, repeated ones raise."""
    values = np.zeros(net.edge_count)
    seen = set()
    for entry in _object_list(doc, "edges"):
        u, v = _number(entry, "u", int), _number(entry, "v", int)
        key = (u, v) if u < v else (v, u)
        if key not in net.edge_index:
            raise ValueError(f"conductivity given for missing edge {key}")
        if key in seen:
            raise ValueError(f"conductivity given twice for edge {key}")
        seen.add(key)
        values[net.edge_index[key]] = _number(entry, "c")
    return Conductivities(values)


def save_conductivities(net: Network, C, path) -> None:
    Path(path).write_text(json.dumps(conductivities_to_dict(net, C), indent=1) + "\n")


def load_conductivities(net: Network, path) -> Conductivities:
    return conductivities_from_dict(net, json.loads(Path(path).read_text()))


# ----------------------------------------------------------------- traces

def _write_csv(path, columns, rows) -> None:
    """CSV with a header; floats (nan and +-inf included) are written as
    their shortest round-trip repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])


def write_trace_csv(run: OptimRun, path) -> None:
    """Iterate trace of one run; the row of the best iterate carries best=1."""
    best = run.best_record
    _write_csv(path, TRACE_COLUMNS, ((*_record_values(rec), int(rec is best)) for rec in run.trace))


def write_sweep_csv(runs, path) -> None:
    """One row per run: its mu, the ``SUMMARY_FIELDS`` of its best record,
    its termination and restarts."""
    rows = ((run.params.mu, *_summary_values(run.best_record), run.termination, run.restarts) for run in runs)
    _write_csv(path, SWEEP_COLUMNS, rows)


def run_summary(run: OptimRun) -> dict:
    """The ``summary.json`` document of one run: its parameters, then the
    best iterate's values, termination and restart count."""
    rec = run.best_record
    return {
        "gamma": run.params.gamma,
        "nu": run.params.nu,
        "mu": run.params.mu,
        "tau0": run.config.tau0,
        "iters": run.config.iters,
        "seed": run.config.seed,
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


def render_svg(net: Network, C=None, threshold: float = ACTIVE_EDGE_THRESHOLD) -> str:
    """Deterministic ``SVG_SIZE`` x ``SVG_SIZE`` SVG drawing of the network.

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
        x = (p[0] - lo[0] + pad) / (span + 2 * pad) * SVG_SIZE
        y = (hi[1] - p[1] + pad) / (span + 2 * pad) * SVG_SIZE
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]

    if C is None:
        widths = {eid: 1.0 for eid in range(net.edge_count)}
    else:
        values = edge_values(net, C)
        cut = active_cutoff(values, threshold)
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
