import json

import numpy as np
import pytest

import netforge as nf
from conftest import random_conductivities, random_connected_network


def test_graph_json_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    net = nf.leaf_network(nodes=20, seed=3)  # positions and ragged lengths
    path = tmp_path / "leaf.json"
    nf.save_graph(net, path)
    loaded = nf.load_graph(path)
    assert loaded == net
    # second round trip is byte-identical
    path2 = tmp_path / "leaf2.json"
    nf.save_graph(loaded, path2)
    assert path.read_text() == path2.read_text()

    plain = random_connected_network(rng)  # no positions
    nf.save_graph(plain, path)
    assert nf.load_graph(path) == plain


WRITER_NETWORKS = {
    "seven-node": nf.seven_node_network,
    "leaf-400": lambda: nf.leaf_network(400, 1),
    "toy1": nf.toy1_network,
    "edgeless": lambda: nf.new_network(1, [], [0.0]),
    "tiny-length": lambda: nf.new_network(3, [(0, 1, 1e-300), (1, 2, 2.5)], [-0.0, 1.0, -1.0]),
}


@pytest.mark.parametrize("name", WRITER_NETWORKS)
def test_writers_match_the_json_encoder(name, tmp_path):
    net = WRITER_NETWORKS[name]()
    nf.save_graph(net, tmp_path / "graph.json")
    expected = json.dumps(nf.io.network_to_dict(net), indent=1) + "\n"
    assert (tmp_path / "graph.json").read_text() == expected
    rng = np.random.default_rng(4)
    m = net.edge_count
    for C in (np.zeros(m), rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 1e-300, m)):
        nf.save_conductivities(net, C, tmp_path / "c.json")
        expected = json.dumps(nf.io.conductivities_to_dict(net, C), indent=1) + "\n"
        assert (tmp_path / "c.json").read_text() == expected


def test_graph_json_length_defaults(tmp_path):
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0, "source": 1.0},
            {"id": 1, "x": 3.0, "y": 4.0, "source": -1.0},
        ],
        "edges": [{"u": 0, "v": 1}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    net = nf.load_graph(path)
    assert net.edges[0][2] == pytest.approx(5.0)  # Euclidean default

    doc["vertices"] = [{"id": 0, "source": 1.0}, {"id": 1, "source": -1.0}]
    path.write_text(json.dumps(doc))
    assert nf.load_graph(path).edges[0][2] == 1.0  # fallback default


def test_graph_json_requires_dense_ids(tmp_path):
    doc = {
        "vertices": [{"id": 0, "source": 1.0}, {"id": 2, "source": -1.0}],
        "edges": [{"u": 0, "v": 2}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        nf.load_graph(path)


@pytest.mark.parametrize(
    "vertex, edge",
    [
        ({"id": "0"}, {}),
        ({"id": True}, {}),
        ({}, {"u": False}),
        ({}, {"length": "2"}),
        ({"source": "1"}, {}),
        ({"x": "0", "y": 0}, {}),
        ({"id": "1e3"}, {}),
    ],
)
def test_graph_json_rejects_strings_and_booleans_as_numbers(vertex, edge):
    key = next(iter(vertex or edge))
    doc = {
        "vertices": [
            {"id": 0, "x": 0, "y": 0, "source": 1.0, **vertex},
            {"id": 1, "x": 1, "y": 0, "source": -1.0},
        ],
        "edges": [{"u": 0, "v": 1, **edge}],
    }
    with pytest.raises(ValueError, match=f"^'{key}' must be a number, got "):
        nf.io.network_from_dict(doc)


@pytest.mark.parametrize("entry", [{"c": "1"}, {"c": True}, {"u": "0"}, {"v": True}])
def test_conductivities_json_rejects_strings_and_booleans_as_numbers(entry):
    key = next(iter(entry))
    doc = {"edges": [{"u": 0, "v": 1, "c": 1.0, **entry}]}
    with pytest.raises(ValueError, match=f"^'{key}' must be a number, got "):
        nf.io.conductivities_from_dict(nf.toy1_network(), doc)


def test_conductivities_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    net = random_connected_network(rng)
    values = random_conductivities(rng, net)
    path = tmp_path / "c.json"
    nf.save_conductivities(net, values, path)
    loaded = nf.load_conductivities(net, path)
    assert np.array_equal(loaded.values, values)


def test_conductivities_missing_edges_default_to_zero(tmp_path):
    net = nf.toy1_network()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"edges": [{"u": 1, "v": 0, "c": 2.0}]}))
    loaded = nf.load_conductivities(net, path)
    assert loaded.values.tolist() == [2.0, 0.0, 0.0]


def test_conductivities_unknown_edge_rejected(tmp_path):
    net = nf.new_network(3, [(0, 1), (1, 2)], [1.0, 0.0, -1.0])
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"edges": [{"u": 0, "v": 2, "c": 1.0}]}))
    with pytest.raises(ValueError):
        nf.load_conductivities(net, path)


def test_trace_csv(tmp_path):
    run = nf.optimize(
        nf.toy1_network(),
        nf.ModelParams(gamma=1.0, nu=1.0, mu=0.3),
        nf.OptimConfig(iters=400, seed=0, trace_stride=100),
    )
    path = tmp_path / "trace.csv"
    nf.write_trace_csv(run, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "k", "F", "E", "E_kin", "E_met", "fiedler", "lambda2", "lambda3",
        "multiplicity", "active_edges", "tau", "best",
    ]
    rows = [line.split(",") for line in lines[1:]]
    ks = [int(r[0]) for r in rows]
    assert ks == sorted(ks)
    assert sum(int(r[-1]) for r in rows) == 1  # exactly one best row
    best_row = next(r for r in rows if r[-1] == "1")
    assert float(best_row[1]) == run.best_F


def test_sweep_csv(tmp_path):
    runs = nf.sweep_mu(
        nf.toy1_network(),
        nf.ModelParams(gamma=1.0, nu=1.0),
        [0.0, 0.8],
        nf.OptimConfig(iters=500, seed=0),
    )
    path = tmp_path / "summary.csv"
    nf.write_sweep_csv(runs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("mu,F,E,")
    assert len(lines) == 3
    for line, run in zip(lines[1:], runs):
        row, rec = dict(zip(lines[0].split(","), line.split(","))), run.best_record
        assert (row["mu"], row["F"]) == (repr(run.params.mu), repr(rec.F))
        assert (row["multiplicity"], row["active_edges"]) == (str(rec.multiplicity), str(rec.active_edges))
        assert (row["termination"], row["restarts"]) == (run.termination, str(run.restarts))


def test_svg_rendering_deterministic():
    net = nf.seven_node_network()
    values = np.linspace(0.0, 1.0, net.edge_count)
    first = nf.render_svg(net, values)
    second = nf.render_svg(net, values)
    assert first == second
    assert first.count("<line") == int(np.count_nonzero(values > 1e-8))


def test_svg_zero_conductivities_draws_vertices_only():
    net = nf.toy1_network()
    svg = nf.render_svg(net, [0.0, 0.0, 0.0])
    assert "<line" not in svg
    assert svg.count("<circle") == 3


def test_svg_width_scales_with_sqrt_conductivity():
    net = nf.toy1_network()
    svg = nf.render_svg(net, [4.0, 1.0, 0.0])
    widths = [
        float(part.split('"')[1])
        for part in svg.split("stroke-width=")[1:]
    ]
    assert len(widths) == 2
    assert widths[0] == pytest.approx(2.0 * widths[1])


def test_svg_fallback_layout_without_positions():
    net = nf.toy1_network()  # no positions
    svg = nf.render_svg(net, [1.0, 1.0, 1.0])
    assert svg.count("<circle") == 3
