import json

import numpy as np
import pytest

import netforge as nf
from netforge.cli import main


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    nf.save_graph(nf.toy1_network(), path)
    return path


def test_solve_to_stdout(triangle_file, capsys):
    assert main(["solve", "--graph", str(triangle_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solvable"]
    assert doc["fluxes"][0] == pytest.approx(2.0 / 3.0)


def test_solve_with_conductivities(triangle_file, tmp_path, capsys):
    cpath = tmp_path / "c.json"
    nf.save_conductivities(nf.toy1_network(), [1.0, 0.0, 0.0], cpath)
    assert main(["solve", "--graph", str(triangle_file), "--conductivities", str(cpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == [[0, 1], [2]]
    assert doc["fluxes"][0] == pytest.approx(1.0)


def test_optimize_writes_outputs(triangle_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "optimize", "--graph", str(triangle_file),
            "--gamma", "1", "--nu", "1", "--mu", "0.2",
            "--tau0", "0.1", "--iters", "3000", "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mu"] == 0.2
    assert summary["termination"] == "completed"
    assert (out / "trace.csv").exists()
    best = nf.load_conductivities(nf.toy1_network(), out / "best_c.json")
    assert best.values[0] == pytest.approx(1.0, abs=0.05)


def test_optimize_rejects_sublinear_gamma(triangle_file, tmp_path, capsys):
    code = main(
        [
            "optimize", "--graph", str(triangle_file),
            "--gamma", "0.5", "--nu", "1", "--iters", "10",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_optimize_divergence_exit_code(tmp_path):
    gpath = tmp_path / "edge.json"
    nf.save_graph(nf.new_network(2, [(0, 1)], [1.0, -1.0]), gpath)
    code = main(
        [
            "optimize", "--graph", str(gpath),
            "--nu", "1", "--mu", "2.0", "--tau0", "1e6",
            "--iters", "5000", "--seed", "0",
            "--out", str(tmp_path / "div"),
        ]
    )
    assert code == 2
    summary = json.loads((tmp_path / "div" / "summary.json").read_text())
    assert summary["termination"] == "diverged"


def test_optimize_gave_up_exit_code(tmp_path):
    gpath = tmp_path / "triangle.json"
    nf.save_graph(nf.new_network(3, [(0, 1), (0, 2), (1, 2)], [1.0, -0.5, -0.5]), gpath)
    code = main(
        [
            "optimize", "--graph", str(gpath),
            "--nu", "1", "--tau0", "1e6",
            "--iters", "300", "--seed", "0",
            "--out", str(tmp_path / "gave_up"),
        ]
    )
    assert code == 2
    summary = json.loads((tmp_path / "gave_up" / "summary.json").read_text())
    assert summary["termination"] == "gave_up"


def test_sweep_outputs(triangle_file, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--graph", str(triangle_file),
            "--nu", "1", "--mu-list", "0,0.8",
            "--iters", "2000", "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert (out / "run_00_mu_0" / "best_c.json").exists()
    assert (out / "run_01_mu_0.8" / "trace.csv").exists()
    # each row repeats its run's summary.json (floats in both as their repr)
    for name, line in zip(["run_00_mu_0", "run_01_mu_0.8"], lines[1:]):
        row = dict(zip(lines[0].split(","), line.split(",")))
        summary = json.loads((out / name / "summary.json").read_text())
        assert row["F"] == repr(summary["best_F"])
        for key in ("E", "E_kin", "E_met", "fiedler", "multiplicity", "active_edges", "termination", "restarts"):
            assert row[key] == str(summary[key]), key


def test_summary_json_carries_each_runs_params_and_config(triangle_file, tmp_path):
    out = tmp_path / "sweep"
    main(["sweep", "--graph", str(triangle_file), "--nu", "1", "--mu-list", "0.25,0.5",
          "--tau0", "0.2", "--iters", "200", "--seed", "7", "--out", str(out)])
    keys = [
        "gamma", "nu", "mu", "tau0", "iters", "seed", "best_F", "E", "E_kin", "E_met",
        "fiedler", "multiplicity", "active_edges", "best_iteration", "termination", "restarts",
    ]
    for i, name in enumerate(["run_00_mu_0.25", "run_01_mu_0.5"]):
        summary = json.loads((out / name / "summary.json").read_text())
        assert list(summary) == keys
        assert (summary["mu"], summary["seed"]) == ((0.25, 0.5)[i], 7 + i)
        assert (summary["tau0"], summary["iters"]) == (0.2, 200)


def test_optimize_help_lists_only_config_flags(capsys):
    with pytest.raises(SystemExit):
        main(["optimize", "--help"])
    text = capsys.readouterr().out
    assert "--trace-stride" in text and "--zero-threshold" not in text


def test_trees_help_has_no_limit_flag(capsys):
    with pytest.raises(SystemExit):
        main(["trees", "--help"])
    text = capsys.readouterr().out
    assert "--gamma" in text and "--limit" not in text


def test_sweep_help_has_no_jobs_flag(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    text = capsys.readouterr().out
    assert "--mu-list" in text and "--jobs" not in text


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--nu", "inf", "--iters", "10"],
        ["optimize", "--nu", "1", "--mu", "inf", "--iters", "10"],
        ["optimize", "--nu", "1", "--tau0", "inf", "--iters", "10"],
        ["trees", "--gamma", "inf", "--nu", "1"],
    ],
)
def test_nonfinite_parameters_json(triangle_file, tmp_path, capsys, args):
    out = tmp_path / "run"
    assert main([*args, "--graph", str(triangle_file), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert not out.exists()


def test_trees_on_too_many_trees_json(tmp_path, capsys):
    # K_150 has 150^148 > 1e308 spanning trees: the determinant overflows
    n = 150
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    path = tmp_path / "k150.json"
    nf.save_graph(nf.new_network(n, edges, [1.0] + [0.0] * (n - 2) + [-1.0]), path)
    assert main(["trees", "--graph", str(path), "--gamma", "1", "--nu", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TooManyTreesError"


def test_trees_table(triangle_file, capsys):
    assert main(["trees", "--graph", str(triangle_file), "--gamma", "1", "--nu", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,energy,edges"
    assert len(lines) == 4  # three spanning trees
    best_energy = float(lines[1].split(",")[1])
    assert best_energy == pytest.approx(2.0, rel=1e-12)


def test_trees_table_ranks_the_global_search_optimum_first(tmp_path, capsys):
    net = nf.seven_node_network()
    path = tmp_path / "seven.json"
    nf.save_graph(net, path)
    assert main(["trees", "--graph", str(path), "--gamma", "0.5", "--nu", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + nf.spanning_tree_count(net)
    best = nf.global_tree_search(net, nf.ModelParams(gamma=0.5, nu=1.0))
    rank, energy, edges = lines[1].split(",")
    assert rank == "1" and float(energy) == best.energy
    assert tuple(int(e) for e in edges.split()) == best.tree.edge_ids


@pytest.mark.parametrize("threshold", ["-1", "nan"])
def test_render_rejects_negative_or_nan_threshold(triangle_file, tmp_path, capsys, threshold):
    cpath = tmp_path / "c.json"
    nf.save_conductivities(nf.toy1_network(), [1.0, 0.0, 0.0], cpath)
    out = tmp_path / "net.svg"
    code = main(
        [
            "render", "--graph", str(triangle_file), "--conductivities", str(cpath),
            "--threshold", threshold, "--out", str(out),
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


def test_render_svg(triangle_file, tmp_path):
    cpath = tmp_path / "c.json"
    nf.save_conductivities(nf.toy1_network(), [1.0, 0.5, 0.0], cpath)
    out = tmp_path / "net.svg"
    code = main(
        [
            "render", "--graph", str(triangle_file),
            "--conductivities", str(cpath), "--out", str(out),
        ]
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.count("<line") == 2


def test_gen_leaf(tmp_path):
    out = tmp_path / "leaf.json"
    assert main(["gen-leaf", "--nodes", "25", "--seed", "3", "--out", str(out)]) == 0
    net = nf.load_graph(out)
    assert net.vertex_count == 25
    assert net == nf.leaf_network(nodes=25, seed=3)


def test_seed_env_override(triangle_file, tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("NETFORGE_SEED", "11")
    main(["optimize", "--graph", str(triangle_file), "--nu", "1",
          "--iters", "200", "--seed", "0", "--out", str(out_a)])
    monkeypatch.delenv("NETFORGE_SEED")
    main(["optimize", "--graph", str(triangle_file), "--nu", "1",
          "--iters", "200", "--seed", "11", "--out", str(out_b)])
    assert json.loads((out_a / "summary.json").read_text()) == json.loads(
        (out_b / "summary.json").read_text()
    )


def test_validation_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [{"id": 0, "source": 1.0}, {"id": 1, "source": -0.5}],
        "edges": [{"u": 0, "v": 1}],
    }))
    assert main(["solve", "--graph", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnbalancedSourcesError"


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": 5, "edges": []},
        {"vertices": [{"id": 0, "source": 0.0}], "edges": {}},
        {"vertices": [0, 1], "edges": []},
        {"vertices": [{"id": 0, "source": 0.0}], "edges": [[0, 1]]},
        [],
        {"vertices": [{"id": None, "source": 0}], "edges": []},
        {"vertices": [{"id": 0, "source": {}}], "edges": []},
        {"vertices": [{"id": 0, "source": 0}, {"id": 1, "source": 0}], "edges": [{"u": [1], "v": 0}]},
        {"vertices": [{"id": 0, "x": 0, "y": 0, "source": 0}], "edges": [{"u": 0, "v": 5}]},
        {"vertices": [{"id": 0, "source": 10**400}], "edges": []},
        {"vertices": [{"id": 0, "source": 0}, {"id": 1, "source": 0}], "edges": [{"u": 0.9, "v": 1.7}]},
        {"vertices": [{"id": 0.5, "source": 0}], "edges": []},
        {"vertices": [{"id": 0, "source": "1"}, {"id": 1, "source": -1}], "edges": [{"u": 0, "v": 1}]},
    ],
)
def test_malformed_graph_document_json(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", "--graph", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


@pytest.mark.parametrize(
    "entry",
    [
        {"u": 0, "v": 1, "c": None},
        {"u": 0, "v": 1, "c": [1]},
        {"u": None, "v": 1, "c": 1.0},
        {"u": 0.9, "v": 1.7, "c": 1.0},
    ],
)
def test_malformed_conductivity_document_json(triangle_file, tmp_path, capsys, entry):
    bad = tmp_path / "c.json"
    bad.write_text(json.dumps({"edges": [entry]}))
    assert main(["solve", "--graph", str(triangle_file), "--conductivities", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_duplicate_conductivity_entry_json(triangle_file, tmp_path, capsys):
    # (1, 0) names the same edge as (0, 1); the later value must not win
    bad = tmp_path / "c.json"
    bad.write_text(json.dumps({"edges": [{"u": 0, "v": 1, "c": 1}, {"u": 1, "v": 0, "c": 5}]}))
    assert main(["solve", "--graph", str(triangle_file), "--conductivities", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_nonfinite_source_json(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({
        "vertices": [{"id": 0, "source": float("nan")}, {"id": 1, "source": 0.0}],
        "edges": [{"u": 0, "v": 1}],
    }))
    assert main(["solve", "--graph", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteError"


def test_usage_error_json(capsys):
    assert main(["optimize", "--graph", "missing.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err
