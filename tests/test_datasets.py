import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netforge as nf
from netforge.datasets import SEVEN_NODE_TABLE


def test_seven_node_fixture():
    net = nf.seven_node_network()
    assert net.vertex_count == 7
    assert net.edge_count == 21  # complete graph
    assert net.positions is not None
    # printed sources balance only to their three decimals
    printed = sum(s for _, _, s in SEVEN_NODE_TABLE)
    assert abs(printed) <= 1e-3
    assert abs(net.sources.sum()) <= 1e-12 * np.abs(net.sources).max()
    # last vertex is the big sink from the table
    assert net.sources[6] == pytest.approx(-2.217, abs=1e-12)
    # lengths are the Euclidean distances of the stored layout
    for u, v, length in net.edges:
        assert length == pytest.approx(float(np.hypot(*(net.positions[u] - net.positions[v]))))


def test_leaf_network_shape_and_sources():
    net = nf.leaf_network(nodes=40, seed=0)
    assert net.vertex_count == 40
    assert net.positions is not None
    stem = int(np.argmax(net.sources))
    assert net.sources[stem] == pytest.approx(1.0, abs=1e-12)
    # the stem is the leftmost node
    assert net.positions[stem, 0] == net.positions[:, 0].min()
    sinks = np.delete(net.sources, stem)
    assert np.allclose(sinks, -1.0 / 39.0)
    assert abs(net.sources.sum()) <= 1e-15


def test_leaf_network_deterministic_per_seed():
    a = nf.leaf_network(nodes=30, seed=5)
    b = nf.leaf_network(nodes=30, seed=5)
    c = nf.leaf_network(nodes=30, seed=6)
    assert a == b
    assert a != c


def test_leaf_network_is_planar_triangulation_sized():
    # Euler bound for planar graphs: |E| <= 3|V| - 6
    for nodes in (20, 40, 60):
        net = nf.leaf_network(nodes=nodes, seed=1)
        assert net.edge_count <= 3 * net.vertex_count - 6
        assert net.edge_count >= net.vertex_count - 1


def test_leaf_network_rejects_tiny_node_counts():
    with pytest.raises(ValueError):
        nf.leaf_network(nodes=5)


IMPORT_PROBE = """
import sys
import scipy.linalg, scipy.sparse.csgraph
before = set(sys.modules)
import netforge as nf
loaded = {"scipy.spatial", "scipy.optimize", "concurrent.futures.process"} & (set(sys.modules) - before)
assert not loaded, loaded
assert nf.load_graph(sys.argv[1]) == nf.leaf_network(40, 0)
"""


def test_import_leaves_delaunay_and_process_pool_unloaded():
    # scipy.linalg and scipy.sparse.csgraph load first, so only what netforge
    # itself adds counts; demo 04 writes leaf_mesh.json from leaf_network(40, 0)
    mesh = Path(__file__).resolve().parents[1] / "demos" / "output" / "leaf_mesh.json"
    src = str(Path(nf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-c", IMPORT_PROBE, str(mesh)]
    done = subprocess.run(args, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
