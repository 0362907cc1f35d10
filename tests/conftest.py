from __future__ import annotations

from pathlib import Path

import pytest

from fkgraph.graphs import Graph, graph_from_edges, parse_graph

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def load_corpus() -> dict[str, Graph]:
    out = {}
    for path in sorted(GRAPH_DIR.glob("*.graph")):
        out[path.stem] = parse_graph(path.read_text())
    return out


CORPUS = load_corpus()
ROW_FINITE = {name: g for name, g in CORPUS.items() if g.row_finite}


@pytest.fixture(scope="session")
def corpus() -> dict[str, Graph]:
    return CORPUS


@pytest.fixture(scope="session")
def row_finite_corpus() -> dict[str, Graph]:
    return ROW_FINITE


@pytest.fixture(scope="session")
def graph_dir() -> Path:
    return GRAPH_DIR


@pytest.fixture(scope="session")
def free_antichain() -> Graph:
    """Four unrelated looped blocks: a 2-vertex free block (K0 = K1 = Z) and
    one-vertex blocks with K0 = Z/2, Z/3, Z/2."""
    return graph_from_edges(
        ["x", "y", "a", "b", "c"],
        [("x", "x", 2), ("x", "y", 1), ("y", "x", 1), ("y", "y", 2),
         ("a", "a", 3), ("b", "b", 4), ("c", "c", 3)])


@pytest.fixture(scope="session")
def deep7() -> Graph:
    """Seven points shaped like the benchmark's deepest `check`: one free
    block, six one-vertex Z/5 blocks, eleven DAG edges."""
    kinds = "111f111"
    dag = [(0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4),
           (3, 6), (4, 5)]
    names, edges = [], []
    for c, kind in enumerate(kinds):
        if kind == "f":
            names += [f"c{c}x", f"c{c}y"]
            edges += [(f"c{c}x", f"c{c}x", 2), (f"c{c}x", f"c{c}y", 1),
                      (f"c{c}y", f"c{c}x", 1), (f"c{c}y", f"c{c}y", 2)]
        else:
            names.append(f"c{c}x")
            edges.append((f"c{c}x", f"c{c}x", 6))
    edges += [(f"c{i}x", f"c{j}x", 1) for i, j in dag]
    return graph_from_edges(names, edges)
