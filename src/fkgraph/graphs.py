"""Finite directed graphs with edge multiplicities, possibly infinite.

A graph is a vertex tuple (declaration order is the canonical order used by
every bitmask in the package) plus a multiplicity matrix; `mult[i][j]` counts
edges i -> j and may be the INF sentinel for an infinite edge bundle.

Vertex subsets are plain ints used as bitsets over the vertex order.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Iterator

from .errors import ParseError


class _InfinityType:
    """Sentinel for an infinite edge multiplicity; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _InfinityType()

Mult = int | _InfinityType


def mult_add(a, b):
    """Sum of multiplicities; anything plus INF is INF."""
    if a is INF or b is INF:
        return INF
    return a + b


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class Graph:
    """Vertex names and multiplicity matrix; read-only and equal by value."""

    def __init__(self, vertices: tuple[str, ...], mult: tuple[tuple[Mult, ...], ...]):
        n = len(vertices)
        if len(mult) != n or any(len(r) != n for r in mult):
            raise ValueError("multiplicity matrix shape mismatch")
        for row in mult:
            for m in row:
                if m is not INF and (not isinstance(m, int) or m < 0):
                    raise ValueError(f"bad multiplicity {m!r}")
        # computed once: every K-layer memo is keyed by the graph
        self.__dict__.update(vertices=vertices, mult=mult, _hash=hash((vertices, mult)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Graph.{name}")

    def __eq__(self, other):
        return type(other) is Graph and (self.vertices, self.mult) == (other.vertices, other.mult)

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def regular(self) -> int:
        """Bitmask of the vertices that emit at least one and finitely many edges."""
        return mask_of(i for i, row in enumerate(self.mult) if INF not in row and any(row))

    @cached_property
    def infinite_emitters(self) -> int:
        """Bitmask of the vertices with an infinite edge bundle."""
        return mask_of(i for i, row in enumerate(self.mult) if INF in row)

    @cached_property
    def successors(self) -> tuple[int, ...]:
        """successors[i] = bitmask of j with at least one edge i -> j."""
        out = []
        for i in range(self.n):
            m = 0
            for j, k in enumerate(self.mult[i]):
                if k is INF or k > 0:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    @property
    def row_finite(self) -> bool:
        """No INF multiplicities anywhere."""
        return not self.infinite_emitters

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        # reach[i] = bitmask of vertices reachable from i by a path of length >= 0
        reach = [(1 << i) | self.successors[i] for i in range(self.n)]
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                acc = reach[i]
                for j in iter_bits(acc):
                    acc |= reach[j]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True
        return tuple(reach)


def graph_from_edges(vertices: Iterable[str], edges: Iterable[tuple]) -> Graph:
    """Build a graph from (src, dst) or (src, dst, mult) triples; edges accumulate."""
    verts = tuple(vertices)
    idx = {v: i for i, v in enumerate(verts)}
    if len(idx) != len(verts):
        raise ValueError("duplicate vertex name")
    n = len(verts)
    mat = [[0] * n for _ in range(n)]
    for e in edges:
        src, dst = e[0], e[1]
        k = e[2] if len(e) > 2 else 1
        for v in (src, dst):
            if v not in idx:
                raise ValueError(f"unknown vertex {v!r}")
        i, j = idx[src], idx[dst]
        mat[i][j] = mult_add(mat[i][j], k)
    return Graph(verts, tuple(tuple(r) for r in mat))


def parse_graph(text: str) -> Graph:
    """Parse the line format: `vertex NAME` / `edge SRC DST [K|inf]`, # comments."""
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str, Mult]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw == "vertex":
            if len(tokens) != 2:
                raise ParseError("expected `vertex NAME`", lineno)
            name = tokens[1]
            if name in seen:
                raise ParseError(f"duplicate vertex {name!r}", lineno)
            seen.add(name)
            vertices.append(name)
        elif kw == "edge":
            if len(tokens) not in (3, 4):
                raise ParseError("expected `edge SRC DST [COUNT|inf]`", lineno)
            src, dst = tokens[1], tokens[2]
            for v in (src, dst):
                if v not in seen:
                    raise ParseError(f"unknown vertex {v!r}", lineno)
            if len(tokens) == 4:
                if tokens[3] == "inf":
                    k = INF
                else:
                    try:   # ASCII digits only: int() also reads "+3", "1_0" and "٣"
                        k = int(tokens[3]) if tokens[3].isascii() and tokens[3].isdigit() else -1
                    except ValueError:   # past int()'s digit limit
                        k = -1
                    if k < 0:
                        raise ParseError(f"bad multiplicity {tokens[3]!r}", lineno)
            else:
                k = 1
            edges.append((src, dst, k))
        else:
            raise ParseError(f"unknown directive {kw!r}", lineno)
    return graph_from_edges(vertices, edges)


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON mirror: {"vertices": [...], "edges": [{src, dst, mult}]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}", e.lineno) from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ParseError("expected an object with a `vertices` list")
    verts = obj["vertices"]
    if not isinstance(verts, list) or any(not isinstance(v, str) for v in verts):
        raise ParseError("`vertices` must be a list of strings")
    names = set(verts)
    if len(names) != len(verts):
        raise ParseError("duplicate vertex name")
    raw_edges = obj.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("`edges` must be a list")
    edges = []
    for e in raw_edges:
        if not isinstance(e, dict) or not {"src", "dst"} <= set(e):
            raise ParseError("each edge needs `src` and `dst`")
        for v in (e["src"], e["dst"]):
            if not isinstance(v, str) or v not in names:
                raise ParseError(f"unknown vertex {v!r}")
        m = e.get("mult", 1)
        if m == "inf":
            k = INF
        elif isinstance(m, int) and not isinstance(m, bool) and m >= 0:
            k = m
        else:
            raise ParseError(f"bad multiplicity {m!r}")
        edges.append((e["src"], e["dst"], k))
    return graph_from_edges(verts, edges)


def parse_graph_auto(text: str) -> Graph:
    """Dispatch on the first non-blank byte: `{` means the JSON mirror.  One
    leading byte-order mark is skipped, as text saved with one begins."""
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph(text)


# ------------------------------------------- hereditary / saturated sets


def is_hereditary(g: Graph, h: int) -> bool:
    """Closed under moving forward along edges."""
    for i in iter_bits(h):
        if g.successors[i] & ~h:
            return False
    return True


def is_saturated(g: Graph, h: int) -> bool:
    """Every regular vertex feeding only into h lies in h."""
    return all(g.successors[i] & ~h for i in iter_bits(g.regular & ~h))


def breaking_vertices(g: Graph, h: int) -> int:
    """Infinite emitters outside h with finitely many, but some, edges avoiding h."""
    rest = g.full_mask & ~h
    return mask_of(i for i in iter_bits(g.infinite_emitters & rest) if g.successors[i] & rest
                   and all(g.mult[i][j] is not INF for j in iter_bits(rest)))


# ---------------------------------------------------------- condition (K)


def return_path_count(g: Graph, base: int) -> int:
    """Number of return paths at `base` (no intermediate visit), saturated at 2.

    A return path never leaves the strongly connected component C of base.
    There is none when base lies on no cycle, and one when every vertex of C
    has edges into C summing to exactly 1, so that C is a single cycle; an INF
    multiplicity counts as more.  Otherwise some vertex of C has two ways on.
    """
    comp = mask_of(v for v in iter_bits(g._reach[base]) if g._reach[v] >> base & 1)
    if not g.successors[base] & comp:
        return 0
    single = all([g.mult[v][w] for w in iter_bits(comp) if g.mult[v][w] != 0] == [1]
                 for v in iter_bits(comp))
    return 1 if single else 2


def satisfies_condition_K(g: Graph) -> bool:
    """No vertex has exactly one return path."""
    return all(return_path_count(g, i) != 1 for i in range(g.n))
