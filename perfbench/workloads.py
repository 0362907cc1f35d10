"""Seeded inputs for the benchmark workloads.

Every graph is built from components: 1- or 2-vertex strongly connected
blocks in which every vertex carries a loop, joined by single edges along a
DAG.  Because every vertex is regular and looped, saturation adds nothing,
the hereditary saturated sets are exactly the down-sets of the component
DAG, and each component is one spectrum point.  The component DAG is
therefore the specialization poset, which is what lets `oracles.py` predict
the output without calling fkgraph.

A workload is a schedule of strata; a run's pool holds one op of each.  A
stratum fixes what sets the cost of an op: the spectrum shape (points and
component DAG), the kind of each block and the torsion order d shared by
its torsion blocks.  Op `i` draws everything else from its own generator
seeded by (workload, seed, i): the file order of the components, which
vertices the DAG edges join, which block a swap pair swaps, vertex names of
relabelled copies.  So
the same seed gives byte-identical inputs, and every run has the same mix
of costs; with freely drawn DAGs the medians of a run moved with the draw
far more than with the code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

from oracles import invariant_factors


def torsion1(d: int) -> list[list[int]]:
    """One vertex with d+1 loops: K0 = Z/d, unit class 1."""
    return [[d + 1]]


def torsion2(d: int) -> list[list[int]]:
    """x->x 1, x->y d, y->x 1, y->y d: K0 = Z/d, unit class 2."""
    return [[1, d], [1, d]]


FREE2 = [[2, 1], [1, 2]]  # A^T - I has rank 1: K0 = Z, K1 = Z


@dataclass
class Graph:
    names: list[str]
    mult: list[list[int]]
    comps: list[list[int]]          # vertex indices of each component
    dag: list[tuple[int, int]]      # component i has an edge into component j

    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.names]
        n = len(self.names)
        for i in range(n):
            for j in range(n):
                if self.mult[i][j]:
                    lines.append(f"edge {self.names[i]} {self.names[j]} {self.mult[i][j]}")
        return "\n".join(lines) + "\n"

    def reach(self) -> list[int]:
        """reach[i]: bitmask of the components that component i reaches."""
        p = len(self.comps)
        out = [1 << i for i in range(p)]
        for i, j in self.dag:
            out[i] |= 1 << j
        for k in range(p):
            for i in range(p):
                if out[i] >> k & 1:
                    out[i] |= out[k]
        return out


def build(blocks: list[list[list[int]]], dag: list[tuple[int, int]],
          rng: random.Random) -> Graph:
    """Blocks placed side by side, plus one edge per DAG edge between
    randomly chosen vertices of the two components."""
    n = sum(len(b) for b in blocks)
    mult = [[0] * n for _ in range(n)]
    comps = []
    base = 0
    for b in blocks:
        k = len(b)
        for r in range(k):
            for c in range(k):
                mult[base + r][base + c] = b[r][c]
        comps.append(list(range(base, base + k)))
        base += k
    for i, j in dag:
        mult[rng.choice(comps[i])][rng.choice(comps[j])] += 1
    return Graph([f"v{k}" for k in range(n)], mult, comps, list(dag))


def placed(dag: list[tuple[int, int]], kinds: str, d: int, rng: random.Random) -> Graph:
    """Components of the given kinds ('f' free, '1' or '2' torsion on that
    many vertices) in random file order.  All torsion blocks share the
    order d: coprime orders merge into fewer invariant factors, which alone
    moved the cost of an op by 20 %, and d sets the size of the
    automorphism searches."""
    p = len(kinds)
    blocks = [FREE2 if k == "f" else (torsion1 if k == "1" else torsion2)(d) for k in kinds]
    pos = list(range(p))
    rng.shuffle(pos)                 # component c sits at file position pos[c]
    ordered: list = [None] * p
    for c in range(p):
        ordered[pos[c]] = blocks[c]
    return build(ordered, [(pos[a], pos[b]) for a, b in dag], rng)


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph with vertex names and declaration order permuted."""
    n = len(g.names)
    perm = list(range(n))
    rng.shuffle(perm)                # old vertex k becomes vertex perm[k]
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    names = [f"w{rng.randrange(10**6)}_{k}" for k in range(n)]
    mult = [[g.mult[inv[r]][inv[c]] for c in range(n)] for r in range(n)]
    comps = [[perm[v] for v in comp] for comp in g.comps]
    return Graph(names, mult, comps, list(g.dag))


def iso_search_size(g: Graph) -> int:
    """Candidate matrices fkgraph brute-forces for the automorphisms of the
    whole graph's K0: the product of gcd(d_i, d_j) over its torsion factors."""
    n = len(g.names)
    m = [[g.mult[v][w] - (v == w) for v in range(n)] for w in range(n)]
    tf = [d for d in invariant_factors(m) if d]
    size = 1
    for a in tf:
        for b in tf:
            size *= gcd(a, b)
    return size


# Instances with a larger search took 40-150 s per op when this was written
# ((Z/4)^3 swap, (Z/5)^3 self-compare, (Z/2)^4 swap), too long for a run to
# hold enough ops; NOTES.md records them.
ISO_SEARCH_LIMIT = 3 ** 9


@dataclass
class Op:
    """One CLI invocation: graphs to write, arguments, what to expect."""

    workload: str
    index: int
    stratum: str
    graphs: dict[str, Graph]
    args: list[str]      # after `python -m fkgraph.cli`; graph names stand
                         # for the paths their files are written to
    expect: dict

    def files(self) -> dict[str, str]:
        return {name: g.text() for name, g in self.graphs.items()}


Draw = Callable[[random.Random], tuple[dict, list, dict]]


def k_all(dag, kinds, d) -> Draw:
    def draw(rng):
        return {"g": placed(dag, kinds, d, rng)}, ["k", "g", "--all", "--format", "json"], {}
    return draw


def check(dag, kinds, d) -> Draw:
    def draw(rng):
        return {"g": placed(dag, kinds, d, rng)}, ["check", "g", "--format", "json"], {}
    return draw


COMPARE_ARGS = ["compare", "a", "b", "--budget", "2", "--format", "json"]


def swap_pair(k: int, d: int, rng: random.Random):
    """An antichain of k one-vertex Z/d blocks against the same antichain
    with one block swapped for the 2-vertex Z/d block of unit class 2.

    The unit classes (1,..,1) and (1,..,2,..,1) are matched by an
    automorphism iff 2 is a unit mod d.
    """
    slot = rng.randrange(k)
    a = build([torsion1(d)] * k, [], rng)
    b = build([torsion2(d) if i == slot else torsion1(d) for i in range(k)], [], rng)
    return a, b, ("COMPATIBLE" if d % 2 else "DISTINGUISHED")


def swap(k: int, d: int) -> Draw:
    def draw(rng):
        a, b, outcome = swap_pair(k, d, rng)
        return {"a": a, "b": b}, COMPARE_ARGS, {"outcome": outcome}
    return draw


def relabelled(dag, kinds, d) -> Draw:
    """A torsion-only graph against a vertex-relabelled copy: COMPATIBLE."""
    def draw(rng):
        a = placed(dag, kinds, d, rng)
        if iso_search_size(a) > ISO_SEARCH_LIMIT:
            raise ValueError(f"relabel pair {kinds} over Z/{d} is past ISO_SEARCH_LIMIT")
        return {"a": a, "b": relabel(a, rng)}, COMPARE_ARGS, {"outcome": "COMPATIBLE"}
    return draw


@dataclass
class Workload:
    # one op per stratum; a pass over them takes 2-7 s, so a run repeats
    # every op several times
    schedule: list[tuple[str, Draw]]
    # latency_tail_s is the latency of the op of this rank by cost
    # (1 = cheapest); its neighbours differ from it by 25 % or more, so
    # noise cannot move the percentile onto another stratum
    tail_rank: int

    @property
    def tail_percentile(self) -> float:
        return 100.0 * (self.tail_rank - 1) / (len(self.schedule) - 1)


WORKLOADS = {
    # q ~ 0.15 on 4-5 points: 0-2 DAG edges, one free block per graph
    "k-wide": Workload([
        ("4pt-0e", k_all([], "f111", 3)),
        ("5pt-1e", k_all([(0, 1)], "11f11", 2)),
        ("4pt-1e", k_all([(0, 1)], "1f11", 5)),
        ("5pt-2e", k_all([(0, 1), (2, 3)], "1111f", 3)),
        ("4pt-2e", k_all([(0, 1), (0, 2)], "111f", 4)),
        ("4pt-2e-apart", k_all([(0, 1), (2, 3)], "f111", 2)),
    ], tail_rank=5),
    # both verdicts on 2 and 3 points; all K-groups finite
    "compare-torsion": Workload([
        ("swap-2-z6", swap(2, 6)),
        ("relabel-2", relabelled([(0, 1)], "12", 5)),
        ("swap-3-z2", swap(3, 2)),
        ("relabel-3", relabelled([(0, 1)], "121", 3)),
        ("swap-3-z3", swap(3, 3)),
    ], tail_rank=4),
    # q ~ 0.5 on 5-7 points: the median number of opens such DAGs give
    # (10, 13, 16), one free block per graph
    "check-deep": Workload([
        ("5pt-5e", check([(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)], "11f11", 3)),
        ("6pt-8e", check([(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3),
                          (3, 4)], "111f11", 2)),
        ("7pt-11e", check([(0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
                           (2, 6), (3, 4), (3, 6), (4, 5)], "111f111", 5)),
    ], tail_rank=3),
}


def make_op(workload: str, seed: int, index: int) -> Op:
    schedule = WORKLOADS[workload].schedule
    name, draw = schedule[index % len(schedule)]
    graphs, args, expect = draw(random.Random(f"{workload}/{seed}/{index}"))
    return Op(workload, index, name, graphs, args, expect)


def pool(workload: str, seed: int) -> list[Op]:
    return [make_op(workload, seed, i) for i in range(len(WORKLOADS[workload].schedule))]
