"""Independent oracles used to derive expected values in the test suite.

Everything here is written from the definitions, favoring brute force over
cleverness, and shares no code paths with the package implementation, except
the helpers at the end.  `cycle_groups` lists the six groups of a sequence in
the package's `CYCLE` order.  The map helpers reduce a finished `IntMatrix`
product into a group, the reference that `intlinalg.map_into` is tested
against.  The lattice helpers build subgroups as column lattices on the
package's Smith decompositions and kernels, and compare them two-sided, the
reference that the one-sided exactness check of `ktheory` is tested against.
`smith_reference` is the Smith decomposition with a general 2 x 2 update at
every step, kept as the reference its faster steps are tested against.
`out_total`, `is_regular`, `is_infinite_emitter`, `bound` and `covers` are
the per-call scans that the graph's cached masks, the meet and join lookups
and `cli._covers` replaced, kept unchanged (on the package's `mult_add`)
as their references.  `w_set`, `hull`, `carrier_indices` and `positions`
are the point scans, the intersection of opens and the per-carrier index
dicts that the spectrum's points-above masks and the popcount positions of
`ktheory` replaced, kept as their references.
`subquotient_graph` is the restricted graph, checked from the definitions,
that `ktheory._carrier` reads off g instead, `subquotient_rows` its
presenting matrix, and `subquotient_k_data` the K-data read off it.
`divisor_factors` gives the invariant factors of a matrix's cokernel and
kernel from determinantal divisors, with no `intlinalg`.  `first_chains` is
the first-chain table of (sub, mid) pairs that compare once read its
sequences through, and `every_sequence` reads every pair's sequence.
`census_one_graphs` and `census_two_graphs` draw the graphs of census 1 and
of the rank-2 census, which `census.py` runs against its records.
`build_parser` is the argparse parser that `fk-graph` read its arguments
with before `cli.COMMANDS`, kept unchanged as the reference that
`cli.parse_args` is tested against.
"""

from __future__ import annotations

import argparse
import random
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from fkgraph.errors import InternalInvariantError
from fkgraph.graphs import INF, Graph, graph_from_edges, iter_bits, mult_add
from fkgraph.intlinalg import (FgAbGroup, IntMatrix, SmithDecomposition, cokernel,
                               kernel_group, smith_decomposition, xgcd)
from fkgraph.invariant import DEFAULT_BUDGET, DEFAULT_POINT_CAP, assemble
from fkgraph.ktheory import CYCLE, KData
from fkgraph.lattice import DEFAULT_VERTEX_CAP


def bfs_reaches(g: Graph, src: int, dst: int) -> bool:
    """Breadth-first reachability, allowing the empty path."""
    if src == dst:
        return True
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in range(g.n):
                m = g.mult[v][w]
                if (m is INF or m > 0) and w not in seen:
                    if w == dst:
                        return True
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


def oracle_hereditary(g: Graph, h: set[int]) -> bool:
    for v in h:
        for w in range(g.n):
            m = g.mult[v][w]
            if (m is INF or m > 0) and w not in h:
                return False
    return True


def oracle_regular(g: Graph, v: int) -> bool:
    total = 0
    for m in g.mult[v]:
        if m is INF:
            return False
        total += m
    return total > 0


def oracle_saturated(g: Graph, h: set[int]) -> bool:
    for v in range(g.n):
        if v in h or not oracle_regular(g, v):
            continue
        outs = {w for w in range(g.n) if g.mult[v][w] is INF or g.mult[v][w] > 0}
        if outs and outs <= h:
            return False
    return True


def all_subsets(n: int):
    for r in range(n + 1):
        yield from (set(c) for c in combinations(range(n), r))


def oracle_closure(g: Graph, x: set[int]) -> set[int]:
    """Smallest hereditary saturated superset, by scanning all supersets."""
    best = None
    for s in all_subsets(g.n):
        if x <= s and oracle_hereditary(g, s) and oracle_saturated(g, s):
            if best is None or len(s) < len(best):
                best = s
    assert best is not None  # the full vertex set always qualifies
    # minimality also means uniqueness: intersect all candidates
    for s in all_subsets(g.n):
        if x <= s and oracle_hereditary(g, s) and oracle_saturated(g, s):
            best &= s
    return best


def oracle_breaking(g: Graph, h: set[int]) -> set[int]:
    out = set()
    for v in range(g.n):
        if v in h:
            continue
        if not any(m is INF for m in g.mult[v]):
            continue
        escaping = 0
        finite = True
        for w in range(g.n):
            if w in h:
                continue
            m = g.mult[v][w]
            if m is INF:
                finite = False
                break
            escaping += m
        if finite and escaping > 0:
            out.add(v)
    return out


def oracle_return_verdict(g: Graph, base: int, max_len: int) -> int:
    """Return paths at `base` up to length max_len, counted with multiplicity
    and saturated at 2.  INF multiplicities count as 2."""

    def m2(v, w):
        m = g.mult[v][w]
        return 2 if m is INF else min(2, m)

    # f[w] = saturated number of paths base -> w of the current length
    # that avoid base internally; lengths 1..max_len in total
    f = {w: m2(base, w) for w in range(g.n) if w != base}
    total = m2(base, base)
    for _ in range(1, max_len):
        total = min(2, total + sum(f[w] * m2(w, base) for w in f))
        if total >= 2:
            return 2
        f = {w2: min(2, sum(f[w] * m2(w, w2) for w in f)) for w2 in f}
    return total


def oracle_condition_k(g: Graph) -> bool:
    return all(oracle_return_verdict(g, v, 2 * g.n) != 1 for v in range(g.n))


def oracle_admissible_pairs(g: Graph) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All (H, S) with H hereditary saturated and S breaking vertices of H."""
    out = []
    for h in all_subsets(g.n):
        if not (oracle_hereditary(g, h) and oracle_saturated(g, h)):
            continue
        bh = oracle_breaking(g, h)
        for r in range(len(bh) + 1):
            for s in combinations(sorted(bh), r):
                out.append((frozenset(h), frozenset(s)))
    return out


def relabel_reorder(g: Graph, seed: int) -> Graph:
    """g with fresh vertex names, listed in a shuffled order: the same graph
    up to isomorphism, so every invariant must match g's."""
    rng = random.Random(seed)
    order = rng.sample(range(g.n), g.n)
    names = [f"r{k}" for k in rng.sample(range(10 * g.n), g.n)]
    return Graph(tuple(names[i] for i in order),
                 tuple(tuple(g.mult[i][j] for j in order) for i in order))


def names_mask(g: Graph, names) -> int:
    """Bitmask of the named vertices, by position in the vertex tuple."""
    mask = 0
    for v in names:
        mask |= 1 << g.vertices.index(v)
    return mask


def pair_index(lat, h: int, s: int = 0) -> int:
    """Position of the admissible pair (h, s) in the lattice's pair list."""
    return [(p.h, p.s) for p in lat.pairs].index((h, s))


# ------------------------------------------------------ lattice-layer scans
# The per-call scans that `Graph.regular`, `Graph.infinite_emitters`, the
# meet and join lookups of `lattice` and `cli._covers` replaced, kept as the
# references those are tested against.


def out_total(g: Graph, i: int):
    """Total out-multiplicity of vertex i."""
    t = 0
    for m in g.mult[i]:
        t = mult_add(t, m)
    return t


def is_regular(g: Graph, i: int) -> bool:
    """Emits at least one and finitely many edges."""
    t = out_total(g, i)
    return t is not INF and t > 0


def is_infinite_emitter(g: Graph, i: int) -> bool:
    return out_total(g, i) is INF


def bound(pairs, i: int, j: int, sets: list[int]) -> int:
    """The k with sets[k] == sets[i] & sets[j], by a scan of that mask."""
    cands = sets[i] & sets[j]
    found = -1
    c = cands
    while c:
        low = c & -c
        k = low.bit_length() - 1
        c ^= low
        if sets[k] == cands:
            found = k
            break
    if found < 0:
        a, b = pairs[i], pairs[j]
        raise InternalInvariantError(f"no unique bound for {a} and {b}")
    return found


def covers(n: int, leq) -> list[tuple[int, int]]:
    """(i, j) for each j covering i under the relation leq on range(n)."""
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq(i, j):
                continue
            if not any(k != i and k != j and leq(i, k) and leq(k, j)
                       for k in range(n)):
                out.append((i, j))
    return out


def sorted_admissible_pairs(g: Graph) -> list[tuple[int, int]]:
    """`oracle_admissible_pairs` as masks, sorted by (|H|, H, |S|, S)."""
    masks = [(sum(1 << v for v in h), sum(1 << v for v in s))
             for h, s in oracle_admissible_pairs(g)]
    return sorted(masks, key=lambda p: (p[0].bit_count(), p[0], p[1].bit_count(), p[1]))


# ------------------------------------------------------------ subquotients
# The subquotient as a graph of its own, which `ktheory._carrier` reads off
# the multiplicities of g instead.


def subquotient_graph(g: Graph, d: int, h_v: int) -> Graph:
    """g restricted to the vertex set d, after checking that (d, h_v) presents
    a subquotient of a row-finite g: h_v and d | h_v hereditary and saturated,
    d and h_v disjoint."""
    keep = list(iter_bits(d))
    h, hu = set(iter_bits(h_v)), set(iter_bits(d | h_v))
    if not g.row_finite or d & h_v or not all(
            oracle_hereditary(g, x) and oracle_saturated(g, x) for x in (h, hu)):
        raise ValueError("not a subquotient presentation")
    return Graph(tuple(g.vertices[i] for i in keep),
                 tuple(tuple(g.mult[i][j] for j in keep) for i in keep))


def subquotient_rows(gq: Graph) -> tuple[list[list[int]], int]:
    """The presenting matrix of a subquotient graph, rows its vertices and
    columns its regular vertices, B[w][v] = mult(v -> w) - delta_{vw}, as
    rows, with its number of columns."""
    regs = [v for v in range(gq.n) if oracle_regular(gq, v)]
    return [[gq.mult[v][w] - (v == w) for v in regs] for w in range(gq.n)], len(regs)


def subquotient_k_data(g: Graph, d: int, h_v: int) -> KData:
    """K-data of the subquotient graph: K0 the cokernel of its presenting
    matrix with the vertex classes, K1 the kernel."""
    gq = subquotient_graph(g, d, h_v)
    b = IntMatrix.from_rows(*subquotient_rows(gq))
    k0 = cokernel(b)
    gens = tuple(k0.reduce(k0.project.col(v)) for v in range(gq.n))
    unit = k0.reduce([sum(c[i] for c in gens) for i in range(k0.ncoords)])
    return KData(gq.vertices, b, k0, gens, unit, kernel_group(b))


# ------------------------------------------------- spectrum and carrier scans
# The scans that `SpectrumSpace.above` and `ktheory._positions` replaced.


def w_set(lat, points, i: int) -> int:
    """Mask of the points whose pair does not lie above lattice element i."""
    return sum(1 << k for k, p in enumerate(points) if not lat.leq(i, p))


def hull(opens, full: int, tmask: int) -> int:
    """Intersection of all opens containing tmask."""
    acc = full
    for u in opens:
        if tmask & ~u == 0:
            acc &= u
    return acc


def carrier_indices(g: Graph, d: int, h_v: int) -> tuple[dict[int, int], dict[int, int]]:
    """The row and the column of the carrier's matrix that each vertex of g
    indexes, from the regular vertices of the subquotient graph."""
    gq = subquotient_graph(g, d, h_v)
    verts = list(iter_bits(d))
    regs = [p for p in range(gq.n) if oracle_regular(gq, p)]
    return ({v: i for i, v in enumerate(verts)}, {verts[p]: j for j, p in enumerate(regs)})


def positions(index: dict[int, int], items) -> list[int]:
    """Where `index` puts each item; a missing item is an escape."""
    try:
        return [index[v] for v in items]
    except KeyError:
        raise InternalInvariantError("a carrier escapes the carrier it must lie in") from None


# ------------------------------------------------- determinantal divisors
# Invariant factors read off gcds of minors, with no Smith decomposition.


def _det(m: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def divisor_factors(rows: list[list[int]], ncols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariant factors of the cokernel and of the kernel of an m x n integer
    matrix, as `FgAbGroup` lists them (1s dropped, free summands as 0).

    d_k, the gcd of the k x k minors, is the product of the first k invariant
    factors s_1 | s_2 | ..., and the rank r is the largest k with d_k != 0:
    the cokernel has s_k = d_k / d_(k-1) for k <= r and m - r free summands,
    and the kernel is free of rank n - r."""
    m, divisors = len(rows), [1]
    for k in range(1, min(m, ncols) + 1):
        d = 0
        for rs, cs in product(combinations(range(m), k), combinations(range(ncols), k)):
            d = gcd(d, _det([[rows[r][c] for c in cs] for r in rs]))
            if d == 1:
                break
        if d == 0:   # every larger minor expands into these
            break
        divisors.append(d)
    r = len(divisors) - 1
    steps = (divisors[k] // divisors[k - 1] for k in range(1, r + 1))
    return tuple(s for s in steps if s != 1) + (0,) * (m - r), (0,) * (ncols - r)


# ------------------------------------------------------------ sequences


def first_chains(sp) -> dict[tuple[int, int], tuple[int, int, int]]:
    """The first chain of opens U1 <= U2 <= U3 presenting each (sub, mid) pair
    (U2 \\ U1, U3 \\ U1), in `combinations_with_replacement` order over
    `sp.opens`: the chain table through which compare once read each pair's
    sequence, kept as the reference for the pairs and for the hull chains
    `FilteredK.sequence` builds on."""
    first = {}
    for u1, u2, u3 in combinations_with_replacement(sp.opens, 3):
        if not (u1 & ~u2 or u2 & ~u3):
            first.setdefault((u2 & ~u1, u3 & ~u1), (u1, u2, u3))
    return first


def every_sequence(fk) -> dict:
    """Each pair's `FilteredK.sequence`, read in `first_chains` order; none
    without a K layer."""
    return {key: fk.sequence(key) for key in first_chains(fk.space) if fk.k_complete}



def cycle_groups(sub: KData, mid: KData, quot: KData) -> list[FgAbGroup]:
    """The groups at the six positions of the sequence over sub, mid and quot."""
    parts = sub, mid, quot
    return [parts[p].k1 if level else parts[p].k0 for p, level in CYCLE]


# ------------------------------------------------------------ maps


def reduce_map(target: FgAbGroup, M: IntMatrix) -> IntMatrix:
    """Canonical entries for a map into `target`: row i taken mod its factor."""
    if M.rows != target.ncoords:
        raise ValueError("shape mismatch")
    return IntMatrix(M.rows, M.cols, tuple(
        tuple(x % d for x in r) if d else r
        for r, d in zip(M.entries, target.invariant_factors)))


def maps_equal(target: FgAbGroup, A: IntMatrix, B: IntMatrix) -> bool:
    """Equality of maps into `target`, i.e. entrywise mod the target factors."""
    return reduce_map(target, A).entries == reduce_map(target, B).entries


# ------------------------------------------------------------ smith


def smith_reference(M: IntMatrix) -> SmithDecomposition:
    """`intlinalg.smith_decomposition` as it was before its swaps and elimination
    steps touched only the rows and columns they change: every step is a general
    2 x 2 update, and nothing is memoised or checked."""
    m, n = M.rows, M.cols
    D = [list(r) for r in M.entries]
    P = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Pi = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Qi = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, x, y, z, w):
        # rows (i, j) <- (x*ri + y*rj, z*ri + w*rj); det s = xw - yz must be ±1.
        s = x * w - y * z
        assert abs(s) == 1
        a, b, c, d = w * s, -y * s, -z * s, x * s  # inverse block
        for Mx in (D, P):
            ri, rj = Mx[i], Mx[j]
            Mx[i] = [x * u + y * v for u, v in zip(ri, rj)]
            Mx[j] = [z * u + w * v for u, v in zip(ri, rj)]
        for row in Pi:  # Pi <- Pi @ inv: columns (i, j) mix
            u, v = row[i], row[j]
            row[i] = a * u + c * v
            row[j] = b * u + d * v

    def col_op(i, j, x, y, z, w):
        # cols (i, j) <- (x*ci + y*cj, z*ci + w*cj); det must be ±1.
        # As a right factor this is R = [[x, z], [y, w]] on the (i, j) block.
        s = x * w - y * z
        assert abs(s) == 1
        a, b, c, d = w * s, -z * s, -y * s, x * s
        for Mx in (D, Q):
            for row in Mx:
                u, v = row[i], row[j]
                row[i] = x * u + y * v
                row[j] = z * u + w * v
        ri, rj = Qi[i], Qi[j]  # Qi <- inv @ Qi: rows (i, j) mix
        Qi[i] = [a * u + b * v for u, v in zip(ri, rj)]
        Qi[j] = [c * u + d * v for u, v in zip(ri, rj)]

    def negate_row(i):
        D[i] = [-u for u in D[i]]
        P[i] = [-u for u in P[i]]
        for row in Pi:
            row[i] = -row[i]

    t = 0
    while True:
        # deterministic pivot: smallest |value|, ties by position
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_op(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            col_op(t, pivot[1], 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if D[i][t] == 0:
                    continue
                a, b = D[t][t], D[i][t]
                if b % a == 0:
                    row_op(t, i, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    row_op(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                if D[t][j] == 0:
                    continue
                a, b = D[t][t], D[t][j]
                if b % a == 0:
                    col_op(t, j, 1, 0, -(b // a), 1)
                else:
                    g, x, y = xgcd(a, b)
                    col_op(t, j, x, y, -(b // g), a // g)
            # column ops can refill column t below the pivot
            if all(D[i][t] == 0 for i in range(t + 1, m)):
                break
        t += 1
    r = t

    # enforce d_i | d_{i+1} by folding each offender into its predecessor
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                changed = True
                row_op(i, i + 1, 1, 1, 0, 1)        # puts b at (i, i+1)
                g, x, y = xgcd(a, b)
                col_op(i, i + 1, x, y, -(b // g), a // g)
                # now D[i][i] = g, D[i+1][i] = y*b; clear it
                row_op(i, i + 1, 1, 0, -(y * (b // g)), 1)
    for i in range(r):
        if D[i][i] < 0:
            negate_row(i)

    return SmithDecomposition(*(IntMatrix(len(X), c, tuple(map(tuple, X)))
                                for X, c in ((D, n), (P, m), (Q, n), (Pi, m), (Qi, n))))


# ------------------------------------------------------------ lattices


def image_lattice(target: FgAbGroup, M: IntMatrix) -> IntMatrix:
    """Column generators of the subgroup im(M) of `target`, relations included."""
    if M.rows != target.ncoords:
        raise ValueError("map does not land in target coordinates")
    return M.hstack(target.relation_columns)


def kernel_lattice(target: FgAbGroup, M: IntMatrix) -> IntMatrix:
    """Column generators of {x : M x = 0 in target}.

    Solutions are x with M x in the relation lattice; they form the projection
    of the integer kernel of the block [M | relations].
    """
    if M.rows != target.ncoords:
        raise ValueError("map does not land in target coordinates")
    block = M.hstack(target.relation_columns)
    lift = kernel_group(block).lift
    return IntMatrix(M.cols, lift.cols, lift.entries[:M.cols])


def lattice_contains(A: IntMatrix, B: IntMatrix) -> bool:
    """Whether every column of B is an integer combination of columns of A."""
    if A.rows != B.rows:
        raise ValueError("ambient dimension mismatch")
    if B.cols == 0:
        return True
    dec = smith_decomposition(A)
    return all(dec.solve(B.col(j)) is not None for j in range(B.cols))


# ------------------------------------------------------------ census


def census_one_graphs() -> list[Graph]:
    """The 300 graphs of census 1: each has 1 to 4 vertices v0.., then one
    multiplicity from (0, 0, 0, 1, 1, 2, 3) per ordered pair (v, w), in row
    order, all drawn from random.Random(3)."""
    rng = random.Random(3)
    out = []
    for _ in range(300):
        vs = [f"v{k}" for k in range(rng.randint(1, 4))]
        out.append(graph_from_edges(vs, [(v, w, m) for v in vs for w in vs
                                         for m in [rng.choice((0, 0, 0, 1, 1, 2, 3))] if m]))
    return out


def census_two_graphs() -> list[Graph]:
    """The 150 graphs of the rank-2 census: each has 3 to 5 vertices v0..,
    the last 2 to n - 1 of them sinks, then one multiplicity from
    (0, 0, 1, 1, 2, 3) per ordered pair (v, w) with v a non-sink, in row
    order, all drawn from random.Random(11).  A graph is kept when its K
    layer is complete and some slot's K0 has rank at least 2."""
    rng = random.Random(11)
    out = []
    while len(out) < 150:
        n = rng.randint(3, 5)
        s = rng.randint(2, n - 1)
        vs = [f"v{k}" for k in range(n)]
        g = graph_from_edges(vs, [(v, w, m) for v in vs[:n - s] for w in vs
                                  for m in [rng.choice((0, 0, 1, 1, 2, 3))] if m])
        fk = assemble(g)
        if fk.k_complete and any(kd.k0.rank >= 2 for kd in fk.kmap.values()):
            out.append(g)
    return out


# ------------------------------------------------------------ command line


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fk-graph")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, dot=False, points=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--vertex-cap", dest="vertex_cap", type=int,
                       default=DEFAULT_VERTEX_CAP)
        if points:
            p.add_argument("--point-cap", dest="point_cap", type=int,
                           default=DEFAULT_POINT_CAP)
        if dot:
            p.add_argument("--dot", action="store_true")

    p = sub.add_parser("spectrum", help="prime points, order, and opens")
    p.add_argument("graph")
    common(p, dot=True)

    p = sub.add_parser("lattice", help="admissible pair lattice with covers")
    p.add_argument("graph")
    common(p, dot=True, points=False)

    p = sub.add_parser("k", help="K-data of gauge subquotients")
    p.add_argument("graph")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--subquotient", metavar="POINTS",
                       help="comma separated point indices, '-' for empty")
    which.add_argument("--all", action="store_true",
                       help="every locally closed pointset")
    common(p)

    p = sub.add_parser("compare", help="decide invariant compatibility")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--no-unit", dest="no_unit", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p)

    p = sub.add_parser("check", help="run the property suites on one graph")
    p.add_argument("graph")
    common(p)
    return top
