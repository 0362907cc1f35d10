"""Admissible pairs (H, S) and their lattice.

H runs over hereditary saturated vertex sets, S over subsets of the breaking
vertices of H.  The order is (H, S) <= (H', S') iff H <= H' and S <= H' | S'.
Meets and joins are found by bound search in the finite poset; existence and
uniqueness are verified, not assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded, InternalInvariantError
from .graphs import Graph, breaking_vertices, is_hereditary, is_saturated

DEFAULT_VERTEX_CAP = 16
_PAIR_CAP = 1024


class AdmissiblePair(NamedTuple):
    """Bitmasks over the graph's vertex order."""

    h: int
    s: int


def pair_leq(p: AdmissiblePair, q: AdmissiblePair) -> bool:
    return not (p.h & ~q.h) and not (p.s & ~(q.h | q.s))


class IdealLattice(NamedTuple):
    graph: Graph
    pairs: tuple[AdmissiblePair, ...]
    up: tuple[int, ...]      # up[i] = bitmask of j with pairs[i] <= pairs[j]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.pairs) - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def meet_many(self, indices) -> int:
        """Meet of a collection; the empty meet is the top element."""
        acc = self.top
        for i in indices:
            acc = self.meet[acc][i]
        return acc


def _subsets_sorted(mask: int) -> list[int]:
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.sort(key=lambda x: (x.bit_count(), x))
    return subs


def enumerate_admissible_pairs(g: Graph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> IdealLattice:
    """All admissible pairs with order and operation tables.

    The pair list is sorted by (|H|, H, |S|, S), a linear extension of the
    order.  Raises CapExceeded past `vertex_cap` vertices or `_PAIR_CAP` pairs.
    """
    if g.n > vertex_cap:
        raise CapExceeded(f"{g.n} vertices exceeds the cap of {vertex_cap}")
    hs = [h for h in range(1 << g.n) if is_hereditary(g, h) and is_saturated(g, h)]
    hs.sort(key=lambda h: (h.bit_count(), h))
    pairs: list[AdmissiblePair] = []
    for h in hs:
        for s in _subsets_sorted(breaking_vertices(g, h)):
            pairs.append(AdmissiblePair(h, s))
            if len(pairs) > _PAIR_CAP:
                raise CapExceeded(f"admissible pair count exceeds the cap of {_PAIR_CAP}")
    m = len(pairs)
    up = [0] * m
    down = [0] * m
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if pair_leq(p, q):
                up[i] |= 1 << j
                down[j] |= 1 << i

    def bound(i: int, j: int, sets: list[int]) -> int:
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

    meet = [[bound(i, j, down) for j in range(m)] for i in range(m)]
    join = [[bound(i, j, up) for j in range(m)] for i in range(m)]
    lat = IdealLattice(g, tuple(pairs), tuple(up), tuple(tuple(r) for r in meet),
                       tuple(tuple(r) for r in join))
    if lat.pairs[lat.bottom] != AdmissiblePair(0, 0):
        raise InternalInvariantError("bottom is not the empty pair")
    if lat.pairs[lat.top] != AdmissiblePair(g.full_mask, 0):
        raise InternalInvariantError("top is not the full pair")
    return lat
