"""Admissible pairs (H, S) and their lattice.

H runs over hereditary saturated vertex sets, S over subsets of the breaking
vertices of H.  The order is (H, S) <= (H', S') iff H <= H' and S <= H' | S'.
An element is fixed by its down-set and by its up-set, so a meet is the
element whose down-set is the intersection of two down-sets, and a join
likewise with up-sets; existence and uniqueness are verified, not assumed.
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
    hs = []   # (H, breaking vertices of H); H brings 2^|breaking| pairs
    count = 0
    for h in range(1 << g.n):
        if is_hereditary(g, h) and is_saturated(g, h):
            b = breaking_vertices(g, h)
            hs.append((h, b))
            count += 1 << b.bit_count()
            if count > _PAIR_CAP:
                raise CapExceeded(f"admissible pair count exceeds the cap of {_PAIR_CAP}")
    hs.sort(key=lambda hb: (hb[0].bit_count(), hb[0]))
    pairs = [AdmissiblePair(h, s) for h, b in hs for s in _subsets_sorted(b)]
    m = len(pairs)
    up = [0] * m
    down = [0] * m
    for i, p in enumerate(pairs):
        for j, q in enumerate(pairs):
            if pair_leq(p, q):
                up[i] |= 1 << j
                down[j] |= 1 << i

    def bounds(sets: list[int]) -> tuple[tuple[int, ...], ...]:
        """Row i, column j: the element whose set is sets[i] & sets[j]."""
        index = {x: k for k, x in enumerate(sets)}
        if len(index) < m:
            raise InternalInvariantError("two pairs share a down-set or an up-set")
        rows = [[index.get(x & y, -1) for y in sets] for x in sets]
        for i, row in enumerate(rows):
            if -1 in row:
                raise InternalInvariantError(
                    f"no unique bound for {pairs[i]} and {pairs[row.index(-1)]}")
        return tuple(map(tuple, rows))

    meet, join = bounds(down), bounds(up)
    lat = IdealLattice(g, tuple(pairs), tuple(up), meet, join)
    if lat.pairs[lat.bottom] != AdmissiblePair(0, 0):
        raise InternalInvariantError("bottom is not the empty pair")
    if lat.pairs[lat.top] != AdmissiblePair(g.full_mask, 0):
        raise InternalInvariantError("top is not the full pair")
    return lat
