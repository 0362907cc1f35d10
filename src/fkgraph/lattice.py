"""Admissible pairs (H, S) and their lattice.

H runs over hereditary saturated vertex sets, S over subsets of the breaking
vertices of H.  The order is (H, S) <= (H', S') iff H <= H' and S <= H' | S'.
An element is fixed by its down-set and by its up-set, so a meet is the
element whose down-set is the intersection of down-sets, and a join likewise
with up-sets; existence and uniqueness are verified, not assumed.
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
    down: tuple[int, ...]    # down[i] = bitmask of j with pairs[j] <= pairs[i]

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

    # pairs come in a linear extension of the order, so a meet is the highest
    # index in its arguments' down-sets and a join the lowest in their up-sets
    def meet(self, *indices: int) -> int:
        """Greatest lower bound of indices; the empty meet is the top."""
        common = self.down[-1]   # the top's down-set: every element
        for i in indices:
            common &= self.down[i]
        return _bound(self, self.down, common.bit_length() - 1, common, indices)

    def join(self, i: int, j: int) -> int:
        common = self.up[i] & self.up[j]
        return _bound(self, self.up, (common & -common).bit_length() - 1, common, (i, j))


def _bound(lat: IdealLattice, sets: tuple[int, ...], k: int, common: int, indices) -> int:
    if sets[k] != common:   # k is the only candidate, and its set is not common
        raise InternalInvariantError(
            "no unique bound for " + " and ".join(str(lat.pairs[i]) for i in indices))
    return k


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
    """All admissible pairs with their order masks, verified to form a lattice.

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
    lat = IdealLattice(g, tuple(pairs), tuple(up), tuple(down))
    # with distinct sets, a meet (join) exists when two down-sets (up-sets) meet in one
    for sets, bound in ((down, lat.meet), (up, lat.join)):
        known = set(sets)
        if len(known) < m:
            raise InternalInvariantError("two pairs share a down-set or an up-set")
        for i, x in enumerate(sets):
            if not known.issuperset([x & y for y in sets[i + 1:]]):
                for j in range(i + 1, m):
                    bound(i, j)   # raises at the first pair without a bound
    if lat.pairs[lat.bottom] != AdmissiblePair(0, 0):
        raise InternalInvariantError("bottom is not the empty pair")
    if lat.pairs[lat.top] != AdmissiblePair(g.full_mask, 0):
        raise InternalInvariantError("top is not the full pair")
    return lat
