"""Prime points of the pair lattice and their hull-kernel topology.

A proper pair P is prime when meet(I, J) <= P forces I <= P or J <= P.
Equivalently, the elements not below P are the up-set of the least of them,
one mask test per element: they hold the top and are closed upwards, so they
form a filter exactly when they are closed under meets, which is primality,
and a filter of a finite lattice is the up-set of the meet of its elements.

Point subsets are bitmasks over the point list.  Each `SpectrumSpace` keeps
`above[I]`, the points above lattice element I: the open W(I) of points not
containing I is its complement, a closure is `above` of a kernel (a meet),
and the least open over a pointset holds the points whose closure meets it
(Birkhoff: the opens are the down-sets of the point order).  The opens are
built, and verified to form a topology, when first read, after the point
cap.  The other tables, filled on first use, are phi of every open, the
closure of each point subset asked for (always from its kernel, so the
Kuratowski suite still tests kernels against unions) and the presentations
of pointsets by pairs of opens.  Nothing is shared between spaces.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import NamedTuple

from .errors import CapExceeded, InternalInvariantError
from .graphs import Graph, iter_bits, mask_of
from .lattice import AdmissiblePair, IdealLattice, enumerate_admissible_pairs
from .report import Report


class SpectrumSpace:
    """Prime points (lattice indices, in lattice order), with `above`, the
    mask of the points above each lattice element, and `opens`, sorted by
    (size, mask).  Read-only, and equal by (lattice, points) whatever its
    tables hold: point mask -> closure, (u, v) -> presentation, pointset ->
    canonical presentation.
    """

    def __init__(self, lattice: IdealLattice, points: tuple[int, ...]):
        above = [0] * lattice.size
        for k, p in enumerate(points):
            for i in iter_bits(lattice.down[p]):
                above[i] |= 1 << k
        self.__dict__.update(lattice=lattice, points=points, above=tuple(above),
                             _closures={}, _presentations={}, _canonical={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to SpectrumSpace.{name}")

    def __eq__(self, other):
        return type(other) is SpectrumSpace and (
            (self.lattice, self.points) == (other.lattice, other.points))

    def __hash__(self):
        return hash((self.lattice, self.points))

    @property
    def graph(self) -> Graph:
        return self.lattice.graph

    @property
    def npoints(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return (1 << self.npoints) - 1

    def pair(self, k: int) -> AdmissiblePair:
        return self.lattice.pairs[self.points[k]]

    def ker(self, tmask: int) -> int:
        """Meet of the points in tmask as a lattice index; ker(empty) is top."""
        return self.lattice.meet(*(self.points[k] for k in iter_bits(tmask)))

    def closure(self, tmask: int) -> int:
        """Points above ker(tmask), computed once per mask."""
        if tmask not in self._closures:
            self._closures[tmask] = self.above[self.ker(tmask)]
        return self._closures[tmask]

    def w_set(self, i: int) -> int:
        """Points whose pair does not lie above lattice element i."""
        return self.full & ~self.above[i]

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """Every open point-subset, verified to form a topology."""
        opens = sorted({self.full & ~a for a in self.above}, key=lambda m: (m.bit_count(), m))
        seen = set(opens)
        for a, b in itertools.combinations(opens, 2):
            if (a | b) not in seen or (a & b) not in seen:
                raise InternalInvariantError("opens are not a topology")
        return tuple(opens)

    def is_open(self, mask: int) -> bool:
        return mask in self._phis

    def phi(self, umask: int) -> int:
        """The ideal of an open: the kernel of its complement."""
        try:
            return self._phis[umask]
        except KeyError:
            raise ValueError(f"{umask:#b} is not an open set") from None

    def min_open_containing(self, tmask: int) -> int:
        """The points whose closure meets tmask, the least open over it."""
        acc = mask_of(j for j, p in enumerate(self.points) if self.above[p] & tmask)
        if not self.is_open(acc):
            raise InternalInvariantError("opens are not closed under intersection")
        return acc

    def specializes(self, j: int, k: int) -> bool:
        """Point j specializes to k when k lies in the closure of {j}."""
        return bool(self.above[self.points[j]] >> k & 1)

    @cached_property
    def _phis(self) -> dict[int, int]:
        """open -> its ideal; the keys are exactly the opens."""
        return {u: self.ker(self.full & ~u) for u in self.opens}


def s_primes(lat: IdealLattice) -> SpectrumSpace:
    """All prime points; the opens are built when first read."""
    full = lat.down[lat.top]
    nots = [full & ~lat.down[p] for p in range(lat.top)]   # proper p only
    return SpectrumSpace(lat, tuple(
        p for p, r in enumerate(nots) if lat.up[(r & -r).bit_length() - 1] == r))


def capped_spectrum(g: Graph, point_cap: int, vertex_cap: int) -> SpectrumSpace:
    """The spectrum of g, refused with CapExceeded above point_cap points."""
    sp = s_primes(enumerate_admissible_pairs(g, vertex_cap=vertex_cap))
    if sp.npoints > point_cap:
        raise CapExceeded(f"{sp.npoints} spectrum points exceed cap {point_cap}")
    return sp


class LocallyClosedSet(NamedTuple):
    """A difference U \\ V of opens in canonical form.

    u is the minimal open containing the pointset and v = u minus the
    pointset.  d is the vertex-set difference H_phi(u) minus H_phi(v), the
    carrier of the associated subquotient; h_v is H_phi(v) itself.
    """

    pointset: int
    u: int
    v: int
    d: int
    h_v: int


def presentation(sp: SpectrumSpace, u: int, v: int) -> LocallyClosedSet:
    """The pointset u \\ v presented by the opens v <= u, with its carrier."""
    if (u, v) not in sp._presentations:
        hu = sp.lattice.pairs[sp.phi(u)].h
        hv = sp.lattice.pairs[sp.phi(v)].h
        sp._presentations[u, v] = LocallyClosedSet(u & ~v, u, v, hu & ~hv, hv)
    return sp._presentations[u, v]


def canonical_presentation(sp: SpectrumSpace, pointset: int) -> LocallyClosedSet:
    """The minimal-hull presentation of a locally closed pointset."""
    if pointset not in sp._canonical:
        umin = sp.min_open_containing(pointset)
        vc = umin & ~pointset
        if not sp.is_open(vc):
            raise ValueError(f"{pointset:#b} is not locally closed")
        sp._canonical[pointset] = presentation(sp, umin, vc)
    return sp._canonical[pointset]


def locally_closed_sets(sp: SpectrumSpace) -> tuple[LocallyClosedSet, ...]:
    """Every pointset of the form U \\ V, once each, canonically presented."""
    seen: set[int] = set()
    out = []
    for u, v in itertools.product(sp.opens, repeat=2):
        if v & ~u:
            continue
        y = u & ~v
        if y in seen:
            continue
        seen.add(y)
        try:
            out.append(canonical_presentation(sp, y))
        except ValueError:
            raise InternalInvariantError(
                f"complement of {y:#b} in its hull is not open") from None
    out.sort(key=lambda lc: (lc.pointset.bit_count(), lc.pointset))
    return tuple(out)


_SUBSET_SAMPLES = 200


def _subset_samples(n: int):
    if (1 << n) <= _SUBSET_SAMPLES:
        return list(range(1 << n))
    rng = random.Random(0)
    full = (1 << n) - 1
    picks = {0, full}
    while len(picks) < _SUBSET_SAMPLES:
        picks.add(rng.randrange(1 << n))
    return sorted(picks)


def verify_kuratowski(sp: SpectrumSpace) -> Report:
    """Closure axioms: empty set, extensivity, idempotence, union splitting.

    Exhaustive over all point subsets while there are at most 200 of them
    (up to 7 points), a seeded sample of 200 subsets above.
    """
    fails = []
    checks = 0
    subs = _subset_samples(sp.npoints)
    checks += 1
    if sp.closure(0) != 0:
        fails.append("closure(empty) is nonempty")
    cl = {t: sp.closure(t) for t in subs}
    for t in subs:
        checks += 2
        if t & ~cl[t]:
            fails.append(f"T={t:#b} not inside its closure")
        if sp.closure(cl[t]) != cl[t]:
            fails.append(f"closure not idempotent at T={t:#b}")
    for s, t in itertools.combinations_with_replacement(subs, 2):
        checks += 1
        if sp.closure(s | t) != cl[s] | cl[t]:
            fails.append(f"closure({s:#b} | {t:#b}) != union of closures")
    return Report("kuratowski", checks, tuple(fails))


def verify_open_ideal_iso(sp: SpectrumSpace) -> Report:
    """phi and gamma = w_set invert each other and preserve order, meet, and join."""
    lat = sp.lattice
    fails = []
    checks = 0
    for i in range(lat.size):
        checks += 1
        if sp.phi(sp.w_set(i)) != i:
            fails.append(f"phi(gamma({lat.pairs[i]})) drifted")
    for u in sp.opens:
        checks += 1
        if sp.w_set(sp.phi(u)) != u:
            fails.append(f"gamma(phi({u:#b})) drifted")
    for i, j in itertools.product(range(lat.size), repeat=2):
        checks += 3
        if lat.leq(i, j) and sp.w_set(i) & ~sp.w_set(j):
            fails.append(f"gamma not monotone at ({i},{j})")
        if sp.w_set(lat.join(i, j)) != sp.w_set(i) | sp.w_set(j):
            fails.append(f"gamma(join) != union at ({i},{j})")
        if sp.w_set(lat.meet(i, j)) != sp.w_set(i) & sp.w_set(j):
            fails.append(f"gamma(meet) != intersection at ({i},{j})")
    for u, v in itertools.product(sp.opens, repeat=2):
        checks += 1
        if u & ~v == 0 and not lat.leq(sp.phi(u), sp.phi(v)):
            fails.append(f"phi not monotone at ({u:#b},{v:#b})")
    return Report("lattice-iso", checks, tuple(fails))


def verify_kernel_identity(sp: SpectrumSpace) -> Report:
    """Every proper pair is the meet of the points above it."""
    lat = sp.lattice
    fails = tuple(f"{lat.pairs[i]} is not the meet of its points"
                  for i in range(lat.top)   # the proper pairs, one check each
                  if lat.meet(*(p for p in sp.points if lat.leq(i, p))) != i)
    return Report("kernel-identity", lat.top, fails)


def verify_t0(sp: SpectrumSpace) -> Report:
    fails = []
    checks = 0
    for j, k in itertools.combinations(range(sp.npoints), 2):
        checks += 1
        if sp.closure(1 << j) == sp.closure(1 << k):
            fails.append(f"points {j} and {k} share a closure")
    return Report("t0", checks, tuple(fails))
