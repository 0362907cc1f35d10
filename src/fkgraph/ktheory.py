"""K-groups of gauge subquotients, and the pairs their six-term sequences belong to.

For a subquotient carried by a vertex set D the presenting matrix B is read
off the graph's multiplicities, rows the vertices of D and columns its
regular vertices, B[w][v] = mult(v -> w) - delta_{vw}.  K0 is the cokernel
with the vertex classes as distinguished cone generators, the reduced columns
of its projection, and K1 the integer kernel.  K-data is memoised once per
process by the graph and the carrier d alone, and each (d, h_v) is checked
once.

A six-term sequence belongs to a (sub, mid) pair of locally closed pointsets,
an ideal inside a subquotient: sub = mid & U for an open U.  `CYCLE` states
the order of a sequence's six groups over the pair's parts; no other module
knows that order.  The sequences themselves, the chains of opens that
present them, their exactness and the well-definedness suite are in
`sixterm`, which only `check` and `compare` load.  The three of its names the
per-layer tracer looks up here resolve on first read (PEP 562) and are kept
in this module's globals, where its rebinding sees them, until the tracer
imports its own targets.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import NamedTuple

from .graphs import Graph, is_hereditary, is_saturated, iter_bits
from .intlinalg import FgAbGroup, IntMatrix, cokernel, kernel_group, solve_exact
from .spectrum import LocallyClosedSet

SIXTERM_NAMES = ("exactness_failures", "six_term", "verify_well_definedness")


def __getattr__(name: str):
    # a six-term name loads `sixterm` and is kept here, where rebinding module globals sees it
    if name not in SIXTERM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sixterm
    return globals().setdefault(name, getattr(sixterm, name))


class KData(NamedTuple):
    """Ordered K-theory of one subquotient.

    cone_generators[i] is the K0 class of the i-th vertex of the carrier;
    unit_class is their sum.  Coordinates follow the invariant factors
    of each group.
    """

    vertices: tuple[str, ...]
    matrix: IntMatrix
    k0: FgAbGroup
    cone_generators: tuple[tuple[int, ...], ...]
    unit_class: tuple[int, ...]
    k1: FgAbGroup

    def factor_summary(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.k0.invariant_factors, self.k1.invariant_factors


@cache
def _carrier(g: Graph, d: int) -> KData:
    """K-data of the subquotient carried by d, whatever h_v presents it, read off
    g.mult: rows the vertices of d, columns g's regular vertices in d (H_v is
    saturated, so each keeps an edge inside d); memoised by value, unchecked."""
    verts, regs = list(iter_bits(d)), list(iter_bits(d & g.regular))
    b = IntMatrix.from_rows([[g.mult[v][w] - (v == w) for v in regs] for w in verts],
                            cols=len(regs))
    k0 = cokernel(b)
    gens = tuple(map(k0.reduce, zip(*k0.project.entries))) or ((),) * len(verts)
    unit = k0.reduce([sum(c) for c in zip(*gens)]) if gens else (0,) * k0.ncoords
    return KData(tuple(g.vertices[v] for v in verts), b, k0, gens, unit, kernel_group(b))


@cache
def _presented(g: Graph, d: int, h_v: int) -> None:
    """Raises unless (d, h_v) presents a subquotient: h_v and d | h_v are
    hereditary and saturated, and d misses h_v."""
    if not g.row_finite:
        raise ValueError("K-data requires a row-finite graph")
    if d & h_v:
        raise ValueError("d and v_ideal must be disjoint")
    for h, what in ((h_v, "v_ideal"), (d | h_v, "d | v_ideal")):
        if not is_hereditary(g, h) or not is_saturated(g, h):
            raise ValueError(f"{what} must be hereditary and saturated")


def k_data(g: Graph, y: LocallyClosedSet) -> KData:
    """K-data of the subquotient y, built once per carrier d; (d, h_v) checked once."""
    _presented(g, y.d, y.h_v)
    return _carrier(g, y.d)


# the positions of a `SixTerm`'s groups, as (part, level) over `pair_pointsets`
CYCLE = tuple((part, level) for level in (0, 1) for part in range(3))


def pair_pointsets(key: tuple[int, int]) -> tuple[int, int, int]:
    """The parts sub, mid and quot = mid \\ sub of a (sub, mid) pair."""
    sub, mid = key
    return sub, mid, mid & ~sub


_CONE_BOUND = 64


def cone_contains(k: KData, x) -> tuple[bool, bool]:
    """Whether x is an N-combination of the cone generators.

    Returns (found, conclusive).  Torsion-only generators contribute a full
    subgroup (negatives are reachable by repetition), so only generators with
    free content need the bounded coefficient search; when their free parts
    are nonnegative the search space is finite and a miss is conclusive.
    """
    k0 = k.k0
    x = k0.reduce(x)
    if all(c == 0 for c in x):
        return True, True
    free_idx = [i for i, d in enumerate(k0.invariant_factors) if d == 0]
    free_g = [g for g in k.cone_generators if any(g[i] for i in free_idx)]
    tors_g = [g for g in k.cone_generators if not any(g[i] for i in free_idx)]
    memb = IntMatrix.from_rows(
        [[g[i] for g in tors_g] for i in range(k0.ncoords)], cols=len(tors_g)
    ).hstack(k0.relation_columns)

    covered = True
    caps = []
    nonneg = all(g[i] >= 0 for g in free_g for i in free_idx)
    if nonneg and any(x[i] < 0 for i in free_idx):
        return False, True
    for g in free_g:
        if nonneg:
            cap = min(x[i] // g[i] for i in free_idx if g[i] > 0)
        else:
            cap = _CONE_BOUND
            covered = False
        if cap > _CONE_BOUND:
            cap = _CONE_BOUND
            covered = False
        caps.append(cap)
    while math.prod(cap + 1 for cap in caps) > 200_000:
        j = caps.index(max(caps))
        caps[j] //= 2
        covered = False

    for coeffs in itertools.product(*(range(c + 1) for c in caps)):
        resid = list(x)
        for cv, g in zip(coeffs, free_g):
            for i in range(k0.ncoords):
                resid[i] -= cv * g[i]
        resid = list(k0.reduce(resid))
        if any(resid[i] for i in free_idx):
            continue
        if solve_exact(memb, resid) is not None:   # the torsion generators reach the rest
            return True, True
    return False, covered
