"""The six-term sequences of pairs of graded ideals, their exactness, and the
independence of subquotient data from its presentation; only `check` and
`compare` load this module.

A `SixTerm` holds the six maps of the sequence of a (sub, mid) pair
(`ktheory.sequence_key`) alone, between the K-data of the pair's parts in
the `ktheory.CYCLE` order.  Every presentation's K-groups are framed in the
one coordinate frame of its pointset, the canonical presentation's.  On a
chain the matrix over D = H3 \\ H1 is block triangular; the connecting map
feeds the off-diagonal block into the ideal's cokernel, and the exponential
direction vanishes because vertex classes lift.  Each map is built by
`intlinalg.map_into` on framed groups, in which the inclusion of one
carrier's vertices (or regular columns) into another's is an index
selection: a vertex's row (column) counts the carrier's (regular) vertices
below it; a carrier's regular vertices are g's, since H_u is hereditary and
H_v saturated.  Each sequence is checked for exactness, with each map killing
its source relations, as it is built; a failing one raises.  A spot f then gm
is decided from two Smith decompositions: [gm | relations] gives the kernel,
and each kernel vector must be solvable on [f | relations].
`FilteredK` builds one sequence per pair, on the chain `ktheory.pair_chains`
picks, when the pair is first read; `check` builds every chain.  Its
well-definedness suite compares a presentation with the canonical one only
where saturation enlarged the carrier; an equal carrier reads the same
K-data.  Framed groups are memoised once per process by the canonical and raw
carriers, and each exactness spot by its two maps and the factors of the
groups they land in.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Sequence

from .errors import ExactnessError, InternalInvariantError
from .graphs import Graph, iter_bits
from .intlinalg import FgAbGroup, IntMatrix, group_iso_inverse, map_into, smith_decomposition
from .ktheory import CYCLE, _carrier, k_data, open_triples, sequence_key
from .report import Report
from .spectrum import SpectrumSpace, canonical_presentation, presentation


class SixTerm(NamedTuple):
    """The six maps of the cyclic sequence of an ideal sub inside a subquotient mid.

    The sequence runs through K0(sub), K0(mid), K0(quot), K1(sub), K1(mid),
    K1(quot), with quot = mid \\ sub, and field k maps position k to position
    k + 1 (mod 6).  `CYCLE` gives the positions as (part, level) over
    `pair_pointsets`.  A chain u1 <= u2 <= u3 presents the parts as u2\\u1,
    u3\\u1, u3\\u2, and the maps do not depend on the chain.  Each map is a
    matrix between canonical coordinates; delta (K0 of the quotient to K1 of
    the ideal) is identically zero.
    """

    iota0: IntMatrix
    pi0: IntMatrix
    delta: IntMatrix
    iota1: IntMatrix
    pi1: IntMatrix
    partial: IntMatrix


def _positions(outer: int, inner: int) -> list[int]:
    """Where each vertex of the mask inner sits among those of the mask outer:
    a 0/1 inclusion matrix as a selection.

    A vertex of inner outside outer would have been a zero column of that matrix.
    """
    if inner & ~outer:
        raise InternalInvariantError("a carrier escapes the carrier it must lie in")
    return [(outer & ((1 << v) - 1)).bit_count() for v in iter_bits(inner)]


@cache
def _transition(g: Graph, canon_d: int, raw_d: int):
    """K0 and K1 of a presentation, framed in its pointset's canonical coordinates.

    The canonical carrier sits inside every presentation's carrier and
    saturates to all of it, so zero-extension of representatives and of
    kernel vectors induces isomorphisms n on both K-groups.  A framed group
    keeps the raw ambient, projecting through n^-1 (reduced) and lifting
    through n; it is the raw group itself when the carriers agree.
    """
    raw_k = _carrier(g, raw_d)
    if canon_d == raw_d:
        return raw_k.k0, raw_k.k1
    canon_k = _carrier(g, canon_d)
    verts = _positions(raw_d, canon_d)
    regs = _positions(raw_d & g.regular, canon_d & g.regular)
    framed = []
    for raw, canon, cols in ((raw_k.k0, canon_k.k0, verts), (raw_k.k1, canon_k.k1, regs)):
        n = map_into(raw, raw.project, canon.lift, cols=cols)
        inv = group_iso_inverse(raw, n)
        if inv is None:
            raise InternalInvariantError("presentation change is not a K-isomorphism")
        framed.append(FgAbGroup(raw.invariant_factors, map_into(raw, inv, raw.project),
                                raw.lift @ n))
    return tuple(framed)


def six_term(g: Graph, sp: SpectrumSpace, u1: int, u2: int, u3: int) -> SixTerm:
    """Six-term data for the chain, exactness-checked before returning.

    Each map is built by `map_into` on the chain's framed groups
    (`_transition`), so it lands in the canonical coordinates of each
    pointset and matrices from different triples compose.
    """
    for a, b in ((u1, u2), (u2, u3)):
        if a & ~b:
            raise ValueError("opens must form a chain")
    # sub, mid and quot, as `pair_pointsets` orders them
    ys = y_s, y_a, y_q = (presentation(sp, u2, u1), presentation(sp, u3, u1),
                          presentation(sp, u3, u2))
    ka = [k_data(g, y) for y in ys][1]  # each part's presentation is checked
    frames = [_transition(g, canonical_presentation(sp, y.pointset).d, y.d) for y in ys]
    (s0, s1), (a0, a1), (q0, q1) = frames
    # the rows and regular columns of the sub and quot carriers inside mid's
    rows_s, rows_q = _positions(y_a.d, y_s.d), _positions(y_a.d, y_q.d)
    reg_a = y_a.d & g.regular
    cols_s, cols_q = _positions(reg_a, y_s.d & g.regular), _positions(reg_a, y_q.d & g.regular)

    # sub-block rows hit by quotient columns vanish by hereditarity of H2
    b_a = ka.matrix.entries
    if any(b_a[r][c] for r in rows_q for c in cols_s):
        raise InternalInvariantError("ideal columns leak into the quotient block")

    st = SixTerm(
        iota0=map_into(a0, a0.project, s0.lift, cols=rows_s),
        pi0=map_into(q0, q0.project, a0.lift, rows=rows_q),
        delta=IntMatrix.zero(s1.ncoords, q0.ncoords),
        iota1=map_into(a1, a1.project, s1.lift, cols=cols_s),
        pi1=map_into(q1, q1.project, a1.lift, rows=cols_q),
        # the block of ideal rows and quotient columns, projected, then lifted
        partial=map_into(s0, map_into(s0, s0.project, ka.matrix, rows=rows_s), q1.lift,
                         cols=cols_q),
    )
    fails = exactness_failures(st, [frames[part][level] for part, level in CYCLE])
    if fails:
        raise ExactnessError("; ".join(fails))
    return st


# what fails at a spot f then gm, in the order the checks run
_SPOT_FAILURES = ("{g} does not kill source relations", "{g} after {f} is nonzero",
                  "image of {f} differs from kernel of {g}")


def exactness_failures(st: SixTerm, groups: Sequence[FgAbGroup]) -> list[str]:
    """Image-equals-kernel at all six spots of st over the groups at its
    `CYCLE` positions: gm kills im f, and ker gm lies in im f."""
    fails = []
    for k in range(6):
        j = (k + 1) % 6
        failure = _spot_failure(st[k], st[j], groups[j].invariant_factors,
                                groups[(j + 1) % 6].invariant_factors)
        if failure is not None:
            fails.append(_SPOT_FAILURES[failure].format(f=st._fields[k], g=st._fields[j]))
    return fails


@cache
def _spot_failure(f: IntMatrix, gm: IntMatrix, mid_factors: tuple[int, ...],
                  tgt_factors: tuple[int, ...]) -> int | None:
    """Index in _SPOT_FAILURES of the spot's failure, or None (memoised by value).

    The groups enter only through their factors, so a spot shared by several
    sequences or graphs is decided once per process.  One map
    gm [f | relations of mid] into tgt checks both that gm is well defined
    (it kills the relations of its source) and that gm after f is zero.
    ker gm lies in im f iff each kernel vector v, the trailing Q columns of
    [gm | relations of tgt] cut to mid's coordinates, is solved by the Smith
    decomposition of [f | relations of mid].
    """
    mid, tgt = _standard_group(mid_factors), _standard_group(tgt_factors)
    img = f.hstack(mid.relation_columns)
    killed = map_into(tgt, gm, img).entries
    if any(x for row in killed for x in row[f.cols:]):
        return 0
    if any(x for row in killed for x in row[:f.cols]):
        return 1
    if not mid_factors:
        return None
    ker = smith_decomposition(gm.hstack(tgt.relation_columns))
    basis = [col[:img.rows] for col in list(zip(*ker.Q.entries))[ker.rank:]]
    if not basis:
        return None
    dec = smith_decomposition(img)
    return 2 if any(dec.solve(v) is None for v in basis) else None


@cache
def _standard_group(factors: tuple[int, ...]) -> FgAbGroup:
    """The group with these factors on its own coordinates, built once per factors."""
    ident = IntMatrix.identity(len(factors))
    return FgAbGroup(factors, ident, ident)

def verify_exactness(g: Graph, sp: SpectrumSpace) -> Report:
    """Build every open chain's sequence; chains with one (sub, mid) pair must agree."""
    fails, first = [], {}
    checks = 0
    for chain in open_triples(sp):
        checks += 6
        u1, u2, u3 = chain
        try:
            st = six_term(g, sp, u1, u2, u3)
        except InternalInvariantError as e:
            fails.append(f"triple ({u1:#b},{u2:#b},{u3:#b}): {e}")
            continue
        (v1, v2, v3), ref = first.setdefault(sequence_key(*chain), (chain, st))
        if st != ref:
            fails.append(f"triple ({u1:#b},{u2:#b},{u3:#b}): maps differ from chain "
                         f"({v1:#b},{v2:#b},{v3:#b}) with the same subquotient pair")
    return Report("exactness", checks, tuple(fails))


def verify_well_definedness(g: Graph, sp: SpectrumSpace) -> Report:
    """Presentation independence of each pointset's subquotient data.

    One check per (U, V) presentation: the canonical carrier must lie in
    the presentation's.  Equal carriers read the one K-data memoised per
    carrier, so only a carrier that saturation enlarged is compared: its
    K-groups must have the canonical factors, and zero-extension of classes
    must be a K-isomorphism (`_transition` frames it).
    """
    fails = []
    checks = 0
    for u, v in itertools.product(sp.opens, repeat=2):
        if v & ~u:
            continue
        alt, ref = presentation(sp, u, v), canonical_presentation(sp, u & ~v)
        checks += 1
        if ref.d & ~alt.d:
            fails.append(f"canonical carrier escapes presentation ({u:#b},{v:#b})")
        elif g.row_finite and alt.d != ref.d:
            if k_data(g, alt).factor_summary() != k_data(g, ref).factor_summary():
                fails.append(f"K-groups drift under presentation ({u:#b},{v:#b})")
                continue
            try:
                _transition(g, ref.d, alt.d)
            except InternalInvariantError:
                fails.append(f"no canonical K-isomorphism for presentation ({u:#b},{v:#b})")
    return Report("well-definedness", checks, tuple(fails))
