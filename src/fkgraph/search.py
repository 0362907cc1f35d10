"""Compare's decision procedure, which only a process that compares loads.

`compare` decides whether two `FilteredK` objects can be matched by a
homeomorphism of spectra together with a family of ordered group isomorphisms
commuting with all the maps, in one search per compare: each side's factor
lists are tabled once per slot, a's commuting squares are filed once, each
cone membership is decided once, and each homeomorphism re-binds only b's
side, read off one table of its image of every pointset; each is searched on
a's connected components before the whole space, and a proof on one refutes
every homeomorphism agreeing with it there.  The verdict is three-valued: a
mismatch that survives every homeomorphism is DISTINGUISHED, a certified
family COMPATIBLE, and an exhausted budget (or an inconclusive cone
membership) UNKNOWN.  Witnesses are plain dicts, deterministic and replayable.
Each slot's candidates come from `group_isos`, which generates the
isomorphisms of two groups lazily, row by row, under linear constraints
A v = c.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from itertools import product
from math import gcd
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graphs import iter_bits
from .intlinalg import FgAbGroup, IntMatrix, group_iso_inverse, map_into
from .invariant import COMPATIBLE, DEFAULT_BUDGET, DISTINGUISHED, UNKNOWN, FilteredK
from .ktheory import CYCLE, KData, cone_contains, pair_pointsets
from .report import Report
from .sixterm import SixTerm
from .spectrum import SpectrumSpace

# candidate evaluations per compare call before giving up with UNKNOWN
_NODE_CAP = 500_000


class CompareVerdict(NamedTuple):
    outcome: str
    witness: dict


def poset_isomorphisms(a: SpectrumSpace, b: SpectrumSpace):
    """All point bijections preserving specialization both ways.

    Finite T0 spaces are their specialization posets, so these are exactly
    the homeomorphisms.  The identity permutation comes first when it
    qualifies, which keeps self-comparison witnesses canonical.
    """
    if a.npoints == b.npoints:
        for perm in itertools.permutations(range(a.npoints)):
            if _preserves_specialization(a, b, perm):
                yield perm


def _preserves_specialization(a: SpectrumSpace, b: SpectrumSpace, sigma) -> bool:
    """Whether the point bijection sigma preserves specialization both ways."""
    n = range(a.npoints)
    return all(a.specializes(i, j) == b.specializes(sigma[i], sigma[j]) for i in n for j in n)


def _images(sigma) -> list[int]:
    """sigma's image of every pointset mask, each read off its lower bits."""
    image = [0] * (1 << len(sigma))
    for m in range(1, len(image)):
        image[m] = image[m & (m - 1)] | 1 << sigma[(m & -m).bit_length() - 1]
    return image


def _squares(a: FilteredK, within: int):
    """a's commuting squares, six per (sub, mid) pair whose mid lies in `within`.

    The pairs are (mid & U, mid) for each slot mid inside `within`, in kmap
    order, and each open U, in `opens` order, each pair once.  Each square is
    (pair, edge, source pointset, source level, target pointset, target level,
    map of a), the ends as `ktheory.CYCLE` places them.  A homeomorphism sigma
    matches it with b's map `b.sequence(sigma(pair))[edge]` into b's group at
    sigma(target).
    """
    for mid in a.kmap:
        if mid & ~within:
            continue
        for key in dict.fromkeys((mid & u, mid) for u in a.space.opens):
            parts = pair_pointsets(key)
            for edge, m_a in enumerate(a.sequence(key)):
                (src, s_lv), (tgt, t_lv) = CYCLE[edge], CYCLE[(edge + 1) % 6]
                yield key, edge, parts[src], s_lv, parts[tgt], t_lv, m_a


def _components(space: SpectrumSpace) -> list[int]:
    """The connected components: the minimal nonempty clopen pointsets."""
    found = []
    for u in space.opens:   # by size: a component comes before every clopen it lies in
        if u and space.is_open(space.full & ~u) and not any(u & x for x in found):
            found.append(u)
    return found


def _unit(fk: FilteredK, x: int) -> tuple[int, ...]:
    """The unit class's image under pi0 of (full \\ x, full), the identity if x is full."""
    full = fk.space.full
    return fk.kmap[x].k0.reduce(fk.sequence((full & ~x, full)).pi0.apply(fk.kmap[full].unit_class))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _fits(row: tuple[int, ...], rules) -> bool:
    """Whether a matrix row meets its rules (v, c, m): row . v == c mod m, exactly if m == 0."""
    for v, c, m in rules:
        d = sum(map(mul, row, v)) - c
        if d % m if m else d:
            return False
    return True


def _identity_first(rules, lex: Iterator[tuple]) -> Iterator[tuple]:
    """The identity when its rows fit `rules`, then `lex` without it."""
    ident = IntMatrix.identity(len(rules)).entries
    if all(map(_fits, ident, rules)):
        yield ident
    for m in lex:
        if m != ident:
            yield m


def _torsion_lex(tf: tuple[int, ...], rules) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Automorphism matrices of Z/tf[0] + ... whose rows fit `rules`, lexicographic.

    Built row by row, not filtered from the box of candidates.  Entry
    (i, j) must be a multiple of tf[i] / gcd(tf[i], tf[j]) for the column map
    from a generator of order tf[j] to be well defined, so mod a prime p it
    vanishes whenever tf[i] has the larger p-exponent: the matrix is
    block-triangular mod p, one diagonal block per p-exponent, and it is
    bijective iff every block is invertible mod p (Hillar-Rhea,
    arXiv:math/0605185).  A row is dropped as soon as it misses a rule or its
    residues on its block lie in the span of the earlier rows of that block.
    """
    k = len(tf)
    primes = sorted({p for d in tf for p in _prime_factors(d)})
    ppart = {p: [gcd(d, p ** d.bit_length()) for d in tf] for p in primes}
    spans: dict[tuple[int, int], set] = {}   # (p, p-part) -> span mod p so far
    cands = []   # per row: (row, [(block key, residues on the block)])
    for i in range(k):
        blocks = []
        for p in primes:
            if ppart[p][i] > 1:
                cols = [j for j in range(k) if ppart[p][j] == ppart[p][i]]
                blocks.append(((p, ppart[p][i]), cols))
                spans[p, ppart[p][i]] = {(0,) * len(cols)}
        cells = [range(0, tf[i], tf[i] // gcd(tf[i], tf[j])) for j in range(k)]
        cands.append([(row, [(key, tuple(row[j] % key[0] for j in cols)) for key, cols in blocks])
                      for row in product(*cells) if _fits(row, rules[i])])
    rows: list[tuple[int, ...]] = []

    def extend(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        for row, residues in cands[i]:
            if any(r in spans[key] for key, r in residues):
                continue
            rows.append(row)
            if i + 1 < k:
                saved = [(key, spans[key]) for key, _ in residues]
                for key, r in residues:
                    p = key[0]
                    spans[key] = {tuple((a + c * b) % p for a, b in zip(v, r))
                                  for v in spans[key] for c in range(p)}
                yield from extend(i + 1)
                spans.update(saved)
            else:
                yield tuple(rows)
            rows.pop()

    if k:   # the trivial group has only the identity, which comes first anyway
        yield from extend(0)


def _free_lex(kf: int, budget: int, rules) -> Iterator[tuple[tuple[int, ...], ...]]:
    """GL(kf, Z) matrices with |entries| <= budget whose rows fit `rules`, lexicographic.

    GL(1, Z) is {-1, 1}, so a rank-1 block costs the same at any budget."""
    vals = (-1, 1) if kf == 1 else range(-budget, budget + 1)
    for F in product(*([r for r in product(vals, repeat=kf) if _fits(r, rules[i])]
                       for i in range(kf))):
        if abs(IntMatrix(kf, kf, F).det()) == 1:
            yield F


def group_isos(G: FgAbGroup, H: FgAbGroup, budget: int = DEFAULT_BUDGET,
               constraints: Iterable[tuple[Sequence[int], Sequence[int]]] = ()) -> Iterator[IntMatrix]:
    """Isomorphisms A: G -> H on canonical coordinates with A v = c in H for
    every constraint (v, c), generated lazily; no group is held whole.

    The free block F (entries bounded by `budget`) varies slowest, then the
    torsion automorphism T, then the free-to-torsion block X, each identity
    first, then lexicographic, and each built row by row.  Row i of A meets
    (v, c) iff its own entries do, so a row is dropped once it fails a
    constraint it decides (a row of T: when no X row can repair it).  The
    output is the unconstrained stream filtered, in the same order.  Every
    yield is invertible over the factors.  The enumeration is exhaustive when
    the free rank is <= 1.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if G.invariant_factors != H.invariant_factors:
        return
    tf = G.torsion_factors
    kt, kf = len(tf), G.rank
    cons = [(tuple(v[:kt]), tuple(v[kt:]), tuple(c)) for v, c in constraints]
    # a torsion row of T can still be repaired by its X row up to gcd(tf[i], vf)
    t_rules = [[(vt, c[i], m) for vt, vf, c in cons if (m := gcd(tf[i], *vf)) != 1]
               for i in range(kt)]
    f_rules = [[(vf, c[kt + i], 0) for vt, vf, c in cons] for i in range(kf)]
    for F in _identity_first(f_rules, _free_lex(kf, budget, f_rules)):
        for T in _identity_first(t_rules, _torsion_lex(tf, t_rules)):
            xs = [[()]] * kt   # with no free part, T's rules were exact
            if kf:
                xs = [[x for x in product(range(d), repeat=kf) if _fits(x, rules)]
                      for i, d in enumerate(tf) for rules in
                      [[(vf, c[i] - sum(map(mul, T[i], vt)), d) for vt, vf, c in cons]]]
            for X in product(*xs):
                yield IntMatrix(kt + kf, kt + kf, tuple(T[i] + X[i] for i in range(kt))
                                + tuple((0,) * kt + F[i] for i in range(kf)))


class _Budget(Exception):
    pass


class _Search:
    """Backtracking over per-slot (K0, K1) isomorphism candidates, one per compare.

    `run(sigma, within)` assigns the slots inside the clopen `within` (by
    default the whole space) in order, K0 before K1, under a's squares of the
    pairs whose mid lies in `within`, filed once per pointset: one whose source
    is assigned first constrains `group_isos` on the columns of a's map, as the
    image of the unit does at slot `within`; any other is checked once its
    source is assigned.  A run re-binds only b's side, read off `_images`:
    b's maps of the pairs filed there.  Each side's sequences are built as
    runs read them, a unit's pair only when unital.
    K0 candidates are vetted with no per-run state: cone memberships are
    memoised per compare by the values `cone_contains` reads, inverses by
    value.  Every candidate a stream yields, in any run, counts against `_NODE_CAP`.
    A failed run is a proof (`proof`) iff every stream it opened had free rank
    <= 1, so enumerated every isomorphism, and every cone membership was decided.
    """

    def __init__(self, a: FilteredK, b: FilteredK, unital: bool, budget: int):
        self.a, self.b = a, b
        self.unital, self.budget = unital, budget
        self.nodes = 0
        self.slots = list(a.kmap)
        self._filed: dict[int, tuple] = {}
        self._cones: dict[tuple, tuple[bool, bool]] = {}
        self._refuted: dict[tuple[int, tuple[int, ...]], bool] = {}

    def _file(self, within: int):
        """The slots inside `within`, the pairs filed, and per slot the squares it
        constrains and checks."""
        index = {y: k for k, y in enumerate(self.slots)}
        pairs = {}
        into = [([], []) for _ in self.slots]
        out_of = [[] for _ in self.slots]
        for key, edge, src, s_lv, tgt, t_lv, m_a in _squares(self.a, within):
            pairs[key] = None
            si, ti = index[src], index[tgt]
            if (si, s_lv) < (ti, t_lv):
                into[ti][t_lv].append((si, s_lv, key, edge, m_a))
            else:
                out_of[si].append((s_lv, ti, t_lv, key, edge, m_a))
        return [k for k, y in enumerate(self.slots) if not y & ~within], list(pairs), into, out_of

    @cached_property
    def components(self) -> list[int]:
        """a's components, if several."""
        return [x for x in _components(self.a.space) if x != self.a.space.full]

    def refutes(self, sigma) -> bool:
        """Whether a run on one of `components` fails as a proof, memoised by sigma there."""
        for x in self.components:
            key = x, tuple(sigma[p] for p in iter_bits(x))
            if key not in self._refuted:
                self._refuted[key] = self.run(sigma, x) is None and self.proof
            if self._refuted[key]:
                return True
        return False

    def _in_cone(self, kd: KData, x: tuple[int, ...]) -> bool:
        hit = self._cones.get(key := (kd.k0, kd.cone_generators, x))
        if hit is None:
            hit = self._cones[key] = cone_contains(kd, x)
        found, sure = hit
        if not (found or sure):
            self.inconclusive, self.proof = True, False
        return found

    def _admissible(self, ka: KData, kb: KData, m0: IntMatrix) -> bool:
        if not all(self._in_cone(kb, m0.apply(gen)) for gen in ka.cone_generators):
            return False
        inv0 = group_iso_inverse(ka.k0, m0)
        return inv0 is not None and all(self._in_cone(ka, inv0.apply(gen))
                                        for gen in kb.cone_generators)

    def _stream(self, k: int, lv: int):
        """Slot k's level-lv isomorphisms meeting every square from an assigned slot."""
        ka, kb = self.kd[k]
        ga, gb = (ka.k1, kb.k1) if lv else (ka.k0, kb.k0)
        self.proof &= ga.rank <= 1   # only GL(r, Z) with r >= 2 is cut off by the budget
        cons = []
        for si, s_lv, key, edge, m_a in self.into[k][lv]:
            img = self.b_maps[key][edge] @ self.alpha[s_lv][si]
            cons += [(m_a.col(j), img.col(j)) for j in range(m_a.cols)]
        if not lv and self.unital and self.slots[k] == self.within:
            cons.append(self.units)
        for m in group_isos(ga, gb, self.budget, cons):
            self.nodes += 1
            if self.nodes > _NODE_CAP:
                raise _Budget
            yield m

    def _commutes(self, k: int) -> bool:
        alpha = self.alpha
        for s_lv, ti, t_lv, key, edge, m_a in self.out_of[k]:
            kb = self.kd[ti][1]
            grp = kb.k1 if t_lv else kb.k0
            if (map_into(grp, alpha[t_lv][ti], m_a)
                    != map_into(grp, self.b_maps[key][edge], alpha[s_lv][k])):
                return False
        return True

    def run(self, sigma, within: int | None = None) -> list[tuple[IntMatrix, IntMatrix]] | None:
        """A family over sigma on the slots inside `within` (None on the others),
        or None; `proof` then says whether that failure is a proof, `inconclusive`
        whether it met an undecided cone membership."""
        a, b = self.a, self.b
        self.within = within = a.space.full if within is None else within
        if within not in self._filed:
            self._filed[within] = self._file(within)
        self.order, pairs, self.into, self.out_of = self._filed[within]
        image = _images(sigma)
        self.kd = [(ka, b.kmap[image[y]]) for y, ka in a.kmap.items()]
        self.b_maps = {(sub, mid): b.sequence((image[sub], image[mid])) for sub, mid in pairs}
        self.units = (_unit(a, within), _unit(b, image[within])) if self.unital else None
        self.alpha = ([None] * len(self.slots), [None] * len(self.slots))
        self.inconclusive, self.proof = False, True
        return list(zip(*self.alpha)) if self._extend(0) else None

    def _extend(self, i: int) -> bool:
        if i == len(self.order):
            return True
        k = self.order[i]
        for m0 in self._stream(k, 0):
            if not self._admissible(*self.kd[k], m0):
                continue
            self.alpha[0][k] = m0   # the level-1 stream reads it
            for m1 in self._stream(k, 1):
                self.alpha[1][k] = m1
                if self._commutes(k) and self._extend(i + 1):
                    return True
        return False


def _necessary_mismatch(factors_a: dict, factors_b: dict, sigma) -> dict | None:
    """The first slot whose factor lists sigma does not match, as a witness."""
    image = _images(sigma)
    for y, fa in factors_a.items():
        if fa != (fb := factors_b[image[y]]):
            return {"kind": "pointwise", "homeomorphism": list(sigma),
                    "pointset": list(iter_bits(y)), "a_factors": [list(f) for f in fa],
                    "b_factors": [list(f) for f in fb]}
    return None


def _family_witness(a: FilteredK, sigma, family, unital: bool) -> dict:
    slots = [{"pointset": list(iter_bits(y)), "alpha0": [list(r) for r in m0.entries],
              "alpha1": [list(r) for r in m1.entries]} for y, (m0, m1) in zip(a.kmap, family)]
    return {"kind": "family", "homeomorphism": list(sigma),
            "unital": unital, "slots": slots}


def compare(a: FilteredK, b: FilteredK, unital: bool = True,
            budget: int = DEFAULT_BUDGET) -> CompareVerdict:
    """Bounded decision: DISTINGUISHED, COMPATIBLE, or UNKNOWN.

    DISTINGUISHED requires a proof: no homeomorphism of spectra, or each one,
    sigma, refuted by a pointwise K-group mismatch, or else by a search that
    fails as a proof (`_Search.proof`) on one connected component X under
    sigma's restriction (a family restricts to X and commutes with pi0 of
    (full \\ X, full), so slot X sends a's image of the unit to b's), tried
    first, or on the whole space.  COMPATIBLE carries the certified family,
    found by a whole-space search.  Everything else is UNKNOWN.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    homeos = list(poset_isomorphisms(a.space, b.space))
    if not homeos:
        return CompareVerdict(DISTINGUISHED, {
            "kind": "no_homeomorphism", "a_points": a.space.npoints, "b_points": b.space.npoints})
    if not (a.k_complete and b.k_complete):
        # a graph that is not row-finite has no K layer here: only the spectra match
        return CompareVerdict(UNKNOWN, {"kind": "no_k_layer", "homeomorphism": list(homeos[0])})

    factors_a, factors_b = ({y: k.factor_summary() for y, k in fk.kmap.items()} for fk in (a, b))
    first_failure = search = None
    unrefuted = inconclusive = False
    for sigma in homeos:
        mismatch = _necessary_mismatch(factors_a, factors_b, sigma)
        if mismatch is not None:
            if first_failure is None:
                first_failure = mismatch
            continue
        if search is None:
            search = _Search(a, b, unital, budget)
        try:
            if search.refutes(sigma):
                continue
            family = search.run(sigma)
            if family is not None:
                return CompareVerdict(
                    COMPATIBLE, _family_witness(a, sigma, family, unital))
            inconclusive |= search.inconclusive
            unrefuted |= not search.proof
        except _Budget:
            unrefuted = True
            break

    if unrefuted:
        return CompareVerdict(UNKNOWN, {
            "kind": "budget_exhausted", "budget": budget, "inconclusive_cone": inconclusive})
    if first_failure is not None:
        return CompareVerdict(DISTINGUISHED, first_failure)
    return CompareVerdict(DISTINGUISHED, {"kind": "no_family", "budget": budget})


def _slot_matrix(rows, m: int, n: int) -> IntMatrix | None:
    """rows as an m x n integer matrix, or None when they are not one."""
    if (isinstance(rows, (list, tuple)) and len(rows) == m
            and all(isinstance(r, (list, tuple)) and len(r) == n
                    and all(type(x) is int for x in r) for r in rows)):
        return IntMatrix.from_rows(rows, cols=n)
    return None


def verify_compatible_witness(a: FilteredK, b: FilteredK, witness: dict) -> Report:
    """Replay every check behind a COMPATIBLE verdict.

    The homeomorphism is re-verified as an order isomorphism, each slot
    matrix as an invertible map matching the factor lists, cone and unit
    conditions are re-decided, and the six commuting squares of each
    (sub, mid) pair are recomputed once from the stored matrices; every open
    chain presenting the pair has exactly those squares.  A witness is
    outside input: whatever its shape, the result is a Report, never an
    exception.
    """
    fails = []
    checks = 0
    if not isinstance(witness, dict) or witness.get("kind") != "family":
        return Report("witness", 1, ("witness is not a family",))
    sigma = witness.get("homeomorphism")
    n = a.space.npoints
    checks += 1
    if (not isinstance(sigma, (list, tuple)) or any(type(i) is not int for i in sigma)
            or sorted(sigma) != list(range(n)) or b.space.npoints != n):
        return Report("witness", checks, ("homeomorphism is not a bijection",))
    checks += 1
    if not _preserves_specialization(a.space, b.space, sigma):
        return Report("witness", checks, ("map does not preserve specialization",))
    if not (a.k_complete and b.k_complete):
        return Report("witness", checks, ("family witness without both K layers",))

    slot_sets = [list(iter_bits(y)) for y in a.kmap]
    slots = witness.get("slots")
    checks += 1
    if (not isinstance(slots, list) or not all(isinstance(s, dict) for s in slots)
            or [s.get("pointset") for s in slots] != slot_sets):
        return Report("witness", checks, ("slots do not cover the locally closed sets",))
    alpha = {}
    image = _images(sigma)
    for y, slot in zip(a.kmap, slots):
        ka, kb = a.kmap[y], b.kmap[image[y]]
        m0 = _slot_matrix(slot.get("alpha0"), kb.k0.ncoords, ka.k0.ncoords)
        m1 = _slot_matrix(slot.get("alpha1"), kb.k1.ncoords, ka.k1.ncoords)
        checks += 1
        if m0 is None or m1 is None:
            return Report("witness", checks, (
                *fails, f"slot matrix is not an integer matrix of the right shape"
                        f" at {list(iter_bits(y))}"))
        alpha[y] = (m0, m1)
        if ka.factor_summary() != kb.factor_summary():
            fails.append(f"factor mismatch at {list(iter_bits(y))}")
            continue
        inv0 = group_iso_inverse(ka.k0, m0)
        inv1 = group_iso_inverse(ka.k1, m1)
        checks += 1
        if inv0 is None or inv1 is None:
            fails.append(f"slot matrix not invertible at {list(iter_bits(y))}")
            continue
        for gen in ka.cone_generators:
            checks += 1
            if cone_contains(kb, m0.apply(gen)) != (True, True):
                fails.append(f"cone image escapes at {list(iter_bits(y))}")
        for gen in kb.cone_generators:
            checks += 1
            if cone_contains(ka, inv0.apply(gen)) != (True, True):
                fails.append(f"reverse cone image escapes at {list(iter_bits(y))}")
        if witness.get("unital") and y == a.space.full:
            checks += 1
            if kb.k0.reduce(m0.apply(ka.unit_class)) != kb.unit_class:
                fails.append("unit class is not preserved")
    for key, edge, src, s_lv, tgt, t_lv, m_a in _squares(a, a.space.full):
        checks += 1
        m_b = b.sequence((image[key[0]], image[key[1]]))[edge]
        kb = b.kmap[image[tgt]]
        grp = kb.k1 if t_lv else kb.k0
        if map_into(grp, alpha[tgt][t_lv], m_a) != map_into(grp, m_b, alpha[src][s_lv]):
            fails.append(f"{SixTerm._fields[edge]} square fails at pair {key}")
    return Report("witness", checks, tuple(fails))
