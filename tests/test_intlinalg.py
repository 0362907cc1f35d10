"""Exact integer linear algebra: oracle-backed unit tests.

Oracles used here are independent of the implementation under test:
invariant factors via gcds of k-minors (cofactor determinants), and the
defining identities P @ M @ Q = S recomputed from scratch.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import combinations, product
from math import gcd

import pytest

from fkgraph import intlinalg, search
from fkgraph.intlinalg import (
    FgAbGroup,
    IntMatrix,
    cokernel,
    group_iso_inverse,
    kernel_group,
    map_into,
    smith_decomposition,
    solve_exact,
    xgcd,
)
from fkgraph.search import group_isos
from oracles import lattice_contains, maps_equal, reduce_map, smith_reference


# ---------------------------------------------------------------- oracles


def cofactor_det(rows: list[list[int]]) -> int:
    """Textbook Laplace expansion; exponential but exact and independent."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * a * cofactor_det(minor)
    return total


def factors_via_minors(M: IntMatrix) -> list[int]:
    """Nonzero invariant factors of M as gcd ratios of k-minor gcds."""
    out = []
    prev = 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for ridx in combinations(range(M.rows), k):
            for cidx in combinations(range(M.cols), k):
                sub = [[M.entries[i][j] for j in cidx] for i in ridx]
                g = gcd(g, cofactor_det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def check_smith(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    dec = smith_decomposition(M)
    S, P, Q = dec.S, dec.P, dec.Q
    assert (P @ M @ Q).entries == S.entries
    assert abs(P.det()) == 1 and abs(Q.det()) == 1
    diag = [S.entries[i][i] for i in range(min(S.rows, S.cols))]
    for i in range(S.rows):
        for j in range(S.cols):
            if i != j:
                assert S.entries[i][j] == 0
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert all(d == 0 for d in diag[len(nz):])
    assert nz == factors_via_minors(M)
    return S, P, Q


# ------------------------------------------------------------------ xgcd


def test_xgcd_small_grid():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g == gcd(a, b)
            assert x * a + y * b == g


# ------------------------------------------------------------------- SNF


def test_smith_fixed_diag_2_3():
    # diag(2, 3) has minors gcds 1 and 6, so factors (1, 6)
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    S, _, _ = check_smith(M)
    assert [S.entries[0][0], S.entries[1][1]] == [1, 6]


def test_smith_fixed_unimodular():
    M = IntMatrix.from_rows([[1, 0], [1, 1]])
    S, _, _ = check_smith(M)
    assert [S.entries[0][0], S.entries[1][1]] == [1, 1]


def test_smith_zero_and_empty():
    S, P, Q = check_smith(IntMatrix.from_rows([[0]]))
    assert S.entries == ((0,),)
    for shape in [(0, 0), (0, 3), (3, 0)]:
        M = IntMatrix.zero(*shape)
        dec = smith_decomposition(M)
        S, P, Q = dec.S, dec.P, dec.Q
        assert (S.rows, S.cols) == shape
        assert P.entries == IntMatrix.identity(shape[0]).entries
        assert Q.entries == IntMatrix.identity(shape[1]).entries


def test_smith_random_small():
    rng = random.Random(20260814)
    for _ in range(150):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
        check_smith(M)


def test_smith_inverse_tracking():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix.from_rows([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)])
        dec = smith_decomposition(M)
        assert (dec.P @ dec.P_inv).entries == IntMatrix.identity(m).entries
        assert (dec.P_inv @ dec.P).entries == IntMatrix.identity(m).entries
        assert (dec.Q @ dec.Q_inv).entries == IntMatrix.identity(n).entries


def test_smith_steps_match_the_general_update_reference():
    # swaps and elimination steps touch only the rows and columns they change,
    # with the reference's arithmetic, so all five matrices come out equal:
    # on empty shapes, on diagonals the divisibility fold must repair (each
    # d2 a non-multiple of d1) and on seeded random matrices up to 6 x 6
    rng = random.Random(20261020)
    mats = [IntMatrix.zero(m, n) for m, n in [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]]
    for _ in range(100):
        diag = [rng.randrange(2, 30) for _ in range(rng.randrange(2, 5))]
        diag[1] += diag[1] % diag[0] == 0
        k = len(diag)
        mats.append(IntMatrix(k, k, tuple(tuple(d * (i == j) for j in range(k))
                                          for i, d in enumerate(diag))))
    for _ in range(600):
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        mats.append(IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(n)]
                                         for _ in range(m)], cols=n))
    for M in mats:
        assert smith_decomposition(M) == smith_reference(M), M


def _well_formed(X: IntMatrix) -> bool:
    """Entries are a tuple of `rows` tuples of `cols` plain ints each."""
    return (type(X.entries) is tuple and len(X.entries) == X.rows
            and all(type(r) is tuple and len(r) == X.cols for r in X.entries)
            and all(type(x) is int for r in X.entries for x in r))


def test_derived_matrices_hold_ints_in_their_shape():
    # Smith decompositions, cokernels and kernels wrap the rows they compute
    # without the from_rows check, so they must build them to shape
    rng = random.Random(20261019)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 0), (0, 1)]
    shapes += [(rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(120)]
    for m, n in shapes:
        M = IntMatrix.from_rows([[rng.randrange(-7, 8) for _ in range(n)] for _ in range(m)],
                                cols=n)
        dec = smith_decomposition(M)
        for X, shape in zip(dec, [(m, n), (m, m), (n, n), (m, m), (n, n)]):
            assert (X.rows, X.cols) == shape and _well_formed(X), (M, X)
        for G in (cokernel(M), kernel_group(M)):
            assert _well_formed(G.project) and _well_formed(G.lift), (M, G)


def test_identity_is_built_once_per_size():
    for n in range(4):
        assert IntMatrix.identity(n) is IntMatrix.identity(n)
        assert IntMatrix.identity(n) == IntMatrix.from_rows(
            [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


# ------------------------------------------------------------------- det


def test_det_against_cofactor_oracle():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randrange(0, 5)
        rows = [[rng.randrange(-7, 8) for _ in range(n)] for _ in range(n)]
        assert IntMatrix.from_rows(rows, cols=n).det() == cofactor_det(rows)


# ----------------------------------------------------------- solve_exact


def test_solve_exact_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        A = IntMatrix.from_rows([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)])
        x = [rng.randrange(-4, 5) for _ in range(n)]
        b = A.apply(x)
        sol = solve_exact(A, b)
        assert sol is not None
        assert A.apply(sol) == b


def test_solve_exact_no_solution():
    A = IntMatrix.from_rows([[2]])
    assert solve_exact(A, [1]) is None
    A = IntMatrix.from_rows([[1], [0]])
    assert solve_exact(A, [0, 1]) is None


# -------------------------------------------------------------- cokernel


def test_cokernel_of_zero_1x1_is_Z():
    G = cokernel(IntMatrix.from_rows([[0]]))
    assert G.invariant_factors == (0,)
    assert G.reduce(G.project.apply([1])) == (1,)


def test_cokernel_of_unit_is_trivial():
    G = cokernel(IntMatrix.from_rows([[1]]))
    assert G.invariant_factors == ()


def test_cokernel_shifted_basis():
    # relations (0, 1): quotient is Z generated by the first coordinate
    M = IntMatrix.from_rows([[0, 0], [1, 0]])
    G = cokernel(M)
    assert G.invariant_factors == (0,)
    assert G.reduce(G.project.apply([1, 0])) == (1,)
    assert G.reduce(G.project.apply([0, 1])) == (0,)
    K = kernel_group(M).lift
    assert K.cols == 1
    assert M @ K == IntMatrix.zero(M.rows, 1)


def test_cokernel_torsion():
    G = cokernel(IntMatrix.from_rows([[6]]))
    assert G.invariant_factors == (6,)
    assert G.reduce(G.project.apply([1])) in {(1,), (5,)}
    assert G.reduce([7]) == (1,)


def test_cokernel_kills_image_and_sections():
    rng = random.Random(12)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix.from_rows([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)])
        G = cokernel(M)
        # image of M maps to zero
        for j in range(n):
            assert not any(G.reduce(G.project.apply(M.col(j))))
        # project @ lift = identity modulo the factors
        PL = G.project @ G.lift
        assert maps_equal(G, PL, IntMatrix.identity(G.ncoords))
        # rank-nullity bookkeeping
        K = kernel_group(M)
        r = smith_decomposition(M).rank
        assert K.rank == n - r
        assert G.rank == m - r


def test_cokernel_invariant_under_permutation():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)]
        M = IntMatrix.from_rows(rows)
        rp = list(range(m))
        cp = list(range(n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        N = IntMatrix.from_rows([[rows[i][j] for j in cp] for i in rp])
        assert cokernel(M).invariant_factors == cokernel(N).invariant_factors


def test_kernel_basis_spans_and_saturates():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        M = IntMatrix.from_rows([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)])
        K = kernel_group(M)
        assert M @ K.lift == IntMatrix.zero(m, K.ncoords)
        # any integer kernel vector is an integer combination of the basis
        for _ in range(5):
            c = [rng.randrange(-3, 4) for _ in range(K.lift.cols)]
            v = K.lift.apply(c)
            expressed = K.project.apply(v)
            assert K.lift.apply(expressed) == v
            assert list(expressed) == c


# ------------------------------------------------------------ group isos


def test_group_isos_trivial_group():
    G = cokernel(IntMatrix.from_rows([[1]]))
    isos = list(group_isos(G, G))
    assert len(isos) == 1
    assert isos[0].rows == 0


def test_group_isos_Z():
    G = cokernel(IntMatrix.from_rows([[0]]))
    isos = list(group_isos(G, G, budget=2))
    assert isos[0].entries == ((1,),)
    assert ((-1,),) in {m.entries for m in isos}
    assert len(isos) == 2  # GL(1, Z)


def test_group_isos_Z_costs_the_same_at_any_budget():
    # a rank-1 free block is +-1 whatever the budget: no scan of its range
    G = cokernel(IntMatrix.from_rows([[0]]))
    assert [m.entries for m in group_isos(G, G, budget=10**12)] == [((1,),), ((-1,),)]


def test_group_isos_mixed():
    # Z/2 + Z: torsion aut {1}, X in {0, 1}, free part {±1}
    M = IntMatrix.from_rows([[2, 0], [0, 0]])
    G = cokernel(M)
    assert G.invariant_factors == (2, 0)
    isos = list(group_isos(G, G, budget=1))
    assert len(isos) == 4
    ident = IntMatrix.identity(2).entries
    assert isos[0].entries == ident
    for A in isos:
        B = group_iso_inverse(G, A)
        assert B is not None
        assert maps_equal(G, A @ B, IntMatrix.identity(2))


def test_group_isos_mismatch_yields_nothing():
    G = cokernel(IntMatrix.from_rows([[2]]))
    H = cokernel(IntMatrix.from_rows([[3]]))
    assert list(group_isos(G, H)) == []


def test_group_isos_torsion_aut_count():
    # Aut(Z/5) has order 4; with no free part the search is complete
    G = cokernel(IntMatrix.from_rows([[5]]))
    isos = list(group_isos(G, G))
    assert len(isos) == 4
    vals = sorted(m.entries[0][0] for m in isos)
    assert vals == [1, 2, 3, 4]


def test_group_isos_elementary_abelian():
    # Aut((Z/2)^2) = GL(2, F2) has order 6
    M = IntMatrix.from_rows([[2, 0], [0, 2]])
    G = cokernel(M)
    assert G.invariant_factors == (2, 2)
    isos = list(group_isos(G, G))
    assert len(isos) == 6


def _group(factors) -> FgAbGroup:
    k = len(factors)
    return FgAbGroup(tuple(factors), IntMatrix.identity(k), IntMatrix.identity(k))


def test_torsion_automorphisms_memoised_per_factor_tuple(monkeypatch):
    # no group is held whole: the identity comes first, before any other
    # candidate row is looked at, and every stream over a group is the same
    G = _group((2, 2))
    isos = [m.entries for m in group_isos(G, G)]
    assert isos[0] == IntMatrix.identity(2).entries and len(isos) == 6
    assert list(group_isos(G, G)) == list(group_isos(G, G))
    rows = []
    real = search._fits

    def counting(row, rules):
        rows.append(row)
        return real(row, rules)
    monkeypatch.setattr(search, "_fits", counting)
    G8 = _group((2,) * 8)
    assert next(group_isos(G8, G8)) == IntMatrix.identity(8)
    assert 0 < len(rows) <= 8


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    m = [[x % p for x in r] for r in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] % p != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = (det * m[k][k]) % p
        inv = pow(m[k][k], -1, p)
        for i in range(k + 1, n):
            f = (m[i][k] * inv) % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[k])]
    return det % p


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@cache
def _torsion_automorphisms_by_filter(tf):
    """Reference: every well-defined matrix in the box, identity first, kept
    when it is surjective on each Frattini quotient G/pG (det mod p != 0)."""
    k = len(tf)
    cells = [range(0, tf[i], tf[i] // gcd(tf[i], tf[j])) for i in range(k) for j in range(k)]
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    out = [ident]
    for flat in product(*cells):
        T = tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(k))
        if T == ident:
            continue
        if all(_det_mod_p([[T[i][j] for j in idx] for i in idx], p)
               for p in sorted({p for d in tf for p in _primes(d)})
               for idx in [[i for i, d in enumerate(tf) if d % p == 0]]):
            out.append(T)
    return tuple(out)


def _unimodular_by_filter(f: int, budget: int):
    """Reference: GL(f, Z) matrices with |entries| <= budget, identity first,
    then lexicographic."""
    ident = tuple(tuple(int(i == j) for j in range(f)) for i in range(f))
    out = [ident]
    for flat in product(range(-budget, budget + 1), repeat=f * f):
        F = tuple(tuple(flat[i * f + j] for j in range(f)) for i in range(f))
        if F != ident and abs(cofactor_det([list(r) for r in F])) == 1:
            out.append(F)
    return out


def _group_isos_reference(G: FgAbGroup, budget: int):
    """Reference: the unconstrained stream, free block slowest, then torsion
    automorphism, then free-to-torsion block."""
    tf, kf = G.torsion_factors, G.rank
    kt = len(tf)
    for F in _unimodular_by_filter(kf, budget):
        for T in _torsion_automorphisms_by_filter(tf):
            for X in product(*(range(d) for d in tf for _ in range(kf))):
                yield (tuple(T[i] + X[i * kf:(i + 1) * kf] for i in range(kt))
                       + tuple((0,) * kt + F[i] for i in range(kf)))


_TORSION_TUPLES = [
    (2,), (6,), (2, 4), (2, 6), (6, 6), (4, 4), (3, 9), (2, 12), (2, 2, 4),
    (5, 5), (2, 2, 2), (3, 3), (3, 3, 3), (2, 2, 2, 2)]


@pytest.mark.parametrize("tf", _TORSION_TUPLES)
def test_torsion_automorphisms_match_filter_reference(tf):
    # same matrices in the same order, so every witness stays the same
    G = _group(tf)
    assert tuple(m.entries for m in group_isos(G, G)) == _torsion_automorphisms_by_filter(tf)


def _meets(G: FgAbGroup, A, constraints) -> bool:
    return all(G.reduce([sum(a * x for a, x in zip(row, v)) for row in A]) == G.reduce(c)
               for v, c in constraints)


@pytest.mark.parametrize("factors", [*_TORSION_TUPLES, (2, 0), (4, 0, 0), (0, 0), (2, 6, 0)])
def test_constrained_group_isos_match_filtered_reference(factors):
    # the constrained stream is the reference stream filtered, item by item
    k = len(factors)
    G = _group(factors)
    ref = list(_group_isos_reference(G, 2))
    assert [m.entries for m in group_isos(G, G)] == ref
    rng = random.Random(repr(factors))
    cases = [[], [((0,) * k, (1,) + (0,) * (k - 1))], [((1,) + (0,) * (k - 1), (0,) * k)]]
    for n in (1, 1, 2, k):
        A = IntMatrix(k, k, rng.choice(ref))
        vs = [tuple(rng.randrange(-3, 4) for _ in range(k)) for _ in range(n)]
        cases.append([(v, A.apply(v)) for v in vs])
    sizes = []
    for cons in cases:
        want = [A for A in ref if _meets(G, A, cons)]
        got = [m.entries for m in group_isos(G, G, 2, cons)]
        assert got == want, cons
        sizes.append(len(want))
    assert sizes[1] == sizes[2] == 0
    assert all(sizes[3:])


_FRESH = random.Random(20261018)


def _fresh(m: int, n: int) -> IntMatrix:
    """A matrix no other test builds: entries far outside the ranges used elsewhere."""
    return IntMatrix.from_rows([[_FRESH.randrange(10**9, 10**10) for _ in range(n)]
                                for _ in range(m)], cols=n)


def test_smith_and_kernel_memoised_by_value(monkeypatch):
    checked = []
    real = intlinalg._assert_smith

    def counting(M, dec):
        checked.append(M)
        real(M, dec)
    monkeypatch.setattr(intlinalg, "_assert_smith", counting)
    A, B = _fresh(2, 3), _fresh(3, 2)
    A2 = IntMatrix.from_rows([list(r) for r in A.entries])
    assert A2 == A and A2.entries is not A.entries
    dec = smith_decomposition(A)
    assert smith_decomposition(A2) is dec
    assert kernel_group(A2) is kernel_group(A)
    for M in (B, A, B, A2):
        smith_decomposition(M)
    assert checked == [A, B]
    assert (dec.P @ A @ dec.Q).entries == dec.S.entries
    assert A @ kernel_group(A).lift == IntMatrix.zero(A.rows, kernel_group(A).ncoords)


def _poke(m: IntMatrix, i: int, j: int, value: int) -> IntMatrix:
    rows = [list(r) for r in m.entries]
    rows[i][j] = value
    return IntMatrix.from_rows(rows, cols=m.cols)


def test_assert_smith_rejects_each_corruption():
    # real decompositions, each corrupted in one component; a corrupted S is
    # tried against the original M, where an identity breaks, and against
    # P^-1 S Q^-1, where every identity holds and only a diagonal check can
    # catch it
    mats = [IntMatrix.from_rows(r) for r in (
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],    # factors 2, 6, 12
        [[2, 0], [0, 3], [4, 6]],                   # 3 x 2: a row past the diagonal
        [[0, 2, 4, 6], [0, 3, 6, 9]],               # rank 1, zero factor trailing
    )]
    for M in mats:
        dec = smith_decomposition(M)
        intlinalg._assert_smith(M, dec)
        for name in ("P", "Q", "P_inv", "Q_inv"):
            X = getattr(dec, name)
            for i, j in product(range(X.rows), range(X.cols)):
                bad = dec._replace(**{name: _poke(X, i, j, X.entries[i][j] + 1)})
                with pytest.raises(AssertionError):
                    intlinalg._assert_smith(M, bad)
        S = dec.S
        d = dec.diagonal
        bad_s = [_poke(S, i, j, 1) for i, j in product(range(S.rows), range(S.cols))
                 if i != j]                                    # off-diagonal junk
        bad_s.append(_poke(S, 0, 0, -d[0]))                    # a negative factor
        if len(d) > 1 and d[1]:
            bad_s.append(_poke(S, 0, 0, 0))                    # an interior zero
            bad_s.append(_poke(S, 0, 0, d[1] + 1))             # divisibility broken
        for S2 in bad_s:
            with pytest.raises(AssertionError):
                intlinalg._assert_smith(M, dec._replace(S=S2))
            M2 = dec.P_inv @ S2 @ dec.Q_inv
            assert (dec.P @ M2 @ dec.Q).entries == S2.entries
            with pytest.raises(AssertionError):
                intlinalg._assert_smith(M2, dec._replace(S=S2))


def test_group_iso_inverse_rejects_non_iso():
    G = cokernel(IntMatrix.from_rows([[4]]))
    assert group_iso_inverse(G, IntMatrix.from_rows([[2]])) is None


def _contains_per_column(A, B):
    return all(solve_exact(A, B.col(j)) is not None for j in range(B.cols))


def _iso_inverse_per_column(G, A):
    k = G.ncoords
    relcols = [i for i, d in enumerate(G.invariant_factors) if d != 0]
    slack = IntMatrix.from_rows(
        [[G.invariant_factors[j] if i == j else 0 for j in relcols] for i in range(k)],
        cols=len(relcols))
    aug = A.hstack(slack)
    cols = []
    for i in range(k):
        sol = solve_exact(aug, [1 if j == i else 0 for j in range(k)])
        if sol is None:
            return None
        cols.append(sol[:k])
    B = reduce_map(G, IntMatrix.from_rows(
        [[cols[j][i] for j in range(k)] for i in range(k)], cols=k))
    ident = IntMatrix.identity(k)
    if not (maps_equal(G, A @ B, ident) and maps_equal(G, B @ A, ident)):
        return None
    return B


def test_shared_decomposition_matches_per_column_solves():
    rng = random.Random(11)
    hits = Counter()
    for _ in range(150):
        m, n, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
        A = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(m)], cols=n)
        X = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(c)]
                                 for _ in range(n)], cols=c)
        B = A @ X if rng.random() < 0.5 else IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(c)] for _ in range(m)], cols=c)
        want = _contains_per_column(A, B)
        hits[want] += 1
        assert lattice_contains(A, B) == want, (A, B)
    assert hits[True] and hits[False]

    for _ in range(150):
        k = rng.randint(1, 3)
        G = cokernel(IntMatrix.from_rows(
            [[rng.choice((0, 0, 2, 3, 4, 6)) if i == j else rng.randint(0, 2)
              for j in range(k)] for i in range(k)], cols=k))
        k = G.ncoords
        A = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(k)]
                                 for _ in range(k)], cols=k)
        want = _iso_inverse_per_column(G, A)
        got = group_iso_inverse(G, A)
        hits["torsion"] += bool(G.torsion_factors)
        hits["invertible" if want is not None else "singular"] += 1
        assert (got and got.entries) == (want and want.entries), (G, A)
    assert hits["torsion"] and hits["invertible"] and hits["singular"]


def _random_matrix(rng, rows, cols):
    return IntMatrix(rows, cols, tuple(tuple(rng.randint(-9, 9) for _ in range(cols))
                                       for _ in range(rows)))


def test_map_into_matches_the_reduced_product():
    # map_into against the oracle: select, multiply with @, then reduce
    rng = random.Random(18)
    hits = Counter()
    factor_tuples = [(), (0,), (2,), (2, 0), (3, 6), (0, 0)]
    for case in range(300):
        factors = factor_tuples[case % len(factor_tuples)]
        ident = IntMatrix.identity(len(factors))
        G = FgAbGroup(factors, ident, ident)
        inner, outer = rng.randint(0, 3), rng.randint(0, 3)
        mode = rng.choice(("plain", "cols", "rows", "both"))
        width = inner + (rng.randint(0, 2) if mode in ("cols", "both") else 0)
        height = inner + (rng.randint(0, 2) if mode in ("rows", "both") else 0)
        L, R = _random_matrix(rng, len(factors), width), _random_matrix(rng, height, outer)
        cols = rng.sample(range(width), inner) if mode in ("cols", "both") else None
        rows = rng.sample(range(height), inner) if mode in ("rows", "both") else None
        L_sel = L if cols is None else IntMatrix(L.rows, inner, tuple(
            tuple(r[i] for i in cols) for r in L.entries))
        R_sel = R if rows is None else IntMatrix(inner, outer, tuple(
            R.entries[i] for i in rows))
        got = map_into(G, L, R, cols=cols, rows=rows)
        assert got == reduce_map(G, L_sel @ R_sel), (G, L, R, cols, rows)
        if not (factors and inner and outer):   # an empty product: the memoised zero
            assert got is IntMatrix.zero(len(factors), outer)
        hits[factors] += 1
        hits[mode] += 1
        hits["inner 0"] += not inner
        hits["outer 0"] += not outer
    assert len(hits) == len(factor_tuples) + 6 and min(hits.values()) >= 10, hits

    G = cokernel(IntMatrix.from_rows([[3, 0], [0, 0]]))
    A = IntMatrix.from_rows([[4, 1], [0, 2]])
    assert map_into(G, A, IntMatrix.identity(2)).entries == ((1, 1), (0, 2))
    with pytest.raises(ValueError):
        map_into(G, IntMatrix.identity(3), IntMatrix.identity(3))
    with pytest.raises(ValueError):
        map_into(G, A, IntMatrix.identity(3))
    with pytest.raises(ValueError):
        map_into(G, A, IntMatrix.identity(2), cols=[0])


def test_from_rows_checks_the_shape():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3, 4]], cols=3)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    assert IntMatrix.from_rows([], cols=2) == IntMatrix.zero(0, 2)


def test_fgabgroup_validation():
    with pytest.raises(ValueError):
        FgAbGroup((1,), IntMatrix.zero(1, 1), IntMatrix.zero(1, 1))
    with pytest.raises(ValueError):
        FgAbGroup((0, 2), IntMatrix.zero(2, 2), IntMatrix.zero(2, 2))
    with pytest.raises(ValueError):
        FgAbGroup((4, 6), IntMatrix.zero(2, 2), IntMatrix.zero(2, 2))
