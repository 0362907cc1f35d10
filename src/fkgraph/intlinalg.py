"""Exact integer matrix algebra.

Smith normal form with tracked unimodular transforms, cokernels and kernels
as finitely generated abelian groups in canonical presentation, maps into
such groups, and inverses of group isomorphisms.  Everything runs on
Python's arbitrary-precision integers; no floating point is used.

Smith decompositions, kernels and group isomorphism inverses are memoised
by value (`IntMatrix` is an immutable tuple record): each distinct matrix is
decomposed and checked (P M = S Q^-1, both inverses, the diagonal of S), and
each isomorphism inverted, once per process; identity and zero matrices by
shape.  The elimination's swaps and row and column subtractions touch only
the rows and columns they change.  `IntMatrix.from_rows` checks the shape of
rows that come in; matrices computed here are built to shape.  `map_into` is
the one place a map into a group is formed: it selects, multiplies and
reduces each row mod the target's factor in one pass.  The bounded
enumeration of group isomorphisms is `search.group_isos`, which only a
process that compares loads; until the per-layer tracer imports its own
targets, its name resolves here on first read (PEP 562) and is kept in this
module's globals, where the tracer's rebinding sees it.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Iterable, NamedTuple, Sequence

SEARCH_NAMES = ("group_isos",)


def __getattr__(name: str):
    # a search name loads `search` and is kept here, where rebinding module globals sees it
    if name not in SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import search
    return globals().setdefault(name, getattr(search, name))


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    # Invariant: r0 = x0*a + y0*b and r1 = x1*a + y1*b throughout.
    r0, x0, y0 = a, 1, 0
    r1, x1, y1 = b, 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    return r0, x0, y0


class IntMatrix(NamedTuple):
    """Immutable integer matrix; `entries` is a tuple of row tuples.

    The shape is checked where rows come in from outside this module, in
    `from_rows`.  Products, stacks, selections, Smith decompositions,
    cokernels and kernels build their entries to shape and wrap them directly.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> IntMatrix:
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("column count needed for a matrix with no rows")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged matrix")
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    @cache
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]))

    @staticmethod
    @cache
    def zero(rows: int, cols: int) -> IntMatrix:
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return IntMatrix(self.rows, other.cols, _product_entries(self, other))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(mul, row, vec)) for row in self.entries])

    def hstack(self, other: IntMatrix) -> IntMatrix:
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple([r1 + r2 for r1, r2 in zip(self.entries, other.entries)]))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division by the previous pivot is exact.
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class SmithDecomposition(NamedTuple):
    """P @ M @ Q = S with P, Q unimodular and S diagonal, d1 | d2 | ... >= 0."""

    S: IntMatrix
    P: IntMatrix
    Q: IntMatrix
    P_inv: IntMatrix
    Q_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.S.rows, self.S.cols)
        return tuple(self.S.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer solution x of M x = b, or None if there is none."""
        if len(b) != self.P.cols:
            raise ValueError("vector length mismatch")
        y = self.P.apply(b)
        z = [0] * self.Q.rows
        diag = self.diagonal
        for i in range(self.P.rows):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if y[i] != 0:
                    return None
            else:
                if y[i] % d != 0:
                    return None
                z[i] = y[i] // d
        return self.Q.apply(z)


@cache
def smith_decomposition(M: IntMatrix) -> SmithDecomposition:
    """Diagonalize M over the integers, tracking both transforms and their inverses.

    Memoised by value, so each distinct matrix is decomposed and checked once.
    """
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

    # a swap, or an elimination step row_op(t, i, 1, 0, -q, 1) (col_op likewise),
    # does the same arithmetic on only the rows and columns it changes
    def swap_rows(i, j):
        D[i], D[j], P[i], P[j] = D[j], D[i], P[j], P[i]
        for row in Pi:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in (*D, *Q):
            row[i], row[j] = row[j], row[i]
        Qi[i], Qi[j] = Qi[j], Qi[i]

    def sub_row(t, i, q):
        D[i] = [v - q * u for u, v in zip(D[t], D[i])]
        P[i] = [v - q * u for u, v in zip(P[t], P[i])]
        for row in Pi:
            row[t] += q * row[i]

    def sub_col(t, j, q):
        for row in (*D, *Q):
            row[j] -= q * row[t]
        Qi[t] = [u + q * v for u, v in zip(Qi[t], Qi[j])]

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
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if D[i][t] == 0:
                    continue
                a, b = D[t][t], D[i][t]
                if b % a == 0:
                    sub_row(t, i, b // a)
                else:
                    g, x, y = xgcd(a, b)
                    row_op(t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, n):
                if D[t][j] == 0:
                    continue
                a, b = D[t][t], D[t][j]
                if b % a == 0:
                    sub_col(t, j, b // a)
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

    dec = SmithDecomposition(*(IntMatrix(len(X), c, tuple(map(tuple, X)))
                               for X, c in ((D, n), (P, m), (Q, n), (Pi, m), (Qi, n))))
    _assert_smith(M, dec)
    return dec


def _product_entries(A: IntMatrix, B: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of A @ B, with no matrix built around them."""
    cols = tuple(zip(*B.entries)) or ((),) * B.cols
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in A.entries])


def _assert_smith(M: IntMatrix, dec: SmithDecomposition) -> None:
    # recompute the defining identities; cheap at the scales this package
    # runs at.  S is checked diagonal first, so row i of S @ Q_inv is d_i
    # times row i of Q_inv, and P @ M = S @ Q_inv is P @ M @ Q = S because
    # Q_inv @ Q = I is checked too.
    diag = dec.diagonal
    for i, row in enumerate(dec.S.entries):
        if any(x for j, x in enumerate(row) if j != i):
            raise AssertionError("off-diagonal junk")
    want = tuple([tuple([d * x for x in r]) for d, r in zip(diag, dec.Q_inv.entries)])
    if _product_entries(dec.P, M) != want + ((0,) * M.cols,) * (M.rows - len(diag)):
        raise AssertionError("smith decomposition identity failed")
    if _product_entries(dec.P, dec.P_inv) != IntMatrix.identity(M.rows).entries:
        raise AssertionError("P inverse drifted")
    if _product_entries(dec.Q_inv, dec.Q) != IntMatrix.identity(M.cols).entries:
        raise AssertionError("Q inverse drifted")
    if any(d < 0 for d in diag):
        raise AssertionError("negative invariant factor")
    nz = [d for d in diag if d != 0]
    if any(nz[i + 1] % nz[i] != 0 for i in range(len(nz) - 1)):
        raise AssertionError("divisibility chain broken")
    if len(nz) != len(diag) and any(d != 0 for d in diag[len(nz):]):
        raise AssertionError("zero factors must trail")


def solve_exact(A: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of A x = b, or None if there is none."""
    return smith_decomposition(A).solve(b)


class _Presentation(NamedTuple):
    # the fields of FgAbGroup, whose constructor checks them and adds the last
    invariant_factors: tuple[int, ...]
    project: IntMatrix
    lift: IntMatrix
    relation_columns: IntMatrix


class FgAbGroup(_Presentation):
    """Finitely generated abelian group in canonical presentation.

    `invariant_factors` lists d1 | d2 | ... with unit factors dropped and 0
    (free factor, divisible by everything) at the tail.  `project` maps
    ambient coordinates to canonical ones; `lift` is a section with
    project @ lift = identity modulo the factors.  `relation_columns`, the
    columns d_i e_i for the torsion factors, is built by the constructor,
    so once per group.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...], project: IntMatrix, lift: IntMatrix):
        for i, d in enumerate(invariant_factors):
            if d == 1 or d < 0:
                raise ValueError("factors must be 0 or >= 2")
            if d and 0 in invariant_factors[:i]:
                raise ValueError("free factors must trail")
            if d and i and d % invariant_factors[i - 1]:
                raise ValueError("divisibility chain broken")
        k = len(invariant_factors)
        if project.rows != k:
            raise ValueError("projection shape mismatch")
        if lift.cols != k or lift.rows != project.cols:
            raise ValueError("lift shape mismatch")
        tors = [i for i, d in enumerate(invariant_factors) if d > 0]
        relations = IntMatrix(k, len(tors), tuple(
            tuple(invariant_factors[j] if i == j else 0 for j in tors) for i in range(k)))
        return super().__new__(cls, invariant_factors, project, lift, relations)

    @property
    def ncoords(self) -> int:
        return len(self.invariant_factors)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d != 0)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative: torsion coordinates taken mod their factor."""
        if len(vec) != self.ncoords:
            raise ValueError("coordinate length mismatch")
        return tuple(v % d if d else v for v, d in zip(vec, self.invariant_factors))


def _sign_normalize(vecs: list[list[int]], cos: list[list[int]], idx: Iterable[int]) -> None:
    # flip vector i of vecs and of cos together so that vecs[i]'s first
    # nonzero entry is positive; composing with an automorphism, so harmless
    for i in idx:
        if next((x for x in vecs[i] if x), 0) < 0:
            vecs[i] = [-x for x in vecs[i]]
            cos[i] = [-x for x in cos[i]]


def cokernel(M: IntMatrix) -> FgAbGroup:
    """Z^rows / (column space of M) in canonical presentation."""
    dec = smith_decomposition(M)
    diag = dec.diagonal
    factors = []
    keep = []
    for i in range(M.rows):
        d = diag[i] if i < len(diag) else 0
        if d != 1:
            factors.append(d)
            keep.append(i)
    # canonical entries: torsion rows reduced mod their factor, free rows
    # sign-fixed with their section columns
    proj = [[x % d for x in dec.P.entries[i]] if d else list(dec.P.entries[i])
            for i, d in zip(keep, factors)]
    lift = [[row[i] for row in dec.P_inv.entries] for i in keep]
    _sign_normalize(proj, lift, [k for k, d in enumerate(factors) if d == 0])
    return FgAbGroup(tuple(factors), IntMatrix(len(keep), M.rows, tuple(map(tuple, proj))),
                     IntMatrix(M.rows, len(keep), tuple(zip(*lift)) or ((),) * M.rows))


@cache
def kernel_group(M: IntMatrix) -> FgAbGroup:
    """The kernel of M as a free group: lift = basis, project = left inverse (memoised)."""
    dec = smith_decomposition(M)
    idx = range(dec.rank, M.cols)
    basis = [[row[j] for row in dec.Q.entries] for j in idx]
    proj = [list(dec.Q_inv.entries[j]) for j in idx]
    _sign_normalize(basis, proj, range(len(idx)))
    return FgAbGroup((0,) * len(idx), IntMatrix(len(idx), M.cols, tuple(map(tuple, proj))),
                     IntMatrix(M.cols, len(idx), tuple(zip(*basis)) or ((),) * M.cols))


@cache
def group_iso_inverse(G: FgAbGroup, A: IntMatrix) -> IntMatrix | None:
    """Inverse of A over G's factors, or None when A is not invertible (memoised)."""
    k = G.ncoords
    if A.rows != k or A.cols != k:
        raise ValueError("shape mismatch")
    aug = smith_decomposition(A.hstack(G.relation_columns))
    ident = IntMatrix.identity(k)
    cols = []
    for e in ident.entries:
        sol = aug.solve(e)
        if sol is None:
            return None
        cols.append(G.reduce(sol[:k]))
    B = IntMatrix(k, k, tuple(zip(*cols)))
    if map_into(G, A, B) != ident or map_into(G, B, A) != ident:
        return None
    return B


def map_into(target: FgAbGroup, left: IntMatrix, right: IntMatrix,
             cols: Sequence[int] | None = None, rows: Sequence[int] | None = None) -> IntMatrix:
    """left @ right as a map into `target`, with canonical entries: row i
    taken mod the i-th factor.  One pass selects the columns `cols` of left
    or the rows `rows` of right, multiplies and reduces; the one place a map
    into a group is reduced."""
    lrows = left.entries if cols is None else [[r[i] for i in cols] for r in left.entries]
    rrows = right.entries if rows is None else [right.entries[i] for i in rows]
    if left.rows != target.ncoords or (left.cols if cols is None else len(cols)) != len(rrows):
        raise ValueError("shape mismatch")
    if not (target.ncoords and right.cols and rrows):   # an empty product
        return IntMatrix.zero(target.ncoords, right.cols)
    rcols = tuple(zip(*rrows))
    return IntMatrix(target.ncoords, right.cols, tuple([
        tuple([sum(map(mul, row, col)) % d for col in rcols]) if d
        else tuple([sum(map(mul, row, col)) for col in rcols])
        for row, d in zip(lrows, target.invariant_factors)]))
