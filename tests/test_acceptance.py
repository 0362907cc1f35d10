"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Every criterion prints `ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)` on the
real stdout so the lines survive pytest capture, then asserts.  Tolerances
are pinned as constants below; everything else is exact integer arithmetic.
"""

import random
import time

from fkgraph.graphs import satisfies_condition_K
from fkgraph.intlinalg import IntMatrix, smith_decomposition
from fkgraph.invariant import assemble, compare, verify_compatible_witness
from fkgraph.ktheory import k_data
from fkgraph.lattice import enumerate_admissible_pairs
from fkgraph.sixterm import six_term, verify_exactness, verify_well_definedness
from fkgraph.spectrum import (
    locally_closed_sets,
    s_primes,
    verify_kernel_identity,
    verify_kuratowski,
    verify_open_ideal_iso,
)

from oracles import names_mask, pair_index

KURATOWSKI_BUDGET_S = 5.0   # criterion 1, whole corpus
COMPARE_BUDGET_S = 10.0     # criterion 7, per fixture
MIN_CORPUS = 12             # criterion 1, graph count
SNF_TRIALS = 1000           # criterion 9
SNF_MAX_DIM = 6
SNF_ENTRY_SPAN = 9
SNF_SEED = 314159
RETURN_LEN_FACTOR = 2       # criterion 8, path length bound factor


def _line(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {verdict} ({detail})", flush=True)


def _spectrum(g):
    return s_primes(enumerate_admissible_pairs(g))


def test_criterion_1_kuratowski(corpus, capsys):
    shapes_ok = (
        len(corpus) >= MIN_CORPUS
        and all(1 <= g.n <= 6 for g in corpus.values())
        and any(not g.row_finite for g in corpus.values())
    )
    start = time.perf_counter()
    reports = {n: verify_kuratowski(_spectrum(g)) for n, g in corpus.items()}
    elapsed = time.perf_counter() - start
    bad = sorted(n for n, r in reports.items() if not r.passed)
    ok = shapes_ok and not bad and elapsed < KURATOWSKI_BUDGET_S
    _line(capsys, 1, "kuratowski", ok,
          f"{len(corpus)} graphs, {elapsed:.2f}s < {KURATOWSKI_BUDGET_S}s,"
          f" failures={bad}")
    assert ok


def test_criterion_2_lattice_iso(corpus, capsys):
    reports = {n: verify_open_ideal_iso(_spectrum(g)) for n, g in corpus.items()}
    bad = sorted(n for n, r in reports.items() if not r.passed)
    checks = sum(r.checks for r in reports.values())
    ok = not bad and checks > 0
    _line(capsys, 2, "lattice-iso", ok, f"{checks} checks, failures={bad}")
    assert ok


def test_criterion_3_kernel_identity(corpus, capsys):
    reports = {n: verify_kernel_identity(_spectrum(g)) for n, g in corpus.items()}
    bad = sorted(n for n, r in reports.items() if not r.passed)
    checks = sum(r.checks for r in reports.values())
    ok = not bad and checks > 0
    _line(capsys, 3, "kernel-identity", ok, f"{checks} checks, failures={bad}")
    assert ok


def test_criterion_4_well_definedness(corpus, capsys):
    reports = {n: verify_well_definedness(g, _spectrum(g))
               for n, g in corpus.items()}
    bad = sorted(n for n, r in reports.items() if not r.passed)
    checks = sum(r.checks for r in reports.values())
    ok = not bad and checks > 0
    _line(capsys, 4, "well-definedness", ok, f"{checks} checks, failures={bad}")
    assert ok


def test_criterion_5_exactness(row_finite_corpus, capsys):
    reports = {n: verify_exactness(g, _spectrum(g))
               for n, g in row_finite_corpus.items()}
    bad = sorted(n for n, r in reports.items() if not r.passed)
    checks = sum(r.checks for r in reports.values())
    ok = not bad and checks > 0
    _line(capsys, 5, "exactness", ok, f"{checks} positions, failures={bad}")
    assert ok


def test_criterion_6_fixed_k_values(corpus, capsys):
    failures = []

    def expect(cond, label):
        if not cond:
            failures.append(label)

    def full_k(name):
        g = corpus[name]
        sp = _spectrum(g)
        lc = next(y for y in locally_closed_sets(sp) if y.pointset == sp.full)
        return k_data(g, lc)

    kd = full_k("g1")
    expect(kd.k0.invariant_factors == (0,), "g1 K0")
    expect(kd.k1.invariant_factors == (0,), "g1 K1")
    kd = full_k("o2")
    expect(kd.k0.invariant_factors == (), "o2 K0")
    expect(kd.k1.invariant_factors == (), "o2 K1")
    kd = full_k("complete2")
    expect(kd.k0.invariant_factors == (), "complete2 K0")
    expect(kd.k1.invariant_factors == (), "complete2 K1")
    kd = full_k("g4")
    expect(kd.k0.invariant_factors == (0,), "g4 K0")
    expect(kd.k1.invariant_factors == (0,), "g4 K1")
    expect(kd.unit_class == (1,), "g4 unit")
    expect(kd.cone_generators == ((1,), (0,)), "g4 generators")

    g4 = corpus["g4"]
    sp = _spectrum(g4)
    u_mid = sp.w_set(pair_index(sp.lattice, names_mask(g4, ["v2"])))
    st = six_term(g4, sp, 0, u_mid, sp.full)
    expect(st.partial.rows == st.partial.cols == 1
           and abs(st.partial.entries[0][0]) == 1, "g4 boundary iso")
    expect(st.pi1 == IntMatrix.zero(1, 1), "g4 pi1 zero")

    ok = not failures
    _line(capsys, 6, "fixed-k-values", ok, f"exact equality, failures={failures}")
    assert ok


def test_criterion_7_compare_fixtures(corpus, capsys):
    failures = []
    slowest = 0.0

    def timed(label, fn):
        nonlocal slowest
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        if elapsed >= COMPARE_BUDGET_S:
            failures.append(f"{label} took {elapsed:.1f}s")
        return result

    def fixture(name_a, name_b, want, replay):
        def job():
            a = assemble(corpus[name_a])
            b = assemble(corpus[name_b])
            verdict = compare(a, b)
            if verdict.outcome != want:
                failures.append(f"{name_a} vs {name_b}: {verdict.outcome}")
            elif replay:
                rep = verify_compatible_witness(a, b, verdict.witness)
                if not rep.passed:
                    failures.append(f"{name_a} vs {name_b}: replay failed")
        timed(f"{name_a}/{name_b}", job)

    fixture("g1", "o2", "DISTINGUISHED", replay=False)
    fixture("o2", "complete2", "COMPATIBLE", replay=True)
    for name in sorted(corpus):
        # without row-finiteness there is no K layer, so only the spectra match
        finite = corpus[name].row_finite
        fixture(name, name, "COMPATIBLE" if finite else "UNKNOWN", replay=finite)

    ok = not failures
    _line(capsys, 7, "compare-fixtures", ok,
          f"default budget, slowest {slowest:.2f}s < {COMPARE_BUDGET_S}s,"
          f" failures={failures[:4]}")
    assert ok


def _bounded_return_verdict(g, max_len):
    """Condition check from plain path enumeration, capped at two returns."""

    def returns(v):
        total = 0

        def walk(w, length, ways):
            nonlocal total
            if total >= 2:
                return
            for t in range(g.n):
                m = g.mult[w][t]
                if not m:
                    continue
                if t == v:
                    total += ways * m
                    if total >= 2:
                        return
                elif length + 1 < max_len:
                    walk(t, length + 1, ways * m)

        walk(v, 0, 1)
        return total

    return all(returns(v) != 1 for v in range(g.n))


def test_criterion_8_condition_k(corpus, row_finite_corpus, capsys):
    failures = []
    if satisfies_condition_K(corpus["g1"]):
        failures.append("g1 should fail the two-return-path condition")
    if not satisfies_condition_K(corpus["o2"]):
        failures.append("o2 should satisfy it")
    if not satisfies_condition_K(corpus["sink"]):
        failures.append("sink should satisfy it vacuously")
    for name, g in row_finite_corpus.items():
        brute = _bounded_return_verdict(g, RETURN_LEN_FACTOR * g.n)
        if brute != satisfies_condition_K(g):
            failures.append(f"{name}: verdict drifts from path enumeration")
    ok = not failures
    _line(capsys, 8, "condition-k", ok,
          f"paths up to {RETURN_LEN_FACTOR}*|vertices|, failures={failures}")
    assert ok


def test_criterion_9_snf_randomized(capsys):
    rng = random.Random(SNF_SEED)
    failures = 0
    for _ in range(SNF_TRIALS):
        rows = rng.randint(1, SNF_MAX_DIM)
        cols = rng.randint(1, SNF_MAX_DIM)
        m = IntMatrix.from_rows(
            [[rng.randint(-SNF_ENTRY_SPAN, SNF_ENTRY_SPAN) for _ in range(cols)]
             for _ in range(rows)], cols=cols)
        dec = smith_decomposition(m)
        d = dec.diagonal
        good = (
            dec.P @ m @ dec.Q == dec.S
            and abs(dec.P.det()) == 1 and abs(dec.Q.det()) == 1
            and dec.P @ dec.P_inv == IntMatrix.identity(rows)
            and dec.Q @ dec.Q_inv == IntMatrix.identity(cols)
            and all(dec.S.entries[i][j] == 0
                    for i in range(rows) for j in range(cols) if i != j)
            and all(x >= 0 for x in d)
            and all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1) if d[i])
            and all(d[i] == 0 for i in range(len(d)) if i and d[i - 1] == 0)
        )
        failures += not good
    ok = failures == 0
    _line(capsys, 9, "snf-randomized", ok,
          f"{SNF_TRIALS} matrices up to {SNF_MAX_DIM}x{SNF_MAX_DIM},"
          f" entries within {SNF_ENTRY_SPAN}, failures={failures}")
    assert ok
