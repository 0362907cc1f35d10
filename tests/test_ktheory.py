import itertools
import json
import random
from collections import Counter
from functools import cache
from math import gcd
from types import SimpleNamespace

import pytest

from fkgraph import cli, ktheory, sixterm
from fkgraph.errors import InternalInvariantError
from fkgraph.graphs import Graph, graph_from_edges, iter_bits
from fkgraph.intlinalg import (
    FgAbGroup,
    IntMatrix,
    group_iso_inverse,
)
from fkgraph.invariant import assemble
from fkgraph.ktheory import (
    cone_contains,
    k_data,
    pair_pointsets,
)
from fkgraph.lattice import enumerate_admissible_pairs
from fkgraph.sixterm import (
    SixTerm,
    exactness_failures,
    open_triples,
    sequence_key,
    six_term,
    verify_exactness,
    verify_well_definedness,
)
from fkgraph.spectrum import (
    LocallyClosedSet,
    canonical_presentation,
    locally_closed_sets,
    presentation,
    s_primes,
)

from oracles import (carrier_indices, cycle_groups, divisor_factors, every_sequence,
                     first_chains, image_lattice, kernel_lattice, lattice_contains,
                     maps_equal, names_mask, pair_index, reduce_map, census_one_graphs,
                     subquotient_graph, subquotient_k_data, subquotient_rows)


def spectrum_of(g):
    return s_primes(enumerate_admissible_pairs(g))


def full_k(g):
    sp = spectrum_of(g)
    lc = [y for y in locally_closed_sets(sp) if y.pointset == sp.full][0]
    return k_data(g, lc)


def canonical_parts(g, sp, chain):
    """K-data of the chain's sub, mid and quot, canonically presented."""
    return [k_data(g, canonical_presentation(sp, y))
            for y in pair_pointsets(sequence_key(*chain))]


def test_loop_counts_fix_k_groups(corpus):
    # single vertex with n loops: K0 = coker [n-1], K1 = its kernel
    for name, k0_factors, k1_factors, unit in [
        ("g1", (0,), (0,), (1,)),
        ("o2", (), (), ()),
        ("o3", (2,), (), (1,)),
        ("r4", (3,), (), (1,)),
        ("sink", (0,), (), (1,)),
    ]:
        kd = full_k(corpus[name])
        assert kd.k0.invariant_factors == k0_factors, name
        assert kd.k1.invariant_factors == k1_factors, name
        assert kd.unit_class == unit, name


def test_g4_full_space_values(corpus):
    kd = full_k(corpus["g4"])
    assert kd.vertices == ("v1", "v2")
    assert kd.matrix.entries == ((0, 0), (1, 0))
    assert kd.k0.invariant_factors == (0,)
    assert kd.cone_generators == ((1,), (0,))
    assert kd.unit_class == (1,)
    assert kd.k1.invariant_factors == (0,)


def test_matrix_algebra_patterns(corpus):
    # a sink fed by a line of vertices presents a matrix algebra: unit = size
    for name, unit in [("edge_ab", (2,)), ("chain3", (3,))]:
        kd = full_k(corpus[name])
        assert kd.k0.invariant_factors == (0,)
        assert kd.k1.invariant_factors == ()
        assert set(kd.cone_generators) == {(1,)}
        assert kd.unit_class == unit, name


def test_cycle2_and_complete2(corpus):
    kd = full_k(corpus["cycle2"])
    assert kd.k0.invariant_factors == (0,)
    assert kd.k1.invariant_factors == (0,)
    assert kd.cone_generators == ((1,), (1,))
    assert kd.unit_class == (2,)
    kd = full_k(corpus["complete2"])
    assert kd.k0.invariant_factors == () and kd.k1.invariant_factors == ()
    assert kd.unit_class == ()


def test_fanin_full_space(corpus):
    kd = full_k(corpus["fanin"])
    assert kd.k0.invariant_factors == (0, 0)
    assert kd.k1.invariant_factors == (0,)
    # the middle sink's class is a relation: it equals the a-column image
    assert kd.cone_generators[1] == (0, 0)
    assert kd.unit_class == (1, 1)


def test_mixed5_full_space(corpus):
    kd = full_k(corpus["mixed5"])
    assert kd.k0.invariant_factors == (0, 0)
    assert kd.k1.invariant_factors == (0,)


def test_blocks6_middle_subquotient(corpus):
    g = corpus["blocks6"]
    sp = spectrum_of(g)
    lc = {y.pointset: y for y in locally_closed_sets(sp)}[0b010]
    assert lc.d == names_mask(g, ["y1", "y2"])
    kd = k_data(g, lc)
    assert kd.matrix.entries == ((-1, 2), (2, -1))
    assert kd.k0.invariant_factors == (3,)
    assert kd.k1.invariant_factors == ()
    assert kd.unit_class == (0,)  # [y1] + [y2] = 3 [y1] in Z/3


def test_unit_is_sum_of_cone_generators(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        for lc in locally_closed_sets(sp):
            kd = k_data(g, lc)
            summed = [0] * kd.k0.ncoords
            for gen in kd.cone_generators:
                summed = [a + b for a, b in zip(summed, gen)]
            assert kd.unit_class == kd.k0.reduce(summed), name


def test_k1_is_torsion_free(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        for lc in locally_closed_sets(sp):
            kd = k_data(g, lc)
            assert all(d == 0 for d in kd.k1.invariant_factors), name


def test_k_data_rejects_bad_input(corpus, row_finite_corpus):
    with pytest.raises(ValueError):
        sp = spectrum_of(corpus["inf_emitter"])
        lc = locally_closed_sets(sp)[-1]
        k_data(corpus["inf_emitter"], lc)
    g = corpus["g4"]
    v1 = names_mask(g, ["v1"])
    with pytest.raises(ValueError):
        k_data(g, LocallyClosedSet(0b1, 0b1, 0, v1, 0))  # {v1} not hereditary
    # K-data is memoised per carrier, and a presentation (d, h_v) that the
    # oracle's `subquotient_graph` refuses is refused by k_data even once a
    # valid presentation has memoised d
    refused = 0
    for g in row_finite_corpus.values():
        for y in locally_closed_sets(spectrum_of(g)):
            assert k_data(g, y) is ktheory._carrier(g, y.d)
            for h_v in range(1 << g.n):
                if h_v & y.d:
                    continue
                try:
                    subquotient_graph(g, y.d, h_v)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError):
                        k_data(g, y._replace(h_v=h_v))
    assert refused > 100, refused


def test_cached_k_data_matches_fresh_build(row_finite_corpus):
    # every (U, V) presentation, canonical or not, on a graph with an empty cache
    for name, g in row_finite_corpus.items():
        g = Graph(g.vertices, g.mult)
        sp = spectrum_of(g)
        for u, v in itertools.product(sp.opens, repeat=2):
            if v & ~u:
                continue
            y = presentation(sp, u, v)
            kd = k_data(g, y)
            assert kd == ktheory._carrier.__wrapped__(g, y.d), (name, u, v)
            assert k_data(g, y) is kd, (name, u, v)


def test_carrier_matches_the_subquotient_graph(row_finite_corpus, deep7):
    # every (U, V) presentation of the corpus and of census 1's seeded graphs:
    # the K-data read off g equals the K-data of the restricted graph, whose
    # regular vertices are g's regular vertices in d
    graphs = dict(row_finite_corpus, deep7=deep7)
    graphs.update((f"census{k}", g) for k, g in enumerate(census_one_graphs()))
    checked = 0
    for name, g in graphs.items():
        sp = spectrum_of(g)
        for u, v in itertools.product(sp.opens, repeat=2):
            if v & ~u:
                continue
            y = presentation(sp, u, v)
            gq = subquotient_graph(g, y.d, y.h_v)
            verts = list(iter_bits(y.d))
            assert [verts[p] for p in iter_bits(gq.regular)] == list(iter_bits(y.d & g.regular))
            assert k_data(g, y) == subquotient_k_data(g, y.d, y.h_v), (name, u, v)
            checked += 1
    assert checked > 1600, checked


def test_kmap_factors_match_determinantal_divisors(row_finite_corpus, deep7):
    # an oracle sharing no arithmetic with intlinalg: each slot's K0 and K1
    # factors from gcds of the minors of its subquotient graph's matrix
    graphs = dict(row_finite_corpus, deep7=deep7)
    graphs.update((f"census{k}", g) for k, g in enumerate(census_one_graphs()))
    torsion = 0
    for name, g in graphs.items():
        fk = assemble(g)
        for y, kd in fk.kmap.items():
            cy = canonical_presentation(fk.space, y)
            want = divisor_factors(*subquotient_rows(subquotient_graph(g, cy.d, cy.h_v)))
            assert kd.factor_summary() == want, (name, y)
            torsion += any(want[0])
    assert torsion > 100, torsion


def test_divisor_factors_by_hand():
    # diag(2, 4) and its mix with unimodular moves; a rank-1 map Z^2 -> Z^2;
    # the empty matrix on two rows
    assert divisor_factors([[2, 0], [0, 4]], 2) == ((2, 4), ())
    assert divisor_factors([[2, 4], [2, 8]], 2) == ((2, 4), ())
    assert divisor_factors([[6, 4], [9, 6]], 2) == ((0,), (0,))
    assert divisor_factors([[6, 0], [0, 10]], 2) == ((2, 30), ())
    assert divisor_factors([[], []], 0) == ((0, 0), ())


def test_cone_generators_are_projected_vertex_classes(row_finite_corpus, free_antichain,
                                                       deep7):
    # reference: the class of vertex v is project @ e_v, reduced, on every
    # (U, V) presentation; trivial K0 on a nonempty carrier included
    graphs = dict(row_finite_corpus, free_antichain=free_antichain, deep7=deep7)
    trivial = 0
    for name, g in graphs.items():
        sp = spectrum_of(g)
        for u, v in itertools.product(sp.opens, repeat=2):
            if v & ~u:
                continue
            kd = k_data(g, presentation(sp, u, v))
            n, k0 = len(kd.vertices), kd.k0
            want = tuple(k0.reduce(k0.project.apply([int(i == j) for i in range(n)]))
                         for j in range(n))
            assert kd.cone_generators == want, (name, u, v)
            trivial += n > 0 and k0.ncoords == 0
    assert trivial > 0


def test_assemble_builds_each_carrier_once(row_finite_corpus):
    # the memo is by value: each carrier is built once, a miss that stays in
    # the cache, and equal graphs built again are answered from it
    ktheory._carrier.cache_clear()
    for g in row_finite_corpus.values():
        assert every_sequence(assemble(Graph(g.vertices, g.mult)))
    info = ktheory._carrier.cache_info()
    assert info.misses == info.currsize > 0
    for g in row_finite_corpus.values():
        assert every_sequence(assemble(Graph(g.vertices, g.mult)))
    assert ktheory._carrier.cache_info().misses == info.misses


def test_k_data_is_built_once_per_carrier():
    # a gauge subquotient's K-data is that of its carrier d's restricted
    # graph: over every presentation of a wide antichain (five Z/2 blocks,
    # one on two vertices), its sequences and both K-layer suites, each
    # distinct d is built once, however many h_v present it
    vs = [f"v{i}" for i in range(1, 5)]
    g = graph_from_edges(["x", "y", *vs], [("x", "x", 1), ("x", "y", 2), ("y", "x", 1),
                                           ("y", "y", 2), *((v, v, 3) for v in vs)])
    sp = spectrum_of(g)
    ktheory._carrier.cache_clear()
    seen = set()
    for u, v in itertools.product(sp.opens, repeat=2):
        if not v & ~u:
            y = presentation(sp, u, v)
            assert k_data(g, y) == ktheory._carrier.__wrapped__(g, y.d)
            seen.add((y.d, y.h_v))
    assert every_sequence(assemble(g))
    assert verify_well_definedness(g, sp).passed and verify_exactness(g, sp).passed
    info = ktheory._carrier.cache_info()
    assert info.misses == info.currsize == len({d for d, _ in seen}) < len(seen) // 4


def test_g4_triple_frozen_maps(corpus):
    g = corpus["g4"]
    sp = spectrum_of(g)
    u_mid = sp.w_set(pair_index(sp.lattice, names_mask(g, ["v2"])))
    st = six_term(g, sp, 0, u_mid, sp.full)
    one = IntMatrix.from_rows([[1]])
    zero = IntMatrix.from_rows([[0]])
    sub, _, _ = canonical_parts(g, sp, (0, u_mid, sp.full))
    assert sub.k0.invariant_factors == (0,)
    assert st.partial == one      # connecting map is an isomorphism
    assert st.pi1 == zero
    assert st.pi0 == one
    assert st.iota0 == zero
    assert st.iota1 == one
    assert st.delta == zero


def test_g3_triple_all_trivial(corpus):
    g = corpus["g3"]
    sp = spectrum_of(g)
    u_mid = sp.w_set(pair_index(sp.lattice, names_mask(g, ["v2"])))
    st = six_term(g, sp, 0, u_mid, sp.full)
    groups = cycle_groups(*canonical_parts(g, sp, (0, u_mid, sp.full)))
    for k, m in enumerate(st):
        src, tgt = groups[k], groups[(k + 1) % 6]
        assert src.invariant_factors == () and tgt.invariant_factors == ()
        assert m.rows == 0 and m.cols == 0


def test_degenerate_triples(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        for u1, u2 in itertools.combinations_with_replacement(sp.opens, 2):
            if u1 & ~u2:
                continue
            st = six_term(g, sp, u1, u1, u2)
            sub, mid, _ = canonical_parts(g, sp, (u1, u1, u2))
            assert sub.k0.invariant_factors == () and sub.k1.invariant_factors == ()
            assert st.pi0 == IntMatrix.identity(mid.k0.ncoords), name
            assert st.pi1 == IntMatrix.identity(mid.k1.ncoords), name
            st = six_term(g, sp, u1, u2, u2)
            sub, _, quot = canonical_parts(g, sp, (u1, u2, u2))
            assert quot.k0.invariant_factors == () and quot.k1.invariant_factors == ()
            assert st.iota0 == IntMatrix.identity(sub.k0.ncoords), name
            assert st.iota1 == IntMatrix.identity(sub.k1.ncoords), name


def test_six_term_rejects_non_chain(corpus):
    g = corpus["g4"]
    sp = spectrum_of(g)
    with pytest.raises(ValueError):
        six_term(g, sp, sp.full, 0, sp.full)


def test_exactness_suite(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        rep = verify_exactness(g, sp)
        assert rep.passed, (name, rep.failures)
        assert rep.checks >= 6


def test_well_definedness_suite(corpus):
    for name, g in corpus.items():
        sp = spectrum_of(g)
        rep = verify_well_definedness(g, sp)
        assert rep.passed, (name, rep.failures)
        assert rep.checks > 0


def test_fanout_presentations_disagree_on_carrier(corpus):
    # the non-minimal presentation picks up the feeder vertex by saturation;
    # groups agree, carriers do not, and that is the expected geometry
    g = corpus["fanout"]
    sp = spectrum_of(g)
    a = names_mask(g, ["a"])
    p_c = next(1 << k for k in range(sp.npoints)
               if sp.pair(k).h == names_mask(g, ["c"]))
    canon = canonical_presentation(sp, p_c)
    assert canon.d == a
    alt_u, alt_v = sp.full, sp.full & ~p_c
    hu = sp.lattice.pairs[sp.phi(alt_u)].h
    hv = sp.lattice.pairs[sp.phi(alt_v)].h
    assert hu & ~hv == names_mask(g, ["a", "b"])
    alt = LocallyClosedSet(p_c, alt_u, alt_v, hu & ~hv, hv)
    kd_canon, kd_alt = k_data(g, canon), k_data(g, alt)
    assert kd_canon.k0.invariant_factors == kd_alt.k0.invariant_factors == (0,)
    assert kd_canon.k1.invariant_factors == kd_alt.k1.invariant_factors == (0,)
    assert kd_canon.unit_class == (1,) and kd_alt.unit_class == (2,)


def test_well_definedness_reports_each_failure_at_its_presentation(corpus, monkeypatch):
    # one forced fault at a time, each reported at its (u, v) alone and in
    # the clean run's checks: a presentation whose carrier misses the
    # canonical one, and on one of fanout's two enlarged carriers K-groups
    # that drift, or a zero-extension that is no K-isomorphism
    g = corpus["fanout"]
    sp = spectrum_of(g)
    clean = verify_well_definedness(g, sp)
    assert clean.passed
    # the presentations whose carrier saturation enlarged past the canonical one
    alt, *rest = [y for u, v in itertools.product(sp.opens, repeat=2) if not v & ~u
                  for y in [presentation(sp, u, v)]
                  if y.d != canonical_presentation(sp, y.pointset).d]
    assert len(rest) == 1 and rest[0].d != alt.d
    real_p, real_k, real_t = sixterm.presentation, sixterm.k_data, sixterm._transition

    def shrunk(sp_, u, v):
        y = real_p(sp_, u, v)
        return y._replace(d=0) if (u, v) == (sp.full, 0) else y

    def drifting(g_, y):
        kd = real_k(g_, y)
        if (y.u, y.v) != (alt.u, alt.v):
            return kd
        return kd._replace(k1=sixterm._standard_group(kd.k1.invariant_factors + (0,)))

    def refusing(g_, canon_d, raw_d):
        if raw_d == alt.d:
            raise InternalInvariantError("presentation change is not a K-isomorphism")
        return real_t(g_, canon_d, raw_d)

    at = f"({alt.u:#b},{alt.v:#b})"
    for name, fake, failure in [
            ("presentation", shrunk, f"canonical carrier escapes presentation ({sp.full:#b},0b0)"),
            ("k_data", drifting, f"K-groups drift under presentation {at}"),
            ("_transition", refusing, f"no canonical K-isomorphism for presentation {at}")]:
        with monkeypatch.context() as m:
            m.setattr(sixterm, name, fake)
            rep = verify_well_definedness(g, sp)
        assert rep.checks == clean.checks and rep.failures == (failure,), name


def test_check_builds_k_data_once_per_carrier(deep7, monkeypatch, tmp_path, capsys):
    # `check` reads every K-data through the one memo per carrier: its misses
    # plus any direct build are the distinct carriers of the presentations
    direct, real = [], ktheory._carrier.__wrapped__

    def build(g, d):
        direct.append(d)
        return real(g, d)
    monkeypatch.setattr(ktheory._carrier, "__wrapped__", build)
    path = tmp_path / "deep7.graph"
    path.write_text("".join(f"vertex {v}\n" for v in deep7.vertices) + "".join(
        f"edge {v} {w} {m}\n" for v, row in zip(deep7.vertices, deep7.mult)
        for w, m in zip(deep7.vertices, row) if m))
    ktheory._carrier.cache_clear()
    assert cli.main(["check", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    sp = spectrum_of(deep7)
    carriers = {presentation(sp, u, v).d
                for u, v in itertools.product(sp.opens, repeat=2) if not v & ~u}
    assert ktheory._carrier.cache_info().misses + len(direct) == len(carriers) == 70


def test_iota_functoriality(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        for u1, u2, u3, u4 in itertools.combinations_with_replacement(sp.opens, 4):
            if (u1 & ~u2) or (u2 & ~u3) or (u3 & ~u4):
                continue
            inner = six_term(g, sp, u1, u2, u3)
            outer = six_term(g, sp, u1, u3, u4)
            direct = six_term(g, sp, u1, u2, u4)
            _, mid, _ = canonical_parts(g, sp, (u1, u2, u4))
            assert maps_equal(mid.k0, outer.iota0 @ inner.iota0,
                              direct.iota0), name
            assert maps_equal(mid.k1, outer.iota1 @ inner.iota1,
                              direct.iota1), name


def test_pi_functoriality(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        sp = spectrum_of(g)
        for u1, u2, u3, u4 in itertools.combinations_with_replacement(sp.opens, 4):
            if (u1 & ~u2) or (u2 & ~u3) or (u3 & ~u4):
                continue
            first = six_term(g, sp, u1, u2, u4)
            second = six_term(g, sp, u2, u3, u4)
            direct = six_term(g, sp, u1, u3, u4)
            _, _, quot = canonical_parts(g, sp, (u1, u3, u4))
            assert maps_equal(quot.k0, second.pi0 @ first.pi0,
                              direct.pi0), name
            assert maps_equal(quot.k1, second.pi1 @ first.pi1,
                              direct.pi1), name


def test_chains_with_one_pair_share_their_maps(row_finite_corpus, free_antichain):
    # the sequence of U1 <= U2 <= U3 depends only on (U2 \ U1, U3 \ U1)
    graphs = dict(row_finite_corpus, free_antichain=free_antichain)
    for name, g in graphs.items():
        sp = spectrum_of(g)
        first = {}
        for chain in open_triples(sp):
            seq = (six_term(g, sp, *chain), cycle_groups(*canonical_parts(g, sp, chain)))
            ref = first.setdefault(sequence_key(*chain), seq)
            assert seq == ref, (name, chain)
        if name == "free_antichain":  # 4**4 chains, 3**4 pairs
            assert len(first) == 81


def _indicator(rows, cols):
    return IntMatrix.from_rows([[1 if r == c else 0 for c in cols] for r in rows],
                               cols=len(cols))


def _reference_transition(g, canon_y, canon_k, raw_y, raw_k):
    """The presentation change as products with 0/1 inclusion matrices."""
    if canon_y.d == raw_y.d:
        n0 = IntMatrix.identity(canon_k.k0.ncoords)
        n1 = IntMatrix.identity(canon_k.k1.ncoords)
        return n0, n0, n1, n1
    e_vert = _indicator(list(iter_bits(raw_y.d)), list(iter_bits(canon_y.d)))
    e_reg = _indicator(list(carrier_indices(g, raw_y.d, raw_y.h_v)[1]),
                       list(carrier_indices(g, canon_y.d, canon_y.h_v)[1]))
    n0 = reduce_map(raw_k.k0, raw_k.k0.project @ e_vert @ canon_k.k0.lift)
    n1 = reduce_map(raw_k.k1, raw_k.k1.project @ e_reg @ canon_k.k1.lift)
    inv0, inv1 = group_iso_inverse(raw_k.k0, n0), group_iso_inverse(raw_k.k1, n1)
    assert inv0 is not None and inv1 is not None
    return n0, inv0, n1, inv1


def _reference_maps(g, sp, u1, u2, u3):
    """The six maps as project @ E @ lift with 0/1 inclusions E, pulled onto
    canonical coordinates by full products, identities included."""
    y_s, y_q, y_a = presentation(sp, u2, u1), presentation(sp, u3, u2), presentation(sp, u3, u1)
    ks, kq, ka = k_data(g, y_s), k_data(g, y_q), k_data(g, y_a)
    verts_s, verts_q, verts_a = (list(iter_bits(y.d)) for y in (y_s, y_q, y_a))
    regs_a = list(carrier_indices(g, y_a.d, y_a.h_v)[1])
    regs_s = [v for v in regs_a if y_s.d >> v & 1]
    regs_q = [v for v in regs_a if y_q.d >> v & 1]
    c_block = IntMatrix.from_rows(
        [[ka.matrix.entries[verts_a.index(v)][regs_a.index(w)] for w in regs_q]
         for v in verts_s], cols=len(regs_q))
    raw = {
        "iota0": reduce_map(ka.k0, ka.k0.project @ _indicator(verts_a, verts_s) @ ks.k0.lift),
        "pi0": reduce_map(kq.k0, kq.k0.project @ _indicator(verts_q, verts_a) @ ka.k0.lift),
        "iota1": reduce_map(ka.k1, ka.k1.project @ _indicator(regs_a, regs_s) @ ks.k1.lift),
        "pi1": reduce_map(kq.k1, kq.k1.project @ _indicator(regs_q, regs_a) @ ka.k1.lift),
        "partial": reduce_map(ks.k0, ks.k0.project @ c_block @ kq.k1.lift),
    }
    t, ck = {}, {}
    for part, y, k in (("s", y_s, ks), ("q", y_q, kq), ("a", y_a, ka)):
        cy = canonical_presentation(sp, y.pointset)
        ck[part] = k_data(g, cy)
        t[part] = _reference_transition(g, cy, ck[part], y, k)
    return [
        reduce_map(ck["a"].k0, t["a"][1] @ raw["iota0"] @ t["s"][0]),
        reduce_map(ck["q"].k0, t["q"][1] @ raw["pi0"] @ t["a"][0]),
        IntMatrix.zero(ck["s"].k1.ncoords, ck["q"].k0.ncoords),
        reduce_map(ck["a"].k1, t["a"][3] @ raw["iota1"] @ t["s"][2]),
        reduce_map(ck["q"].k1, t["q"][3] @ raw["pi1"] @ t["a"][2]),
        reduce_map(ck["s"].k0, t["s"][1] @ raw["partial"] @ t["q"][2]),
    ]


# Saturation enlarges some presentations' carriers so that the canonical
# coordinates come out permuted: the framed groups differ from the raw ones by
# swaps, on K0 only in the first graph and on K0 and K1 in the second.  In the
# corpus every presentation change is an identity matrix.
SWAPPED = {
    "source_into_sinks": graph_from_edges(
        ["v0", "v1", "v2", "v3"], [("v2", "v0", 2), ("v2", "v3", 1)]),
    "source_into_loops": graph_from_edges(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v0", 1), ("v2", "v2", 1), ("v3", "v1", 1), ("v3", "v2", 1)]),
}


def test_selected_maps_match_indicator_products(row_finite_corpus, free_antichain, deep7):
    # selections between framed groups give the matrices that 0/1 inclusion
    # products pulled back in full give, on every chain; every presentation's
    # framed groups are the reference change's, and the raw groups themselves
    # when the carriers agree
    graphs = dict(row_finite_corpus, free_antichain=free_antichain, deep7=deep7, **SWAPPED)
    swaps = Counter()
    for name, g in graphs.items():
        sp = spectrum_of(g)
        chains = list(open_triples(sp))
        for chain in chains:
            got = list(six_term(g, sp, *chain))
            assert got == _reference_maps(g, sp, *chain), (name, chain)
        for u, v in itertools.product(sp.opens, repeat=2):
            if v & ~u:
                continue
            raw = presentation(sp, u, v)
            canon = canonical_presentation(sp, raw.pointset)
            raw_k = k_data(g, raw)
            got = sixterm._transition(g, canon.d, raw.d)
            n0, inv0, n1, inv1 = _reference_transition(g, canon, k_data(g, canon), raw, raw_k)
            want = tuple(FgAbGroup(k.invariant_factors, reduce_map(k, inv @ k.project),
                                   k.lift @ n)
                         for k, n, inv in ((raw_k.k0, n0, inv0), (raw_k.k1, n1, inv1)))
            assert got == want, (name, u, v)
            if canon.d == raw.d:
                assert got == (raw_k.k0, raw_k.k1), (name, u, v)
            swaps[name] += got != (raw_k.k0, raw_k.k1)
        if name == "deep7":  # the 7-point check-deep shape: 525 chains
            assert sp.npoints == 7 and len(chains) == 525
    assert +swaps == {name: 1 for name in SWAPPED}


def test_carrier_escape_raises_instead_of_a_zero_column():
    with pytest.raises(InternalInvariantError):
        sixterm._positions(0b100101, 0b1100)
    assert sixterm._positions(0b100101, 0b100001) == [0, 2]


def _group(factors):
    ident = IntMatrix.identity(len(factors))
    return FgAbGroup(factors, ident, ident)


def _random_hom(rng, src, tgt):
    """A well-defined map between canonical coordinates, biased to zero."""
    rows = []
    for e in tgt.invariant_factors:
        row = []
        for d in src.invariant_factors:
            if rng.random() < 0.4 or (e == 0 and d > 0):
                row.append(0)
            elif e == 0:
                row.append(rng.randint(-2, 2))
            else:
                step = e // gcd(e, d)  # d * entry must vanish mod e
                row.append(rng.randrange(0, e, step))
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=src.ncoords)


def _hand_built(levels, maps):
    """A SixTerm over bare groups, with its groups in cycle order:
    levels[part] = (K0 factors, K1 factors)."""
    parts = {p: SimpleNamespace(k0=_group(k0), k1=_group(k1))
             for p, (k0, k1) in levels.items()}
    return SixTerm(**maps), cycle_groups(parts["sub"], parts["mid"], parts["quot"])


def _spots(st, groups):
    """Each spot f then gm as (f's name, f, mid, g's name, gm, tgt), where mid
    and tgt are the groups f and gm land in."""
    return [(st._fields[k], st[k], groups[(k + 1) % 6],
             st._fields[(k + 1) % 6], st[(k + 1) % 6], groups[(k + 2) % 6])
            for k in range(6)]


def _two_sided_failures(st, groups):
    """Reference: image and kernel compared as lattices in both directions."""
    def lattices_equal(a, b):
        return lattice_contains(a, b) and lattice_contains(b, a)

    fails = []
    for f_name, f, mid, g_name, gm, tgt in _spots(st, groups):
        if not maps_equal(tgt, gm @ f, IntMatrix.zero(gm.rows, f.cols)):
            fails.append(f"{g_name} after {f_name} is nonzero")
            continue
        if mid.ncoords == 0:
            continue
        if not lattices_equal(image_lattice(mid, f), kernel_lattice(tgt, gm)):
            fails.append(f"image of {f_name} differs from kernel of {g_name}")
    return fails


def test_one_sided_exactness_matches_two_sided_reference():
    rng = random.Random(20161)
    menu = [(), (2,), (4,), (0,), (2, 4), (2, 0), (0, 0)]
    seen = Counter()
    for _ in range(400):
        levels = {p: (rng.choice(menu), rng.choice(menu)) for p in ("sub", "mid", "quot")}
        _, groups = _hand_built(levels, {n: IntMatrix.zero(0, 0) for n in SixTerm._fields})
        maps = {name: _random_hom(rng, groups[k], groups[(k + 1) % 6])
                for k, name in enumerate(SixTerm._fields)}
        st, groups = _hand_built(levels, maps)
        want = _two_sided_failures(st, groups)
        assert exactness_failures(st, groups) == want, (levels, maps)
        seen.update(w.split()[0] if w.startswith("image") else "nonzero" for w in want)
        seen["exact"] += 6 - len(want)
    # every branch of the test is exercised, with both verdicts
    assert min(seen["image"], seen["nonzero"], seen["exact"]) >= 50, seen


def test_non_exact_sequence_is_reported():
    # Z --2--> Z --> 0: the image 2Z is not the kernel Z of the zero map
    levels = {"sub": ((0,), ()), "mid": ((0,), ()), "quot": ((), ())}
    z = IntMatrix.zero
    maps = {"iota0": IntMatrix.from_rows([[2]]), "pi0": z(0, 1), "delta": z(0, 0),
            "iota1": z(0, 0), "pi1": z(0, 0), "partial": z(1, 0)}
    assert exactness_failures(*_hand_built(levels, maps)) == [
        "image of iota0 differs from kernel of pi0"]
    levels["quot"] = ((0,), ())
    maps.update(iota0=IntMatrix.from_rows([[1]]), pi0=IntMatrix.from_rows([[1]]),
                delta=z(0, 1))
    assert "pi0 after iota0 is nonzero" in exactness_failures(*_hand_built(levels, maps))
    # Z/2 --1--> Z is not well defined: iota0 sends the relation 2 to 2 != 0
    levels = {"sub": ((2,), ()), "mid": ((0,), ()), "quot": ((), ())}
    maps = {"iota0": IntMatrix.from_rows([[1]]), "pi0": z(0, 1), "delta": z(0, 0),
            "iota1": z(0, 0), "pi1": z(0, 0), "partial": z(1, 0)}
    assert exactness_failures(*_hand_built(levels, maps)) == [
        "iota0 does not kill source relations"]
    maps["iota0"] = IntMatrix.from_rows([[0]])  # well defined, but not exact
    assert exactness_failures(*_hand_built(levels, maps)) == [
        "image of iota0 differs from kernel of pi0",
        "image of partial differs from kernel of iota0"]


def _six_spot_loop(st, groups):
    """Reference: each spot decided afresh, as before spots were memoised."""
    fails = []
    for f_name, f, mid, g_name, gm, tgt in _spots(st, groups):
        img = image_lattice(mid, f)
        killed = reduce_map(tgt, gm @ img).entries
        if any(x for row in killed for x in row[f.cols:]):
            fails.append(f"{g_name} does not kill source relations")
            continue
        if any(x for row in killed for x in row[:f.cols]):
            fails.append(f"{g_name} after {f_name} is nonzero")
            continue
        if mid.ncoords == 0:
            continue
        if not lattice_contains(img, kernel_lattice(tgt, gm)):
            fails.append(f"image of {f_name} differs from kernel of {g_name}")
    return fails


def _bumped(m):
    rows = [list(r) for r in m.entries]
    rows[0][0] += 1
    return IntMatrix.from_rows(rows, cols=m.cols)


def test_memoised_exactness_matches_six_spot_loop(row_finite_corpus, free_antichain, deep7):
    # every sequence as built, and with one map's corner entry bumped so that
    # the failing verdicts are compared too
    graphs = dict(row_finite_corpus, free_antichain=free_antichain, deep7=deep7)
    failing = 0
    for name, g in graphs.items():
        sp = spectrum_of(g)
        for chain in first_chains(sp).values():
            st = six_term(g, sp, *chain)
            groups = cycle_groups(*canonical_parts(g, sp, chain))
            variants = [st] + [st._replace(**{n: _bumped(m)})
                               for n, m in zip(st._fields, st) if m.rows and m.cols]
            for v in variants:
                want = _six_spot_loop(v, groups)
                assert exactness_failures(v, groups) == want, (name, chain)
                failing += bool(want)
    assert failing > 100


def test_spot_memo_keys_on_target_factors():
    # iota0 = 2 and pi0 = 1 on Z: exact into Z/2, but 2 != 0 in Z/3; a memo
    # blind to the target's factors would give one of the two the other's verdict
    z = IntMatrix.zero
    maps = {"iota0": IntMatrix.from_rows([[2]]), "pi0": IntMatrix.from_rows([[1]]),
            "delta": z(0, 1), "iota1": z(0, 0), "pi1": z(0, 0), "partial": z(1, 0)}
    got = []
    for q in (2, 3):
        st, groups = _hand_built({"sub": ((0,), ()), "mid": ((0,), ()), "quot": ((q,), ())},
                                 maps)
        got.append(exactness_failures(st, groups))
        assert got[-1] == _six_spot_loop(st, groups), q
    assert got == [[], ["pi0 after iota0 is nonzero"]]


def test_standard_groups_are_built_once_per_factors():
    for factors in [(), (0,), (2, 0), (2, 4, 0, 0)]:
        G = sixterm._standard_group(factors)
        assert sixterm._standard_group(tuple(list(factors))) is G
        ident = IntMatrix.identity(len(factors))
        assert G == FgAbGroup(factors, ident, ident)


def test_each_exactness_spot_is_decided_once(deep7, monkeypatch):
    # the memo is by value: a spot is decided at most once per distinct
    # spot, and not at all for an equal graph built separately
    calls = []
    real = sixterm._spot_failure.__wrapped__

    def deciding(*spot):
        calls.append(spot)
        return real(*spot)
    monkeypatch.setattr(sixterm, "_spot_failure", cache(deciding))
    g = Graph(deep7.vertices, deep7.mult)
    sp = spectrum_of(g)
    assert verify_exactness(g, sp).passed
    pairs = first_chains(sp)
    spots = set()
    for chain in pairs.values():
        groups = cycle_groups(*canonical_parts(g, sp, chain))
        spots.update((f, gm, mid.invariant_factors, tgt.invariant_factors)
                     for _, f, mid, _, gm, tgt in _spots(six_term(g, sp, *chain), groups))
    assert 0 < len(calls) <= len(spots) < 6 * len(pairs)
    calls.clear()
    again = Graph(deep7.vertices, deep7.mult)
    assert verify_exactness(again, spectrum_of(again)).passed
    assert calls == []


def test_exactness_suite_flags_chains_that_disagree(free_antichain, monkeypatch):
    g = free_antichain
    sp = spectrum_of(g)
    chains = list(open_triples(sp))
    first = {}
    for chain in chains:
        earlier = first.setdefault(sequence_key(*chain), chain)
        iota0 = six_term(g, sp, *chain).iota0
        if earlier != chain and iota0.rows and iota0.cols:
            break
    real = sixterm.six_term

    def perturbed(g_, sp_, *c):
        st = real(g_, sp_, *c)
        if c != chain:
            return st
        rows = [list(r) for r in st.iota0.entries]
        rows[0][0] += 1
        return st._replace(iota0=IntMatrix.from_rows(rows, cols=st.iota0.cols))

    monkeypatch.setattr(sixterm, "six_term", perturbed)
    rep = verify_exactness(g, sp)
    (u1, u2, u3), (v1, v2, v3) = chain, earlier
    assert rep.failures == (
        f"triple ({u1:#b},{u2:#b},{u3:#b}): maps differ from chain "
        f"({v1:#b},{v2:#b},{v3:#b}) with the same subquotient pair",)
    assert rep.checks == 6 * len(chains)


def test_failing_sequence_raises_for_every_chain(free_antichain, monkeypatch):
    # each chain presenting a failing pair is reported, and the check runs
    # once per chain
    g = free_antichain
    sp = spectrum_of(g)
    calls = []

    def failing(st, groups):
        calls.append(st)
        return ["forced failure", "second failure"]

    monkeypatch.setattr(sixterm, "exactness_failures", failing)
    chains = list(open_triples(sp))
    rep = verify_exactness(g, sp)
    assert rep.checks == 6 * len(chains)
    assert rep.failures == tuple(f"triple ({u1:#b},{u2:#b},{u3:#b}): forced failure; "
                                 "second failure" for u1, u2, u3 in chains)
    assert len(calls) == len(chains)


def test_cone_membership_basics(corpus, monkeypatch):
    kd = full_k(corpus["g1"])
    assert cone_contains(kd, (0,)) == (True, True)
    assert cone_contains(kd, (5,)) == (True, True)
    assert cone_contains(kd, (-1,)) == (False, True)
    kd = full_k(corpus["g4"])
    assert cone_contains(kd, (-1,)) == (False, True)
    assert cone_contains(kd, (3,)) == (True, True)
    kd = full_k(corpus["o3"])
    assert cone_contains(kd, (1,)) == (True, True)   # torsion search is complete
    kd = full_k(corpus["mixed5"])
    monkeypatch.setattr(ktheory, "_CONE_BOUND", 3)
    found, conclusive = cone_contains(kd, kd.unit_class)
    assert found and conclusive


def test_cone_membership_synthetic():
    ident = IntMatrix.identity(1)
    tors = FgAbGroup((4,), ident, ident)
    kd = lambda k0, gens: type("K", (), {"k0": k0, "cone_generators": gens})()
    assert cone_contains(kd(tors, ((2,),)), (2,)) == (True, True)
    assert cone_contains(kd(tors, ((2,),)), (1,)) == (False, True)
    # an unreduced torsion generator reaches what its reduction reaches
    assert cone_contains(kd(tors, ((6,),)), (2,)) == (True, True)
    free = FgAbGroup((0,), ident, ident)
    assert cone_contains(kd(free, ((2,), (-2,))), (4,)) == (True, True)
    # mixed signs defeat the bound: a miss is honest but not conclusive
    assert cone_contains(kd(free, ((2,), (-2,))), (1,)) == (False, False)


def test_cone_search_stops_at_its_bound(corpus):
    # one vertex with one loop, K0 = Z generated by (1,): past _CONE_BOUND
    # copies of a generator the search stops, and that miss is inconclusive,
    # never a conclusive "no"; a negative class is a conclusive "no"
    kd = full_k(corpus["g1"])
    bound = ktheory._CONE_BOUND
    assert kd.cone_generators == ((1,),) and bound == 64
    assert cone_contains(kd, (bound,)) == (True, True)
    assert cone_contains(kd, (bound + 1,)) == (False, False)
    assert cone_contains(kd, (-1,)) == (False, True)
