import itertools

import pytest

from fkgraph import lattice
from fkgraph.errors import CapExceeded
from fkgraph.graphs import graph_from_edges, iter_bits
from fkgraph.lattice import AdmissiblePair, enumerate_admissible_pairs, pair_leq

from oracles import names_mask, oracle_admissible_pairs, pair_index


def as_sets(p: AdmissiblePair) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(iter_bits(p.h)), frozenset(iter_bits(p.s))


def test_pairs_match_oracle(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        got = {as_sets(p) for p in lat.pairs}
        want = set(oracle_admissible_pairs(g))
        assert got == want, name
        assert len(lat.pairs) == len(want), f"{name}: duplicate pairs"


def test_single_edge_lattice(corpus):
    # {b} is hereditary but not saturated, so only the trivial pairs remain.
    lat = enumerate_admissible_pairs(corpus["edge_ab"])
    assert lat.pairs == (AdmissiblePair(0, 0), AdmissiblePair(3, 0))
    assert lat.leq(0, 1) and not lat.leq(1, 0)
    assert lat.meet[0][1] == 0 and lat.join[0][1] == 1


def test_breaking_pair_chain(corpus):
    g = corpus["inf_emitter"]
    u, w = names_mask(g, ["u"]), names_mask(g, ["w"])
    lat = enumerate_admissible_pairs(g)
    assert lat.pairs == (
        AdmissiblePair(0, 0),
        AdmissiblePair(w, 0),
        AdmissiblePair(w, u),
        AdmissiblePair(g.full_mask, 0),
    )
    # total order: each consecutive comparison holds in one direction only
    for i, j in itertools.combinations(range(4), 2):
        assert lat.leq(i, j) and not lat.leq(j, i)
    assert pair_leq(AdmissiblePair(w, 0), AdmissiblePair(w, u))
    assert not pair_leq(AdmissiblePair(w, u), AdmissiblePair(w, 0))


def test_row_finite_pairs_have_empty_s(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        lat = enumerate_admissible_pairs(g)
        assert all(p.s == 0 for p in lat.pairs), name
        for p, q in itertools.product(lat.pairs, repeat=2):
            m = lat.pairs[lat.meet[pair_index(lat, p.h)][pair_index(lat, q.h)]]
            assert m == AdmissiblePair(p.h & q.h, 0), name


def test_bounds_and_extremes(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        n = lat.size
        assert lat.pairs[lat.bottom] == AdmissiblePair(0, 0)
        assert lat.pairs[lat.top] == AdmissiblePair(g.full_mask, 0)
        for i in range(n):
            assert lat.leq(lat.bottom, i) and lat.leq(i, lat.top), name


def test_meet_join_laws(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        n = lat.size
        for i in range(n):
            assert lat.meet[i][i] == i and lat.join[i][i] == i
        for i, j in itertools.product(range(n), repeat=2):
            assert lat.meet[i][j] == lat.meet[j][i], name
            assert lat.join[i][j] == lat.join[j][i], name
            assert lat.meet[i][lat.join[i][j]] == i, name   # absorption
            assert lat.join[i][lat.meet[i][j]] == i, name
        for i, j, k in itertools.product(range(n), repeat=3):
            assert lat.meet[lat.meet[i][j]][k] == lat.meet[i][lat.meet[j][k]], name
            assert lat.join[lat.join[i][j]][k] == lat.join[i][lat.join[j][k]], name


def test_meet_is_greatest_lower_bound(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        for i, j in itertools.product(range(lat.size), repeat=2):
            m = lat.meet[i][j]
            assert lat.leq(m, i) and lat.leq(m, j)
            for k in range(lat.size):
                if lat.leq(k, i) and lat.leq(k, j):
                    assert lat.leq(k, m), name
            u = lat.join[i][j]
            assert lat.leq(i, u) and lat.leq(j, u)
            for k in range(lat.size):
                if lat.leq(i, k) and lat.leq(j, k):
                    assert lat.leq(u, k), name


def test_sort_order_is_linear_extension(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        for i, j in itertools.product(range(lat.size), repeat=2):
            if lat.leq(i, j):
                assert i <= j, name


def test_meet_many(corpus):
    lat = enumerate_admissible_pairs(corpus["mixed5"])
    assert lat.meet_many([]) == lat.top
    assert lat.meet_many(range(lat.size)) == lat.bottom


def test_caps(monkeypatch):
    many = graph_from_edges([f"v{i}" for i in range(17)], [])
    with pytest.raises(CapExceeded):
        enumerate_admissible_pairs(many)
    small = graph_from_edges(["a", "b"], [])
    monkeypatch.setattr(lattice, "_PAIR_CAP", 2)
    with pytest.raises(CapExceeded):
        enumerate_admissible_pairs(small)
