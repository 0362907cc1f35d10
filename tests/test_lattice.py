import itertools
import random

import pytest

import oracles
from fkgraph import cli, lattice
from fkgraph.errors import CapExceeded, InternalInvariantError
from fkgraph.graphs import (INF, Graph, breaking_vertices, graph_from_edges, is_saturated,
                            iter_bits, mask_of)
from fkgraph.lattice import AdmissiblePair, enumerate_admissible_pairs, pair_leq
from fkgraph.spectrum import s_primes

from oracles import names_mask, oracle_admissible_pairs, pair_index
from test_spectrum import brute_force_primes


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
    assert lat.meet(0, 1) == 0 and lat.join(0, 1) == 1


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
            m = lat.pairs[lat.meet(pair_index(lat, p.h), pair_index(lat, q.h))]
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
            assert lat.meet(i, i) == i and lat.join(i, i) == i
        for i, j in itertools.product(range(n), repeat=2):
            assert lat.meet(i, j) == lat.meet(j, i), name
            assert lat.join(i, j) == lat.join(j, i), name
            assert lat.meet(i, lat.join(i, j)) == i, name   # absorption
            assert lat.join(i, lat.meet(i, j)) == i, name
        for i, j, k in itertools.product(range(n), repeat=3):
            assert lat.meet(lat.meet(i, j), k) == lat.meet(i, lat.meet(j, k)), name
            assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k)), name


def test_meet_is_greatest_lower_bound(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        for i, j in itertools.product(range(lat.size), repeat=2):
            m = lat.meet(i, j)
            assert lat.leq(m, i) and lat.leq(m, j)
            for k in range(lat.size):
                if lat.leq(k, i) and lat.leq(k, j):
                    assert lat.leq(k, m), name
            u = lat.join(i, j)
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
    assert lat.meet() == lat.top
    assert lat.meet(*range(lat.size)) == lat.bottom


def test_caps(monkeypatch):
    many = graph_from_edges([f"v{i}" for i in range(17)], [])
    with pytest.raises(CapExceeded):
        enumerate_admissible_pairs(many)
    small = graph_from_edges(["a", "b"], [])
    monkeypatch.setattr(lattice, "_PAIR_CAP", 2)
    with pytest.raises(CapExceeded):
        enumerate_admissible_pairs(small)


def test_bound_lookups_verify_the_lattice(monkeypatch, corpus):
    # an order in which two pairs share their down-set and up-set, and an
    # antichain, where two pairs have no meet
    g = corpus["g4"]
    monkeypatch.setattr(lattice, "pair_leq", lambda p, q: True)
    with pytest.raises(InternalInvariantError, match="share a down-set"):
        enumerate_admissible_pairs(g)
    monkeypatch.setattr(lattice, "pair_leq", lambda p, q: p == q)
    with pytest.raises(InternalInvariantError, match=r"^no unique bound for AdmissiblePair"):
        enumerate_admissible_pairs(g)


def test_pair_cap_ends_the_scan(monkeypatch):
    # 16 isolated sinks: every vertex set is hereditary and saturated and has
    # one pair, so the count passes the cap at the 1,025th candidate of 65,536
    calls = 0
    hereditary = lattice.is_hereditary

    def counted(g, h):
        nonlocal calls
        calls += 1
        return hereditary(g, h)

    monkeypatch.setattr(lattice, "is_hereditary", counted)
    sinks = graph_from_edges([f"v{i}" for i in range(16)], [])
    with pytest.raises(CapExceeded, match=r"^admissible pair count exceeds the cap of 1024$"):
        enumerate_admissible_pairs(sinks)
    assert 0 < calls < 2048


def test_masks_and_lookups_match_the_scans_they_replaced():
    # sparse random graphs with INF edges, so breaking vertices and pairs
    # with nonempty S occur
    rng = random.Random(25)
    with_s = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        g = Graph(tuple(f"v{i}" for i in range(n)),
                  tuple(tuple(rng.choice((0,) * 12 + (1, 1, 2, INF)) for _ in range(n))
                        for _ in range(n)))
        assert g.regular == mask_of(i for i in range(n) if oracles.is_regular(g, i))
        assert g.infinite_emitters == mask_of(
            i for i in range(n) if oracles.is_infinite_emitter(g, i))
        for h in range(1 << n):
            hs = set(iter_bits(h))
            assert is_saturated(g, h) == oracles.oracle_saturated(g, hs)
            assert breaking_vertices(g, h) == mask_of(oracles.oracle_breaking(g, hs))
        lat = enumerate_admissible_pairs(g)
        assert list(map(tuple, lat.pairs)) == oracles.sorted_admissible_pairs(g)
        with_s += any(p.s for p in lat.pairs)
        m = lat.size
        down = [mask_of(j for j in range(m) if lat.leq(j, i)) for i in range(m)]
        assert lat.down == tuple(down)
        for bound, sets in ((lat.meet, down), (lat.join, lat.up)):
            for i, j in itertools.product(range(m), repeat=2):
                assert bound(i, j) == oracles.bound(lat.pairs, i, j, sets)
        assert cli._covers(lat.up) == oracles.covers(m, lat.leq)
        sp = s_primes(lat)
        assert list(sp.points) == brute_force_primes(lat)
        assert (cli._covers([sp.closure(1 << k) for k in range(sp.npoints)])
                == oracles.covers(sp.npoints, sp.specializes))
    assert with_s > 30


def test_primes_of_the_largest_lattice_under_the_pair_cap():
    # 10 isolated sinks: all 1,024 vertex sets are pairs, exactly the cap,
    # and the primes are the 10 sets that miss one vertex
    sinks = graph_from_edges([f"v{i}" for i in range(10)], [])
    lat = enumerate_admissible_pairs(sinks)
    assert lat.size == 1024
    sp = s_primes(lat)
    assert sorted(sp.pair(k) for k in range(sp.npoints)) == sorted(
        AdmissiblePair(sinks.full_mask & ~(1 << v), 0) for v in range(10))
