import itertools
import random
from collections import Counter

import pytest

import oracles
from fkgraph import spectrum
from fkgraph.errors import CapExceeded
from fkgraph.graphs import INF, Graph, graph_from_edges
from fkgraph.ktheory import open_triples
from fkgraph.lattice import AdmissiblePair, IdealLattice, enumerate_admissible_pairs
from fkgraph.sixterm import _positions
from fkgraph.spectrum import (
    LocallyClosedSet,
    SpectrumSpace,
    _subset_samples,
    canonical_presentation,
    capped_spectrum,
    locally_closed_sets,
    presentation,
    s_primes,
    verify_kernel_identity,
    verify_kuratowski,
    verify_open_ideal_iso,
    verify_t0,
)

from oracles import names_mask, pair_index

CHAIN_GRAPHS = ["g1", "o2", "o3", "r4", "sink", "edge_ab", "cycle2", "complete2",
                "chain3", "g3", "g4", "inf_emitter", "blocks6"]


def spectrum_of(g):
    return s_primes(enumerate_admissible_pairs(g))


def point_index(sp, h, s=0):
    for k in range(sp.npoints):
        if sp.pair(k) == AdmissiblePair(h, s):
            return k
    raise AssertionError("no such point")


def brute_force_primes(lat):
    out = []
    for p in range(lat.size):
        if p == lat.top:
            continue
        if all(not lat.leq(lat.meet(i, j), p) or lat.leq(i, p) or lat.leq(j, p)
               for i in range(lat.size) for j in range(lat.size)):
            out.append(p)
    return out


def test_points_match_brute_force(corpus):
    for name, g in corpus.items():
        lat = enumerate_admissible_pairs(g)
        sp = s_primes(lat)
        assert list(sp.points) == brute_force_primes(lat), name


def test_chain_lattices_are_prime_everywhere_proper(corpus):
    # in a totally ordered lattice the meet is one of the arguments
    for name in CHAIN_GRAPHS:
        lat = enumerate_admissible_pairs(corpus[name])
        for i, j in itertools.combinations(range(lat.size), 2):
            assert lat.leq(i, j) or lat.leq(j, i), f"{name} is not a chain"
        sp = s_primes(lat)
        assert list(sp.points) == list(range(lat.size - 1)), name


def test_single_point_spectra(corpus):
    for name in ["g1", "o2", "o3", "r4", "sink", "edge_ab", "cycle2", "complete2",
                 "chain3"]:
        sp = spectrum_of(corpus[name])
        assert sp.npoints == 1
        assert sp.pair(0) == AdmissiblePair(0, 0), name
        assert sp.opens == (0, 1)


def test_g3_examples(corpus):
    g = corpus["g3"]
    sp = spectrum_of(g)
    v2 = names_mask(g, ["v2"])
    assert sp.npoints == 2
    p0 = point_index(sp, 0)
    p1 = point_index(sp, v2)
    assert sp.closure(1 << p0) == 0b11
    assert sp.closure(1 << p1) == 1 << p1
    assert sp.w_set(pair_index(sp.lattice, v2)) == 1 << p0
    assert sp.phi(1 << p0) == pair_index(sp.lattice, v2)
    assert sp.specializes(p0, p1) and not sp.specializes(p1, p0)


def test_trivial_phi_w_values(corpus):
    for name, g in corpus.items():
        sp = spectrum_of(g)
        assert sp.closure(0) == 0, name
        assert sp.w_set(sp.lattice.bottom) == 0, name
        assert sp.w_set(sp.lattice.top) == sp.full, name
        assert sp.phi(0) == sp.lattice.bottom, name
        assert sp.phi(sp.full) == sp.lattice.top, name


def test_fanout_bottom_fails_primality(corpus):
    g = corpus["fanout"]
    sp = spectrum_of(g)
    a, c = names_mask(g, ["a"]), names_mask(g, ["c"])
    assert {sp.pair(k) for k in range(sp.npoints)} == {
        AdmissiblePair(a, 0), AdmissiblePair(c, 0)}
    assert sp.lattice.bottom not in sp.points
    # two incomparable ideals meet to bottom, and the space is discrete
    assert len(sp.opens) == 4
    for k in range(2):
        assert sp.closure(1 << k) == 1 << k


def test_fanin_middle_not_prime(corpus):
    g = corpus["fanin"]
    sp = spectrum_of(g)
    b = names_mask(g, ["b"])
    ab = names_mask(g, ["a", "b"])
    bc = names_mask(g, ["b", "c"])
    assert {sp.pair(k) for k in range(sp.npoints)} == {
        AdmissiblePair(0, 0), AdmissiblePair(ab, 0), AdmissiblePair(bc, 0)}
    assert pair_index(sp.lattice, b) not in sp.points


def test_inf_emitter_chain_of_points(corpus):
    g = corpus["inf_emitter"]
    sp = spectrum_of(g)
    u, w = names_mask(g, ["u"]), names_mask(g, ["w"])
    assert [sp.pair(k) for k in range(sp.npoints)] == [
        AdmissiblePair(0, 0), AdmissiblePair(w, 0), AdmissiblePair(w, u)]
    for j, k in itertools.combinations(range(3), 2):
        assert sp.specializes(j, k) and not sp.specializes(k, j)


def test_phi_rejects_non_open(corpus):
    sp = spectrum_of(corpus["g3"])
    with pytest.raises(ValueError):
        sp.phi(0b10)


def test_verifier_suites_pass(corpus):
    for name, g in corpus.items():
        sp = spectrum_of(g)
        for rep in (verify_kuratowski(sp), verify_open_ideal_iso(sp),
                    verify_kernel_identity(sp)):
            assert rep.passed, (name, rep.failures)
            assert rep.checks > 0
        rep = verify_t0(sp)
        assert rep.passed, (name, rep.failures)  # vacuous on one point


def _fresh_ker(sp, tmask):
    lat, acc = sp.lattice, sp.lattice.top
    for k in range(sp.npoints):
        if tmask >> k & 1:
            acc = lat.meet(acc, sp.points[k])
    return acc


def test_tables_match_fresh_computation(corpus, free_antichain):
    for name, g in dict(corpus, free_antichain=free_antichain).items():
        sp = spectrum_of(g)
        lat = sp.lattice
        for _ in range(2):   # the second pass reads the tables
            for u in sp.opens:
                assert sp.phi(u) == _fresh_ker(sp, sp.full & ~u), (name, u)
            for i in range(lat.size):
                want = sum(1 << k for k, p in enumerate(sp.points) if not lat.leq(i, p))
                assert sp.w_set(i) == want, (name, i)
            for t in range(1 << sp.npoints):
                kt = _fresh_ker(sp, t)
                want = sum(1 << k for k, p in enumerate(sp.points) if lat.leq(kt, p))
                assert sp.closure(t) == want, (name, t)
            for u, v in itertools.product(sp.opens, repeat=2):
                if v & ~u:
                    continue
                hu = lat.pairs[_fresh_ker(sp, sp.full & ~u)].h
                hv = lat.pairs[_fresh_ker(sp, sp.full & ~v)].h
                assert presentation(sp, u, v) == LocallyClosedSet(
                    u & ~v, u, v, hu & ~hv, hv), (name, u, v)


def test_tables_compute_each_argument_once_per_space(free_antichain, monkeypatch):
    kers, builds, hulls = [], Counter(), Counter()
    real_ker, real_hull = SpectrumSpace.ker, SpectrumSpace.min_open_containing

    def ker(self, tmask):
        kers.append(tmask)
        return real_ker(self, tmask)

    def hull(self, tmask):
        hulls[id(self), tmask] += 1
        return real_hull(self, tmask)

    def lcs(*args):
        builds[args[1:3]] += 1
        return LocallyClosedSet(*args)

    monkeypatch.setattr(SpectrumSpace, "ker", ker)
    monkeypatch.setattr(SpectrumSpace, "min_open_containing", hull)
    monkeypatch.setattr(spectrum, "LocallyClosedSet", lcs)
    lat = enumerate_admissible_pairs(free_antichain)
    spaces = [s_primes(lat), s_primes(lat)]   # equal, but each has its own tables
    assert spaces[0] == spaces[1]
    for sp in spaces:
        kers.clear()
        for _ in range(3):
            for u in sp.opens:
                sp.phi(u)
        assert sorted(kers) == sorted(sp.full & ~u for u in sp.opens)
        kers.clear()
        for _ in range(3):
            for t in range(1 << sp.npoints):
                sp.closure(t)
        assert sorted(kers) == list(range(1 << sp.npoints))
        kers.clear()
        for i in range(lat.size):
            sp.w_set(i)
        for j, k in itertools.product(range(sp.npoints), repeat=2):
            sp.specializes(j, k)
        assert kers == []   # both read the points-above masks
        for _ in range(3):
            for u, v in itertools.product(sp.opens, repeat=2):
                if not v & ~u:
                    presentation(sp, u, v)
                    canonical_presentation(sp, u & ~v)
        assert kers == []   # presentations and hulls read phi's table
    # one build per (u, v) and space, shared by the canonical table; one hull
    # per pointset and space
    assert set(builds.values()) == {2} and set(hulls.values()) == {1}
    assert len(hulls) == 2 * len(locally_closed_sets(spaces[0]))


def test_point_masks_and_positions_match_the_scans_they_replaced(free_antichain, deep7):
    # sparse random graphs with INF edges, as in the lattice layer's test,
    # plus the 4-point antichain and the 7-point check-deep shape
    rng = random.Random(25)
    graphs = [Graph(tuple(f"v{i}" for i in range(n)),
                    tuple(tuple(rng.choice((0,) * 12 + (1, 1, 2, INF)) for _ in range(n))
                          for _ in range(n)))
              for n in (rng.randint(1, 6) for _ in range(300))]
    chains = 0
    for g in graphs + [free_antichain, deep7]:
        sp = spectrum_of(g)
        lat, points, full = sp.lattice, sp.points, sp.full
        w = [oracles.w_set(lat, points, i) for i in range(lat.size)]
        assert [sp.w_set(i) for i in range(lat.size)] == w
        assert sp.opens == tuple(sorted(set(w), key=lambda m: (m.bit_count(), m)))
        cl = [full & ~w[p] for p in points]
        assert [sp.closure(1 << k) for k in range(sp.npoints)] == cl
        for j, k in itertools.product(range(sp.npoints), repeat=2):
            assert sp.specializes(j, k) == bool(cl[j] >> k & 1)
        for y in {u & ~v for u, v in itertools.product(sp.opens, repeat=2) if not v & ~u}:
            assert sp.min_open_containing(y) == oracles.hull(sp.opens, full, y)
        if not g.row_finite:
            continue
        index = {}   # (d, h_v) -> the carrier's row and column dicts
        for u1, u2, u3 in open_triples(sp):
            chains += 1
            ys = [presentation(sp, u2, u1), presentation(sp, u3, u1), presentation(sp, u3, u2)]
            ys += [canonical_presentation(sp, y.pointset) for y in ys]
            for y in ys:
                if (y.d, y.h_v) not in index:
                    index[y.d, y.h_v] = oracles.carrier_indices(g, y.d, y.h_v)
                    assert sum(1 << v for v in index[y.d, y.h_v][1]) == y.d & g.regular
            # each part in mid, and each part's canonical carrier in its own
            for outer, inner in ((1, 0), (1, 2), (0, 3), (1, 4), (2, 5)):
                (o_rows, o_cols), (i_rows, i_cols) = (
                    index[ys[x].d, ys[x].h_v] for x in (outer, inner))
                o, i = ys[outer].d, ys[inner].d
                assert _positions(o, i) == oracles.positions(o_rows, i_rows)
                assert (_positions(o & g.regular, i & g.regular)
                        == oracles.positions(o_cols, i_cols))
    assert chains > 1000


def test_point_cap_refuses_before_any_open_set(monkeypatch):
    def no_opens(self):
        raise AssertionError("an open set was built before the point cap")

    monkeypatch.setattr(SpectrumSpace, "opens", property(no_opens))
    sinks = graph_from_edges([f"v{i}" for i in range(10)], [])
    with pytest.raises(CapExceeded, match="10 spectrum points exceed cap 7"):
        capped_spectrum(sinks, 7, 16)


def test_kuratowski_tests_kernels_against_unions(free_antichain):
    # corrupt the meet of two points: their kernel closure loses one of them,
    # which the suite must see; a closure assembled from point closures
    # would satisfy union splitting by construction and hide it
    sp = spectrum_of(free_antichain)
    assert verify_kuratowski(sp).passed
    p, q = sp.points[0], sp.points[1]

    class BadMeet(IdealLattice):
        def meet(self, *indices):
            return p if sorted(indices) == sorted((p, q)) else super().meet(*indices)

    bad = SpectrumSpace(BadMeet(*sp.lattice), sp.points)
    rep = verify_kuratowski(bad)
    assert not rep.passed
    assert "closure(0b1 | 0b10) != union of closures" in rep.failures


def test_subset_samples_exhaustive_through_seven_points():
    assert _subset_samples(7) == list(range(128))
    picks = _subset_samples(8)
    assert len(set(picks)) == len(picks) == 200
    assert 0 in picks and 255 in picks and picks == _subset_samples(8)


def test_locally_closed_g3(corpus):
    sp = spectrum_of(corpus["g3"])
    lcs = locally_closed_sets(sp)
    assert [lc.pointset for lc in lcs] == [0b00, 0b01, 0b10, 0b11]


def test_locally_closed_g4_carriers(corpus):
    g = corpus["g4"]
    sp = spectrum_of(g)
    v1, v2 = names_mask(g, ["v1"]), names_mask(g, ["v2"])
    by_pointset = {lc.pointset: lc for lc in locally_closed_sets(sp)}
    p0 = point_index(sp, 0)
    p1 = point_index(sp, v2)
    assert by_pointset[1 << p0].d == v2
    assert by_pointset[1 << p1].d == v1
    assert by_pointset[sp.full].d == g.full_mask
    assert by_pointset[0].d == 0
    assert by_pointset[sp.full].v == 0


def test_locally_closed_canonical_form(corpus):
    for name, g in corpus.items():
        sp = spectrum_of(g)
        lcs = locally_closed_sets(sp)
        seen = set()
        for lc in lcs:
            assert lc.pointset not in seen, name
            seen.add(lc.pointset)
            assert sp.is_open(lc.u) and sp.is_open(lc.v)
            assert lc.u & ~sp.min_open_containing(lc.pointset) == 0
            assert lc.v == lc.u & ~lc.pointset
            hu = sp.lattice.pairs[sp.phi(lc.u)].h
            hv = sp.lattice.pairs[sp.phi(lc.v)].h
            assert (lc.h_v, lc.d) == (hv, hu & ~hv)
        # singletons and the full space always appear
        for k in range(sp.npoints):
            assert (1 << k) in seen, name
        assert sp.full in seen and 0 in seen


def test_locally_closed_covers_all_open_differences(corpus):
    for name, g in corpus.items():
        sp = spectrum_of(g)
        got = {lc.pointset for lc in locally_closed_sets(sp)}
        want = {u & ~v for u, v in itertools.product(sp.opens, repeat=2) if not v & ~u}
        assert got == want, name
