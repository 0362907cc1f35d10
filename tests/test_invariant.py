import itertools
import json
import random
from collections import Counter

import pytest

import fkgraph
from fkgraph import cli, invariant, ktheory, search, sixterm
from fkgraph.errors import CapExceeded
from fkgraph.graphs import graph_from_edges
from fkgraph.invariant import (
    COMPATIBLE,
    DEFAULT_BUDGET,
    DISTINGUISHED,
    UNKNOWN,
    assemble,
    compare,
    poset_isomorphisms,
    verify_compatible_witness,
)
from fkgraph.ktheory import open_triples, pair_pointsets, sequence_key
from fkgraph.sixterm import exactness_failures
from fkgraph.spectrum import canonical_presentation, locally_closed_sets
from oracles import cycle_groups, relabel_reorder


@pytest.fixture(scope="module")
def fks(corpus):
    return {name: assemble(g) for name, g in corpus.items()}


def test_assemble_shape(fks):
    for name, fk in fks.items():
        lcs = [lc.pointset for lc in locally_closed_sets(fk.space)]
        assert list(fk.kmap) == lcs or not fk.k_complete
        if fk.k_complete:
            assert set(fk.sequences) == {sequence_key(*c) for c in open_triples(fk.space)}
        else:
            assert fk.kmap == {} and fk.sequences == {}


def test_search_names_are_one_object_wherever_read():
    # fkgraph and invariant resolve compare's names from `search` on first
    # use; the star import binds every exported name, and an unknown name
    # still fails as on any module
    for name in invariant.SEARCH_NAMES:
        assert getattr(fkgraph, name) is getattr(invariant, name) is getattr(search, name)
    scope = {}
    exec("from fkgraph import *", scope)
    assert set(fkgraph.__all__) <= set(scope)
    for module in (fkgraph, invariant):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def _count_builds(monkeypatch) -> Counter:
    """Count each `six_term` build by its space's id and (sub, mid) pair."""
    calls = Counter()
    build = sixterm.six_term

    def counting(g, sp, u1, u2, u3):
        calls[id(sp), sequence_key(u1, u2, u3)] += 1
        return build(g, sp, u1, u2, u3)
    monkeypatch.setattr(sixterm, "six_term", counting)
    return calls


def test_assemble_builds_one_sequence_per_pair(row_finite_corpus, free_antichain,
                                               monkeypatch):
    calls = _count_builds(monkeypatch)
    for name, g in dict(row_finite_corpus, free_antichain=free_antichain).items():
        calls.clear()
        fk = assemble(g)
        chains = list(open_triples(fk.space))
        keys = list(dict.fromkeys(sequence_key(*c) for c in chains))
        assert list(fk.sequences) == keys and len(fk.sequences) == len(keys), name
        # iterating and membership build nothing; reading every value builds
        # each pair once, in `pair_chains` order, and reading again builds none
        assert not calls and all(key in fk.sequences for key in keys), name
        first = dict(fk.sequences.items())
        assert all(fk.sequences[key] is st for key, st in first.items()), name
        assert [key for _, key in calls] == keys and set(calls.values()) == {1}, name
    assert (len(calls), len(chains)) == (81, 256)


def test_compare_builds_sequences_only_when_needed(corpus, graph_dir, capsys, monkeypatch):
    # the K layers are built when first read: a verdict the spectra or the
    # pointwise K-groups decide builds no six-term sequence, and a
    # self-compare builds one per (sub, mid) pair
    calls = _count_builds(monkeypatch)
    for a, b, kind in (("mixed5", "g1", "no_homeomorphism"), ("g1", "o2", "pointwise"),
                       ("g4", "g4", "family")):
        calls.clear()
        argv = ["compare", str(graph_dir / f"{a}.graph"), str(graph_dir / f"{b}.graph"),
                "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["kind"] == kind
        if a != b:
            assert not calls, (a, b)
    sp = assemble(corpus["g4"]).space
    assert Counter(key for _, key in calls.elements()) == dict.fromkeys(
        {sequence_key(*c) for c in open_triples(sp)}, 1)


def test_a_pair_is_built_on_its_first_read_only(corpus, monkeypatch):
    calls = _count_builds(monkeypatch)
    fk = assemble(corpus["mixed5"])
    key = list(fk.sequences)[-1]
    assert key in fk.sequences and not calls
    st = fk.sequences[key]
    assert fk.sequences[key] is st and calls == {(id(fk.space), key): 1}


def test_component_refutation_builds_only_the_pairs_it_reads(monkeypatch):
    # the (Z/2)^k swap is refuted on its components (one point each), so each
    # side builds the pairs inside a point, (0, 0) among them, and the unit's
    # pair (full \ p, full) per point: 10 of 27 pairs at k = 3 (the shape of
    # the benchmark's swap-3-z2 op), 22 of 2,187 at k = 7
    calls = _count_builds(monkeypatch)
    for k, built in ((3, 10), (7, 22)):
        calls.clear()
        a, b = _swap(k, 2)
        assert compare(a, b).outcome == DISTINGUISHED
        for fk in (a, b):
            full, points = fk.space.full, [1 << p for p in range(k)]
            want = {(0, 0), *((0, p) for p in points), *((p, p) for p in points),
                    *((full & ~p, full) for p in points)}
            got = {key: n for (sp, key), n in calls.items() if sp == id(fk.space)}
            assert got == dict.fromkeys(want, 1) and len(want) == built, k
            assert len(fk.sequences) == 3 ** k


def test_only_a_unital_compare_reads_the_unit(fks, monkeypatch):
    # the unit's image, and so its pair (full \ X, full), is read only under
    # the unit condition
    read, real = [], search._unit
    monkeypatch.setattr(search, "_unit", lambda fk, x: read.append(x) or real(fk, x))
    cases = [(fk, fk) for fk in fks.values() if fk.k_complete] + [_swap(3, 2)]
    for a, b in cases:
        compare(a, b, unital=False)
    assert not read
    for a, b in cases:
        compare(a, b)
    assert read


def test_compatible_compare_and_replay_build_every_pair_once(row_finite_corpus, monkeypatch):
    # a COMPATIBLE compare reads every pair of both sides, and its replay
    # reads them again from what the compare built
    calls = _count_builds(monkeypatch)
    cases = [(assemble(g), assemble(g)) for g in row_finite_corpus.values()]
    cases += [_swap(3, 3), (_sinks([0, 0, 1]), _sinks([1, 0, 0]))]
    for a, b in cases:
        calls.clear()
        v = compare(a, b)
        assert v.outcome == COMPATIBLE and verify_compatible_witness(a, b, v.witness).passed
        want = {(id(fk.space), key): 1 for fk in (a, b) for key in fk.sequences}
        assert calls == want


def _forced(g):
    fk = assemble(g)
    dict(fk.sequences.items())
    return fk


def test_built_on_demand_compares_as_fully_built(corpus):
    # compare on fresh invariants, which build the pairs as the search reads
    # them, against compare after every pair is built: the same verdict and
    # witness on the corpus pairwise and on census 1's first 120 graphs
    census = list(itertools.islice(_census(3, 300, vertices=4), 120))
    graphs = [*corpus.values(), *(fk.space.graph for fk in census)]
    n = len(corpus)
    cases = list(itertools.product(range(n), repeat=2))
    cases += [(n + i, n + j) for i, a in enumerate(census) for j in range(i, len(census))
              if a.space.npoints == census[j].space.npoints]
    assert len(cases) == 256 + 3904
    forced = [_forced(g) for g in graphs]
    for i, j in cases:
        for unital in (True, False):
            fresh = compare(assemble(graphs[i]), assemble(graphs[j]), unital=unital)
            full = compare(forced[i], forced[j], unital=unital)
            assert json.dumps(fresh) == json.dumps(full), (i, j, unital)


def test_sequences_run_between_kmap_groups(row_finite_corpus, free_antichain, deep7):
    # a sequence holds only its maps, and compare and replay read its groups
    # from kmap: kmap must be the canonical K-data, and each sequence must fit
    # and be exact over kmap's groups in cycle order
    graphs = dict(row_finite_corpus, free_antichain=free_antichain, deep7=deep7)
    for name, g in graphs.items():
        fk = assemble(g)
        for y, kd in fk.kmap.items():
            cy = canonical_presentation(fk.space, y)
            assert kd == ktheory._carrier.__wrapped__(g, cy.d), (name, y)
        for key, st in fk.sequences.items():
            groups = cycle_groups(*(fk.kmap[y] for y in pair_pointsets(key)))
            for k, m in enumerate(st):
                tgt, src = groups[(k + 1) % 6], groups[k]
                assert (m.rows, m.cols) == (tgt.ncoords, src.ncoords), (name, key, k)
            assert exactness_failures(st, groups) == [], (name, key)


def test_assemble_caps(corpus):
    with pytest.raises(CapExceeded):
        assemble(corpus["mixed5"], point_cap=3)
    with pytest.raises(ValueError):
        assemble(corpus["g1"], point_cap=0)


def test_poset_isomorphism_counts(fks):
    one = lambda n: fks[n].space
    assert len(list(poset_isomorphisms(one("g1"), one("o2")))) == 1
    # 2-chain vs 2-chain: single order isomorphism; vs 2-antichain: none
    assert len(list(poset_isomorphisms(one("g3"), one("g4")))) == 1
    assert len(list(poset_isomorphisms(one("g3"), one("fanout")))) == 0
    assert len(list(poset_isomorphisms(one("fanout"), one("fanout")))) == 2
    assert len(list(poset_isomorphisms(one("g1"), one("g3")))) == 0


def test_homeomorphisms_carry_slots_onto_slots(fks, row_finite_corpus):
    # a homeomorphism of finite T0 spaces maps locally closed sets onto
    # locally closed sets, so the pointwise check may index b.kmap directly
    maps = 0
    for name_a, name_b in itertools.product(row_finite_corpus, repeat=2):
        a, b = fks[name_a], fks[name_b]
        for sigma in poset_isomorphisms(a.space, b.space):
            image = search._images(sigma)
            assert {image[y] for y in a.kmap} == set(b.kmap)
            assert image[a.space.full] == b.space.full and image[0] == 0
            maps += 1
    assert maps > len(row_finite_corpus)


def test_distinguished_fixtures(fks):
    v = compare(fks["g1"], fks["o2"])
    assert v.outcome == DISTINGUISHED
    assert v.witness["kind"] == "pointwise"
    assert v.witness["a_factors"] != v.witness["b_factors"]
    # torsion mismatch settles before any search
    v = compare(fks["o3"], fks["r4"])
    assert v.outcome == DISTINGUISHED and v.witness["kind"] == "pointwise"
    # point-count mismatch
    v = compare(fks["g1"], fks["g3"])
    assert v.outcome == DISTINGUISHED and v.witness["kind"] == "no_homeomorphism"


def test_compatible_fixture_with_replay(fks):
    v = compare(fks["o2"], fks["complete2"])
    assert v.outcome == COMPATIBLE
    rep = verify_compatible_witness(fks["o2"], fks["complete2"], v.witness)
    assert rep.passed, rep.failures
    json.dumps(v.witness)  # witness must serialize as-is


def test_self_compare_corpus(fks):
    for name, fk in fks.items():
        v = compare(fk, fk)
        assert v.outcome == (COMPATIBLE if fk.k_complete else UNKNOWN), name
        assert v.witness["homeomorphism"] == list(range(fk.space.npoints))
        if fk.k_complete:
            rep = verify_compatible_witness(fk, fk, v.witness)
            assert rep.passed, (name, rep.failures)


def test_outcome_symmetry(fks):
    # every pair of the corpus and of 120 seeded graphs on 2 to 5 vertices,
    # some of them with disconnected spectra, in both unit modes
    rng = random.Random(7)
    seeded = []
    for _ in range(120):
        vs = [f"v{k}" for k in range(rng.randint(2, 5))]
        seeded.append(assemble(graph_from_edges(vs, [
            (v, w, m) for v in vs for w in vs for m in [rng.choice((0, 0, 0, 1, 1, 2, 3))] if m])))
    assert sum(len(search._components(fk.space)) > 1 for fk in seeded) > 10
    for group in ([fks[name] for name in sorted(fks)], seeded):
        for i, x in enumerate(group):
            for y in group[i + 1:]:
                for unital in (True, False):
                    assert (compare(x, y, unital).outcome
                            == compare(y, x, unital).outcome), (x.space.graph, y.space.graph)


def test_unit_class_separates(fks):
    # same groups, same cone, units 1 vs 2: only the unit check splits them
    v = compare(fks["g1"], fks["cycle2"])
    assert v.outcome == DISTINGUISHED and v.witness["kind"] == "no_family"
    v = compare(fks["g1"], fks["cycle2"], unital=False)
    assert v.outcome == COMPATIBLE
    rep = verify_compatible_witness(fks["g1"], fks["cycle2"], v.witness)
    assert rep.passed, rep.failures


def test_feeder_vertex_changes_unit(fks):
    fed = assemble(graph_from_edges(["v", "s"], [("v", "v", 1), ("s", "v", 1)]))
    assert fed.kmap[fed.space.full].factor_summary() == ((0,), (0,))
    assert fed.kmap[fed.space.full].unit_class == (2,)
    v = compare(fks["g1"], fed)
    assert v.outcome == DISTINGUISHED and v.witness["kind"] == "no_family"
    assert compare(fks["g1"], fed, unital=False).outcome == COMPATIBLE


def _rank_one(u: list[int]):
    """One point: each vertex v has a loop and u[w] edges to every w, so the
    presenting matrix has rank one; for primitive u, K0 = K1 = Z^(n-1), the
    cone is all of K0 and the unit class is (1, ..., 1) modulo u."""
    vs = [f"v{i}" for i in range(len(u))]
    return assemble(graph_from_edges(vs, [(v, w, m + (v == w))
                                          for v in vs for w, m in zip(vs, u)]))


def test_rank_two_slots_exhaust_to_unknown(fks):
    # one point with K0 = Z^2 and units 0 and (0, 1): no isomorphism meets
    # the units, but free rank 2 makes the iso enumeration incomplete and a
    # connected spectrum has no component to decide on, so no DISTINGUISHED
    a, b = _rank_one([1, 1, 1]), _rank_one([1, 1, 2])
    assert a.space.npoints == 1 and a.kmap[1].factor_summary() == ((0, 0), (0, 0))
    assert (a.kmap[1].unit_class, b.kmap[1].unit_class) == ((0, 0), (0, 1))
    v = compare(a, b)
    assert v.outcome == UNKNOWN
    assert v.witness == {"kind": "budget_exhausted", "budget": 2,
                         "inconclusive_cone": False}
    v = compare(a, b, unital=False)
    assert v.outcome == COMPATIBLE
    assert verify_compatible_witness(a, b, v.witness).passed
    # fanout against two loops, rank 2 at the top as well: both spectra are
    # two points with K0 = Z and cone N, whose order isomorphisms are
    # permutations, and in fanout [b] = [a] + [c], so the unit's images on
    # the points are (2, 2) against (1, 1): no permutation matches them, and
    # the complete searches on the components prove it
    loops = assemble(graph_from_edges(
        ["a", "c"], [("a", "a", 1), ("c", "c", 1)]))
    assert compare(fks["fanout"], loops).witness == {"kind": "no_family", "budget": 2}
    assert compare(loops, fks["fanout"]).witness == {"kind": "no_family", "budget": 2}
    v = compare(fks["fanout"], loops, unital=False)
    assert v.outcome == COMPATIBLE
    rep = verify_compatible_witness(fks["fanout"], loops, v.witness)
    assert rep.passed, rep.failures
    # a pointwise mismatch under every homeomorphism needs no search, so
    # the incomplete enumeration does not stand in the way of its proof
    mixed = assemble(graph_from_edges(["a", "c"], [("a", "a", 1), ("c", "c", 2)]))
    v = compare(fks["fanout"], mixed)
    assert v.outcome == DISTINGUISHED and v.witness["kind"] == "pointwise"


def _cone_pair(rank_two: bool = False):
    """x with a loop and edges to the sinks s and t, against the block y, z
    with multiplicities [[2, 1], [1, 2]] and edges from y to s and t: every
    slot's factors match, but {x} has cone N in a against cone Z in b.  With
    `rank_two`, both sides also hold `_rank_one([1, 1, 1])`'s one-point
    K0 = Z^2 block, on vertices r0, r1, r2."""
    rs = [f"r{i}" for i in range(3)] if rank_two else []
    block = [(v, w, 1 + (v == w)) for v in rs for w in rs]
    a = graph_from_edges(["x", "s", "t", *rs],
                         [("x", "x", 1), ("x", "s", 1), ("x", "t", 1), *block])
    b = graph_from_edges(["y", "z", "s", "t", *rs], [
        ("y", "y", 2), ("y", "z", 1), ("z", "y", 1), ("z", "z", 2),
        ("y", "s", 1), ("y", "t", 1), *block])
    return assemble(a), assemble(b)


@pytest.mark.parametrize("unital", [True, False])
@pytest.mark.parametrize("rank_two", [False, True])
def test_cone_pairs_are_distinguished(unital, rank_two):
    # no family exists, and each failed search that proves it opened only
    # streams of free rank <= 1; beside the rank-2 block, the component
    # {x} refutes every homeomorphism before any whole-space search, whose
    # rank-2 stream would run long at the default budget and prove nothing
    a, b = _cone_pair(rank_two)
    for x, y in ((a, b), (b, a)):
        assert compare(x, y, unital=unital) == (
            DISTINGUISHED, {"kind": "no_family", "budget": DEFAULT_BUDGET})


def test_failed_run_is_a_proof_unless_it_opens_a_rank_two_stream(monkeypatch):
    # the connected pair's runs fail at the singleton {x} before they reach
    # a slot of free rank 2, so each failure is a proof
    runs, real_run = [], search._Search.run

    def run(self, sigma, within=None):
        family = real_run(self, sigma, within)
        runs.append((within, family is None, self.proof))
        return family
    monkeypatch.setattr(search._Search, "run", run)
    a, b = _cone_pair()
    assert search._components(a.space) == [a.space.full]
    assert max(k.k0.rank for k in a.kmap.values()) == 2
    assert compare(a, b).outcome == DISTINGUISHED
    assert runs and all(w is None and failed and proof for w, failed, proof in runs), runs
    # beside the rank-2 block, the run on the crafted component fails as a
    # proof before any whole-space run, so that component refutes every
    # homeomorphism
    runs.clear()
    a, b = _cone_pair(rank_two=True)
    assert len(search._components(a.space)) == 2
    assert compare(a, b).outcome == DISTINGUISHED
    assert all(w is not None for w, _, _ in runs), runs
    assert any(failed and proof for _, failed, proof in runs), runs
    # on one point, a connected spectrum, with K0 = Z^2 and units that no
    # isomorphism matches, each whole-space run opens a rank-2 stream, so
    # it fails and proves nothing
    runs.clear()
    a, b = _rank_one([1, 1, 1]), _rank_one([1, 1, 2])
    assert compare(a, b).outcome == UNKNOWN
    assert runs and all(w is None and failed and not proof for w, failed, proof in runs), runs


def _sinks(feeders: list[int], hub: bool = False):
    """One sink per entry, fed by that many extra vertices: K0 = Z^n with
    cone N^n, unit class (1 + feeders[0], ...), on an antichain of n points.
    With `hub`, a vertex c with two loops and an edge into every sink adds a
    point that every sink's point is comparable with, so the spectrum is
    connected."""
    verts, edges = (["c"], [("c", "c", 2)]) if hub else ([], [])
    for i, n in enumerate(feeders):
        verts += [f"s{i}", *(f"t{i}_{j}" for j in range(n))]
        edges += [(f"t{i}_{j}", f"s{i}", 1) for j in range(n)] + [("c", f"s{i}", 1)] * hub
    return assemble(graph_from_edges(verts, edges))


def _counting(monkeypatch):
    """Count the candidates every slot stream yields and the K0 candidates
    `_admissible` rejects."""
    seen = Counter()
    real_isos, real_admissible = search.group_isos, search._Search._admissible

    def isos(*args):
        for m in real_isos(*args):
            seen["yielded"] += 1
            yield m

    def admissible(self, *args):
        ok = real_admissible(self, *args)
        seen["accepted" if ok else "rejected"] += 1
        return ok
    monkeypatch.setattr(search, "group_isos", isos)
    monkeypatch.setattr(search._Search, "_admissible", admissible)
    return seen


def test_node_cap_counts_rejected_candidates(monkeypatch):
    # three sinks under a hub, one of them fed on b's side: no family
    # matches the units, so every homeomorphism's search backtracks through
    # the sink slots, whose second candidate -1 leaves the cone: the streams
    # yield many candidates that `_admissible` rejects, and each of them
    # counts against the node cap; the spectrum is connected, so every
    # candidate comes from a whole-space search
    a, b = _sinks([0, 0, 0], hub=True), _sinks([0, 0, 1], hub=True)
    assert search._components(a.space) == [a.space.full]
    seen = _counting(monkeypatch)
    budget_exhausted = {"kind": "budget_exhausted", "budget": 2, "inconclusive_cone": False}
    assert compare(a, b).witness == budget_exhausted   # free rank 3: incomplete
    assert seen["rejected"] >= 18 and seen["yielded"] > 40
    seen.clear()
    monkeypatch.setattr(search, "_NODE_CAP", 40)
    v = compare(a, b)
    assert v.outcome == UNKNOWN and v.witness == budget_exhausted
    assert seen["yielded"] == 41 and seen["rejected"] > 0


def test_node_cap_reaches_component_searches(monkeypatch):
    # the n = 4 sink pair: with the cap set where the first component search
    # that yields a candidate starts, that search trips it, and the compare
    # ends as the usual budget_exhausted UNKNOWN
    a, b = _sinks([0] * 4), _sinks([1, 0, 0, 0])
    runs, real_run = [], search._Search.run

    def run(self, sigma, within=None):
        before = self.nodes
        try:
            return real_run(self, sigma, within)
        finally:
            runs.append((within, before, self.nodes))
    monkeypatch.setattr(search._Search, "run", run)
    assert compare(a, b).witness == {"kind": "no_family", "budget": 2}
    start = next(before for within, before, after in runs
                 if within is not None and after > before)
    runs.clear()
    monkeypatch.setattr(search, "_NODE_CAP", start)
    v = compare(a, b)
    assert v == (UNKNOWN, {"kind": "budget_exhausted", "budget": 2, "inconclusive_cone": False})
    assert runs[-1][0] is not None and runs[-1][2] == start + 1, runs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sink_pairs_match_the_permutation_oracle(n):
    # every slot of a sink pair is Z^S with cone N^S, whose order
    # isomorphisms are permutations, so a family over sigma permutes the
    # sinks as sigma does: the pair is DISTINGUISHED iff the unit's entries
    # 1 + f_i differ as multisets, and COMPATIBLE (with a replaying family)
    # otherwise
    rng = random.Random(n)
    fed = [rng.randrange(3) for _ in range(n)]
    cases = [([0] * n, [1] + [0] * (n - 1)), (fed, rng.sample(fed, n)),
             (fed, [rng.randrange(3) for _ in range(n)])]
    for f, g in cases:
        a, b = _sinks(f), _sinks(g)
        v = compare(a, b)
        apart = sorted(1 + x for x in f) != sorted(1 + x for x in g)
        assert v.outcome == (DISTINGUISHED if apart else COMPATIBLE), (f, g)
        assert apart or verify_compatible_witness(a, b, v.witness).passed


def _census(seed: int, count: int, vertices: int = 5):
    """`count` seeded random graphs on 1 to `vertices` vertices, multiplicities 0 to 3."""
    rng = random.Random(seed)
    for _ in range(count):
        vs = [f"v{k}" for k in range(rng.randint(1, vertices))]
        yield assemble(graph_from_edges(vs, [(v, w, m) for v in vs for w in vs
                                             for m in [rng.choice((0, 0, 0, 1, 1, 2, 3))] if m]))


def test_component_searches_only_decide_what_was_unknown(monkeypatch):
    # the census pairs of equal point count whose spectra have two or more
    # components, against a reference whose component finder returns the
    # whole space, so no component search runs: no verdict the reference
    # decides moves, every family is the reference's and replays, and some
    # UNKNOWN becomes decided
    fks = [fk for fk in _census(7, 220) if len(search._components(fk.space)) > 1]
    cases = [(a, b, unital) for i, a in enumerate(fks) for b in fks[i:]
             if a.space.npoints == b.space.npoints for unital in (True, False)]
    got = [compare(*case) for case in cases]
    monkeypatch.setattr(search, "_components", lambda space: [space.full])
    ref = [compare(*case) for case in cases]
    for (a, b, _), v, r in zip(cases, got, ref):
        if r.outcome == UNKNOWN:
            assert v.outcome in (UNKNOWN, DISTINGUISHED)
        else:
            assert v == r
        if v.outcome == COMPATIBLE:
            assert json.dumps(v.witness) == json.dumps(r.witness)
            assert verify_compatible_witness(a, b, v.witness).passed
    assert sum(r.outcome == UNKNOWN != v.outcome for v, r in zip(got, ref)) > 0


def test_swap_search_solves_instead_of_enumerating(monkeypatch):
    # (Z/3)^3 against the same with one block of unit 2: the inclusions of
    # the points fix every larger slot, so few candidates ever get vetted
    a = assemble(graph_from_edges(["x", "y", "z"], [(v, v, 4) for v in "xyz"]))
    b = assemble(graph_from_edges(["u", "w", "y", "z"], [
        ("u", "u", 1), ("u", "w", 3), ("w", "u", 1), ("w", "w", 3),
        ("y", "y", 4), ("z", "z", 4)]))
    seen = _counting(monkeypatch)
    v = compare(a, b)
    assert v.outcome == COMPATIBLE
    assert verify_compatible_witness(a, b, v.witness).passed
    assert seen["accepted"] + seen["rejected"] <= 100


def _linked_blocks(src: str):
    """Two free blocks a and b (K0 = K1 = Z each) and one edge src -> b1."""
    names = ["a0", "a1", "b0", "b1"]
    edges = [(f"{x}{i}", f"{x}{j}", 2 if i == j else 1)
             for x in "ab" for i in (0, 1) for j in (0, 1)]
    return assemble(graph_from_edges(names, edges + [(src, "b1", 1)]))


def test_search_checks_backward_squares(monkeypatch):
    # a candidate the streams offer breaks a square out of a later slot into
    # an earlier one, which no constraint covers: only `_commutes` rejects
    # it, and a witness built without that check fails replay
    a, b = _linked_blocks("a1"), _linked_blocks("a0")
    verdicts = []
    real = search._Search._commutes

    def spy(self, k):
        verdicts.append(real(self, k))
        return verdicts[-1]
    monkeypatch.setattr(search._Search, "_commutes", spy)
    for unital in (True, False):
        verdicts.clear()
        v = compare(a, b, unital=unital)
        assert v.outcome == COMPATIBLE, unital
        assert verify_compatible_witness(a, b, v.witness).passed, unital
        assert False in verdicts, unital


def test_search_files_each_square_once(fks, monkeypatch):
    # one search per compare, built at the first homeomorphism that passes
    # the pointwise check: it walks and files a's squares once per pointset
    # it runs on, a component with those of the pairs whose mid lies inside
    # it and the whole space with six squares per pair, and every later run
    # only re-binds b's side
    pairs = [(fk, fk) for fk in fks.values() if fk.k_complete]
    pairs += [(_linked_blocks("a1"), _linked_blocks("a0")),
              (_sinks([0, 0, 0]), _sinks([0, 0, 1])),
              (_sinks([0, 0, 0], hub=True), _sinks([0, 0, 1], hub=True))]
    builds, walks, filed, runs = [], [], [], []
    real_init, real_file, real_run, real_squares = (
        search._Search.__init__, search._Search._file, search._Search.run,
        search._squares)

    def init(self, a, *args):
        builds.append(a)
        real_init(self, a, *args)

    def file(self, within):
        order, into, out_of = real_file(self, within)
        count = sum(len(sq) for lists in into for sq in lists) + sum(map(len, out_of))
        inside = sum(not mid & ~within for _, mid in self.a.sequences)
        filed.append((within, count, 6 * inside))
        return order, into, out_of

    def run(self, sigma, within=None):
        runs.append((sigma, within))
        return real_run(self, sigma, within)

    def squares(a, within):
        walks.append((a, within))
        return real_squares(a, within)
    monkeypatch.setattr(search._Search, "__init__", init)
    monkeypatch.setattr(search._Search, "_file", file)
    monkeypatch.setattr(search._Search, "run", run)
    monkeypatch.setattr(search, "_squares", squares)
    every = {}
    for a, b in pairs:
        for unital in (False, True):
            builds.clear(), walks.clear(), filed.clear(), runs.clear()
            compare(a, b, unital=unital)
            assert builds == [a] and walks == [(a, w) for w, _, _ in filed], unital
            assert all(count == want for _, count, want in filed), filed
            assert len({w for w, _, _ in filed}) == len(filed), filed
            assert ({w for w, _, _ in filed}
                    == {a.space.full if w is None else w for _, w in runs}), (filed, runs)
        every[a] = list(runs)
    # the unital sinks refute each of the six homeomorphisms of the 3-point
    # antichain on a component, so no whole-space search runs, and some of
    # them by a run made for an earlier one that agrees there; under the
    # hub the spectrum is connected, so all six are searched whole
    sinks, hub = pairs[-2][0], pairs[-1][0]
    assert every[sinks] and all(within is not None for _, within in every[sinks])
    assert len({sigma for sigma, _ in every[sinks]}) < 6
    homeos = list(poset_isomorphisms(hub.space, hub.space))
    assert every[hub] == [(sigma, None) for sigma in homeos] and len(homeos) == 6


def _swap(k: int, d: int, hub: bool = False):
    """k one-vertex Z/d blocks v0, v1, ... of unit 1 against the same with v0
    swapped for the two-vertex Z/d block x, y of unit 2.  With `hub`, each
    block (x, in the two-vertex one) has an edge into a one-vertex Z/d block
    z, so the spectrum is a connected star."""
    loops = [(f"v{i}", f"v{i}", d + 1) for i in range(1, k)]
    loops += [("z", "z", d + 1), *((f"v{i}", "z", 1) for i in range(1, k))] if hub else []
    a = graph_from_edges([f"v{i}" for i in range(k)] + ["z"] * hub,
                         [("v0", "v0", d + 1), *loops] + [("v0", "z", 1)] * hub)
    b = graph_from_edges(["x", "y", *(f"v{i}" for i in range(1, k))] + ["z"] * hub,
                         [("x", "x", 1), ("x", "y", d), ("y", "x", 1), ("y", "y", d), *loops]
                         + [("x", "z", 1)] * hub)
    return assemble(a), assemble(b)


def _undecided(monkeypatch, fk):
    """Leave one cone membership undecided, [v1] in the K0 cone of fk's block
    v1, keyed by the values the search memoises it by (so every block with
    the same K-data shares it), and count every membership `compare` decides."""
    decided = Counter()
    real = search.cone_contains
    kd = next(k for k in fk.kmap.values() if k.vertices == ("v1",))
    undecided = kd.k0, kd.cone_generators, (1,)

    def cone_contains(kd, x):
        key = kd.k0, kd.cone_generators, x
        decided[key] += 1
        return (False, False) if key == undecided else real(kd, x)
    monkeypatch.setattr(search, "cone_contains", cone_contains)
    return decided


def test_inconclusive_cone_makes_the_verdict_unknown(monkeypatch):
    # under both homeomorphisms of the 2-block Z/2 star swap a complete
    # search fails, so the verdict is a proof; one undecided membership, met
    # under both, leaves it UNKNOWN instead, since the star is connected and
    # only whole-space searches can refute
    a, b = _swap(2, 2, hub=True)
    assert compare(a, b).witness == {"kind": "no_family", "budget": 2}
    _undecided(monkeypatch, a)
    v = compare(a, b)
    assert v.outcome == UNKNOWN
    assert v.witness == {"kind": "budget_exhausted", "budget": 2, "inconclusive_cone": True}
    # without the hub, the block whose unit images differ (1 against 2 = 0)
    # refutes each homeomorphism on its own component, meeting no membership
    assert compare(*_swap(2, 2)).witness == {"kind": "no_family", "budget": 2}


def test_cone_memberships_decided_once_per_compare(monkeypatch):
    # the 3-block Z/2 swap refutes every homeomorphism on a component, in
    # runs that meet one membership, [v] in a Z/2 block's cone, under
    # whatever vertex names: it is decided once however many runs meet it
    a, b = _swap(3, 2)
    seen = Counter()
    real = search.cone_contains

    def counting(kd, x):
        seen[kd.k0, kd.cone_generators, x] += 1
        return real(kd, x)
    monkeypatch.setattr(search, "cone_contains", counting)
    assert compare(a, b).outcome == DISTINGUISHED
    assert list(seen.values()) == [1], seen
    monkeypatch.setattr(search, "cone_contains", real)
    # the 3-block star swap searches all six homeomorphisms on the whole
    # space; one membership left undecided still makes the verdict UNKNOWN
    a, b = _swap(3, 2, hub=True)
    decided = _undecided(monkeypatch, a)
    flags, real_run = [], search._Search.run

    def run(self, sigma, within=None):
        family = real_run(self, sigma, within)
        flags.append(self.inconclusive)
        return family
    monkeypatch.setattr(search._Search, "run", run)
    v = compare(a, b)
    assert v.witness == {"kind": "budget_exhausted", "budget": 2, "inconclusive_cone": True}
    # decided in one run, looked up in the others, and flagged by each
    assert set(decided.values()) == {1} and flags.count(True) > 1, flags


def test_each_slot_isomorphism_inverted_once_per_compare(monkeypatch):
    # the 3-block Z/2 swap vets the same K0 candidates in several runs, and
    # within a run after each backtrack: every distinct (group, matrix) pair
    # is inverted once, and each repeat is a lookup
    a, b = _swap(3, 2)
    for fk in (a, b):   # the K layers invert their own maps when built
        dict(fk.sequences.items())
    asked, real = [], search.group_iso_inverse

    def spy(G, A):
        asked.append((G, A))
        return real(G, A)
    monkeypatch.setattr(search, "group_iso_inverse", spy)
    real.cache_clear()
    assert compare(a, b).outcome == DISTINGUISHED
    info = real.cache_info()
    assert len(asked) > len(set(asked)) and info.misses == len(set(asked)), info
    assert info.hits == len(asked) - info.misses


def test_names_and_file_order_do_not_matter(fks, corpus):
    # a relabelled, reordered copy of a graph is the same graph: it matches
    # the original with a family that replays, and it meets every other
    # graph with the original's outcome
    moved = {name: assemble(relabel_reorder(g, seed))
             for seed, (name, g) in enumerate(sorted(corpus.items()))}
    for name, fk in fks.items():
        v = compare(fk, moved[name])
        assert v.outcome == (COMPATIBLE if fk.k_complete else UNKNOWN), name
        assert not fk.k_complete or verify_compatible_witness(fk, moved[name], v.witness).passed, name
    for x, y in itertools.product(fks, repeat=2):
        assert compare(moved[x], fks[y]).outcome == compare(fks[x], fks[y]).outcome, (x, y)


def test_spectrum_only_mode(fks):
    # a graph that is not row-finite has no K layer, so only its spectrum
    # can be matched: UNKNOWN, with the homeomorphism kept in the witness
    fk = fks["inf_emitter"]
    assert not fk.k_complete
    v = compare(fk, fk)
    assert v == (UNKNOWN, {"kind": "no_k_layer", "homeomorphism": [0, 1, 2]})
    assert not verify_compatible_witness(fk, fk, v.witness).passed
    # a row-finite graph with the same 3-chain spectrum: the K layer is
    # one-sided, so nothing beyond the spectra is decided either
    v = compare(fks["blocks6"], fk)
    assert (v.outcome, v.witness["kind"]) == (UNKNOWN, "no_k_layer")
    assert list(poset_isomorphisms(fks["blocks6"].space, fk.space)) == [tuple(v.witness["homeomorphism"])]
    # the empty family this used to certify does not replay
    empty = {"kind": "family", "homeomorphism": [0, 1, 2], "unital": True, "slots": []}
    assert verify_compatible_witness(fk, fk, empty).failures == (
        "family witness without both K layers",)


def test_compare_deterministic(fks):
    a = compare(fks["fanout"], fks["fanout"])
    b = compare(fks["fanout"], fks["fanout"])
    assert a == b
    with pytest.raises(ValueError):
        compare(fks["g1"], fks["g1"], budget=0)


def test_witness_rejects_tampering(fks):
    v = compare(fks["g1"], fks["cycle2"], unital=False)
    bad = json.loads(json.dumps(v.witness))
    bad["slots"][-1]["alpha0"] = [[2]]  # not invertible over Z
    rep = verify_compatible_witness(fks["g1"], fks["cycle2"], bad)
    assert not rep.passed
    bad = json.loads(json.dumps(v.witness))
    bad["homeomorphism"] = [1]
    rep = verify_compatible_witness(fks["g1"], fks["cycle2"], bad)
    assert not rep.passed


@pytest.fixture(scope="module")
def mixed5_witness(fks):
    v = compare(fks["mixed5"], fks["mixed5"])
    assert v.outcome == COMPATIBLE
    return v.witness


def _replay_tampered(fks, witness, tamper):
    bad = json.loads(json.dumps(witness))
    tamper(bad)
    return verify_compatible_witness(fks["mixed5"], fks["mixed5"], bad)


def _first_nonempty_slot(witness):
    return next(s for s in witness["slots"] if s["alpha0"])


def test_witness_replay_reports_dropped_row(fks, mixed5_witness):
    def drop_row(w):
        slot = _first_nonempty_slot(w)
        slot["alpha0"].pop()
    rep = _replay_tampered(fks, mixed5_witness, drop_row)
    pts = _first_nonempty_slot(mixed5_witness)["pointset"]
    assert rep.failures == (
        f"slot matrix is not an integer matrix of the right shape at {pts}",)


@pytest.mark.parametrize("entry", ["x", "1", 1.5, None, True])
def test_witness_replay_reports_non_integer_entry(fks, mixed5_witness, entry):
    def spoil(w):
        _first_nonempty_slot(w)["alpha0"][0][0] = entry
    rep = _replay_tampered(fks, mixed5_witness, spoil)
    pts = _first_nonempty_slot(mixed5_witness)["pointset"]
    assert rep.failures == (
        f"slot matrix is not an integer matrix of the right shape at {pts}",)


def test_witness_replay_reports_missing_keys(fks, mixed5_witness):
    rep = _replay_tampered(fks, mixed5_witness, lambda w: w.pop("slots"))
    assert rep.failures == ("slots do not cover the locally closed sets",)
    rep = _replay_tampered(fks, mixed5_witness, lambda w: w.pop("homeomorphism"))
    assert rep.failures == ("homeomorphism is not a bijection",)
    rep = _replay_tampered(fks, mixed5_witness,
                           lambda w: w.update(homeomorphism=["0"] * 5))
    assert rep.failures == ("homeomorphism is not a bijection",)
    rep = verify_compatible_witness(fks["mixed5"], fks["mixed5"], [mixed5_witness])
    assert rep.failures == ("witness is not a family",)


def test_witness_replay_against_other_graphs_fails_cleanly(fks):
    # a self-compare family replayed against a graph with the same spectrum
    # but other K-groups (g1 vs o2), or with no K layer (blocks6 vs
    # inf_emitter, both 3-chains): only the K layer can object
    w = compare(fks["g1"], fks["g1"]).witness
    rep = verify_compatible_witness(fks["g1"], fks["o2"], w)
    assert rep.failures == (
        "slot matrix is not an integer matrix of the right shape at [0]",)
    w = compare(fks["blocks6"], fks["blocks6"]).witness
    rep = verify_compatible_witness(fks["blocks6"], fks["inf_emitter"], w)
    assert rep.failures == ("family witness without both K layers",)


def test_witness_replay_reports_broken_square(fks):
    # -1 on K1 of [0] keeps the slot invertible, and K1 carries no cone, so
    # only a commuting square can object, once, at its (sub, mid) pair
    w = compare(fks["g4"], fks["g4"]).witness
    slot = next(s for s in w["slots"] if s["pointset"] == [0])
    slot["alpha1"] = [[-x for x in row] for row in slot["alpha1"]]
    rep = verify_compatible_witness(fks["g4"], fks["g4"], w)
    assert rep.failures == ("iota1 square fails at pair (1, 3)",)


def _loops(k: int):
    """One vertex with k loops: K0 = Z/(k - 1), unit class 1."""
    return assemble(graph_from_edges(["v"], [("v", "v", k)]))


def _full_slot(fk, witness):
    return next(s for s in witness["slots"] if s["pointset"] == list(range(fk.space.npoints)))


def test_witness_replay_refuses_each_broken_condition(fks):
    # a self-witness spoiled one way at a time, each refusal named alone
    w = compare(fks["g4"], fks["g4"]).witness
    w["homeomorphism"].reverse()
    assert verify_compatible_witness(fks["g4"], fks["g4"], w).failures == (
        "map does not preserve specialization",)
    z2, z3, z5 = _loops(3), _loops(4), _loops(6)
    w = compare(z2, z2).witness
    assert verify_compatible_witness(z2, z3, w).failures == ("factor mismatch at [0]",)
    g1 = fks["g1"]
    w = compare(g1, g1).witness
    slot = _full_slot(g1, w)
    slot["alpha0"] = [[-x for x in row] for row in slot["alpha0"]]
    assert verify_compatible_witness(g1, g1, w).failures == (
        "cone image escapes at [0]", "reverse cone image escapes at [0]",
        "unit class is not preserved")
    # 2 is a unit mod 5, so only the unit class objects
    w = compare(z5, z5).witness
    _full_slot(z5, w)["alpha0"] = [[2]]
    assert verify_compatible_witness(z5, z5, w).failures == ("unit class is not preserved",)


def test_witness_replay_checks_each_pair_once(fks, monkeypatch):
    complete = {name: fk for name, fk in fks.items() if fk.k_complete}
    witnesses = {name: compare(fk, fk).witness for name, fk in complete.items()}
    walks, calls = [], Counter()
    squares = search._squares

    def counting(a, within):
        walks.append((a, within))
        for square in squares(a, within):
            calls[square[0]] += 1
            yield square

    monkeypatch.setattr(search, "_squares", counting)
    for name, fk in complete.items():
        walks.clear(), calls.clear()
        assert verify_compatible_witness(fk, fk, witnesses[name]).passed, name
        assert walks == [(fk, fk.space.full)] and calls == dict.fromkeys(fk.sequences, 6), name
    # more chains than pairs, so a replay walking chains fails above
    mixed5 = complete["mixed5"]
    assert len(list(open_triples(mixed5.space))) > len(mixed5.sequences)
