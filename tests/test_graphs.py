"""Graph model: parsing, reachability, hereditary/saturated machinery,
condition (K), and the subquotient graphs of tests/oracles.py that the K layer
is checked against.  Derived expectations come from tests/oracles.py."""

from __future__ import annotations

import random

import pytest

from fkgraph.errors import ParseError
from fkgraph.graphs import (
    INF,
    Graph,
    breaking_vertices,
    graph_from_edges,
    is_hereditary,
    is_saturated,
    iter_bits,
    mask_of,
    mult_add,
    parse_graph,
    parse_graph_auto,
    parse_graph_json,
    return_path_count,
    satisfies_condition_K,
)
from fkgraph.lattice import enumerate_admissible_pairs

from oracles import (
    all_subsets,
    bfs_reaches,
    names_mask,
    oracle_breaking,
    oracle_closure,
    oracle_condition_k,
    oracle_hereditary,
    oracle_return_verdict,
    oracle_saturated,
    subquotient_graph,
)


# ----------------------------------------------------------------- parsing


def test_parse_basic(corpus):
    g = corpus["g3"]
    assert g.vertices == ("v1", "v2")
    assert g.mult == ((2, 1), (0, 2))


def test_parse_accumulates_multiplicity():
    g = parse_graph("vertex u\nvertex w\nedge u w 2\nedge u w 3\n")
    assert g.mult[0][1] == 5
    g = parse_graph("vertex u\nvertex w\nedge u w inf\nedge u w 1\n")
    assert g.mult[0][1] is INF


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\nvertex a  # trailing\nvertex b\nedge a b # yes\n")
    assert g.vertices == ("a", "b")
    assert g.mult[0][1] == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_graph("vertex a\nvertex a\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_graph("vertex a\nedge a zzz\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_graph("vertex a\nedge a a -1\n")
    assert e.value.line == 2
    for count in ("+3", "1_0", "\u0663"):   # int() reads each; the format has ASCII digits only
        with pytest.raises(ParseError, match="^line 3: bad multiplicity") as e:
            parse_graph(f"vertex a\nvertex b\nedge a b {count}\n")
        assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_graph("loop a\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_graph("vertex\n")


def test_parse_empty_text_gives_empty_graph():
    g = parse_graph("")
    assert g.n == 0
    assert g.full_mask == 0


def _json_mirror(g: Graph) -> dict:
    edges = [{"src": g.vertices[i], "dst": g.vertices[j],
              "mult": "inf" if g.mult[i][j] is INF else g.mult[i][j]}
             for i in range(g.n) for j in range(g.n)
             if g.mult[i][j] is INF or g.mult[i][j] > 0]
    return {"vertices": list(g.vertices), "edges": edges}


def test_json_mirror_roundtrip(corpus):
    import json

    for name, g in corpus.items():
        text = json.dumps(_json_mirror(g))
        g2 = parse_graph_json(text)
        assert g2 == g, name
        assert parse_graph_auto(text) == g


def test_byte_order_mark_is_skipped():
    # one leading U+FEFF, as an editor saves it, changes neither format
    import json

    line = "vertex a\nvertex b\nedge a b inf\nedge b b 2\n"
    g = parse_graph(line)
    for text in (line, json.dumps(_json_mirror(g))):
        assert parse_graph_auto(text) == g
        assert parse_graph_auto("\ufeff" + text) == g


def test_json_mirror_errors():
    with pytest.raises(ParseError):
        parse_graph_json("[1, 2]")
    with pytest.raises(ParseError):
        parse_graph_json('{"vertices": ["a"], "edges": [{"src": "a", "dst": "b"}]}')
    with pytest.raises(ParseError):
        parse_graph_json('{"vertices": ["a"], "edges": [{"src": "a", "dst": "a", "mult": -2}]}')
    with pytest.raises(ParseError):
        parse_graph_json("{not json")
    with pytest.raises(ParseError, match="`edges` must be a list"):
        parse_graph_json('{"vertices": ["a"], "edges": 5}')
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_graph_json('{"vertices": ["a"], "edges": [{"src": ["a"], "dst": "a"}]}')
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_graph_json('{"vertices": ["a"], "edges": [{"src": "a", "dst": {"v": 1}}]}')


def test_graph_from_edges_names_an_unknown_vertex():
    with pytest.raises(ValueError, match=r"^unknown vertex 'b'$"):
        graph_from_edges(["a"], [("a", "b")])
    with pytest.raises(ValueError, match=r"^unknown vertex 'c'$"):
        graph_from_edges(["a"], [("a", "a"), ("c", "a", 2)])


# ------------------------------------------------------------ basic model


def test_multiplicity_arithmetic():
    assert mult_add(2, 3) == 5
    assert mult_add(2, INF) is INF
    assert mult_add(INF, INF) is INF


def test_regular_and_infinite_emitter(corpus):
    g = corpus["inf_emitter"]
    u, w = g.vertices.index("u"), g.vertices.index("w")
    assert g.infinite_emitters >> u & 1
    assert not g.regular >> u & 1
    assert not g.regular >> w & 1  # sink
    assert not g.row_finite
    g4 = corpus["g4"]
    assert all(g4.regular >> i & 1 for i in range(2))
    assert g4.row_finite


# ------------------------------------------------------------ reachability


def reaches(g: Graph, v: str, w: str) -> bool:
    """w lies in every hereditary set holding v: the forward closure of v
    is hereditary, so this is reachability, read off `is_hereditary`."""
    i, j = g.vertices.index(v), g.vertices.index(w)
    return all(h >> j & 1 for h in range(1 << g.n) if h >> i & 1 and is_hereditary(g, h))


def test_reaches_fixed(corpus):
    g3 = corpus["g3"]
    assert reaches(g3, "v1", "v2")
    assert not reaches(g3, "v2", "v1")
    assert reaches(g3, "v2", "v2")  # empty path


def test_reaches_matches_bfs_oracle(corpus):
    for name, g in corpus.items():
        for i in range(g.n):
            for j in range(g.n):
                got = reaches(g, g.vertices[i], g.vertices[j])
                assert got == bfs_reaches(g, i, j), (name, i, j)


# ------------------------------------------- hereditary / saturated sets


def test_hereditary_saturated_match_oracles(corpus):
    for name, g in corpus.items():
        for s in all_subsets(g.n):
            mask = mask_of(s)
            assert is_hereditary(g, mask) == oracle_hereditary(g, s), (name, s)
            assert is_saturated(g, mask) == oracle_saturated(g, s), (name, s)


def saturated_hereditary_closure(g: Graph, x: int) -> int:
    """The least hereditary saturated superset of x: the intersection of the
    H of every admissible pair holding x (the top pair always does)."""
    out = g.full_mask
    for p in enumerate_admissible_pairs(g).pairs:
        if not x & ~p.h:
            out &= p.h
    return out


def test_closure_fixed_example(corpus):
    g = corpus["edge_ab"]
    b = names_mask(g, ["b"])
    # {b} is hereditary but not saturated; its closure is everything
    assert is_hereditary(g, b)
    assert not is_saturated(g, b)
    assert saturated_hereditary_closure(g, b) == g.full_mask


def test_closure_matches_oracle(corpus):
    for name, g in corpus.items():
        for s in all_subsets(g.n):
            got = saturated_hereditary_closure(g, mask_of(s))
            assert got == mask_of(oracle_closure(g, s)), (name, s)
            # closure output is itself hereditary and saturated, and idempotent
            assert is_hereditary(g, got) and is_saturated(g, got)
            assert saturated_hereditary_closure(g, got) == got


# ----------------------------------------------------- breaking vertices


def test_breaking_vertices_fixed(corpus):
    g = corpus["inf_emitter"]
    h = names_mask(g, ["w"])
    assert breaking_vertices(g, h) == names_mask(g, ["u"])
    # without the loop at u there is nothing finite escaping {w}
    g2 = graph_from_edges(["u", "w"], [("u", "w", INF)])
    assert breaking_vertices(g2, names_mask(g2, ["w"])) == 0
    assert breaking_vertices(g, 0) == 0  # all edges count, INF total


def test_breaking_vertices_empty_for_row_finite(row_finite_corpus):
    for name, g in row_finite_corpus.items():
        for s in all_subsets(g.n):
            assert breaking_vertices(g, mask_of(s)) == 0, name


def test_breaking_matches_oracle(corpus):
    for name, g in corpus.items():
        for s in all_subsets(g.n):
            assert breaking_vertices(g, mask_of(s)) == mask_of(oracle_breaking(g, s)), (name, s)


# ---------------------------------------------------------- condition (K)


def test_condition_k_fixed(corpus):
    assert not satisfies_condition_K(corpus["g1"])  # exactly one return path
    assert satisfies_condition_K(corpus["o2"])
    assert satisfies_condition_K(corpus["sink"])  # zero return paths
    assert not satisfies_condition_K(corpus["g4"])
    assert satisfies_condition_K(corpus["g3"])
    assert not satisfies_condition_K(corpus["cycle2"])
    assert not satisfies_condition_K(corpus["inf_emitter"])  # the loop at u


def test_return_path_counts(corpus):
    g3 = corpus["g3"]
    assert return_path_count(g3, 0) == 2
    assert return_path_count(g3, 1) == 2
    g4 = corpus["g4"]
    assert return_path_count(g4, 0) == 1
    assert return_path_count(g4, 1) == 1
    assert return_path_count(corpus["sink"], 0) == 0


def test_condition_k_matches_bounded_oracle(corpus):
    # counting paths up to length 2n is enough to decide 0 / 1 / >= 2; past
    # the corpus, seeded graphs on 1 to 6 vertices with INF multiplicities
    # among the edges: cycles through INF bundles, nested cycles and feeders
    rng = random.Random(23)
    graphs = list(corpus.items())
    for k in range(600):
        vs = [f"v{i}" for i in range(rng.randint(1, 6))]
        graphs.append((f"random{k}", graph_from_edges(vs, [
            (v, w, m) for v in vs for w in vs
            for m in [rng.choice((0, 0, 0, 0, 0, 1, 1, 2, INF))] if m])))
    counts = [0, 0, 0]
    for name, g in graphs:
        for v in range(g.n):
            got = return_path_count(g, v)
            assert got == oracle_return_verdict(g, v, 2 * g.n), (name, v)
            counts[got] += 1
        assert satisfies_condition_K(g) == oracle_condition_k(g), name
    assert min(counts) > 50, counts


def test_condition_k_invariant_under_relabeling(corpus):
    rng = random.Random(2)
    for name, g in corpus.items():
        if g.n < 2:
            continue
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(
            tuple(g.vertices[p] for p in perm),
            tuple(tuple(g.mult[p][q] for q in perm) for p in perm),
        )
        assert satisfies_condition_K(h) == satisfies_condition_K(g), name


# ------------------------------------------------------------ subquotients


def test_quotient_basic(corpus):
    # the quotient by the ideal at h is the subquotient carried by the rest
    g4 = corpus["g4"]
    h = names_mask(g4, ["v2"])
    q = subquotient_graph(g4, g4.full_mask & ~h, h)
    assert q.vertices == ("v1",)
    assert q.mult == ((1,),)  # the loop survives, the edge into v2 is dropped


def test_quotient_validation(corpus):
    # quotients by an ideal are the subquotients carried by the complement
    inf = corpus["inf_emitter"]
    with pytest.raises(ValueError):
        subquotient_graph(inf, inf.full_mask, 0)  # not row-finite
    g4 = corpus["g4"]
    h = names_mask(g4, ["v1"])
    with pytest.raises(ValueError):
        subquotient_graph(g4, g4.full_mask & ~h, h)  # {v1} is not hereditary


def test_subquotient_restricts_adjacency(corpus):
    g = corpus["mixed5"]
    d = names_mask(g, ["b", "c"])
    sub = subquotient_graph(g, d, 0)
    assert sub.vertices == ("b", "c")
    assert sub.mult == ((0, 1), (1, 0))


def test_subquotient_validation(corpus):
    g = corpus["g4"]
    with pytest.raises(ValueError):
        # overlapping d and v_ideal
        subquotient_graph(g, names_mask(g, ["v1"]), names_mask(g, ["v1"]))
    with pytest.raises(ValueError):
        subquotient_graph(corpus["inf_emitter"], 1, 0)
    with pytest.raises(ValueError):
        # {v1} | {} is not hereditary
        subquotient_graph(g, names_mask(g, ["v1"]), 0)


def test_subquotient_no_new_sinks(row_finite_corpus):
    # regular vertices of g keep at least one edge inside any valid piece
    from fkgraph.lattice import enumerate_admissible_pairs

    for name, g in row_finite_corpus.items():
        lat = enumerate_admissible_pairs(g)
        for p in lat.pairs:
            for q in lat.pairs:
                if p.h & ~q.h or not (p.h | q.h == q.h):
                    continue
                d = q.h & ~p.h
                sub = subquotient_graph(g, d, p.h)
                for k, v in enumerate(sub.vertices):
                    gi = g.vertices.index(v)
                    if g.regular >> gi & 1:
                        assert sub.regular >> k & 1, (name, v)


def test_bit_helpers():
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert list(iter_bits(0)) == []
