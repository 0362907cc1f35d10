"""Records are immutable values, and loading the CLI stays cheap.

Value records are tuples (`typing.NamedTuple`); `Graph` and `SpectrumSpace`
are read-only classes, and `Graph` and the validating `FgAbGroup` check
their input in their constructor.
No module of the package imports `dataclasses`, which would pull
`inspect`, `ast`, `dis` and `tokenize` into every one-shot `fk-graph`
process, and `cli` reads its arguments without `argparse`, which would pull
`gettext` and `locale`.  No check here measures time.
"""

import ast
import os
import pathlib
import random
import subprocess
import sys

import pytest

import fkgraph
from fkgraph.graphs import Graph, graph_from_edges
from fkgraph.intlinalg import IntMatrix, cokernel, smith_decomposition
from fkgraph.invariant import FilteredK
from fkgraph import ktheory
from fkgraph.ktheory import k_data, open_triples
from fkgraph.lattice import enumerate_admissible_pairs
from fkgraph.report import Report
from fkgraph.sixterm import six_term, verify_well_definedness
from fkgraph.spectrum import canonical_presentation, presentation, s_primes

SRC = pathlib.Path(fkgraph.__file__).resolve().parent


def test_cli_import_loads_no_dataclasses():
    code = ("import sys; before = set(sys.modules); import fkgraph.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fkgraph.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def test_cli_reads_arguments_without_argparse():
    # argparse pulls gettext and, on its first parse, locale into every
    # one-shot process; the table parser needs neither
    graph = SRC.parent.parent / "graphs" / "g4.graph"
    code = ("import sys; before = set(sys.modules); import fkgraph.cli; "
            "print(*sorted(set(sys.modules) - before)); "
            f"code = fkgraph.cli.main(['k', {str(graph)!r}, '--all', '--format', 'json']); "
            "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    on_import = set(proc.stdout.splitlines()[0].split())
    exit_code, *after_main = proc.stderr.split()
    assert exit_code == "0" and "fkgraph.cli" in on_import
    for loaded in (on_import, set(after_main)):
        assert not loaded & {"argparse", "gettext", "locale"}, sorted(loaded)


def test_no_post_init_or_dataclass_in_package():
    # a __post_init__ on a NamedTuple is never called, so a check left in
    # one would silently stop running
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "__post_init__", path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name


def test_equal_matrices_share_one_smith_decomposition():
    # the memo is keyed by value: a separately built equal matrix is a hit
    rng = random.Random(10)
    rows = [[rng.randrange(10**12, 10**13) for _ in range(3)] for _ in range(2)]
    a, b = IntMatrix.from_rows(rows), IntMatrix.from_rows([list(r) for r in rows])
    assert a == b and a is not b and hash(a) == hash(b)
    before = smith_decomposition.cache_info()
    dec = smith_decomposition(a)
    mid = smith_decomposition.cache_info()
    assert smith_decomposition(b) is dec
    after = smith_decomposition.cache_info()
    assert (mid.misses - before.misses, mid.hits - before.hits) == (1, 0)
    assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)


def _small_graph():
    return graph_from_edges(["v", "w"], [("v", "v", 2), ("v", "w", 1), ("w", "w", 3)])


def test_record_fields_are_read_only():
    g = _small_graph()
    sp = s_primes(enumerate_admissible_pairs(g))
    u1, u2, u3 = next(c for c in open_triples(sp) if c[0] != c[2])
    st = six_term(g, sp, u1, u2, u3)
    mid = k_data(g, canonical_presentation(sp, u3 & ~u1))
    records = [(IntMatrix.identity(2), "rows"),
               (cokernel(IntMatrix.from_rows([[2]])), "invariant_factors"),
               (mid, "k0"), (st, "iota0"), (Report("r", 1), "failures"),
               (g, "mult"), (sp, "points"), (FilteredK(sp), "sequences")]
    for obj, name in records:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_well_definedness_compares_k_data_by_value(free_antichain, monkeypatch):
    # a presentation with the canonical carrier but another h_v shares the
    # canonical K-data, which is memoised per carrier, so the suite has
    # nothing to compare there and builds no K-data outside the memo
    g = Graph(free_antichain.vertices, free_antichain.mult)
    sp = s_primes(enumerate_admissible_pairs(g))
    pairs = []
    for u in sp.opens:
        for v in sp.opens:
            if v & ~u:
                continue
            alt, ref = presentation(sp, u, v), canonical_presentation(sp, u & ~v)
            if alt.d == ref.d and alt.h_v != ref.h_v:
                pairs.append((alt, ref))
    assert pairs
    for alt, ref in pairs:
        assert k_data(g, alt) is k_data(g, ref)
    built, real = [], ktheory._carrier.__wrapped__

    def build(g, d):
        built.append(d)
        return real(g, d)
    monkeypatch.setattr(ktheory._carrier, "__wrapped__", build)
    rep = verify_well_definedness(g, sp)
    assert rep.passed, rep.failures
    assert built == []
