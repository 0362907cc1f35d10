import ast
import importlib
import inspect
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import fkgraph
from fkgraph import intlinalg, invariant, ktheory, sixterm, spectrum
from fkgraph.graphs import graph_from_edges, parse_graph_auto
from fkgraph.intlinalg import IntMatrix

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found")


def test_tracer_targets_resolve():
    # the per-layer trace rebinds these names; a rename must fail here too
    targets = _tracer_targets()
    assert targets
    for module, name, is_gen in targets:
        fn = getattr(importlib.import_module(f"fkgraph.{module}"), name, None)
        assert callable(fn), (module, name)
        assert inspect.isgeneratorfunction(fn) == is_gen, (module, name)


def test_cli_import_loads_every_target_module():
    """A fresh `import fkgraph.cli` loads each module named in TARGETS.

    tracer.py imports only fkgraph.cli and then looks every target's module
    up in sys.modules, so importing one of them lazily would make each traced
    op raise KeyError.  Once the tracer imports its targets itself, this test
    may go.
    """
    code = "import sys, fkgraph.cli; print(*sorted(sys.modules))"
    src = pathlib.Path(intlinalg.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"fkgraph.{module}" for module, _, _ in _tracer_targets()} <= loaded


GRAPH = TRACER.parent.parent / "graphs" / "g4.graph"


def _fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter on this checkout's src/."""
    src = pathlib.Path(intlinalg.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_targets_resolve_after_a_k_run_in_tracer_order():
    # tracer.main imports fkgraph.cli, calls main once, then looks each target
    # up through sys.modules; a k run loads no search, so the compare targets
    # resolve through invariant's lazy names
    code = ("import contextlib, inspect, io, sys, fkgraph.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert fkgraph.cli.main(['k', {str(GRAPH)!r}, '--all', '--format', 'json']) == 0\n"
            f"for module, name, is_gen in {_tracer_targets()!r}:\n"
            "    fn = getattr(sys.modules['fkgraph.' + module], name)\n"
            "    print(module, name, callable(fn) and inspect.isgeneratorfunction(fn) == is_gen)")
    assert _fresh(code).splitlines() == [f"{m} {n} True" for m, n, _ in _tracer_targets()]


def test_only_compare_loads_the_search():
    # each subcommand in its own fresh process, which compiles every module it
    # imports: the search is for compare alone, and the six-term layer for
    # check and compare alone; `import fkgraph.cli` loads neither
    graph = str(GRAPH)
    runs = [["import"], ["k", graph, "--all"], ["check", graph], ["spectrum", graph],
            ["lattice", graph], ["compare", graph, graph]]
    loaded = []
    for argv in runs:
        code = ("import contextlib, io, sys, fkgraph.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert {argv!r} == ['import'] or fkgraph.cli.main({argv!r}) == 0\n"
                "print(*('fkgraph.' + m in sys.modules for m in ('search', 'sixterm')))")
        loaded.append(f"{argv[0]} {_fresh(code).strip()}")
    assert loaded == ["import False False", "k False False", "check False True",
                      "spectrum False False", "lattice False False", "compare True True"]


def test_tracer_runs_end_to_end(tmp_path):
    # perfbench/tracer.py as the benchmark runs it, one fresh process per op:
    # each layer count it reads through the lazy names is where it looks
    g = parse_graph_auto(GRAPH.read_text(encoding="utf-8"))
    chains = len(list(ktheory.open_triples(spectrum.s_primes(
        spectrum.enumerate_admissible_pairs(g)))))
    src = pathlib.Path(intlinalg.__file__).resolve().parent.parent
    metrics = {}
    for argv in (["k", str(GRAPH), "--all"], ["check", str(GRAPH)],
                 ["compare", str(GRAPH), str(GRAPH)]):
        out = tmp_path / f"{argv[0]}.json"
        proc = subprocess.run([sys.executable, str(TRACER), str(out), "0", *argv,
                               "--format", "json"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text(encoding="utf-8"))
        assert result["exit_code"] == 0, argv
        metrics[argv[0]] = result["metrics"]
    assert metrics["k"]["ktheory.six_term_calls"] == 0
    assert metrics["check"]["ktheory.six_term_calls"] == chains > 0
    assert metrics["compare"]["intlinalg.group_isos_streams"] > 0


def test_lazy_names_serve_only_tracer_targets_and_exports():
    # the names a module resolves on first use are a bridge for the tracer's
    # lookups and the package's exports, not a second home for any code: each
    # is one object with its defining module's, and no other module has such
    # names
    tables = {fkgraph: fkgraph.LAZY_NAMES, invariant: invariant.SEARCH_NAMES,
              ktheory: ktheory.SIXTERM_NAMES, intlinalg: intlinalg.SEARCH_NAMES}
    modules = [fkgraph] + [importlib.import_module(f"fkgraph.{path.stem}") for path in
                           sorted(pathlib.Path(fkgraph.__file__).parent.glob("*.py"))
                           if path.stem != "__init__"]
    assert ({m.__name__ for m in modules if "__getattr__" in vars(m)}
            == {m.__name__ for m in tables})
    targets = {(module, name) for module, name, _ in _tracer_targets()}
    for module, names in tables.items():
        where = module.__name__.partition(".")[2]
        for name in names:
            assert (where, name) in targets or name in fkgraph.__all__, (where, name)
            obj = getattr(module, name)
            assert obj.__module__ != module.__name__, (where, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, (where, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_capped_spectrum_calls_rebindable_globals(monkeypatch):
    # the tracer wraps a function by rebinding every module global that holds
    # it, so capped_spectrum must reach both layers through those globals
    seen = []

    def spy(name):
        real = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(spectrum, name, wrapper)

    spy("s_primes")
    spy("enumerate_admissible_pairs")
    invariant.assemble(graph_from_edges(["v"], [("v", "v", 2)]))
    assert seen == ["enumerate_admissible_pairs", "s_primes"]


def test_rebound_smith_decomposition_sees_every_caller(monkeypatch):
    # intlinalg.snf_calls counts calls through the module global, so the memo
    # must sit behind that name: callers reaching a privately bound copy would
    # bypass a rebinding.  Fresh matrices, so no memo answers first.
    rng = random.Random(5)

    def fresh(m, n):
        return IntMatrix.from_rows([[rng.randrange(10**11, 10**12) for _ in range(n)]
                                    for _ in range(m)], cols=n)

    free2 = intlinalg.cokernel(IntMatrix.zero(2, 2))
    seen = []
    real = intlinalg.smith_decomposition

    def spy(M):
        seen.append(M)
        return real(M)
    for module in (intlinalg, sixterm):   # every module holding the name
        monkeypatch.setattr(module, "smith_decomposition", spy)
    # an exactness spot on Z^2: f = (a, b), gm = (b, -a), so gm after f is
    # zero and the spot decomposes gm, then f, for the kernel of gm in im f
    (a, b), = fresh(1, 2).entries
    f, gm = IntMatrix.from_rows([[a], [b]]), IntMatrix.from_rows([[b, -a]])
    mats = [fresh(2, 3), fresh(3, 2), gm, f, fresh(2, 2), fresh(3, 3)]
    intlinalg.cokernel(mats[0])
    intlinalg.kernel_group(mats[1])
    sixterm._spot_failure(f, gm, (0, 0), (0,))
    intlinalg.group_iso_inverse(free2, mats[4])
    intlinalg.solve_exact(mats[5], (1, 2, 3))
    assert seen == mats


def test_exactness_suite_calls_rebindable_globals(monkeypatch):
    # ktheory.six_term_calls, exactness_s and k_data_calls count calls
    # through these module globals, so `check` must reach them there;
    # exactness is checked once per chain
    seen = []
    for name in ("six_term", "exactness_failures", "k_data"):
        real = getattr(sixterm, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            seen.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(sixterm, name, wrapper)
    g = graph_from_edges(["v", "w"], [("v", "v", 2), ("v", "w", 1), ("w", "w", 3)])
    sp = spectrum.s_primes(spectrum.enumerate_admissible_pairs(g))
    assert sixterm.verify_exactness(g, sp).passed
    chains = list(ktheory.open_triples(sp))
    pairs = {ktheory.sequence_key(*chain) for chain in chains}
    assert len(pairs) < len(chains)
    assert seen.count("six_term") == len(chains)
    assert seen.count("exactness_failures") == len(chains)
    assert seen.count("k_data") == 3 * len(chains)
