import ast
import importlib
import inspect
import pathlib

from fkgraph import invariant, spectrum
from fkgraph.graphs import graph_from_edges

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
