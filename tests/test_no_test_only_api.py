"""Every function and class of the package has a use in the package.

A name defined in src/fkgraph must be referenced in src/ outside its own
definition, be exported in `fkgraph.__all__`, or be a function the
per-layer tracer rebinds (perfbench/tracer.py TARGETS).  Code that only
tests call is deleted, not kept.  Dunder methods are called by the
language, not by name, and are not checked.
"""

import ast
import pathlib
import re

import fkgraph
from test_tracer_targets import _tracer_targets

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fkgraph"

# Condition (K) is acceptance criterion 8; its use in the package waits for
# the opt-in per-graph report of ROADMAP item 6.
ALLOWED = {"satisfies_condition_K"}


def unreferenced() -> list[str]:
    """Names of functions and classes that no other code in src/ mentions."""
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    out = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = [*lines[:start - 1], *lines[node.end_lineno:]]
            others = [t for p, t in texts.items() if p != path]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(t) for t in ["\n".join(outside), *others]):
                out.append(name)
    return out


def test_no_test_only_api():
    exempt = set(fkgraph.__all__) | {name for _, name, _ in _tracer_targets()}
    found = [name for name in unreferenced() if name not in exempt]
    assert sorted(found) == sorted(ALLOWED)
