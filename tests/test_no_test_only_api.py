"""Every function, class and method of the package has a use in the package.

A name defined in src/fkgraph must be referenced in src/ outside its own
definition, be exported in `fkgraph.__all__`, or be a function the
per-layer tracer rebinds (perfbench/tracer.py TARGETS).  A method must be
called as `.name(` there, and a property read as `.name`.  Code that only
tests call is deleted, not kept.  Dunder methods are called by the
language, not by name, and are not checked.

Uses are matched as text, so a member passes on the uses of any other
class's member of the same name; `test_member_names_are_unambiguous` keeps
the list of such shared names fixed, each one looked at by hand.  An import
is such a text use too, so `test_no_unused_imports` requires every imported
name to be read in its module.
"""

import ast
import pathlib
import re

import fkgraph
from test_tracer_targets import _tracer_targets

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fkgraph"

# Condition (K) is acceptance criterion 8; its use in the package waits for
# the opt-in per-graph report of ROADMAP item 7.
ALLOWED = {"satisfies_condition_K"}


def _is_property(node) -> bool:
    return any(getattr(d, "id", None) in ("property", "cached_property")
               for d in node.decorator_list)


def unreferenced() -> list[str]:
    """Names of functions, classes and methods that no other code in src/ uses.

    A method is reported as `Class.name`.
    """
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    out = []
    for path, text in texts.items():
        lines = text.splitlines()
        tree = ast.parse(text)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = [*lines[:start - 1], *lines[node.end_lineno:]]
            others = [t for p, t in texts.items() if p != path]
            if id(node) not in owner:
                use = re.compile(rf"\b{re.escape(name)}\b")
            elif _is_property(node):
                use = re.compile(rf"\.{re.escape(name)}\b")
            else:
                use = re.compile(rf"\.{re.escape(name)}\(")
            if not any(use.search(t) for t in ["\n".join(outside), *others]):
                out.append(f"{owner[id(node)]}.{name}" if id(node) in owner else name)
    return out


def test_no_test_only_api():
    exempt = set(fkgraph.__all__) | {name for _, name, _ in _tracer_targets()}
    found = [name for name in unreferenced() if name not in exempt]
    assert sorted(found) == sorted(ALLOWED)


def shared_member_names() -> set[str]:
    """Method, property and field names that two or more classes in src/ define."""
    owners: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    owners.setdefault(name, set()).add(cls.name)
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_member_names_are_unambiguous():
    # IdealLattice.graph and SpectrumSpace.graph, SmithDecomposition.rank and
    # FgAbGroup.rank: each is read on both of its owners.  A new shared name
    # could hide a member that only tests use from the check above.
    assert shared_member_names() == {"graph", "rank"}


def unused_imports() -> list[str]:
    """`module: name` for each name a module-level import binds in src/ and
    the module never reads; `__init__.py` re-exports and `__future__` aside."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append(f"{path.stem}: {name}")
    return out


def test_no_unused_imports():
    assert unused_imports() == []
