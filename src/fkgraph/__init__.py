"""Exact ideal-lattice, spectrum, and filtered K-theory computations for
finite directed multigraphs."""

from importlib import import_module

from .errors import CapExceeded, ExactnessError, FkGraphError, ParseError
from .graphs import INF, Graph, graph_from_edges, parse_graph, parse_graph_auto
from .invariant import COMPATIBLE, DISTINGUISHED, SEARCH_NAMES, UNKNOWN, FilteredK, assemble
from .ktheory import KData, cone_contains, k_data
from .lattice import AdmissiblePair, IdealLattice, enumerate_admissible_pairs
from .spectrum import LocallyClosedSet, SpectrumSpace, locally_closed_sets, s_primes

__all__ = [
    "AdmissiblePair",
    "COMPATIBLE",
    "CapExceeded",
    "CompareVerdict",
    "DISTINGUISHED",
    "ExactnessError",
    "FilteredK",
    "FkGraphError",
    "Graph",
    "INF",
    "IdealLattice",
    "KData",
    "LocallyClosedSet",
    "ParseError",
    "SixTerm",
    "SpectrumSpace",
    "UNKNOWN",
    "assemble",
    "compare",
    "cone_contains",
    "enumerate_admissible_pairs",
    "graph_from_edges",
    "k_data",
    "locally_closed_sets",
    "parse_graph",
    "parse_graph_auto",
    "poset_isomorphisms",
    "s_primes",
    "six_term",
    "verify_compatible_witness",
]


# exported names whose module loads on first use, as in `invariant`: the
# search, and the six-term layer, which `k` never loads
LAZY_NAMES = {**dict.fromkeys(SEARCH_NAMES, "search"),
              "SixTerm": "sixterm", "six_term": "sixterm"}


def __getattr__(name: str):
    # kept here once loaded, where rebinding module globals sees it
    if name not in LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{LAZY_NAMES[name]}", __name__)
    return globals().setdefault(name, getattr(module, name))
