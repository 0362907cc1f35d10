"""Exact ideal-lattice, spectrum, and filtered K-theory computations for
finite directed multigraphs."""

from .errors import CapExceeded, ExactnessError, FkGraphError, ParseError
from .graphs import INF, Graph, graph_from_edges, parse_graph, parse_graph_auto
from .invariant import COMPATIBLE, DISTINGUISHED, SEARCH_NAMES, UNKNOWN, FilteredK, assemble
from .ktheory import KData, SixTerm, cone_contains, k_data, six_term
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


def __getattr__(name: str):
    # the search names load with `search`, on first use, as in `invariant`
    if name not in SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import invariant
    return getattr(invariant, name)
