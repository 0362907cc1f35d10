"""Whole-graph invariant assembly.

`assemble` packages the spectrum, the K-data of every locally closed point
set, and the maps of one six-term sequence per (sub, mid) pair of pointsets,
whose groups are read from that K-data, into one object, which builds the
K-data when first read and a sequence when its pair is; `sixterm`, which
builds the sequences, loads at the first such read.  The search that compares
two such objects lives in `search`, which only a process that compares
imports: this module resolves its public names on first use (PEP 562).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from typing import TYPE_CHECKING

from .graphs import Graph
from .ktheory import KData, k_data
from .lattice import DEFAULT_VERTEX_CAP
from .spectrum import SpectrumSpace, canonical_presentation, capped_spectrum, locally_closed_sets

if TYPE_CHECKING:
    from .sixterm import SixTerm

DISTINGUISHED = "DISTINGUISHED"
COMPATIBLE = "COMPATIBLE"
UNKNOWN = "UNKNOWN"

DEFAULT_BUDGET = 2
DEFAULT_POINT_CAP = 7

SEARCH_NAMES = ("CompareVerdict", "compare", "poset_isomorphisms", "verify_compatible_witness")


def __getattr__(name: str):
    # a search name loads `search` and is kept here, where rebinding module globals sees it
    if name not in SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import search
    return globals().setdefault(name, getattr(search, name))


class FilteredK:
    """Everything `compare` looks at, each layer built when first read.

    kmap keys are exactly the locally closed pointsets of the space, in
    `locally_closed_sets` order; they are the slots of a family.
    `sequence((sub, mid))` is the `SixTerm` of a pair, sub = mid & U for an
    open U, built on its first read and kept: on the hull chain
    (V, V | sub, U) of mid's canonical presentation U \\ V, so its maps run
    between the kmap groups of the pair's parts.  Without row-finiteness the
    K layer cannot be built from the data at hand: kmap is empty and no
    sequence builds; k_complete says which case we are in.  Read-only.
    """

    def __init__(self, space: SpectrumSpace):
        self.__dict__.update(space=space, _built={})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to FilteredK.{name}")

    @property
    def k_complete(self) -> bool:
        return self.space.graph.row_finite

    @cached_property
    def kmap(self) -> Mapping[int, KData]:
        if not self.k_complete:
            return {}
        return {y.pointset: k_data(self.space.graph, y)
                for y in locally_closed_sets(self.space)}

    def sequence(self, key: tuple[int, int]) -> SixTerm:
        if key not in self._built:
            from .sixterm import six_term   # only a process that reads a sequence loads it
            sub, mid = key
            y = canonical_presentation(self.space, mid)
            self._built[key] = six_term(self.space.graph, self.space, y.v, y.v | sub, y.u)
        return self._built[key]


def assemble(g: Graph, point_cap: int = DEFAULT_POINT_CAP,
             vertex_cap: int = DEFAULT_VERTEX_CAP) -> FilteredK:
    """The invariant of g; its spectrum, and so every cap error, comes first."""
    if point_cap < 1:
        raise ValueError("point cap must be >= 1")
    return FilteredK(capped_spectrum(g, point_cap, vertex_cap))


