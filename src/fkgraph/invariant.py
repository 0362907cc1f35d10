"""Whole-graph invariant assembly.

`assemble` packages the spectrum, the K-data of every locally closed point
set, and the maps of one six-term sequence per (sub, mid) pair of pointsets,
whose groups are read from that K-data, into one object, which builds the
K-data when first read and a sequence when its pair is.  The search that
compares two such objects lives in `search`, which only a process that
compares imports: this module resolves its public names on first use (PEP 562).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .graphs import Graph
from .ktheory import KData, SixTerm, k_data, pair_chains, six_term
from .lattice import DEFAULT_VERTEX_CAP
from .spectrum import SpectrumSpace, capped_spectrum, locally_closed_sets

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
    `locally_closed_sets` order; they are the slots of a family.  sequences
    holds one `SixTerm` per (sub, mid) pair that an open chain
    U1 <= U2 <= U3 presents as (U2 \\ U1, U3 \\ U1), keyed by that pair in
    `ktheory.pair_chains` order; its maps run between the kmap groups of the
    pair's parts, and each is built on its pair's first read.  Without
    row-finiteness the K layer cannot be built from the data at hand and
    both mappings are empty; k_complete says which case we are in.  Read-only.
    """

    def __init__(self, space: SpectrumSpace):
        self.__dict__["space"] = space

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

    @cached_property
    def sequences(self) -> Mapping[tuple[int, int], SixTerm]:
        return _Sequences(self.space, pair_chains(self.space) if self.k_complete else {})


class _Sequences(Mapping):
    """The sequence of each pair `chains` keys, built on its chain when first read."""

    def __init__(self, sp: SpectrumSpace, chains: dict):
        self._sp, self._chains, self._built = sp, chains, {}

    def __getitem__(self, key):
        if key not in self._built:
            self._built[key] = six_term(self._sp.graph, self._sp, *self._chains[key])
        return self._built[key]

    def __contains__(self, key):
        return key in self._chains

    def __iter__(self):
        return iter(self._chains)

    def __len__(self):
        return len(self._chains)


def assemble(g: Graph, point_cap: int = DEFAULT_POINT_CAP,
             vertex_cap: int = DEFAULT_VERTEX_CAP) -> FilteredK:
    """The invariant of g; its spectrum, and so every cap error, comes first."""
    if point_cap < 1:
        raise ValueError("point cap must be >= 1")
    return FilteredK(capped_spectrum(g, point_cap, vertex_cap))


