"""Per-layer spans and counts for one in-process fk-graph invocation.

    python tracer.py OUT.json OP_ID CLI_ARGS...

Calls `fkgraph.cli.main(CLI_ARGS)` once to warm up, then once traced and
once untraced, with stdout captured, and writes both wall times, the traced
output and the per-layer totals to OUT.json.  Tracing rebinds each public function named
in TARGETS at every fkgraph module that holds it, so no file of the package
changes.  Spans (name, start, end, parent, op id) are kept in memory and
reduced when the call returns.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter

# (module, function, is a generator)
TARGETS = [
    ("graphs", "parse_graph_auto", False),
    ("lattice", "enumerate_admissible_pairs", False),
    ("spectrum", "s_primes", False),
    ("spectrum", "locally_closed_sets", False),
    ("spectrum", "verify_kuratowski", False),
    ("spectrum", "verify_open_ideal_iso", False),
    ("spectrum", "verify_kernel_identity", False),
    ("spectrum", "verify_t0", False),
    ("intlinalg", "smith_decomposition", False),
    ("intlinalg", "solve_exact", False),
    ("intlinalg", "group_isos", True),
    ("intlinalg", "group_iso_inverse", False),
    ("ktheory", "k_data", False),
    ("ktheory", "six_term", False),
    ("ktheory", "exactness_failures", False),
    ("ktheory", "verify_well_definedness", False),
    ("ktheory", "cone_contains", False),
    ("invariant", "assemble", False),
    ("invariant", "poset_isomorphisms", True),
    ("invariant", "compare", False),
    ("invariant", "verify_compatible_witness", False),
    ("cli", "main", False),
]

# metric -> spans whose inclusive time it sums
TIMES = {
    "graphs.parse_s": ["parse_graph_auto"],
    "lattice.enumerate_s": ["enumerate_admissible_pairs"],
    "spectrum.s_primes_s": ["s_primes"],
    "spectrum.lcs_s": ["locally_closed_sets"],
    "spectrum.suites_s": ["verify_kuratowski", "verify_open_ideal_iso",
                          "verify_kernel_identity", "verify_t0"],
    "ktheory.k_data_s": ["k_data"],
    "ktheory.exactness_s": ["exactness_failures"],
    "ktheory.well_definedness_s": ["verify_well_definedness"],
    "ktheory.cone_s": ["cone_contains"],
    "intlinalg.snf_s": ["smith_decomposition"],
    "intlinalg.group_isos_s": ["group_isos"],
    "intlinalg.iso_inverse_s": ["group_iso_inverse"],
    "invariant.assemble_s": ["assemble"],
    "invariant.poset_iso_s": ["poset_isomorphisms"],
    "invariant.compare_s": ["compare"],
    "invariant.replay_s": ["verify_compatible_witness"],
    "cli.main_s": ["main"],
}

# metric -> (span, children whose time is taken out of it)
SELF_TIMES = {
    "ktheory.six_term_self_s": ("six_term", {"k_data", "exactness_failures"}),
    "invariant.compare_self_s": ("compare", {"group_isos", "group_iso_inverse",
                                             "cone_contains", "poset_isomorphisms"}),
}

# metric -> span whose calls it counts
CALLS = {
    "ktheory.k_data_calls": "k_data",
    "ktheory.six_term_calls": "six_term",
    "ktheory.cone_calls": "cone_contains",
    "intlinalg.snf_calls": "smith_decomposition",
    "intlinalg.solve_exact_calls": "solve_exact",
    "intlinalg.iso_inverse_calls": "group_iso_inverse",
}


class Tracer:
    """Spans and counts of one op, collected by the wrappers `install` binds."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.carriers: set = set()
        self.iso_inputs: set = set()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op_id])
        self.stack.append(i)
        self.calls[name] += 1
        return i

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def _call(self, name, fn, args, kwargs):
        i = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(i)
        self._observe(name, args, result)
        return result

    def _iterate(self, name, gen):
        # a span per next(); the time between yields belongs to the caller
        while True:
            i = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(i)
            self.counts[name + ".yields"] += 1
            yield item

    def _observe(self, name, args, result) -> None:
        if name == "enumerate_admissible_pairs":
            self.counts["lattice.pairs"] += result.size
        elif name == "s_primes":
            self.counts["spectrum.points"] += result.npoints
            self.counts["spectrum.opens"] += len(result.opens)
        elif name == "locally_closed_sets":
            self.counts["spectrum.lcs"] += len(result)
        elif name == "k_data":
            g, y = args
            self.carriers.add((id(g), y.d, y.h_v))
        elif name == "cone_contains" and not result[1]:
            self.counts["ktheory.cone_inconclusive"] += 1

    def _wrap(self, name, fn, is_gen):
        tracer = self
        if is_gen:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if name == "group_isos":
                    g, h = args[0], args[1]
                    budget = args[2] if len(args) > 2 else kwargs.get("budget", 2)
                    tracer.iso_inputs.add((g.invariant_factors, h.invariant_factors, budget))
                tracer.calls[name + ".streams"] += 1
                return tracer._iterate(name, fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "fkgraph" or k.startswith("fkgraph.")}
        for mod_name, fn_name, is_gen in TARGETS:
            orig = getattr(mods["fkgraph." + mod_name], fn_name)
            wrapped = self._wrap(fn_name, orig, is_gen)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _nearest(self, i: int, names) -> int:
        """Index of the nearest ancestor of span i named in `names`, or -1."""
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] not in names:
            p = self.spans[p][3]
        return p

    def metrics(self) -> dict:
        out: dict = {}
        for metric, names in TIMES.items():
            names = set(names)
            out[metric] = sum(s[2] - s[1] for i, s in enumerate(self.spans)
                              if s[0] in names and self._nearest(i, names) < 0)
        for metric, (name, children) in SELF_TIMES.items():
            total = sum(s[2] - s[1] for s in self.spans if s[0] == name)
            stop = children | {name}
            for i, s in enumerate(self.spans):
                if s[0] in children:
                    p = self._nearest(i, stop)
                    if p >= 0 and self.spans[p][0] == name:
                        total -= s[2] - s[1]
            out[metric] = total
        for metric, name in CALLS.items():
            out[metric] = self.calls[name]
        out["ktheory.k_data_distinct"] = len(self.carriers)
        out["intlinalg.group_isos_streams"] = self.calls["group_isos.streams"]
        out["intlinalg.group_isos_distinct"] = len(self.iso_inputs)
        out["intlinalg.group_isos_yields"] = self.counts["group_isos.yields"]
        out["invariant.homeomorphisms"] = self.counts["poset_isomorphisms.yields"]
        for key in ("lattice.pairs", "spectrum.points", "spectrum.opens",
                    "spectrum.lcs", "ktheory.cone_inconclusive"):
            out[key] = self.counts[key]
        out["spans"] = len(self.spans)
        return out


def _timed_main(main, argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, time.perf_counter() - start, buf.getvalue()


def main() -> None:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import fkgraph.cli

    _timed_main(fkgraph.cli.main, argv)   # one-time costs stay out of the ratio
    tracer = Tracer(op_id)
    tracer.install()
    try:
        code, traced_s, stdout = _timed_main(fkgraph.cli.main, argv)
    finally:
        tracer.uninstall()
    _, untraced_s, _ = _timed_main(fkgraph.cli.main, argv)
    result = {"exit_code": code, "untraced_s": untraced_s, "traced_s": traced_s,
              "stdout": stdout, "metrics": tracer.metrics()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
