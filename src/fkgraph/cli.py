"""Command line front end.

Subcommands: spectrum, lattice, k, compare, check, read from the `COMMANDS`
table, whose synopsis lines `-h` or `--help` print.  Options go before or
after the positionals, as `--opt value`, `--opt=value` or a unique prefix of
the flag; after `--` every word is a positional.  Outputs are deterministic
in all three forms (text, json, dot); JSON payloads match the schemas under
docs/schemas/.  Exit codes: 0 success or help, 1 parse or validation
failure, 2 a cap was exceeded.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .errors import CapExceeded, ParseError
from .graphs import Graph, iter_bits, parse_graph_auto
from .invariant import DEFAULT_BUDGET, DEFAULT_POINT_CAP, assemble
from .ktheory import k_data
from .lattice import DEFAULT_VERTEX_CAP, enumerate_admissible_pairs
from .spectrum import (
    capped_spectrum,
    locally_closed_sets,
    verify_kernel_identity,
    verify_kuratowski,
    verify_open_ideal_iso,
    verify_t0,
)


def _names(g: Graph, mask: int) -> list[str]:
    return [g.vertices[i] for i in iter_bits(mask)]


def _shown(name: str) -> str:
    """A vertex name in text and DOT output: bare, or a JSON string if it could be misread."""
    if name and not any(c.isspace() or c in ',{}[]"\\' for c in name):
        return name
    return json.dumps(name)


def _set_text(names: list[str]) -> str:
    return "{" + ",".join(map(_shown, names)) + "}"


def _load(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph_auto(fh.read())


def _covers(ups: list[int]) -> list[tuple[int, int]]:
    """(i, j) for each j minimal strictly above i, given every element's up-set mask."""
    out = []
    for i, up in enumerate(ups):
        strict = up & ~(1 << i)
        above = 0
        for k in iter_bits(strict):
            above |= ups[k] & ~(1 << k)
        out += [(i, j) for j in iter_bits(strict & ~above)]
    return out


def _hasse_dot(name: str, prefix: str, labels: list[str], cov) -> str:
    """A Hasse diagram in DOT, bottom up: node k is `{prefix}{k}`."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    esc = str.maketrans({"\\": "\\\\", '"': '\\"'})   # DOT quoted strings
    lines += [f'  {prefix}{k} [label="{label.translate(esc)}"];' for k, label in enumerate(labels)]
    lines += [f"  {prefix}{i} -> {prefix}{j};" for i, j in cov]
    return "\n".join(lines + ["}"]) + "\n"


def _emit(payload: dict, text: str, dot: str | None, cfg) -> None:
    if getattr(cfg, "dot", False):
        sys.stdout.write(dot)
    elif cfg.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(text)


# -- spectrum ---------------------------------------------------------------

def _run_spectrum(cfg) -> int:
    g = _load(cfg.graph)
    sp = capped_spectrum(g, cfg.point_cap, cfg.vertex_cap)
    points = [{"index": k, "h": _names(g, sp.pair(k).h),
               "s": _names(g, sp.pair(k).s)} for k in range(sp.npoints)]
    spec = [[i, j] for i in range(sp.npoints) for j in range(sp.npoints)
            if i != j and sp.specializes(i, j)]
    opens = [list(iter_bits(u)) for u in sp.opens]
    payload = {"points": points, "specialization": spec, "opens": opens}

    lines = [f"points: {sp.npoints}"]
    for p in points:
        lines.append(f"p{p['index']}: H={_set_text(p['h'])} S={_set_text(p['s'])}")
    lines.append("specializations: "
                 + (" ".join(f"p{i}->p{j}" for i, j in spec) or "none"))
    lines.append(f"opens: {len(opens)}")
    for u in opens:
        lines.append("  {" + ",".join(f"p{k}" for k in u) + "}")
    text = "\n".join(lines) + "\n"

    labels = [f"p{p['index']}: {_set_text(p['h'])}" for p in points]
    cov = _covers([sp.closure(1 << k) for k in range(sp.npoints)])
    dot = _hasse_dot("spectrum", "p", labels, cov)
    _emit(payload, text, dot, cfg)
    return 0


# -- lattice ----------------------------------------------------------------

def _run_lattice(cfg) -> int:
    g = _load(cfg.graph)
    lat = enumerate_admissible_pairs(g, vertex_cap=cfg.vertex_cap)
    pairs = [{"index": i, "h": _names(g, p.h), "s": _names(g, p.s)}
             for i, p in enumerate(lat.pairs)]
    cov = _covers(lat.up)
    payload = {"pairs": pairs, "covers": [[i, j] for i, j in cov],
               "bottom": lat.bottom, "top": lat.top}

    lines = [f"pairs: {lat.size}"]
    for p in pairs:
        lines.append(f"i{p['index']}: H={_set_text(p['h'])} S={_set_text(p['s'])}")
    lines.append("covers: " + (" ".join(f"i{i}<i{j}" for i, j in cov) or "none"))
    text = "\n".join(lines) + "\n"

    labels = [f"H={_set_text(p['h'])} S={_set_text(p['s'])}" for p in pairs]
    _emit(payload, text, _hasse_dot("lattice", "i", labels, cov), cfg)
    return 0


# -- k ----------------------------------------------------------------------

def _parse_pointset(arg: str, npoints: int) -> int:
    if arg == "-":
        return 0
    mask = 0
    for part in arg.split(","):
        if not (part.isascii() and part.isdigit()):
            raise ParseError(f"bad point index {part!r}")
        k = int(part)
        if k >= npoints:
            raise ParseError(f"point index {k} out of range")
        mask |= 1 << k
    return mask


def _k_entry(g: Graph, y) -> dict:
    kd = k_data(g, y)
    basis = kd.k1.lift
    return {
        "pointset": list(iter_bits(y.pointset)),
        "vertices": list(kd.vertices),
        "k0": {
            "invariant_factors": list(kd.k0.invariant_factors),
            "cone_generators": [list(v) for v in kd.cone_generators],
            "unit_class": list(kd.unit_class),
        },
        "k1": {
            "invariant_factors": list(kd.k1.invariant_factors),
            "kernel_basis": [list(basis.col(j)) for j in range(basis.cols)],
        },
    }


def _run_k(cfg) -> int:
    g = _load(cfg.graph)
    if not g.row_finite:
        raise ParseError("K-data needs a row-finite graph")
    sp = capped_spectrum(g, cfg.point_cap, cfg.vertex_cap)
    by_mask = {y.pointset: y for y in locally_closed_sets(sp)}
    if cfg.all:
        chosen = list(by_mask.values())
    else:
        mask = (sp.full if cfg.subquotient is None
                else _parse_pointset(cfg.subquotient, sp.npoints))
        if mask not in by_mask:
            raise ParseError("pointset is not locally closed")
        chosen = [by_mask[mask]]
    entries = [_k_entry(g, y) for y in chosen]
    payload = {"subquotients": entries}

    lines = []
    for e in entries:
        pts = ",".join(f"p{k}" for k in e["pointset"])
        lines.append(f"subquotient {{{pts}}}: vertices "
                     + (",".join(map(_shown, e["vertices"])) or "none"))
        lines.append("  K0 factors: "
                     + (",".join(map(str, e["k0"]["invariant_factors"])) or "-"))
        for v, gen in zip(e["vertices"], e["k0"]["cone_generators"]):
            lines.append(f"  [{_shown(v)}] = {tuple(gen)}")
        lines.append(f"  unit = {tuple(e['k0']['unit_class'])}")
        lines.append("  K1 factors: "
                     + (",".join(map(str, e["k1"]["invariant_factors"])) or "-"))
    text = "\n".join(lines) + "\n"
    _emit(payload, text, None, cfg)
    return 0


# -- compare ----------------------------------------------------------------

def _run_compare(cfg) -> int:
    from .search import compare, verify_compatible_witness   # only a compare loads the search
    caps = {"point_cap": cfg.point_cap, "vertex_cap": cfg.vertex_cap}
    a = assemble(_load(cfg.graph_a), **caps)
    g_b = _load(cfg.graph_b)
    # equal graphs give equal invariants: a self-compare assembles once
    b = a if g_b == a.space.graph else assemble(g_b, **caps)
    unital = not cfg.no_unit
    verdict = compare(a, b, unital=unital, budget=cfg.budget)
    replay = None
    if verdict.outcome == "COMPATIBLE":
        replay = verify_compatible_witness(a, b, verdict.witness).passed
    payload = {"outcome": verdict.outcome, "unital": unital,
               "budget": cfg.budget, "witness": verdict.witness,
               "replay_passed": replay}
    lines = [f"outcome: {verdict.outcome}",
             f"witness: {verdict.witness.get('kind')}"]
    if replay is not None:
        lines.append(f"replay: {'ok' if replay else 'FAILED'}")
    text = "\n".join(lines) + "\n"
    _emit(payload, text, None, cfg)
    return 0


# -- check ------------------------------------------------------------------

def _run_check(cfg) -> int:
    from .sixterm import verify_exactness, verify_well_definedness   # k never loads these
    g = _load(cfg.graph)
    sp = capped_spectrum(g, cfg.point_cap, cfg.vertex_cap)
    suites = [
        ("kuratowski", verify_kuratowski(sp)),
        ("lattice-iso", verify_open_ideal_iso(sp)),
        ("kernel-identity", verify_kernel_identity(sp)),
        ("t0", verify_t0(sp)),
        ("well-definedness", verify_well_definedness(g, sp)),
        # None: skipped, exactness needs the K layer
        ("exactness", verify_exactness(g, sp) if g.row_finite else None),
    ]
    entries = []
    ok = True
    lines = []
    for name, rep in suites:
        if rep is None:
            entries.append({"name": name, "skipped": True, "passed": None,
                            "checks": 0, "failures": []})
            lines.append(f"SKIP {name} (graph not row-finite)")
            continue
        ok &= rep.passed
        entries.append({"name": name, "skipped": False, "passed": rep.passed,
                        "checks": rep.checks,
                        "failures": list(rep.failures)})
        lines.append(f"{'PASS' if rep.passed else 'FAIL'} {name}"
                     f" ({rep.checks} checks)")
    payload = {"suites": entries, "ok": ok}
    lines.append("ok" if ok else "FAILED")
    _emit(payload, "\n".join(lines) + "\n", None, cfg)
    return 0 if ok else 1


# -- plumbing ---------------------------------------------------------------

# Each subcommand's runner, positionals and options (`lattice` builds no spectrum,
# so no point cap).  An option maps its flag to (dest, kind, default): kind None
# is a switch, `int` takes an integer, and a string is the metavar of a value,
# or lists the values allowed between `|`s.
_LATTICE = {"--format": ("format", "text|json", "text"),
            "--vertex-cap": ("vertex_cap", int, DEFAULT_VERTEX_CAP)}
_COMMON = {**_LATTICE, "--point-cap": ("point_cap", int, DEFAULT_POINT_CAP)}
COMMANDS = {
    "spectrum": (_run_spectrum, ("graph",), {"--dot": ("dot", None, False), **_COMMON}),
    "lattice": (_run_lattice, ("graph",), {"--dot": ("dot", None, False), **_LATTICE}),
    "k": (_run_k, ("graph",), {"--subquotient": ("subquotient", "POINTS", None),
                               "--all": ("all", None, False), **_COMMON}),
    "compare": (_run_compare, ("graph_a", "graph_b"), {"--no-unit": ("no_unit", None, False),
                                                       "--budget": ("budget", int, DEFAULT_BUDGET),
                                                       **_COMMON}),
    "check": (_run_check, ("graph",), _COMMON),
}
_EXCLUSIVE = ("--subquotient", "--all")   # adjacent in their table; at most one per run


def usage(command: str) -> str:
    """The synopsis line of a subcommand, as `-h` prints it."""
    _, positionals, options = COMMANDS[command]
    words = [f"[{flag}{ {None: '', int: ' N'}.get(kind, f' {kind}')}]"
             for flag, (_, kind, _) in options.items()]
    return " ".join(["fk-graph", command, *map(str.upper, positionals), *words]).replace(
        f"] [{_EXCLUSIVE[1]}]", f" | {_EXCLUSIVE[1]}]")


def _option(word: str, table: dict):
    """None when word is a value, else (the flag of table it names in full or
    by a unique prefix, or "" for none; the value after its `=`, or None)."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    flag, eq, attached = word.partition("=")
    hits = [flag] if flag in table else [f for f in table if f.startswith(flag)]
    if len(hits) == 1:
        return hits[0], attached if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else ("", None)


def parse_args(argv) -> SimpleNamespace | None:
    """The fields of argv by the table, or None once help is printed.  Words are
    read in argparse's order; unknown and missing ones are reported last."""
    table = dict.fromkeys(("-h", "--help"), ("help", None, None))
    names, fields, words, given, extra, seen = ["command"], {}, list(argv), [], [], set()
    while words:
        word = words.pop(0)
        opt = _option(word, table)
        if word == "--" and given:   # after the subcommand, only values follow
            given += words
            break
        if opt is None and not given:   # the subcommand; its table reads what follows
            if word not in COMMANDS:
                raise ParseError(f"invalid command {word!r} (choose from {', '.join(COMMANDS)})")
            _, positionals, options = COMMANDS[word]
            names += positionals
            table.update(options)
            fields.update((dest, default) for dest, _, default in options.values())
        if opt is None or not opt[0]:
            (given if opt is None else extra).append(word)
            continue
        flag, value = opt
        dest, kind, _ = table[flag]
        if kind is None and value is not None:
            raise ParseError(f"argument {flag}: ignored explicit argument {value!r}")
        if dest == "help":
            sys.stdout.write("".join(f"usage: {usage(c)}\n" for c in given[:1] or COMMANDS))
            return None
        if kind is not None and value is None:
            if not words or words[0] == "--" or _option(words[0], table) is not None:
                raise ParseError(f"argument {flag}: expected one argument")
            value = words.pop(0)
        if isinstance(kind, str) and "|" in kind and value not in kind.split("|"):
            raise ParseError(f"argument {flag}: invalid choice: {value!r} (choose from {kind})")
        try:
            fields[dest] = True if kind is None else int(value) if kind is int else value
        except ValueError:
            raise ParseError(f"argument {flag}: invalid int value: {value!r}") from None
        if flag in _EXCLUSIVE and (clash := seen.intersection(_EXCLUSIVE) - {flag}):
            raise ParseError(f"argument {flag}: not allowed with argument {clash.pop()}")
        seen.add(flag)
    if len(given) < len(names):
        raise ParseError("the following arguments are required: " + ", ".join(names[len(given):]))
    if extra or len(given) > len(names):
        raise ParseError("unrecognized arguments: " + " ".join(extra + given[len(names):]))
    return SimpleNamespace(**fields, **dict(zip(names, given)))


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        if cfg is None:
            return 0
        if getattr(cfg, "dot", False) and cfg.format == "json":
            raise ParseError("--dot and --format json are mutually exclusive")
        if min(cfg.vertex_cap, getattr(cfg, "point_cap", 1)) < 1:
            raise ParseError("caps must be positive")
        if cfg.command == "compare" and cfg.budget < 1:
            raise ParseError("budget must be >= 1")
        return COMMANDS[cfg.command][0](cfg)
    except CapExceeded as e:
        print(f"fk-graph: cap exceeded: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as e:
        print(f"fk-graph: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
