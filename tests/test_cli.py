import contextlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tomllib
from collections import Counter

import jsonschema
import pytest

import fkgraph
from fkgraph import cli, invariant
from fkgraph.cli import main
from fkgraph.errors import ParseError
from fkgraph.invariant import DEFAULT_BUDGET

from oracles import build_parser
from test_graphs import _json_mirror

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
GRAPHS = ROOT / "graphs"
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, json.loads((SCHEMAS / schema).read_text()))
    return payload


def gpath(name):
    return str(GRAPHS / f"{name}.graph")


def test_spectrum_example(capsys):
    payload = run_json(capsys, "spectrum.schema.json",
                       "spectrum", gpath("g3"), "--format", "json")
    assert len(payload["points"]) == 2
    assert len(payload["opens"]) == 3
    assert payload["specialization"] == [[0, 1]]


def test_spectrum_text_and_dot(capsys):
    code, out, _ = run(capsys, "spectrum", gpath("g3"))
    assert code == 0
    assert out.startswith("points: 2\n")
    code, out, _ = run(capsys, "spectrum", gpath("g3"), "--dot")
    assert code == 0
    assert out.startswith("digraph spectrum {")
    assert "p0 -> p1;" in out


def test_lattice_outputs(capsys):
    payload = run_json(capsys, "lattice.schema.json",
                       "lattice", gpath("g4"), "--format", "json")
    assert payload["bottom"] == 0 and payload["top"] == 2
    assert payload["covers"] == [[0, 1], [1, 2]]
    code, out, _ = run(capsys, "lattice", gpath("g4"), "--dot")
    assert code == 0
    assert "i0 -> i1;" in out and "i1 -> i2;" in out


@pytest.mark.parametrize("command", ["spectrum", "lattice"])
def test_dot_labels_are_escaped(capsys, tmp_path, command):
    path = tmp_path / "quoted.graph"
    # a chain x -> a"b -> c\d of looped vertices: both names label a prime
    path.write_text('vertex x\nvertex a"b\nvertex c\\d\nedge x x 2\nedge x a"b\n'
                    'edge a"b a"b 2\nedge a"b c\\d\nedge c\\d c\\d 2\n')
    code, out, _ = run(capsys, command, str(path), "--dot")
    assert code == 0
    labels = re.findall(r"\[label=(.*)\];$", out, re.M)
    assert labels and all(re.fullmatch(r'"(?:[^"\\]|\\.)*"', lab) for lab in labels), out
    # each name as text output prints it, a JSON string here, then DOT-escaped
    dot = str.maketrans({"\\": "\\\\", '"': '\\"'})
    assert all(json.dumps(v).translate(dot) in out for v in ('a"b', "c\\d")), out


def test_text_output_quotes_names_that_need_it(capsys, tmp_path):
    # vertices `a,b` and `c` must not read as three vertices a, b and c;
    # a plain name stays bare.  Looped x feeds the looped sinks a,b and c.
    path = tmp_path / "names.json"
    edges = [("a,b", "a,b", 3), ("c", "c", 3), ("x", "x", 2), ("x", "a,b", 1), ("x", "c", 1)]
    path.write_text(json.dumps({"vertices": ["a,b", "c", "x"], "edges": [
        {"src": v, "dst": w, "mult": m} for v, w, m in edges]}))
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0 and 'p2: H={"a,b",c} S={}\n' in out, out
    code, out, _ = run(capsys, "lattice", str(path))
    assert code == 0 and 'i3: H={"a,b",c} S={}\n' in out, out
    code, out, _ = run(capsys, "k", str(path), "--all")
    assert code == 0 and 'vertices "a,b",c\n' in out and '  ["a,b"] = (1,)\n' in out, out


def test_k_full_space_default(capsys):
    payload = run_json(capsys, "k.schema.json",
                       "k", gpath("g4"), "--format", "json")
    (entry,) = payload["subquotients"]
    assert entry["vertices"] == ["v1", "v2"]
    assert entry["k0"]["invariant_factors"] == [0]
    assert entry["k0"]["cone_generators"] == [[1], [0]]
    assert entry["k0"]["unit_class"] == [1]
    assert entry["k1"]["invariant_factors"] == [0]
    assert entry["k1"]["kernel_basis"] == [[0, 1]]


def test_k_subquotient_selection(capsys):
    payload = run_json(capsys, "k.schema.json",
                       "k", gpath("g4"), "--subquotient", "0", "--format", "json")
    (entry,) = payload["subquotients"]
    assert entry["pointset"] == [0]
    payload = run_json(capsys, "k.schema.json",
                       "k", gpath("g4"), "--subquotient", "-", "--format", "json")
    assert payload["subquotients"][0]["pointset"] == []
    payload = run_json(capsys, "k.schema.json",
                       "k", gpath("g4"), "--all", "--format", "json")
    assert [e["pointset"] for e in payload["subquotients"]] == [
        [], [0], [1], [0, 1]]


def test_k_rejections(capsys):
    code, _, err = run(capsys, "k", gpath("g4"), "--subquotient", "7")
    assert code == 1 and "out of range" in err
    # {p0, p2} is not a difference of opens in a 3-chain spectrum
    code, _, err = run(capsys, "k", gpath("blocks6"), "--subquotient", "0,2")
    assert code == 1 and "not locally closed" in err
    code, _, err = run(capsys, "k", gpath("inf_emitter"))
    assert code == 1 and "row-finite" in err


def test_k_subquotient_input_errors(capsys):
    assert run(capsys, "k", gpath("g4"), "--subquotient", "0,x") == (
        1, "", "fk-graph: bad point index 'x'\n")
    # only ASCII decimal digits name a point
    for bad in ("+1", " 1", "\u0661", "1_0", "-1", ""):
        assert run(capsys, "k", gpath("g4"), "--subquotient", bad) == (
            1, "", f"fk-graph: bad point index {bad!r}\n"), bad
    assert run(capsys, "k", gpath("g4"), "--subquotient", "10") == (
        1, "", "fk-graph: point index 10 out of range\n")
    code, out, err = run(capsys, "k", gpath("g4"), "--subquotient", "0", "--all")
    assert (code, out) == (1, "") and "not allowed with argument" in err


def test_compare_examples(capsys):
    payload = run_json(capsys, "compare.schema.json", "compare",
                       gpath("g1"), gpath("o2"), "--format", "json")
    assert payload["outcome"] == "DISTINGUISHED"
    payload = run_json(capsys, "compare.schema.json", "compare",
                       gpath("o2"), gpath("complete2"), "--format", "json")
    assert payload["outcome"] == "COMPATIBLE"
    assert payload["replay_passed"] is True
    payload = run_json(capsys, "compare.schema.json", "compare",
                       gpath("g1"), gpath("cycle2"), "--no-unit",
                       "--format", "json")
    assert payload["outcome"] == "COMPATIBLE" and payload["unital"] is False


def test_self_compare_is_by_graph_value(capsys, monkeypatch, tmp_path, corpus):
    # a graph against its JSON mirror is a self-compare: one assembly, and
    # the output of the self-compare of the text file
    assembled = []
    real = cli.assemble

    def counting(g, **caps):
        assembled.append(g)
        return real(g, **caps)
    monkeypatch.setattr(cli, "assemble", counting)
    mirror = tmp_path / "mixed5.json"
    mirror.write_text(json.dumps(_json_mirror(corpus["mixed5"])))
    want = run(capsys, "compare", gpath("mixed5"), gpath("mixed5"), "--format", "json")
    assert assembled == [corpus["mixed5"]]
    assembled.clear()
    assert run(capsys, "compare", gpath("mixed5"), str(mirror), "--format", "json") == want
    assert assembled == [corpus["mixed5"]]


def test_budget_sources(capsys):
    payload = run_json(capsys, "compare.schema.json", "compare",
                       gpath("g1"), gpath("g1"), "--format", "json")
    assert payload["budget"] == DEFAULT_BUDGET
    payload = run_json(capsys, "compare.schema.json", "compare",
                       gpath("g1"), gpath("g1"), "--budget", "1",
                       "--format", "json")
    assert payload["budget"] == 1


def test_check_subcommand(capsys):
    payload = run_json(capsys, "check.schema.json",
                       "check", gpath("g4"), "--format", "json")
    assert payload["ok"] is True
    names = [s["name"] for s in payload["suites"]]
    assert names == ["kuratowski", "lattice-iso", "kernel-identity", "t0",
                     "well-definedness", "exactness"]
    payload = run_json(capsys, "check.schema.json",
                       "check", gpath("inf_emitter"), "--format", "json")
    assert payload["ok"] is True
    skipped = {s["name"] for s in payload["suites"] if s["skipped"]}
    assert skipped == {"exactness"}


def test_exit_codes(capsys):
    code, _, err = run(capsys, "spectrum", "no_such_file.graph")
    assert code == 1
    code, _, err = run(capsys, "compare", gpath("g4"), gpath("g4"),
                       "--point-cap", "1")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "spectrum", gpath("mixed5"), "--point-cap", "2")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "check", gpath("mixed5"), "--point-cap", "2")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "spectrum", gpath("g3"), "--dot",
                     "--format", "json")
    assert code == 1
    code, _, _ = run(capsys, "compare", gpath("g1"), gpath("g1"),
                     "--budget", "0")
    assert code == 1
    code, _, _ = run(capsys, "spectrum", gpath("g3"), "--vertex-cap", "0")
    assert code == 1
    code, _, _ = run(capsys, "lattice", gpath("g3"), "--vertex-cap", "0")
    assert code == 1
    # lattice builds no spectrum, so it takes no point cap
    code, _, err = run(capsys, "lattice", gpath("g3"), "--point-cap", "3")
    assert code == 1 and err == "fk-graph: unrecognized arguments: --point-cap 3\n"


def test_malformed_json_graph_is_a_parse_error(capsys, tmp_path):
    # these used to escape as TypeError tracebacks
    path = tmp_path / "bad.graph"
    for text, msg in (('{"vertices": ["a"], "edges": 5}', "`edges` must be a list"),
                      ('{"vertices": ["a"], "edges": [{"src": ["a"], "dst": "a"}]}',
                       "unknown vertex ['a']")):
        path.write_text(text)
        assert run(capsys, "spectrum", str(path)) == (1, "", f"fk-graph: {msg}\n")


@pytest.mark.parametrize("form", ["line", "json"])
def test_byte_order_mark_is_skipped(capsys, tmp_path, form):
    # a file saved with a BOM reads as the same graph, in either format
    text = (GRAPHS / "inf_emitter.graph").read_text()
    if form == "json":
        text = json.dumps(_json_mirror(fkgraph.parse_graph(text)))
    plain, marked = tmp_path / "plain.graph", tmp_path / "marked.graph"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for argv in (["spectrum"], ["lattice", "--format", "json"], ["check"]):
        want = run(capsys, *argv, str(plain))
        assert want[0] == 0
        assert run(capsys, *argv, str(marked)) == want


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "nested.graph"
    path.write_text('{"vertices": ' + "[" * 100_000)
    assert run(capsys, "spectrum", str(path)) == (
        1, "", "fk-graph: bad JSON: nested too deeply\n")


def test_k_builds_no_sequence(capsys, monkeypatch, row_finite_corpus):
    # `k` prints K-data only, so it never assembles or even imports the
    # six-term layer: here any import of `sixterm` raises ImportError
    def refuse(*args, **kwargs):
        raise AssertionError("k built a six-term sequence")
    for mod, name in ((cli, "assemble"), (invariant, "assemble")):
        monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setitem(sys.modules, "fkgraph.sixterm", None)
    monkeypatch.delattr(fkgraph, "sixterm", raising=False)
    builds = []
    real_k_data = cli.k_data

    def counting(g, y):
        builds.append(y.pointset)
        return real_k_data(g, y)
    monkeypatch.setattr(cli, "k_data", counting)
    for name in row_finite_corpus:
        everything = run_json(capsys, "k.schema.json",
                              "k", gpath(name), "--all", "--format", "json")
        for entry in everything["subquotients"]:
            builds.clear()
            arg = ",".join(map(str, entry["pointset"])) or "-"
            one = run_json(capsys, "k.schema.json", "k", gpath(name),
                           "--subquotient", arg, "--format", "json")
            assert one["subquotients"] == [entry], (name, arg)
            assert len(builds) == 1, (name, arg)


def test_byte_stable_outputs(capsys):
    seen = {}
    for _ in range(2):
        for argv in (("spectrum", gpath("mixed5"), "--format", "json"),
                     ("k", gpath("mixed5"), "--all", "--format", "json"),
                     ("compare", gpath("fanout"), gpath("fanout"),
                      "--format", "json"),
                     ("lattice", gpath("blocks6"), "--dot")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            if argv in seen:
                assert seen[argv] == out
            seen[argv] = out


def test_check_seven_point_chain(capsys, tmp_path):
    # seven points at the default cap: Kuratowski runs over all 128 subsets
    names = [f"v{i}" for i in range(7)]
    lines = [f"vertex {v}" for v in names] + [f"edge {v} {v} 2" for v in names]
    lines += [f"edge {a} {b}" for a, b in zip(names, names[1:])]
    path = tmp_path / "chain7.graph"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "PASS kuratowski (8513 checks)" in out and out.endswith("ok\n")


def test_console_script_wiring():
    # the declared entry point, run by the interpreter under test, so an
    # uninstalled checkout needs no `fk-graph` on PATH
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fk-graph": "fkgraph.cli:main"}
    module, attr = scripts["fk-graph"].split(":")
    env = {**os.environ,
           "PYTHONPATH": str(pathlib.Path(fkgraph.__file__).parent.parent)}
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", code, "check", gpath("g3")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


# -- arguments ----------------------------------------------------------------

def _argparse_reading(argv):
    """The reference parser's fields for argv, or the exit code `main` gave."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as e:
            return 1 if e.code else 0


def _table_reading(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cfg = cli.parse_args(argv)
        except ParseError:
            return 1
    return 0 if cfg is None else vars(cfg)


# values for each option that takes one, negative numbers among them
_VALUES = {"--format": ("text", "json"), "--vertex-cap": ("3", "0", "+4"),
           "--point-cap": ("5", "-2"), "--subquotient": ("0,1", "-", "-1"),
           "--budget": ("5", "-1")}


def _random_argv(rng):
    """A valid command line in a random order and spelling, then maybe one fault."""
    command = rng.choice(list(cli.COMMANDS))
    _, positionals, options = cli.COMMANDS[command]
    flags = [f for f in options if rng.random() < 0.6]
    if {"--subquotient", "--all"} <= set(flags):
        flags.remove(rng.choice(["--subquotient", "--all"]))
    words = []
    for flag in flags:
        # every flag differs from the others of its command by its third character
        name = flag if rng.random() < 0.5 else flag[:rng.randrange(3, len(flag) + 1)]
        if flag not in _VALUES:
            words.append([name])
        elif rng.random() < 0.5:
            words.append([f"{name}={rng.choice(_VALUES[flag])}"])
        else:
            words.append([name, rng.choice(_VALUES[flag])])
    graphs = [f"{p}.graph" for p in positionals]
    rng.shuffle(words)
    cut = rng.randrange(len(words) + 1)
    argv = [command, *sum(words[:cut], []), *graphs, *sum(words[cut:], [])]
    if rng.random() < 0.2:   # the graphs last, after `--`
        argv = [command, *sum(words, []), "--", *graphs]
    fault = rng.randrange(12)
    if fault == 0:
        argv.remove(graphs[-1])
    elif fault == 1:
        argv.append("extra.graph")
    elif fault == 2:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    elif fault == 3:
        argv += ["--format", "xml"] if rng.random() < 0.5 else ["--point-cap=seven"]
    elif fault == 4:
        argv.append(rng.choice([f for f in options if f in _VALUES]))   # no value
    elif fault == 5:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["-h", "--help", "--he"]))
    elif fault == 6:
        argv[0] = rng.choice(["spec", "K", "bogus"])
    return argv


_FIXED = [
    [], ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["bogus", "-h"], ["--bogus", "-h"],
    ["--format", "json", "k", "g"], ["--", "k", "g"], ["k"], ["k", "-h"], ["compare", "a", "-h"],
    ["k", "g", "--subquotient", "-"], ["k", "g", "--subquotient=-"], ["k", "--sub", "-", "g"],
    ["k", "g", "--subquotient", "0", "--all"], ["k", "g", "--all", "--subquotient", "0"],
    ["k", "g", "--subquotient", "0", "--subquotient", "1"], ["k", "g", "--all", "--all"],
    ["k", "g", "--all=1"], ["k", "g", "--dot"], ["k", "g", "--=1"], ["k", "g", "--subquotient"],
    ["k", "g", "--subquotient", "--all"], ["k", "--subquotient", "--", "g"],
    ["k", "g", "--subquotient", "-x"], ["k", "g", "--subquotient", "-.5"],
    ["k", "g", "--subquotient", "-0,1 2"], ["k", "--", "g"], ["k", "--", "-g"], ["k", "g", "--"],
    ["k", "--all", "--", "-1"], ["k", "--", "g", "--all"], ["k", "-", "--all"], ["k", "-1"],
    ["k", "g", "-x"], ["k", "g", "-hx"], ["k", "g", "--help=1"], ["k", "g", "-h=1"],
    ["k", "--not a flag"], ["k", "g", "--format="], ["k", "g", "--format", "json", "--format", "text"],
    ["compare", "a", "b", "--budget", "-1"], ["compare", "a", "b", "--budget=-1"],
    ["compare", "a", "b", "--budget", "x"], ["compare", "a", "b", "--budget", "1.5"],
    ["compare", "a", "b", "--budget", " 7 "], ["compare", "a", "b", "--budget", "1_0"],
    ["compare", "a", "b", "--budget"], ["compare", "a", "b", "--no-unit=x"], ["compare", "a"],
    ["compare", "a", "b", "c"], ["compare", "--no", "a", "--b", "3", "b"],
    ["compare", "a", "--", "b"], ["compare", "--", "a", "b"], ["spectrum", "g", "--d"],
    ["spectrum", "g", "--dot", "--format", "json"], ["lattice", "g", "--vertex-cap", "-3"],
    ["check", "g", "--dot"], ["check", "g", "--all"], ["check", "g", "h"],
]


def test_table_parser_reads_argv_as_argparse_did(capsys):
    """The table parser against the argparse reference on a seeded corpus.

    Where argparse accepts, the fields are the same; where it exits, `main`
    returns the same code.  Three readings of argparse are not kept, and the
    corpus does not draw them; the last assertions pin the table's reading.
    argparse classifies every word before it acts on any, so an ambiguous
    prefix or `-hx` after `-h` is an error there, while the table prints
    help.  It rejects a `--` that follows an option once every positional
    is filled, where the table skips it.  And it reads `compare a -- --` as
    graph_b = [], where the table gives "--".
    """
    rng = random.Random(21)
    corpus = _FIXED + [_random_argv(rng) for _ in range(600)]
    outcomes = Counter()
    for argv in corpus:
        want = _argparse_reading(argv)
        assert _table_reading(argv) == want, argv
        if not isinstance(want, dict):
            assert main(argv) == want, argv
            capsys.readouterr()
        outcomes["accepted" if isinstance(want, dict) else want] += 1
    assert min(outcomes[k] for k in ("accepted", 0, 1)) > 30, outcomes
    for command, (_, _, options) in cli.COMMANDS.items():   # each option in full, both forms
        for flag in options:
            spelled = {w.partition("=")[1] for argv in corpus if argv[:1] == [command]
                       for w in argv if w.partition("=")[0] == flag}
            assert spelled == {"", "="} or flag not in _VALUES and spelled == {""}, (command, flag)
    assert _table_reading(["k", "g", "-h", "--=1"]) == 0
    assert _table_reading(["k", "g", "-h", "-hx"]) == 0
    assert _table_reading(["k", "g", "--all", "--"])["graph"] == "g"
    assert _table_reading(["compare", "a", "--", "--"])["graph_b"] == "--"


def test_help_prints_the_synopsis_lines(capsys):
    block = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("fk-graph ")]
    assert block == [cli.usage(c) for c in cli.COMMANDS]
    assert main(["--help"]) == 0
    assert capsys.readouterr() == ("".join(f"usage: {line}\n" for line in block), "")
    assert main(["compare", "a.graph", "--budget", "3", "-h"]) == 0
    assert capsys.readouterr() == (f"usage: {block[3]}\n", "")
    assert "--point-cap" not in block[1] and all("--point-cap" in line
                                                   for line in block[:1] + block[2:])


def test_every_rejection_is_one_line(capsys):
    for argv in ([], ["bogus"], ["k"], ["k", "g", "--all=1"], ["k", "g", "--subquotient"],
                 ["compare", "a", "b", "--budget", "x"], ["spectrum", "g", "--format", "xml"],
                 ["check", "g", "--bogus", "h"]):
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("fk-graph: ") and err.count("\n") == 1, argv
    assert main(["k", "g", "--subquotient", "0", "--all"]) == 1
    assert capsys.readouterr().err == (
        "fk-graph: argument --all: not allowed with argument --subquotient\n")
