"""Census 1 and the full rank-2 census, one record per compare, checked
against the records kept beside the digests of `test_output_digests.py`.

    PYTHONPATH=src python tests/census.py [--re-record]

Census 1 is every pair i <= j of `oracles.census_one_graphs` with equal
point counts, the rank-2 census every pair i < j of
`oracles.census_two_graphs`; each is compared with the unit, then without,
at the default budget.  A record is one line per compare,

    i j unital outcome witness

with unital 1 or 0 and witness the first 12 hex digits of the sha256 of the
witness's JSON (keys sorted).  The census files are `census_one.records` and
`census_two.records` in this directory.

The script prints the transition table: for each census and each
(recorded, new) pair of outcomes, the number of compares whose record moved
(a witness that moved under the same outcome counts as a transition too; a
compare with no record, or a record with no compare, reads as `-`).  Only
UNKNOWN -> COMPATIBLE and UNKNOWN -> DISTINGUISHED are allowed: any other
transition makes the script exit 1 and leave the records as they are.
`--re-record` writes the new records whatever moved; every re-record goes in
CHANGES.md with its table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time
from collections import Counter

from fkgraph.invariant import COMPATIBLE, DISTINGUISHED, UNKNOWN, assemble, compare
from oracles import census_one_graphs, census_two_graphs

HERE = pathlib.Path(__file__).resolve().parent
HEADER = "# i j unital outcome witness\n"
ABSENT = "-"

# census -> (graphs, first j for each i: i itself or the next one)
CENSUSES = {"census_one": (census_one_graphs, 0), "census_two": (census_two_graphs, 1)}


def run_census(graphs, offset: int) -> dict[tuple[int, int, int], tuple[str, str]]:
    """(i, j, unital) -> (outcome, witness hash) for every compare of a census."""
    fks = [assemble(g) for g in graphs]
    out = {}
    for i, a in enumerate(fks):
        for j in range(i + offset, len(fks)):
            if a.space.npoints != fks[j].space.npoints:
                continue
            for unital in (1, 0):
                v = compare(a, fks[j], bool(unital))
                text = json.dumps(v.witness, sort_keys=True).encode()
                out[i, j, unital] = v.outcome, hashlib.sha256(text).hexdigest()[:12]
    return out


def read_records(path: pathlib.Path) -> dict[tuple[int, int, int], tuple[str, str]]:
    if not path.exists():
        return {}
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            i, j, unital, outcome, witness = line.split()
            out[int(i), int(j), int(unital)] = outcome, witness
    return out


def write_records(path: pathlib.Path, records) -> None:
    lines = (f"{i} {j} {u} {outcome} {witness}\n"
             for (i, j, u), (outcome, witness) in records.items())
    path.write_text(HEADER + "".join(lines), encoding="utf-8")


def transitions(old: dict, new: dict) -> Counter:
    """(recorded outcome, new outcome) -> compares whose record moved."""
    moved = Counter()
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, (ABSENT, "")), new.get(key, (ABSENT, ""))
        if was != now:
            moved[was[0], now[0]] += 1
    return moved


def allowed(was: str, now: str) -> bool:
    """Only an UNKNOWN verdict may move, and only to a decided one."""
    return was == UNKNOWN and now in (COMPATIBLE, DISTINGUISHED)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--re-record", action="store_true",
                        help="write the new records whatever moved")
    args = parser.parse_args(argv)
    rows, refused = [], 0
    for name, (graphs, offset) in CENSUSES.items():
        path = HERE / f"{name}.records"
        start = time.perf_counter()
        new = run_census(graphs(), offset)
        tally = sorted(Counter(outcome for outcome, _ in new.values()).items())
        print(f"{name}: {len(new)} compares in {time.perf_counter() - start:.1f} s, "
              + ", ".join(f"{outcome} {n}" for outcome, n in tally))
        for (was, now), n in sorted(transitions(read_records(path), new).items()):
            rows.append((name, was, now, n))
            refused += not allowed(was, now)
        if args.re_record:
            write_records(path, new)
    print(f"{'census':<12}{'recorded':<15}{'new':<15}compares")
    for name, was, now, n in rows:
        mark = "" if allowed(was, now) else "  refused"
        print(f"{name:<12}{was:<15}{now:<15}{n}{mark}")
    if not rows:
        print("(no transitions)")
    if refused and not args.re_record:
        print(f"{refused} transition(s) other than UNKNOWN -> decided; records left as they "
              "are (--re-record writes them)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
