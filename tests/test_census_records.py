"""The census records kept beside the digests, and the transition rule of
`census.py`, which re-runs both censuses against them."""

from collections import Counter

import census
from census import ABSENT, allowed, read_records, transitions
from fkgraph.invariant import COMPATIBLE, DISTINGUISHED, UNKNOWN
from oracles import census_one_graphs
from test_output_digests import CENSUS_ONE_TALLY, CENSUS_TWO_SLICE, CENSUS_TWO_TALLY


def test_only_unknown_may_move_and_only_to_decided():
    old = {(0, 0, 1): (UNKNOWN, "a"), (0, 1, 1): (UNKNOWN, "b"), (0, 2, 1): (COMPATIBLE, "c"),
           (0, 3, 1): (DISTINGUISHED, "d"), (0, 4, 0): (COMPATIBLE, "e")}
    new = {(0, 0, 1): (DISTINGUISHED, "x"), (0, 1, 1): (UNKNOWN, "y"),
           (0, 2, 1): (COMPATIBLE, "z"), (0, 3, 1): (DISTINGUISHED, "d"),
           (0, 5, 0): (COMPATIBLE, "f")}
    moved = transitions(old, new)
    # a witness moving under the same outcome is a transition too
    assert moved == {(UNKNOWN, DISTINGUISHED): 1, (UNKNOWN, UNKNOWN): 1,
                     (COMPATIBLE, COMPATIBLE): 1, (COMPATIBLE, ABSENT): 1,
                     (ABSENT, COMPATIBLE): 1}
    assert [pair for pair in moved if allowed(*pair)] == [(UNKNOWN, DISTINGUISHED)]


def test_records_hold_the_pinned_censuses():
    # census 1's records tally as test_census_one pins it, the rank-2
    # census's records on graphs 40 to 99 as test_census_two_slice does
    one = read_records(census.HERE / "census_one.records")
    tally = {COMPATIBLE: CENSUS_ONE_TALLY[COMPATIBLE],
             DISTINGUISHED: sum(n for k, n in CENSUS_ONE_TALLY.items() if k != COMPATIBLE)}
    assert Counter(outcome for outcome, _ in one.values()) == tally
    two = read_records(census.HERE / "census_two.records")
    assert len(two) == 7454 and sum(o == UNKNOWN for o, _ in two.values()) == 42
    in_slice = Counter(o for (i, j, _), (o, _) in two.items()
                       if i in CENSUS_TWO_SLICE and j in CENSUS_TWO_SLICE)
    assert in_slice[COMPATIBLE] == CENSUS_TWO_TALLY[COMPATIBLE]
    assert in_slice[UNKNOWN] == CENSUS_TWO_TALLY[UNKNOWN]


def test_script_refuses_a_decided_move_unless_re_recording(tmp_path, monkeypatch, capsys):
    # a five-graph census in a scratch directory: recorded, re-run with no
    # transition, then with graph 0's self-compare recorded as DISTINGUISHED,
    # which is refused, and as UNKNOWN, which is allowed
    monkeypatch.setattr(census, "HERE", tmp_path)
    monkeypatch.setattr(census, "CENSUSES", {"tiny": (lambda: census_one_graphs()[:5], 0)})
    path = tmp_path / "tiny.records"
    assert census.main(["--re-record"]) == 0 and path.exists()
    assert census.main([]) == 0 and "(no transitions)" in capsys.readouterr().out
    header, first, *rest = path.read_text().splitlines(keepends=True)
    i, j, u, outcome, witness = first.split()
    assert (i, j, u, outcome) == ("0", "0", "1", COMPATIBLE)
    for recorded, code in ((DISTINGUISHED, 1), (UNKNOWN, 0)):
        edited = "".join([header, f"0 0 1 {recorded} {witness}\n", *rest])
        path.write_text(edited)
        assert census.main([]) == code, recorded
        assert path.read_text() == edited   # left as it is
    path.write_text("".join([header, *rest]))   # a compare with no record
    assert census.main([]) == 1
    assert census.main(["--re-record"]) == 0 and path.read_text().splitlines()[1] == first.strip()
