"""Byte-stable JSON: the sha256 of stdout for a fixed set of CLI invocations,
of every verdict of census 1, and of a slice of the rank-2 census.

A digest moves when any byte of an output moves, witness order included.
When a change to the outputs is intended, print the new table with

    PYTHONPATH=src python tests/test_output_digests.py

and paste it over DIGESTS below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from collections import Counter

from fkgraph.cli import main
from fkgraph.invariant import COMPATIBLE, DISTINGUISHED, UNKNOWN, assemble, compare
from oracles import census_one_graphs, census_two_graphs

GRAPHS = pathlib.Path(__file__).resolve().parent.parent / "graphs"
CORPUS = sorted(p.stem for p in GRAPHS.glob("*.graph"))


def _graph_text(mult: list[list[int]]) -> str:
    n = len(mult)
    return ("".join(f"vertex v{i}\n" for i in range(n))
            + "".join(f"edge v{i} v{j} {m}\n" for i, row in enumerate(mult)
                      for j, m in enumerate(row) if m))


def _blocks(*blocks: list[list[int]]) -> list[list[int]]:
    """Block-diagonal multiplicity matrix: disjoint components."""
    n = sum(map(len, blocks))
    out = [[0] * n for _ in range(n)]
    base = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[base + i][base:base + len(row)] = row
        base += len(b)
    return out


def _swap(k: int, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """k one-vertex Z/d blocks (unit 1) against the same with one block
    swapped for the two-vertex Z/d block of unit 2."""
    return (_blocks(*[[[d + 1]]] * k),
            _blocks([[1, d], [1, d]], *[[[d + 1]]] * (k - 1)))


# The (Z/d)^k swaps.  The (Z/3)^2 pair has K0 = (Z/3)^2 on one point with
# units (1, 0) and (1, 1): several automorphisms match the units, so its
# witness is the first of them in the order the automorphisms are generated.
# The last four are the search cliffs: each slot's automorphism group is
# large, so enumerating it whole instead of solving for it takes minutes.
PAIRS = {f"compare-swap/z{d}": _swap(3, d) for d in (2, 3)}
PAIRS["compare-unit/z3z3"] = ([[4, 3], [3, 7]], [[1, 3], [3, 1]])
PAIRS["compare-swap/z4"] = _swap(3, 4)
PAIRS["compare-swap/z2^4"] = _swap(4, 2)
PAIRS["compare-swap/z5"] = _swap(3, 5)
PAIRS["compare-self/z2^5"] = (_blocks(*[[[3]]] * 5),) * 2
# Disconnected spectra whose components decide what a whole-space search
# leaves UNKNOWN: the n = 3 sink pair (units (1, 1, 1) against (2, 1, 1))
# and fanout against two loops (unit images (2, 2) against (1, 1)).
PAIRS["compare-sinks/3"] = (_blocks([[0]], [[0]], [[0]]), _blocks([[0, 0], [1, 0]], [[0]], [[0]]))
PAIRS["compare-fanout/loops"] = ([[1, 0, 0], [1, 0, 1], [0, 0, 1]], _blocks([[1]], [[1]]))


def _deep(kinds: str, dag: list[tuple[int, int]], d: int) -> list[list[int]]:
    """Components in order ('f' the free 2-vertex block, '1' the one-vertex
    Z/d block), plus one edge from the first vertex of component i to the
    first vertex of component j for each DAG edge (i, j)."""
    comps = [[[2, 1], [1, 2]] if k == "f" else [[d + 1]] for k in kinds]
    mult = _blocks(*comps)
    first = [sum(map(len, comps[:c])) for c in range(len(comps))]
    for i, j in dag:
        mult[first[i]][first[j]] += 1
    return mult


# The check-deep shapes of the benchmark: 5, 6 and 7 points, one free block,
# the same DAGs and torsion orders; `check` builds every chain's sequence.
DEEP = {
    "5pt": _deep("11f11", [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)], 3),
    "6pt": _deep("111f11", [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3),
                            (3, 4)], 2),
    "7pt": _deep("111f111", [(0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3),
                             (2, 6), (3, 4), (3, 6), (4, 5)], 5),
}


# The two `SWAPPED` graphs of test_ktheory.py: saturation enlarges a
# presentation's carrier so that its canonical coordinates come out permuted.
# They are the only graphs here whose presentation changes are not identities.
SWAPPED = {
    "source_into_sinks": [[0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 1], [0, 0, 0, 0]],
    "source_into_loops": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0]],
}


def invocations(tmp: pathlib.Path) -> dict[str, list[str]]:
    """Name -> argv; the files of PAIRS and DEEP are written into `tmp`."""
    out = {}
    for name in CORPUS:
        path = str(GRAPHS / f"{name}.graph")
        out[f"k-all/{name}"] = ["k", path, "--all", "--format", "json"]
        out[f"check/{name}"] = ["check", path, "--format", "json"]
        out[f"spectrum/{name}"] = ["spectrum", path, "--format", "json"]
        out[f"compare-self/{name}"] = ["compare", path, path, "--format", "json"]
        out[f"spectrum-dot/{name}"] = ["spectrum", path, "--dot"]
        out[f"lattice-dot/{name}"] = ["lattice", path, "--dot"]
        out[f"lattice/{name}"] = ["lattice", path, "--format", "json"]
        out[f"check-text/{name}"] = ["check", path]
        out[f"spectrum-text/{name}"] = ["spectrum", path]
        out[f"lattice-text/{name}"] = ["lattice", path]
        out[f"k-text/{name}"] = ["k", path, "--all"]
    g4 = str(GRAPHS / "g4.graph")
    out["compare-self-text/g4"] = ["compare", g4, g4]
    for name, mults in PAIRS.items():
        paths = []
        for side, mult in zip("ab", mults):
            path = tmp / f"{name.replace('/', '-')}-{side}.graph"
            path.write_text(_graph_text(mult))
            paths.append(str(path))
        out[name] = ["compare", *paths, "--format", "json"]
    out["compare-no-unit/z3z3"] = [*out["compare-unit/z3z3"], "--no-unit"]
    for name, mult in DEEP.items():
        path = tmp / f"deep-{name}.graph"
        path.write_text(_graph_text(mult))
        out[f"check/deep-{name}"] = ["check", str(path), "--format", "json"]
        out[f"k-all/deep-{name}"] = ["k", str(path), "--all", "--format", "json"]
    for name, mult in SWAPPED.items():
        path = tmp / f"swapped-{name}.graph"
        path.write_text(_graph_text(mult))
        out[f"check/swapped-{name}"] = ["check", str(path), "--format", "json"]
        out[f"k-all/swapped-{name}"] = ["k", str(path), "--all", "--format", "json"]
    return out


def digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


DIGESTS = {
    "k-all/blocks6": (0, "12f479a9a100d98f2c7f7762540549e3b4af5eaa2f4f4716f475e7b43a2b6564"),
    "check/blocks6": (0, "b1fd1c60d0869508532f507bfed7838003279848dacc272cd3410d7d52673e4a"),
    "spectrum/blocks6": (0, "c31465e08bc83aaee2354b1ab5e8d2091503bdc5fb62e636d08112f8b1b45bf0"),
    "compare-self/blocks6": (0, "41039a897338710962890366e04cbf7babcce5f6c9f3f551456d48aea184bd33"),
    "spectrum-dot/blocks6": (0, "f431782b1ffe738e8725f4b50d9b79f380d9e18ed79b4ad1a51ba5bfe6ea13d9"),
    "lattice-dot/blocks6": (0, "9da7dc4e9497b4342ea60a8e6dddf5e9dee100ea9f8f437412afb65d77570ff3"),
    "lattice/blocks6": (0, "82c655f5a8142b235bda7d2b9e27120d91e4c56ae38388b6403b89127829be2a"),
    "check-text/blocks6": (0, "05d7ee8125a647b1b34bf1fef4c17d31da093ffe192850c59f7df5c9bed7dd0a"),
    "spectrum-text/blocks6": (0, "e7de15ee6e58c7704e34ddc7be72b969d7b5594c98281df5d99259cfb58e4188"),
    "lattice-text/blocks6": (0, "53b6cb70b772b76496b49da3488c4c28f2984384725aaef2812f226326be4bb3"),
    "k-text/blocks6": (0, "a92e0a4e741f459ee24392edffe370b253f15fb2cfb914e584818b74bf4c335e"),
    "k-all/chain3": (0, "73680f53a7a8919ff2bd116c42b64ca07935666fd864daf249fcfe07dd99a3db"),
    "check/chain3": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/chain3": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/chain3": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "spectrum-dot/chain3": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/chain3": (0, "6061439cc6cbf4aed6dff7a13b4824538738312fe6056056bd057d827b10a773"),
    "lattice/chain3": (0, "78380ad5d31416c3708bdd75895a6172d5c503614c9bda037e029338cfc1f444"),
    "check-text/chain3": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/chain3": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/chain3": (0, "a46683a76d99aad9b36aef4f1de49daab5d55c698cfffa66ab209981109b6630"),
    "k-text/chain3": (0, "b4843deac8b9e81739d353b864c5193b42cab3648b29d0dc1c112d8687b5c45b"),
    "k-all/complete2": (0, "4fead19ec8cd2dc3e8a581cec8d74f1354b8cb4229b11389c5685bf5e6d4ee4e"),
    "check/complete2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/complete2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/complete2": (0, "fe1092dedaebadc81ff7da59e15d00736f3bc77ac66198fc2d75060554faed01"),
    "spectrum-dot/complete2": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/complete2": (0, "c5d9e48af8821e7f1799642da21828b2718f2e8c007325c2469aa4307e2b5b05"),
    "lattice/complete2": (0, "98426c0b0321ad531b3627b4f53c4505a3517a89deebd2b732ec15e9d33b03c6"),
    "check-text/complete2": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/complete2": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/complete2": (0, "be9478f9c5d766c0c0d6a196d69f733bdf56ece13cc0658d15e0709f8c31fc95"),
    "k-text/complete2": (0, "de64a5eed48d4d00cb0d48deebdd7256fac966864d1a05b14834ab88b7e4cf84"),
    "k-all/cycle2": (0, "dad94105236e5a7eb36a38c94f46af99b354fc7241b1aa683233821972ef6aa6"),
    "check/cycle2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/cycle2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/cycle2": (0, "856ef06a61e7da5b7cd477b7c7c85e2cf34fb2ed64cce927f6c4e61794797269"),
    "spectrum-dot/cycle2": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/cycle2": (0, "c5d9e48af8821e7f1799642da21828b2718f2e8c007325c2469aa4307e2b5b05"),
    "lattice/cycle2": (0, "98426c0b0321ad531b3627b4f53c4505a3517a89deebd2b732ec15e9d33b03c6"),
    "check-text/cycle2": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/cycle2": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/cycle2": (0, "be9478f9c5d766c0c0d6a196d69f733bdf56ece13cc0658d15e0709f8c31fc95"),
    "k-text/cycle2": (0, "91f73adfe0fcaa576ea6bc419a0785a06530fcd8297d1d01652e581ebcd735e5"),
    "k-all/edge_ab": (0, "2563ba855b2c2efecd243fa1bbf364a91a9302cfe1d5d041c2751615a9cadf65"),
    "check/edge_ab": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/edge_ab": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/edge_ab": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "spectrum-dot/edge_ab": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/edge_ab": (0, "c5d9e48af8821e7f1799642da21828b2718f2e8c007325c2469aa4307e2b5b05"),
    "lattice/edge_ab": (0, "98426c0b0321ad531b3627b4f53c4505a3517a89deebd2b732ec15e9d33b03c6"),
    "check-text/edge_ab": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/edge_ab": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/edge_ab": (0, "be9478f9c5d766c0c0d6a196d69f733bdf56ece13cc0658d15e0709f8c31fc95"),
    "k-text/edge_ab": (0, "5bccd5be8c454aa4ecc3946e71a1620e9969f1865d85afdec561b3178087bc4f"),
    "k-all/fanin": (0, "e4a8311eb2c8ed95d7f876f04d915daece7b444952cd3e035d11367a4ef26d6d"),
    "check/fanin": (0, "e772cc71468a32d690795a898820066caa0736826feea9eb7b206096ba3ff411"),
    "spectrum/fanin": (0, "18b44437103f7df69cd91cd893b96bb57a5f8611de4399b6299c4177b9956fb5"),
    "compare-self/fanin": (0, "7f16dca9e53b580dd00e971173792ccd19b21435444c945eafc89af29ffb44f0"),
    "spectrum-dot/fanin": (0, "41a312f52ccc4cc667092a08702f28f10b345bc3e8d2678a6206b9110ecbf398"),
    "lattice-dot/fanin": (0, "702730171f3e44b57a5727f7bc35d1d2653ae3bd6664215863aedcbaad5ea803"),
    "lattice/fanin": (0, "546cdfb7c17ecfba480651575d781d11729732bcea7293c10e0a4f5ca822d4cb"),
    "check-text/fanin": (0, "50a63a654514a9f3a400abb0d3dc74ca1ed2ebd079abe0de4d92fc1a6731e6e9"),
    "spectrum-text/fanin": (0, "fa6f8d4fd5e872d1e1fce13c87fdd717926f2c056e03c6240284e1a0c19d5f5d"),
    "lattice-text/fanin": (0, "7ba9815382e1de56617acac1879ea925c98fa4364ed02af79d1930b011cdca8d"),
    "k-text/fanin": (0, "e5618c80d8a9fd0f69efea3121cef11b8602c64d8ea8247b6a6ab5cd000f2bd1"),
    "k-all/fanout": (0, "2bf1bb65548f4ad21eda910413a1ee2ce2a9eef46c523452bc39c64bc2073137"),
    "check/fanout": (0, "8ada6757f5193319dbac7dbb384257f0a93568fc0d9b0884d78efbbb20a350b2"),
    "spectrum/fanout": (0, "ea2e5efebcd062800e672d1a4492f1037ab979b9442491b5d54c6e2d09ad4365"),
    "compare-self/fanout": (0, "207fb64af4ec51a505294f7419fc8b8a588b38c353eb080c84210c5a7439e772"),
    "spectrum-dot/fanout": (0, "32af47130487b573f1c92dd4b61e603ea2e6a7632909585589efea0170d0bfaf"),
    "lattice-dot/fanout": (0, "e9153eacd62abc9f766dc372af60d77ed972d14eb59e262869e3bdcef2a99a70"),
    "lattice/fanout": (0, "f34bad8c579a84c980ea684f3994728a56265c1aa6072ce8cdeaaa99b28ee3be"),
    "check-text/fanout": (0, "842d2b8c38aae621605d72d14aee32b8b6604440fb3bcc7d867bb8dd1b465f95"),
    "spectrum-text/fanout": (0, "aa5b5febfea5487d9f3431f50be0927a8a2d84dc7f66637f0598f007d9fdb1c4"),
    "lattice-text/fanout": (0, "02d8e8536f481ef57f1fb0ddaff6c5282d941353c7136626d6fafeb6d068ae65"),
    "k-text/fanout": (0, "001dd2bf1edc2be2946b9e1babe9754a38733132f34397e6c3dff582dc1521ec"),
    "k-all/g1": (0, "5ea45cecb0682dfd0ad14686eb6b300d250af18cd0db8c5aca50269c1af7a703"),
    "check/g1": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/g1": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/g1": (0, "856ef06a61e7da5b7cd477b7c7c85e2cf34fb2ed64cce927f6c4e61794797269"),
    "spectrum-dot/g1": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/g1": (0, "df58acd2e04839be6e8eddf7f88fe6ce0270c9e03cbff44b31340a840a68be3b"),
    "lattice/g1": (0, "1b94495bae6a0ae078e59422724da41b455ed6f8d777a2b1dbaa72fd7eb893b1"),
    "check-text/g1": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/g1": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/g1": (0, "1e1135777b2e267a1c6b1e1939eeeffc1f23ec81a520fdfe41766dcf2eaa1b0d"),
    "k-text/g1": (0, "67055b7f5dc733c0757476ea97f4c2b0385ec10eb3c3c4ee3c1b906ea1281c47"),
    "k-all/g3": (0, "56d0cd6883f0d0ab6c1c639a2f0e2bfc24fedeced5004397f82fe1816063fc39"),
    "check/g3": (0, "cb41727b0b62f3c96431fa1fe8e843f9231c823276eb179502f7c11b3a5e4531"),
    "spectrum/g3": (0, "2b42993eb7851451ff4bdf9d321a75fdad0329be3b8a665bd63ff618c3b16470"),
    "compare-self/g3": (0, "e3335fe1f2541c648c7c2ec131e79a0bea727e4ce602a16e10ab25aaadb14c90"),
    "spectrum-dot/g3": (0, "4414debf73fe01e486029921686175f5425a525e41e72023811d76c23bcd1a42"),
    "lattice-dot/g3": (0, "df006bc2de46f26d42e4651c09b55d3c2674a45caf49d1f3741b2589aedd1875"),
    "lattice/g3": (0, "e94d658adae1784dc727ce5e5f55cfed132490293646ee4a937029fee0ce7e6a"),
    "check-text/g3": (0, "7b0f34b60d12982b6de319afaf9397244da2565cd261c0326312a43516418bb0"),
    "spectrum-text/g3": (0, "83fbaa708df7c2eb316d65f14c0c70823d5d9a910d678c4a40a15b1912a77eab"),
    "lattice-text/g3": (0, "921a13980927c5d0d3595601d2ea9cf218439887865a78e518eabfab2c0d40be"),
    "k-text/g3": (0, "aa3e86e61a9506d3644dd2c9634187eadf7ee3cc16a41f90fc2f56c4c8d1a2cc"),
    "k-all/g4": (0, "5cd1a3ff1fc2b0c34e5fdf8c5700dd063300da2f97e0f619b4e01c01dd082eb7"),
    "check/g4": (0, "cb41727b0b62f3c96431fa1fe8e843f9231c823276eb179502f7c11b3a5e4531"),
    "spectrum/g4": (0, "2b42993eb7851451ff4bdf9d321a75fdad0329be3b8a665bd63ff618c3b16470"),
    "compare-self/g4": (0, "85db723e8bff1b82f1dff8a753fd55f9020ce90c19e65c1417c4c802c5321c32"),
    "spectrum-dot/g4": (0, "4414debf73fe01e486029921686175f5425a525e41e72023811d76c23bcd1a42"),
    "lattice-dot/g4": (0, "df006bc2de46f26d42e4651c09b55d3c2674a45caf49d1f3741b2589aedd1875"),
    "lattice/g4": (0, "e94d658adae1784dc727ce5e5f55cfed132490293646ee4a937029fee0ce7e6a"),
    "check-text/g4": (0, "7b0f34b60d12982b6de319afaf9397244da2565cd261c0326312a43516418bb0"),
    "spectrum-text/g4": (0, "83fbaa708df7c2eb316d65f14c0c70823d5d9a910d678c4a40a15b1912a77eab"),
    "lattice-text/g4": (0, "921a13980927c5d0d3595601d2ea9cf218439887865a78e518eabfab2c0d40be"),
    "k-text/g4": (0, "7d887c518badd46bbdce0751fa38c1cabfd647812f983ab8816fac303878a3ee"),
    "k-all/inf_emitter": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/inf_emitter": (0, "bf98751625dc139ceacc472ea49d1907795b9b42b8169271b01267e34c62ef2e"),
    "spectrum/inf_emitter": (0, "7a5af8c10078ecf0de521c9e61376fdc04eb75fdf5423cd65e67cb9928dbf3bc"),
    "compare-self/inf_emitter": (0, "39c2d12b544a67356e9a0b601a7fef7cde5a89b249f72cd9e15ffa7182068c48"),
    "spectrum-dot/inf_emitter": (0, "6c39e502ca14d9cbe73109fce6e27e136cd0134b3c9fae8f287423b42e4c7497"),
    "lattice-dot/inf_emitter": (0, "39c21b8c77bc4716da41763be1274d051a5f9649606b40def2db00872af2ca3e"),
    "lattice/inf_emitter": (0, "6e9765fc20417d44b448e2647cb325e8a261a3e2bdbf0f001916fee54829d7ed"),
    "check-text/inf_emitter": (0, "968db918110c73effaef6634e7aeb37076da556dddcf1ec80d0800b2ac2e6003"),
    "spectrum-text/inf_emitter": (0, "61c90af3391910ef932f62d349988ed5b2c7f81b2092fa20d8236cfdaf1decd7"),
    "lattice-text/inf_emitter": (0, "5864a1833fe101501d4815cf677d1ce50244760dea31dce93123011c12903cf4"),
    "k-text/inf_emitter": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "k-all/mixed5": (0, "889b3cc1e155780251372a37ea21e641740a18aad2a1005543eb5a1f239a35af"),
    "check/mixed5": (0, "7edba5f846295c94a3a720014b2650d927f0ebe80f9d414bc1b64c4fa804358f"),
    "spectrum/mixed5": (0, "759ccc86969c14467ed898002a69eeeba41b528a36d0284638b7dfa26c6ae0ca"),
    "compare-self/mixed5": (0, "96f219d082a2ed96950b7e54012548d130de3de7159b157f8d7f74ce04a871ba"),
    "spectrum-dot/mixed5": (0, "a3d4033d48d391ee30490f2881c0a77ff6ffccb07bcb2028605be9120ccabdbc"),
    "lattice-dot/mixed5": (0, "f2affae8d025b471305ceac37045fbbe9e2d12ad964f89564f12b70b4716f7ca"),
    "lattice/mixed5": (0, "6089cd44763dfdc78c46dba206198a904c2525a68c25ecfbfd0f9a8a6e2cde2e"),
    "check-text/mixed5": (0, "cc25b9d7670a4902e910753143aa6e4aaf0e5d401d8a2d981694ee20df316178"),
    "spectrum-text/mixed5": (0, "de4eb4a779d1c8e11c71beaa8d4116671e5153d47b8105d2fe7f6a338a2fe73f"),
    "lattice-text/mixed5": (0, "b946b672fd4f7dd169c04c0c6bbd2a80c0988fa71725f20bd76a85f3adb2e9f0"),
    "k-text/mixed5": (0, "9910694e5364e5b3f3b63cebb55f0cceb1bb6506d522ddcc0c2aec9c367a0887"),
    "k-all/o2": (0, "9010b14c7df5e9a5839de02065d7c9dab962ff9db6d96973593af9f4c9be2796"),
    "check/o2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/o2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/o2": (0, "fe1092dedaebadc81ff7da59e15d00736f3bc77ac66198fc2d75060554faed01"),
    "spectrum-dot/o2": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/o2": (0, "df58acd2e04839be6e8eddf7f88fe6ce0270c9e03cbff44b31340a840a68be3b"),
    "lattice/o2": (0, "1b94495bae6a0ae078e59422724da41b455ed6f8d777a2b1dbaa72fd7eb893b1"),
    "check-text/o2": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/o2": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/o2": (0, "1e1135777b2e267a1c6b1e1939eeeffc1f23ec81a520fdfe41766dcf2eaa1b0d"),
    "k-text/o2": (0, "94aee07e086b69cece34256be9c79f7f8eb4ef69dc94f5b6bafbaf3bae424a19"),
    "k-all/o3": (0, "2cce11b3288bd74b754ac7b87dbb62bcd09c1c06089c51538a7f3809822ac7d3"),
    "check/o3": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/o3": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/o3": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "spectrum-dot/o3": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/o3": (0, "df58acd2e04839be6e8eddf7f88fe6ce0270c9e03cbff44b31340a840a68be3b"),
    "lattice/o3": (0, "1b94495bae6a0ae078e59422724da41b455ed6f8d777a2b1dbaa72fd7eb893b1"),
    "check-text/o3": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/o3": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/o3": (0, "1e1135777b2e267a1c6b1e1939eeeffc1f23ec81a520fdfe41766dcf2eaa1b0d"),
    "k-text/o3": (0, "b24abc7c7e90ba6279c14e7079556cdb09900f02d2411dbb718c778d7260f26b"),
    "k-all/r4": (0, "bad9b82d5e9296b750e9968f130c895d2938b7440db4fb26f72778902f6d3942"),
    "check/r4": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/r4": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/r4": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "spectrum-dot/r4": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/r4": (0, "df58acd2e04839be6e8eddf7f88fe6ce0270c9e03cbff44b31340a840a68be3b"),
    "lattice/r4": (0, "1b94495bae6a0ae078e59422724da41b455ed6f8d777a2b1dbaa72fd7eb893b1"),
    "check-text/r4": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/r4": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/r4": (0, "1e1135777b2e267a1c6b1e1939eeeffc1f23ec81a520fdfe41766dcf2eaa1b0d"),
    "k-text/r4": (0, "bc3f6550e1ae31f50c793776726c15b6e783853109f3e1832890af73164f978a"),
    "k-all/sink": (0, "e1e19d5073335aaeabdc24ab9262b1d8757bdf87663db750cb35ce2a518bccaf"),
    "check/sink": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/sink": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/sink": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "spectrum-dot/sink": (0, "3c3ef59348a8bf88a8e6b244fa18c55c27f60f362b64bf74e845412b59f37f88"),
    "lattice-dot/sink": (0, "df58acd2e04839be6e8eddf7f88fe6ce0270c9e03cbff44b31340a840a68be3b"),
    "lattice/sink": (0, "1b94495bae6a0ae078e59422724da41b455ed6f8d777a2b1dbaa72fd7eb893b1"),
    "check-text/sink": (0, "b7d3325440be823548263ab2444a308f739d995b66da7f306b8dfd5ab7a96130"),
    "spectrum-text/sink": (0, "981902a0c6f9c9b7a62f210433d661cc07f765e2448a1240d23143ff44e18c03"),
    "lattice-text/sink": (0, "1e1135777b2e267a1c6b1e1939eeeffc1f23ec81a520fdfe41766dcf2eaa1b0d"),
    "k-text/sink": (0, "c4f0f3f68f787889bc791533cc7343a92b96a714ef091c62e72efe2c6a567e78"),
    "compare-self-text/g4": (0, "f79c4c5763868f5910361e8f0b26c534da53dc5fbc7b375edf35d0b52c1340dc"),
    "compare-swap/z2": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z3": (0, "9049017f752d757c228635c1b25ac060f48d40c9500efc38f6ca2e3aa73a2233"),
    "compare-unit/z3z3": (0, "126c6713b0637fc66057a90570831c024ca1f7769311914454db4ede334f65a3"),
    "compare-swap/z4": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z2^4": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z5": (0, "9049017f752d757c228635c1b25ac060f48d40c9500efc38f6ca2e3aa73a2233"),
    "compare-self/z2^5": (0, "d0a8319af94e9fc979c52a20af8289bdbb2bb9b7d9245dea397a0d5d7a15c4aa"),
    "compare-sinks/3": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-fanout/loops": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-no-unit/z3z3": (0, "cc7d38acaf5a15133551d4ba19d1731945af7df3fc25fab690845c3a05f53648"),
    "check/deep-5pt": (0, "6a9d1c5b939d164d3f38c6468b1a68931b9297ddfa36bf85156a6872c7f01259"),
    "k-all/deep-5pt": (0, "c997343058eb1832b752d611b5a577f8b92dfb463bf5ca85b0043d134ccac9c8"),
    "check/deep-6pt": (0, "1ec394c91e6833cc1d5c1eef1337486b6711a84c58cab48cd68f15e10399fbd8"),
    "k-all/deep-6pt": (0, "dc0021fe772303311241da9acbba9c2d8fa1f24b20f71e8975ad8760a64bb63f"),
    "check/deep-7pt": (0, "67f7eff21e34815ef56608d384ff9bf2e814995d8a176fa7d50634d8cfaa200d"),
    "k-all/deep-7pt": (0, "fc8b36250266f23cc9c1c53a48de8541e38a2428f8d8e185704536776e3effd7"),
    "check/swapped-source_into_sinks": (0, "8da09f0f59ac3b251d7a154298ef3e2d74c93074ca438748c0548997fe6235a6"),
    "k-all/swapped-source_into_sinks": (0, "266eb157922e4c31f757c131bdc358d8d055868fafb1b929e236580c6189d447"),
    "check/swapped-source_into_loops": (0, "8da09f0f59ac3b251d7a154298ef3e2d74c93074ca438748c0548997fe6235a6"),
    "k-all/swapped-source_into_loops": (0, "a6058f4bd3433336bae1d72b259d4d2d16c65a27981d0240eb657867115473b4"),
}


def test_output_digests(tmp_path):
    got = {name: digest(argv) for name, argv in invocations(tmp_path).items()}
    assert got.keys() == DIGESTS.keys()
    changed = sorted(name for name in got if got[name] != DIGESTS[name])
    assert not changed, changed


# census 1: every pair i <= j of `census_one_graphs` with equal point counts,
# unital first, at the default budget; one sha256 over the JSON of each
# [i, j, unital, outcome, witness] in that order.  No verdict is UNKNOWN.
CENSUS_ONE_TALLY = {"pointwise": 35325, "no_homeomorphism": 3324, "no_family": 755,
                    COMPATIBLE: 3494}
CENSUS_ONE_DIGEST = "093833d7174bd6e19e0beb89dde91f0c2c78d59a9c41694154897daa8c0688f4"


def test_census_one():
    fks = [assemble(g) for g in census_one_graphs()]
    tally, sha = Counter(), hashlib.sha256()
    for i, a in enumerate(fks):
        for j in range(i, len(fks)):
            if a.space.npoints != fks[j].space.npoints:
                continue
            for unital in (True, False):
                v = compare(a, fks[j], unital)
                tally[v.witness["kind"] if v.outcome == DISTINGUISHED else v.outcome] += 1
                sha.update(json.dumps([i, j, unital, v.outcome, v.witness],
                                      sort_keys=True).encode())
    assert tally == CENSUS_ONE_TALLY and tally.total() == 42898
    assert sha.hexdigest() == CENSUS_ONE_DIGEST


# the rank-2 census (7,454 compares, 42 UNKNOWN, about 25 s in all) sliced to
# its graphs 40 to 99: every pair i < j among them with equal point counts,
# both unit modes, hashed as census 1 is.  Its free groups of rank 2 and 3
# reach the budget-bounded GL(r, Z) enumeration that census 1 barely does.
CENSUS_TWO_SLICE = range(40, 100)
CENSUS_TWO_TALLY = {"no_homeomorphism": 896, "pointwise": 494, "no_family": 8,
                    COMPATIBLE: 40, UNKNOWN: 10}
CENSUS_TWO_DIGEST = "a9c666515e3331133af398f3662b5ed51af400325998ec93bf8863bffd0d542e"


def test_census_two_slice():
    fks = [assemble(g) for g in census_two_graphs()]
    tally, sha = Counter(), hashlib.sha256()
    for i in CENSUS_TWO_SLICE:
        for j in range(i + 1, CENSUS_TWO_SLICE.stop):
            if fks[i].space.npoints != fks[j].space.npoints:
                continue
            for unital in (True, False):
                v = compare(fks[i], fks[j], unital)
                tally[v.witness["kind"] if v.outcome == DISTINGUISHED else v.outcome] += 1
                sha.update(json.dumps([i, j, unital, v.outcome, v.witness],
                                      sort_keys=True).encode())
    assert tally == CENSUS_TWO_TALLY and tally.total() == 1448
    assert sha.hexdigest() == CENSUS_TWO_DIGEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = {name: digest(argv) for name, argv in invocations(pathlib.Path(tmp)).items()}
    for name, (code, sha) in rows.items():
        sys.stdout.write(f'    "{name}": ({code}, "{sha}"),\n')
