"""Byte-stable JSON: the sha256 of stdout for a fixed set of CLI invocations.

A digest moves when any byte of an output moves, witness order included.
When a change to the outputs is intended, print the new table with

    PYTHONPATH=src python tests/test_output_digests.py

and paste it over DIGESTS below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

from fkgraph.cli import BUDGET_ENV, main

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


def invocations(tmp: pathlib.Path) -> dict[str, list[str]]:
    """Name -> argv; the files of PAIRS and DEEP are written into `tmp`."""
    out = {}
    for name in CORPUS:
        path = str(GRAPHS / f"{name}.graph")
        out[f"k-all/{name}"] = ["k", path, "--all", "--format", "json"]
        out[f"check/{name}"] = ["check", path, "--format", "json"]
        out[f"spectrum/{name}"] = ["spectrum", path, "--format", "json"]
        out[f"compare-self/{name}"] = ["compare", path, path, "--format", "json"]
    for name, mults in PAIRS.items():
        paths = []
        for side, mult in zip("ab", mults):
            path = tmp / f"{name.replace('/', '-')}-{side}.graph"
            path.write_text(_graph_text(mult))
            paths.append(str(path))
        out[name] = ["compare", *paths, "--format", "json"]
    for name, mult in DEEP.items():
        path = tmp / f"deep-{name}.graph"
        path.write_text(_graph_text(mult))
        out[f"check/deep-{name}"] = ["check", str(path), "--format", "json"]
        out[f"k-all/deep-{name}"] = ["k", str(path), "--all", "--format", "json"]
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
    "k-all/chain3": (0, "73680f53a7a8919ff2bd116c42b64ca07935666fd864daf249fcfe07dd99a3db"),
    "check/chain3": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/chain3": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/chain3": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "k-all/complete2": (0, "4fead19ec8cd2dc3e8a581cec8d74f1354b8cb4229b11389c5685bf5e6d4ee4e"),
    "check/complete2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/complete2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/complete2": (0, "fe1092dedaebadc81ff7da59e15d00736f3bc77ac66198fc2d75060554faed01"),
    "k-all/cycle2": (0, "dad94105236e5a7eb36a38c94f46af99b354fc7241b1aa683233821972ef6aa6"),
    "check/cycle2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/cycle2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/cycle2": (0, "856ef06a61e7da5b7cd477b7c7c85e2cf34fb2ed64cce927f6c4e61794797269"),
    "k-all/edge_ab": (0, "2563ba855b2c2efecd243fa1bbf364a91a9302cfe1d5d041c2751615a9cadf65"),
    "check/edge_ab": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/edge_ab": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/edge_ab": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "k-all/fanin": (0, "e4a8311eb2c8ed95d7f876f04d915daece7b444952cd3e035d11367a4ef26d6d"),
    "check/fanin": (0, "e772cc71468a32d690795a898820066caa0736826feea9eb7b206096ba3ff411"),
    "spectrum/fanin": (0, "18b44437103f7df69cd91cd893b96bb57a5f8611de4399b6299c4177b9956fb5"),
    "compare-self/fanin": (0, "7f16dca9e53b580dd00e971173792ccd19b21435444c945eafc89af29ffb44f0"),
    "k-all/fanout": (0, "2bf1bb65548f4ad21eda910413a1ee2ce2a9eef46c523452bc39c64bc2073137"),
    "check/fanout": (0, "8ada6757f5193319dbac7dbb384257f0a93568fc0d9b0884d78efbbb20a350b2"),
    "spectrum/fanout": (0, "ea2e5efebcd062800e672d1a4492f1037ab979b9442491b5d54c6e2d09ad4365"),
    "compare-self/fanout": (0, "207fb64af4ec51a505294f7419fc8b8a588b38c353eb080c84210c5a7439e772"),
    "k-all/g1": (0, "5ea45cecb0682dfd0ad14686eb6b300d250af18cd0db8c5aca50269c1af7a703"),
    "check/g1": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/g1": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/g1": (0, "856ef06a61e7da5b7cd477b7c7c85e2cf34fb2ed64cce927f6c4e61794797269"),
    "k-all/g3": (0, "56d0cd6883f0d0ab6c1c639a2f0e2bfc24fedeced5004397f82fe1816063fc39"),
    "check/g3": (0, "cb41727b0b62f3c96431fa1fe8e843f9231c823276eb179502f7c11b3a5e4531"),
    "spectrum/g3": (0, "2b42993eb7851451ff4bdf9d321a75fdad0329be3b8a665bd63ff618c3b16470"),
    "compare-self/g3": (0, "e3335fe1f2541c648c7c2ec131e79a0bea727e4ce602a16e10ab25aaadb14c90"),
    "k-all/g4": (0, "5cd1a3ff1fc2b0c34e5fdf8c5700dd063300da2f97e0f619b4e01c01dd082eb7"),
    "check/g4": (0, "cb41727b0b62f3c96431fa1fe8e843f9231c823276eb179502f7c11b3a5e4531"),
    "spectrum/g4": (0, "2b42993eb7851451ff4bdf9d321a75fdad0329be3b8a665bd63ff618c3b16470"),
    "compare-self/g4": (0, "85db723e8bff1b82f1dff8a753fd55f9020ce90c19e65c1417c4c802c5321c32"),
    "k-all/inf_emitter": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check/inf_emitter": (0, "bf98751625dc139ceacc472ea49d1907795b9b42b8169271b01267e34c62ef2e"),
    "spectrum/inf_emitter": (0, "7a5af8c10078ecf0de521c9e61376fdc04eb75fdf5423cd65e67cb9928dbf3bc"),
    "compare-self/inf_emitter": (0, "b7594d0264d702ac09b5eafa573cd84d92235df08969b2987ea52798595db87f"),
    "k-all/mixed5": (0, "889b3cc1e155780251372a37ea21e641740a18aad2a1005543eb5a1f239a35af"),
    "check/mixed5": (0, "7edba5f846295c94a3a720014b2650d927f0ebe80f9d414bc1b64c4fa804358f"),
    "spectrum/mixed5": (0, "759ccc86969c14467ed898002a69eeeba41b528a36d0284638b7dfa26c6ae0ca"),
    "compare-self/mixed5": (0, "96f219d082a2ed96950b7e54012548d130de3de7159b157f8d7f74ce04a871ba"),
    "k-all/o2": (0, "9010b14c7df5e9a5839de02065d7c9dab962ff9db6d96973593af9f4c9be2796"),
    "check/o2": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/o2": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/o2": (0, "fe1092dedaebadc81ff7da59e15d00736f3bc77ac66198fc2d75060554faed01"),
    "k-all/o3": (0, "2cce11b3288bd74b754ac7b87dbb62bcd09c1c06089c51538a7f3809822ac7d3"),
    "check/o3": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/o3": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/o3": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "k-all/r4": (0, "bad9b82d5e9296b750e9968f130c895d2938b7440db4fb26f72778902f6d3942"),
    "check/r4": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/r4": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/r4": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "k-all/sink": (0, "e1e19d5073335aaeabdc24ab9262b1d8757bdf87663db750cb35ce2a518bccaf"),
    "check/sink": (0, "1958a00796e79d80b638906790f81cf6fb071b835f59575f8766a8d9d3502703"),
    "spectrum/sink": (0, "0e703b2663356b3a8c2576e82694552bb2063d80e01785686d303311b8ee7d77"),
    "compare-self/sink": (0, "1907fa830a753ba030333ec27424883b9f91e0ceb67decd5ade1607a06b137c0"),
    "compare-swap/z2": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z3": (0, "9049017f752d757c228635c1b25ac060f48d40c9500efc38f6ca2e3aa73a2233"),
    "compare-unit/z3z3": (0, "126c6713b0637fc66057a90570831c024ca1f7769311914454db4ede334f65a3"),
    "compare-swap/z4": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z2^4": (0, "ed561cb293f92a78f7c70cbd7f936fab615f936fcb0695c59063d42758abb790"),
    "compare-swap/z5": (0, "9049017f752d757c228635c1b25ac060f48d40c9500efc38f6ca2e3aa73a2233"),
    "compare-self/z2^5": (0, "d0a8319af94e9fc979c52a20af8289bdbb2bb9b7d9245dea397a0d5d7a15c4aa"),
    "check/deep-5pt": (0, "6a9d1c5b939d164d3f38c6468b1a68931b9297ddfa36bf85156a6872c7f01259"),
    "k-all/deep-5pt": (0, "c997343058eb1832b752d611b5a577f8b92dfb463bf5ca85b0043d134ccac9c8"),
    "check/deep-6pt": (0, "1ec394c91e6833cc1d5c1eef1337486b6711a84c58cab48cd68f15e10399fbd8"),
    "k-all/deep-6pt": (0, "dc0021fe772303311241da9acbba9c2d8fa1f24b20f71e8975ad8760a64bb63f"),
    "check/deep-7pt": (0, "67f7eff21e34815ef56608d384ff9bf2e814995d8a176fa7d50634d8cfaa200d"),
    "k-all/deep-7pt": (0, "fc8b36250266f23cc9c1c53a48de8541e38a2428f8d8e185704536776e3effd7"),
}


def test_output_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    got = {name: digest(argv) for name, argv in invocations(tmp_path).items()}
    assert got.keys() == DIGESTS.keys()
    changed = sorted(name for name in got if got[name] != DIGESTS[name])
    assert not changed, changed


if __name__ == "__main__":
    import os

    os.environ.pop(BUDGET_ENV, None)
    with tempfile.TemporaryDirectory() as tmp:
        rows = {name: digest(argv) for name, argv in invocations(pathlib.Path(tmp)).items()}
    for name, (code, sha) in rows.items():
        sys.stdout.write(f'    "{name}": ({code}, "{sha}"),\n')
