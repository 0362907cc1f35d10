"""Expected answers computed without fkgraph, and the per-op output check.

The K-theory oracle works from the definition: the subquotient carried by a
convex set D of components has K0 = coker(A_D^T - I) and K1 = ker(A_D^T - I),
since every vertex is regular.  Rank and determinant come from rational
elimination; the torsion order of a singular matrix from integer elimination.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod

CHECK_SUITES = ("kuratowski", "lattice-iso", "kernel-identity", "t0",
                "well-definedness", "exactness")


def rank_and_det(m: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of a square integer matrix by Gaussian
    elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if a[r][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][c]
        for r in range(rank + 1, n):
            f = a[r][c] / a[rank][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    if det.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not integral")
    return rank, int(det)


def _diagonal(m: list[list[int]]) -> list[int]:
    """Nonzero diagonal after unimodular row and column operations."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        nz = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nz:
            break
        _, i, j = min(nz)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        clear = True
        for i in range(t + 1, rows):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            clear &= a[i][t] == 0
        for j in range(t + 1, cols):
            q = a[t][j] // p
            if q:
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
            clear &= a[t][j] == 0
        if clear:
            diag.append(abs(p))
            t += 1
    return diag


def invariant_factors(m: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of coker(m) other than 1, free summands as 0, in
    the divisibility order fkgraph prints."""
    d = _diagonal(m)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    rows = len(m)
    return tuple(x for x in d if x != 1) + (0,) * (rows - len(d))


def convex_subsets(reach: list[int]) -> list[int]:
    """Component subsets closed under betweenness in the reachability order."""
    p = len(reach)
    out = []
    for s in range(1 << p):
        ok = True
        for a in range(p):
            if not (s >> a & 1):
                continue
            for b in range(p):
                if not (s >> b & 1) or not reach[a] >> b & 1:
                    continue
                for c in range(p):
                    if reach[a] >> c & 1 and reach[c] >> b & 1 and not s >> c & 1:
                        ok = False
        if ok:
            out.append(s)
    return out


def k_summary(g) -> list[tuple[int, int, int]]:
    """Sorted (K0 free rank, K0 torsion order, K1 free rank), one per convex
    subset of components."""
    out = []
    for s in convex_subsets(g.reach()):
        verts = [v for c, comp in enumerate(g.comps) if s >> c & 1 for v in comp]
        m = [[g.mult[v][w] - (v == w) for v in verts] for w in verts]
        rank, det = rank_and_det(m)
        nullity = len(verts) - rank
        if nullity == 0:
            tors = abs(det)
        else:
            diag = _diagonal(m)
            if len(diag) != rank:
                raise ArithmeticError("integer and rational ranks disagree")
            tors = prod(diag)
        out.append((nullity, tors, nullity))
    return sorted(out)


def _summary_from_json(payload: dict) -> list[tuple[int, int, int]]:
    out = []
    for e in payload["subquotients"]:
        f0 = e["k0"]["invariant_factors"]
        f1 = e["k1"]["invariant_factors"]
        k1_free = len(f1) if not any(f1) else -1   # K1 is free: any torsion is wrong
        out.append((f0.count(0), prod(x for x in f0 if x), k1_free))
    return sorted(out)


def expected(op) -> dict:
    """The answer the oracle predicts for one op, as plain JSON data."""
    if op.workload == "k-wide":
        return {"k_summary": [list(t) for t in k_summary(op.graphs["g"])]}
    if op.workload == "compare-torsion":
        return {"outcome": op.expect["outcome"]}
    return {"suites": list(CHECK_SUITES)}


SCHEMA_OF = {"k": "k.schema.json", "compare": "compare.schema.json",
             "check": "check.schema.json"}


def check_output(exit_code: int, stdout: bytes, want: dict, validator) -> str | None:
    """None when the op's output is right, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError as e:
        return f"output is not JSON: {e}"
    errors = list(validator.iter_errors(payload))
    if errors:
        return f"schema: {errors[0].message}"
    if "k_summary" in want:
        got = _summary_from_json(payload)
        if [list(t) for t in got] != want["k_summary"]:
            return "K-data differ from the oracle"
        return None
    if "outcome" in want:
        if payload["outcome"] != want["outcome"]:
            return f"outcome {payload['outcome']}, expected {want['outcome']}"
        replay = payload["replay_passed"]
        if replay is not (True if want["outcome"] == "COMPATIBLE" else None):
            return f"replay_passed is {replay}"
        return None
    names = [s["name"] for s in payload["suites"]]
    if names != want["suites"]:
        return f"suites {names}"
    if not payload["ok"] or not all(s["passed"] for s in payload["suites"]):
        return "a suite did not pass"
    return None
