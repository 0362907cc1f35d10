"""Benchmark of the fk-graph CLI: `k --all`, `compare` and `check`.

    python3 perfbench/run.py --workload k-wide --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

A run draws a pool of ops from the seed and goes over it in passes until
--seconds have gone by.  With --trace 0 every op is its own
`python -m fkgraph.cli ... --format json` process, run one at a time (a
closed loop with one client), and the run prints the end-to-end metrics.
With --trace 1 the same pool runs in-process under tracer.py and the run
prints per-layer metrics.  Every output is checked against oracles.py,
which does not use fkgraph.  The last line of stdout is the JSON result.
NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
import workloads  # noqa: E402

# An op still running after this long is killed and counted as failed: the
# per-comparison bound of the repository's acceptance gate.  When this
# benchmark was written, healthy ops took at most about 5 s, and a 7-point
# `check` with the sampling hang removed about 3 s.
OP_LIMIT_S = 10.0
# A traced op runs three times in one process, each under the per-op limit.
TRACE_LIMIT_S = 3 * OP_LIMIT_S
# fresh-interpreter imports timed before each pass; setup_s is their median
SETUP_REPS = 3
# Times are reported in seconds at a reference speed: wall time scaled by
# REF_CAL_S over the calibration time spawner.py measured on the command's
# core while it ran.  1 ms is about what the calibration loop takes on the
# 2-core VM of NOTES.md when its host is quiet.
REF_CAL_S = 0.001


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


class Spawner:
    """Client of spawner.py, which runs and measures each child process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out_path: Path, limit: float):
        """(wall seconds, exit code, peak RSS in KiB, killed, calibration
        seconds)."""
        self.proc.stdin.write("\t".join([repr(limit), str(out_path), *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("spawner exited")
        wall, code, rss, killed, cal = reply.split("\t")
        return float(wall), int(code), int(rss), killed == "1", float(cal)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TRACE_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def preflight(env: dict) -> dict:
    """Schema validators by subcommand, once the checkout is known to hold
    fkgraph and its schemas."""
    if not (SRC / "fkgraph" / "cli.py").is_file():
        raise SetupError(f"no fkgraph sources under {SRC}")
    try:
        import jsonschema
    except ImportError:
        raise SetupError("jsonschema is needed to validate outputs") from None
    validators = {}
    for cmd, name in oracles.SCHEMA_OF.items():
        path = SCHEMAS / name
        if not path.is_file():
            raise SetupError(f"missing schema {path}")
        schema = json.loads(path.read_text(encoding="utf-8"))
        validators[cmd] = jsonschema.Draft202012Validator(schema)
    probe = subprocess.run(
        [sys.executable, "-c", "import fkgraph.cli, fkgraph; print(fkgraph.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or Path(probe.stdout.strip()).parent != SRC / "fkgraph":
        raise SetupError("fkgraph.cli does not import from this checkout")
    return validators


def metric_units(trace: bool) -> dict:
    """name -> unit of the metrics a run reports, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_determinism(workload: str, seed: int) -> None:
    """Same seed, byte-identical inputs and expected answers."""
    for a, b in zip(workloads.pool(workload, seed), workloads.pool(workload, seed)):
        if (a.files(), a.args, oracles.expected(a)) != (b.files(), b.args, oracles.expected(b)):
            raise SetupError(f"op {a.index} of {workload} is not reproducible from seed {seed}")


class Pool:
    """A run's ops with their files written, expected answers and results."""

    def __init__(self, ops, work: Path, validators: dict):
        self.ops = ops
        self.work = work
        self.validators = validators
        self.want = [oracles.expected(op) for op in ops]
        self.args = [self._materialize(op) for op in ops]
        self.walls: list[list[float]] = [[] for _ in ops]
        self.scaled: list[list[float]] = [[] for _ in ops]   # at REF_CAL_S
        self.failed: dict[int, str] = {}          # pool position -> reason

    def _materialize(self, op) -> list[str]:
        paths = {}
        for name, text in op.files().items():
            path = self.work / f"op{op.index}-{name}.graph"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        return [paths.get(a, a) for a in op.args]

    def live(self):
        """Positions of the ops still to run: a failed op is not repeated."""
        return [k for k in range(len(self.ops)) if k not in self.failed]

    def judge(self, k: int, code: int, stdout: bytes, killed_after: float | None) -> None:
        """Record op k as failed when it was killed at a time limit or its
        output is wrong."""
        op = self.ops[k]
        if killed_after is not None:
            reason = f"killed after {killed_after:g} s"
        else:
            reason = oracles.check_output(code, stdout, self.want[k],
                                          self.validators[op.args[0]])
        if reason:
            self.failed[k] = reason

    def report_failures(self) -> None:
        for k, reason in sorted(self.failed.items()):
            print(f"  FAILED op {self.ops[k].index} ({self.ops[k].stratum}): {reason}")

    def result(self, metrics: dict, units: dict) -> dict:
        wrong = [r for r in self.failed.values() if not r.startswith("killed")]
        return {
            "correct": not wrong,
            "attempted": len(self.ops),
            "failed": len(self.failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between the order statistics around pct."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def run_untraced(workload: str, pool: Pool, spawner: Spawner, seconds: float) -> dict:
    """End-to-end metrics.  The host moves the speed of a core by up to
    1.75x (NOTES.md), so every time is scaled to the reference speed, and
    each op's latency is the median of its scaled executions in the run."""
    importer = [sys.executable, "-c", "import fkgraph.cli"]
    spawner.run(importer, pool.work / "setup.out", OP_LIMIT_S)   # fills __pycache__
    setup_times, rss_kb = [], []
    killed_ops = set()
    passes = 0
    start = time.perf_counter()
    deadline = start + seconds
    while pool.live() and (passes == 0 or time.perf_counter() < deadline):
        for _ in range(SETUP_REPS):
            wall, code, _, _, cal = spawner.run(importer, pool.work / "setup.out", OP_LIMIT_S)
            if code != 0:
                raise SetupError("import fkgraph.cli failed")
            setup_times.append(wall * REF_CAL_S / cal)
        for k in pool.live():
            if passes and time.perf_counter() >= deadline:
                break
            out = pool.work / f"op{k}.out"
            argv = [sys.executable, "-m", "fkgraph.cli"] + pool.args[k]
            wall, code, rss, killed, cal = spawner.run(argv, out, OP_LIMIT_S)
            pool.walls[k].append(wall)
            pool.scaled[k].append(wall * REF_CAL_S / cal)
            rss_kb.append(rss)
            if killed:
                killed_ops.add(k)
            pool.judge(k, code, out.read_bytes(), OP_LIMIT_S if killed else None)
        passes += 1
    run_wall = time.perf_counter() - start

    # a killed op ran until the limit in wall time, whatever the speed of
    # its core, so its latency is not scaled
    lat = [statistics.median(pool.walls[k] if k in killed_ops else xs)
           for k, xs in enumerate(pool.scaled)]
    ok = len(lat) - len(pool.failed)
    spec = workloads.WORKLOADS[workload]
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, spec.tail_percentile),
        "ops_per_s": ok / sum(lat),
        "ok_ops_ratio": ok / len(lat),
        "peak_rss_mb": statistics.median(rss_kb) / 1024,
        "setup_s": statistics.median(setup_times),
    }
    print(f"{len(pool.ops)} ops, {sum(map(len, pool.walls))} executions in {passes} passes, "
          f"{run_wall:.2f} s; {ok} correct, {len(pool.failed)} failed")
    print(f"latency_tail_s is p{spec.tail_percentile:.1f}, "
          f"{sum(x > metrics['latency_tail_s'] for x in lat)} ops beyond it")
    print(f"times at the reference speed (calibration {REF_CAL_S * 1e3:g} ms); "
          "wall times in brackets")
    for op, x, xs, ws in zip(pool.ops, lat, pool.scaled, pool.walls):
        print(f"  op {op.index} {op.stratum}: {x:.3f} s of "
              + " ".join(f"{s:.3f} [{w:.3f}]" for s, w in zip(xs, ws)))
    pool.report_failures()
    return metrics


def run_traced(pool: Pool, spawner: Spawner, seconds: float, names) -> dict:
    """Per-layer metrics: medians over passes of the pass totals."""
    passes = []
    start = time.perf_counter()
    while not passes or (pool.live() and time.perf_counter() < start + seconds):
        totals: dict = {}
        traced = untraced = 0.0
        for k in pool.live():
            op = pool.ops[k]
            out = pool.work / f"trace{k}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(out), str(op.index)]
            _, code, _, killed, _ = spawner.run(argv + pool.args[k], pool.work / "trace.log",
                                                TRACE_LIMIT_S)
            stdout = b""
            if not killed and code == 0:
                result = json.loads(out.read_text(encoding="utf-8"))
                code, stdout = result["exit_code"], result["stdout"].encode()
                traced += result["traced_s"]
                untraced += result["untraced_s"]
                for key, value in result["metrics"].items():
                    totals[key] = totals.get(key, 0) + value
            pool.judge(k, code, stdout, TRACE_LIMIT_S if killed else None)
        calls = totals.get("ktheory.k_data_calls", 0)
        totals["ktheory.k_data_useful_ratio"] = (
            totals.get("ktheory.k_data_distinct", 0) / calls if calls else 0.0)
        totals["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
        passes.append(totals)
    print(f"{len(pool.ops)} ops in {len(passes)} traced passes, "
          f"{passes[0].get('spans', 0)} spans a pass")
    pool.report_failures()
    return {name: statistics.median(p.get(name, 0) for p in passes) for name in names}


def self_check() -> int:
    """Reproducibility of every workload, and the swap-pair oracle against
    fkgraph on the cases whose verdicts were measured by hand."""
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            check_determinism(workload, seed)
    print("determinism: PASS")
    env = child_env()
    validators = preflight(env)
    work = ROOT / ".bench_build" / "perfbench" / f"self-check-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for k, d, want in ((3, 2, "DISTINGUISHED"), (3, 3, "COMPATIBLE"),
                       (2, 4, "DISTINGUISHED"), (2, 5, "COMPATIBLE")):
        graphs, args, expect = workloads.swap(k, d)(random.Random(0))
        if expect["outcome"] != want:
            print(f"(Z/{d})^{k} swap: FAIL oracle says {expect['outcome']}, measured {want}")
            return 1
        ops.append(workloads.Op("compare-torsion", len(ops), f"(Z/{d})^{k} swap",
                                graphs, args, expect))
    pool = Pool(ops, work, validators)
    spawner = Spawner(env)
    try:
        for k, op in enumerate(ops):
            out = work / f"op{k}.out"
            wall, code, _, killed, _ = spawner.run(
                [sys.executable, "-m", "fkgraph.cli"] + pool.args[k], out, OP_LIMIT_S)
            pool.judge(k, code, out.read_bytes(), OP_LIMIT_S if killed else None)
            print(f"{op.stratum} -> {op.expect['outcome']}: "
                  f"{'FAIL ' + pool.failed[k] if k in pool.failed else 'PASS'} ({wall:.2f} s)")
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    return 1 if pool.failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the generator and the oracle, then exit")
    args = parser.parse_args()
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        env = child_env()
        validators = preflight(env)
        units = metric_units(bool(args.trace))
        check_determinism(args.workload, args.seed)
        work.mkdir(parents=True, exist_ok=True)
        pool = Pool(workloads.pool(args.workload, args.seed), work, validators)
        print(f"workload {args.workload} seed {args.seed}")
        spawner = Spawner(env)
        try:
            if args.trace:
                metrics = run_traced(pool, spawner, args.seconds, units)
            else:
                metrics = run_untraced(args.workload, pool, spawner, args.seconds)
        finally:
            spawner.close()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(pool.result(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
