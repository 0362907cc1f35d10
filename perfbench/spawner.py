"""Run one command per input line; report wall time, exit code and peak RSS.

Input lines are tab-separated: time limit in seconds, output path, argv.
Each command runs with stdout to the output path and stdin and stderr on
/dev/null.  When its own wall time passes the limit it is killed.  The
reply line is tab-separated: wall seconds, exit code, ru_maxrss in KiB from
wait4, 1 if the command was killed, and the calibration time of the
command's core while it ran (see below).

On Linux a child's ru_maxrss starts at the resident peak of the process
that spawned it, so the child must not be spawned by the benchmark itself,
whose peak can exceed an fk-graph process.  This process runs under
`python -S` with nothing imported beyond os, select, sys and time, so its
own peak stays below that of any Python child.

On the 2-core VM this was written on, one core at a time often ran up to
1.6x slower for seconds to minutes while the other ran at full speed (see
NOTES.md).  So before each command this process times a short loop on
every core it may use, and the command inherits an affinity to the fastest.

The speed of that core still moved by up to 1.75x within a run, in spells
of a second or less.  So this process times a fixed 1 ms interpreter loop
on the command's core three times before the command, every 50 ms while it
runs, and three times after, and reports the median of these calibration
times.  The loops run while the command waits for the core, so their sum
is taken off the wall time.  run.py scales the wall time by the
calibration time to a reference speed.
"""

import os
import select
import sys
import time

CALIBRATE_EVERY_S = 0.05


def calibration_loop() -> float:
    """Integer arithmetic and dict stores, like fk-graph's own work."""
    start = time.perf_counter()
    x = 0
    d = {}
    for i in range(10000):
        x += i * i % 7
        d[i & 255] = x
    return time.perf_counter() - start


def pin_to_fastest(cpus: list[int]) -> None:
    """Bind this process, and so its next child, to the core on which the
    calibration loop ran fastest just now."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(calibration_loop() for _ in range(3))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


def run(limit: float, out_path: str, argv: list[str], cpus: list[int]) -> str:
    pin_to_fastest(cpus)
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out, 1),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ]
        cal = [calibration_loop() for _ in range(3)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        calibrating = 0.0
        killed = False
        try:
            # the pid stays ours until wait4 reaps it, so killing it is safe
            while not select.select([pidfd], [], [], CALIBRATE_EVERY_S)[0]:
                if time.perf_counter() - start - calibrating > limit:
                    killed = True
                    os.kill(pid, 9)
                    break
                cal.append(calibration_loop())
                calibrating += cal[-1]
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start - calibrating
        cal += [calibration_loop() for _ in range(3)]
    finally:
        os.close(out)
    code = os.waitstatus_to_exitcode(status)
    median = sorted(cal)[len(cal) // 2]
    return f"{wall!r}\t{code}\t{usage.ru_maxrss}\t{int(killed)}\t{median!r}\n"


def main() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    for line in sys.stdin:
        limit, out_path, *argv = line.rstrip("\n").split("\t")
        sys.stdout.write(run(float(limit), out_path, argv, cpus))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
