"""Alternated A/B wall time and peak RSS of CLI commands between two checkouts.

    python tools/abcmd.py --parent A --change B \\
        --argv "verify --model cone:0.3 --n 7 --grid-size 4096" \\
        --argv "min-c --model euclidean --n 10 --grid-size 4096"

Each argv runs as ``python -m harnacklab.cli <argv>`` with ``PYTHONPATH``
set to ``<checkout>/src``, in a fresh temporary working directory, with
stdout and stderr discarded, so a relative ``--output-dir`` lands there.
``PYTHONPYCACHEPREFIX`` points every run at a fresh, empty bytecode
directory and ``PYTHONDONTWRITEBYTECODE=1`` keeps it empty, so both sides
compile from source on every run: a ``__pycache__`` left in one checkout
cannot bias a pair.
A rep runs every argv once on each side, back to back: the parent first
in even reps and the change first in odd ones, so a drift in the
machine's load reaches both sides alike.  There are `REPS` reps, after
`WARMUP` uncounted runs of each side per argv.

It prints JSON: per argv, the exit codes of each side, the median and
quartiles of each side's wall time in ms, the median saving (parent minus
change), in how many reps the change was the faster of the pair, and the
median of each side's peak resident set size in MB (``ru_maxrss`` of the
child, from ``os.wait4``).  Timings include interpreter start-up, as a
user of the CLI sees them.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
REPS = 15    # alternated pairs per argv
WARMUP = 1   # uncounted runs of each side per argv, before the reps


def run_once(checkout: Path, argv: list) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one CLI run from the
    checkout's source."""
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
                   PYTHONPYCACHEPREFIX=pycache, PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "harnacklab.cli", *argv], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0  # kB on Linux


def summary(seconds: list) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_ms": round(median * 1e3, 1), "q1_ms": round(q1 * 1e3, 1),
            "q3_ms": round(q3 * 1e3, 1)}


def compare(checkouts: dict, argvs: list) -> dict:
    """The JSON-ready comparison of every argv over REPS alternated pairs."""
    for argv in argvs:
        for side in SIDES:
            for _ in range(WARMUP):
                run_once(checkouts[side], argv)
    times = [{side: [] for side in SIDES} for _ in argvs]
    rss = [{side: [] for side in SIDES} for _ in argvs]
    codes = [{side: set() for side in SIDES} for _ in argvs]
    for rep in range(REPS):
        order = SIDES if rep % 2 == 0 else SIDES[::-1]
        for k, argv in enumerate(argvs):
            for side in order:
                code, wall, peak = run_once(checkouts[side], argv)
                times[k][side].append(wall)
                rss[k][side].append(peak)
                codes[k][side].add(code)
    commands = {}
    for k, argv in enumerate(argvs):
        par, chg = times[k]["parent"], times[k]["change"]
        entry = {"argv": argv,
                 "exit": {side: sorted(codes[k][side]) for side in SIDES}}
        entry.update({side: summary(times[k][side]) for side in SIDES})
        entry["median_saving_ms"] = round(
            (statistics.median(par) - statistics.median(chg)) * 1e3, 1)
        entry["change_faster_in"] = f"{sum(c < p for p, c in zip(par, chg))}/{REPS}"
        entry["peak_rss_mb"] = {side: round(statistics.median(rss[k][side]), 2)
                                for side in SIDES}
        commands[shlex.join(argv)] = entry
    return {"what": "wall time and peak RSS of `python -m harnacklab.cli <argv>` as a "
                    f"subprocess, {REPS} alternated pairs per argv, stdout discarded",
            "reps": REPS, "warmup": WARMUP, "python": sys.version.split()[0],
            "commands": commands}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout A")
    parser.add_argument("--change", required=True, type=Path, help="checkout B")
    parser.add_argument("--argv", action="append", required=True,
                        help="one CLI argv, as a shell would split it (repeatable)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "src" / "harnacklab" / "cli.py").is_file():
            parser.error(f"--{side} {path} holds no src/harnacklab/cli.py")
    result = compare(checkouts, [shlex.split(a) for a in args.argv])
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
