"""Answers digest: what every benchmark argv exits with, prints and writes.

    PYTHONPATH=<checkout>/src python tools/answers.py --seeds 101-105 > A.json
    python tools/answers.py --diff A.json B.json

The first form takes every argv of the benchmark workloads, timed cycle
and known-defect probes alike, from ``perfbench/workloads.py`` (imported
only), gives each its own ``--output-dir`` and runs it in-process through
``harnacklab.cli.main``.  It prints JSON holding, per argv, the exit code,
a sha256 of stdout, the first line of stderr and a sha256 of each
artifact.  The output directories are relative paths inside a temporary
working directory, so the config a report echoes is the same for every
checkout.  The second form lists each entry whose digests differ; it
prints nothing, and exits 0, when the two digests agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench is not a package)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _argvs(names, seeds):
    """(key, argv) of every cycle slot and probe of the workloads at the seeds."""
    for name in names:
        for seed in seeds:
            cycle, probes = workloads.build(name, seed)
            for kind, argvs in (("cycle", cycle), ("probe", probes)):
                for i, argv in enumerate(argvs):
                    yield f"{name}:{seed}:{kind}{i}", argv


def _answer(main, argv, out_dir: str) -> dict:
    argv = workloads.fill(argv, out_dir)
    if "--output-dir" not in argv:
        argv = [*argv, "--output-dir", out_dir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a crash is an answer too
            code = f"raised {type(exc).__name__}: {exc}"
    files = sorted(Path(out_dir).glob("*")) if Path(out_dir).is_dir() else []
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": (err.getvalue().splitlines() or [""])[0],
        "artifacts": {p.name: _sha(p.read_bytes()) for p in files},
    }


def digest(names, seeds) -> dict:
    from harnacklab.cli import main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return {key: _answer(main, argv, f"out/{key.replace(':', '-')}")
                    for key, argv in _argvs(names, seeds)}
        finally:
            os.chdir(home)


def diff(a: dict, b: dict) -> list:
    """One line per entry and field that differ between two digests."""
    lines = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key, {}), b.get(key, {})
        for field in sorted(set(x) | set(y)):
            if x.get(field) != y.get(field):
                lines.append(f"{key} {field}: {x.get(field)!r} != {y.get(field)!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-105", help="a seed or a range lo-hi")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list what differs between two digests")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        lines = diff(a, b)
        print("\n".join(lines), end="\n" if lines else "")
        return 1 if lines else 0
    print(json.dumps(digest(args.workloads, _seeds(args.seeds)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
