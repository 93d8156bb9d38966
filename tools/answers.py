"""Answers digest: what every benchmark argv exits with, prints and writes.

    PYTHONPATH=<checkout>/src python tools/answers.py --seeds 101-105 > A.json
    PYTHONPATH=<checkout>/src python tools/answers.py --values > A.json
    python tools/answers.py --diff A.json B.json [--rtol 1e-12]

The first form takes every argv of the benchmark workloads, timed cycle
and known-defect probes alike, from ``perfbench/workloads.py`` (imported
only), gives each its own ``--output-dir`` and runs it in-process through
``harnacklab.cli.main``.  The benchmark runs presets only, so the
``tables`` workload adds custom profiles: it writes the tables of
``tests/tables.py`` (``TABLES``) as CSV files and answers ``verify --C 10``,
``min-c`` and ``export-profile`` at n = 4 on each, whatever the seeds.  The
``edges`` workload, also seed-free, answers ``min-c`` and a failing
``verify --exploratory --C 1`` on two smoothed cones whose blend holds
thousands of radii of a fine grid (``EDGES``), at 512 and 65536 points, so
that an answer that depends on the grid's size shows as a difference
between the two, and a failing verify's capped list of violations, its
sup and its boundary values are pinned on the largest grid.  The
``geodesics`` workload, seed-free too, answers ``corollary`` at 20 triples
(default seed 0) on three smoothed cones (``GEODESICS``), whose pairs mix
the monotone and turning branches, so that their Clairaut sweeps and root
finds on a curved piece are pinned; a change to the root finder is diffed
against it with ``--values --rtol``.  The ``oracle-charts`` workload,
seed-free too, answers ``oracle commutators`` at 2 probes on every preset
chart (``ORACLE_CHARTS``): euclidean in dimensions 2 and 3, round_sphere,
s2xr2, and the cone in dimensions 3 and 6.  The cone's Ricci is not
parallel, so there identity 5 is reported outside the gate and the verdict
is exploratory, which this pins.  The ``reports`` workload, seed-free too,
answers the report shapes no other workload prints (``REPORTS``): a
verify with a bound ``--D``, reporting ``D`` and whether its premise
``Hess b^2 <= D g`` holds, on near and far windows, the preset list, a profile
exported to stdout, one symbolic identity, an audit off the grid, and two
verifies whose G or C make ``G^alpha (C - mu)`` overflow at the window's
ends, which the report does not print.  The
``forms`` workload, seed-free too, runs no argv: it records the reduced
forms of a few exact tensor expressions built in process (``_forms``),
non-zero ones among them, which no command prints, so that a change to the
reduction shows here as a moved form.  The ``ranges`` workload, seed-free
too, answers the argv that leave the float range (``RANGES``): on the grid,
in a custom table of the ``tables`` workload and at an audit's radius, each
refused with exit 2 and one line naming what left the range.  The ``ids``
workload, seed-free too, answers ``verify --n 4`` on each model id of
``IDS``: presets with parameters out of their range or not numbers, ids no
preset has, and the ``smoothed_cone`` spelling, so that each refusal's exit
code and line, and the canonical id a report names, are pinned.  It prints
JSON holding, per argv,
the exit code, a sha256 of stdout, the first line of stderr and a sha256
of each artifact, and per form a sha256 of its ``repr``.  The output
directories are relative paths inside a temporary working directory, so
the config a report echoes is the same for every checkout.

With ``--values`` it records the values instead of their digests: the
parsed JSON report, each form's ``repr``, and each artifact parsed (a JSON
report as such, a CSV table as its header and one list of numbers per
column).  A move of
one ulp changes a sha but not a value, so this form can tell rounding
from a wrong answer.

``--diff`` lists each entry and field that differ between two digests of
one form; it prints nothing, and exits 0, when they agree.  Exit codes,
strings, booleans, integers and the shape of every report must agree
exactly.  A float may move by ``--rtol`` relative (0, exact, by default):
each field past it is listed once, with how many of its values moved
past it and its largest relative move (list entries and CSV rows count
as one field).
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench is not a package)

#: the custom tables of the ``tables`` workload: name -> tests/tables.py call
TABLES = {
    "concave": ("concave_table", ()),
    "flat": ("line_table", (4000,)),
    "bump": ("bump_table", ()),
    "late-bump": ("late_bump_table", ()),
}
TABLE_COMMANDS = (("verify", "--C", "10"), ("min-c",), ("export-profile",))
#: the ``edges`` workload: (model, n) answered by each of EDGE_COMMANDS at
#: each grid size
EDGES = (("smoothed-cone:0.3:1", "30"), ("smoothed-cone:0.1:100", "12"))
EDGE_GRID_SIZES = ("512", "65536")
#: key suffix -> command and options; min-c's key has none
EDGE_COMMANDS = (("", ("min-c",)), (":verify", ("verify", "--exploratory", "--C", "1")))
#: the ``geodesics`` workload: (model, n, C) answered by ``corollary`` at
#: GEODESIC_TRIPLES triples
GEODESICS = (("smoothed-cone:0.8:1", "4", "12"), ("smoothed-cone:0.9:2", "6", "12"),
             ("smoothed-cone:0.75:1.5", "9", "15"))
GEODESIC_TRIPLES = "20"
#: the ``oracle-charts`` workload: key suffix -> argv, one per preset chart
#: and dimension
ORACLE = ("oracle", "commutators", "--probes", "2", "--chart")
ORACLE_CHARTS = {
    "euclidean:n2": (*ORACLE, "euclidean", "--n", "2"),
    "euclidean:n3": (*ORACLE, "euclidean", "--n", "3"),
    "round_sphere": (*ORACLE, "round_sphere"),
    "s2xr2": (*ORACLE, "s2xr2"),
    "cone:n3": (*ORACLE, "cone", "--n", "3"),
    "cone:n6": (*ORACLE, "cone", "--n", "6"),
}
#: the ``reports`` workload: key suffix -> argv; an empty --output-dir writes
#: no artifact, so export-profile prints its CSV
REPORTS = {
    "verify-D": ("verify", "--model", "euclidean", "--n", "4", "--D", "11"),
    "verify-D-smoothed": ("verify", "--model", "smoothed-cone:0.8:1", "--n", "5",
                          "--D", "2"),
    # a far window, where G^alpha is below the tolerance: D = 1 breaks the premise
    "verify-D-far": ("verify", "--model", "euclidean", "--n", "10", "--r-min", "10",
                     "--r-max", "100", "--D", "1", "--C", "10"),
    "models": ("models", "list"),
    "export-profile-stdout": ("export-profile", "--output-dir", ""),
    "symbolic-name": ("symbolic", "verify", "--name", "lap_of_harnack.literal"),
    "audit-off-grid": ("audit", "--model", "cone:0.5", "--r", "500"),
    # G and G^alpha far past 1 at the window's ends: the report holds mu alone
    "cone-tiny-r-min": ("verify", "--model", "cone:0.01", "--n", "3", "--r-min", "1e-100"),
    "C-near-max": ("verify", "--C", "1e308", "--n", "4"),
}
#: the ``ranges`` workload: key suffix -> argv, each refused with exit 2
RANGES = {
    "cone-slope-G": ("verify", "--model", "cone:1e-300", "--n", "4"),
    "r-min-G": ("verify", "--r-min", "1e-320", "--n", "4"),
    "table-Gpp": ("verify", "--model", "custom:tables/concave.csv", "--n", "152"),
    "table-G": ("verify", "--model", "custom:tables/concave.csv", "--n", "700"),
    "audit-r-G": ("audit", "--model", "cone:0.5", "--r", "1e-200", "--n", "4"),
    "audit-r-G-squared": ("audit", "--model", "euclidean", "--r", "1e300", "--n", "3"),
}
#: the ``ids`` workload: model ids, each answered by ``verify --n 4``
IDS = ("cone:0", "cone:1.5", "cone:nan", "smoothed-cone:nan:1", "smoothed-cone:0.5:inf",
       "smoothed-cone:0.5:0", "smoothed-cone:0.5:nan", "euclidean:1", "cone", "custom",
       "blend:1", "cone:abc", "smoothed_cone:0.8:1")
CHOICES = (*workloads.WORKLOADS, "tables", "edges", "geodesics", "oracle-charts", "reports",
           "ranges", "forms", "ids")


def _listed() -> dict:
    """Every seed-free workload that runs argv: name -> key suffix -> argv,
    from the tables above as they stand at the call, so that a test may
    narrow one."""
    return {
        "tables": {f"{table}:{cmd}": (cmd, "--model", f"custom:tables/{table}.csv", "--n", "4",
                                      *opts)
                   for table in TABLES for cmd, *opts in TABLE_COMMANDS},
        "edges": {f"{model}:n{n}:grid{size}{suffix}": (cmd, "--model", model, "--n", n,
                                                       "--grid-size", size, *opts)
                  for model, n in EDGES for size in EDGE_GRID_SIZES
                  for suffix, (cmd, *opts) in EDGE_COMMANDS},
        "geodesics": {f"{model}:n{n}": ("corollary", "--model", model, "--n", n, "--C", C,
                                        "--triples", GEODESIC_TRIPLES)
                      for model, n, C in GEODESICS},
        "oracle-charts": ORACLE_CHARTS,
        "reports": REPORTS,
        "ranges": RANGES,
        "ids": {model: ("verify", "--model", model, "--n", "4") for model in IDS},
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _write_tables(directory: Path) -> None:
    """Each table of TABLES as the CSV file <directory>/<name>.csv."""
    sys.path.insert(0, str(ROOT / "tests"))
    import tables  # the formulas the custom-table tests sample

    directory.mkdir()
    for name, (maker, args) in TABLES.items():
        tables.write_csv(directory / f"{name}.csv", getattr(tables, maker)(*args))


def _argvs(names, seeds):
    """(key, argv) of every argv of the listed workloads, and of every cycle
    slot and probe of the benchmark's workloads at the seeds."""
    listed = _listed()
    for name in names:
        if name in listed:
            for suffix, argv in listed[name].items():
                yield f"{name}:{suffix}", list(argv)
            continue
        if name == "forms":
            continue  # no argv: see _forms
        for seed in seeds:
            cycle, probes = workloads.build(name, seed)
            for kind, argvs in (("cycle", cycle), ("probe", probes)):
                for i, argv in enumerate(argvs):
                    yield f"{name}:{seed}:{kind}{i}", argv


def _parsed(name: str, text: str):
    """A JSON text as its value, a CSV table as {header, columns}; else the text."""
    if name.endswith(".json") or name == "stdout":
        try:
            return json.loads(text)
        except ValueError:
            return text
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        cols = zip(*(map(float, row.split(",")) for row in rows))
        return {"header": header,
                "columns": {h: list(c) for h, c in zip(header.split(","), cols)}}
    return text


def _answer(main, argv, out_dir: str, values: bool) -> dict:
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
    if values:
        stdout = _parsed("stdout", out.getvalue())
        artifacts = {p.name: _parsed(p.name, p.read_text()) for p in files}
    else:
        stdout = _sha(out.getvalue().encode())
        artifacts = {p.name: _sha(p.read_bytes()) for p in files}
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout,
        "stderr": (err.getvalue().splitlines() or [""])[0],
        "artifacts": artifacts,
    }


def _forms(values: bool) -> dict:
    """The ``forms`` workload: key -> {"form": repr of a reduced form, or
    its sha256}."""
    from harnacklab.symbolic import (B, commute_and_reduce, dg, gradG_pairing,
                                     hessian_shifted, kron, laplacian, normalize, riem)

    # the third-derivative commutator, an identity, times two long strings:
    # its reduced form is not zero although the product is
    third = dg("i", "j", "k") - dg("i", "k", "j") - riem("j", "k", "m", "i") * dg("m")
    forms = {
        "laplacian-hessian-shifted": lambda: laplacian(hessian_shifted("i", "j")),
        "laplacian-B": lambda: laplacian(B("i", "j")),
        "laplacian-dg-dg": lambda: laplacian(dg("i") * dg("j")),
        "gradG-pairing-dg-dg": lambda: gradG_pairing(dg("i") * dg("j")),
        "third-commutator-long-strings":
            lambda: commute_and_reduce(third * dg("i", "j", "l") * dg("k", "p")),
        # the innermost pair is sorted before the kron traces the string
        "dg-kron-trace": lambda: normalize(dg("m", "i", "k") * kron("k", "m")),
    }
    out = {}
    for name, form in forms.items():
        try:
            text = repr(form())
        except Exception as exc:  # a raise is an answer too
            text = f"raised {type(exc).__name__}: {exc}"
        out[f"forms:{name}"] = {"form": text if values else _sha(text.encode())}
    return out


def digest(names, seeds, values: bool = False) -> dict:
    from harnacklab.cli import main

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if "tables" in names or "ranges" in names:
                _write_tables(Path("tables"))
            answers = {key: _answer(main, argv, f"out/{key.replace(':', '-')}", values)
                       for key, argv in _argvs(names, seeds)}
        finally:
            os.chdir(home)
    if "forms" in names:
        answers.update(_forms(values))
    return answers


def _compare(x, y, path: str, exact: list, moves: dict, rtol: float) -> None:
    """Walk two values side by side: exact mismatches go to `exact`, float
    moves past rtol to moves[path] = [count, largest move, x, y]."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(set(x) | set(y)):
            if k in x and k in y:
                _compare(x[k], y[k], f"{path}/{k}", exact, moves, rtol)
            else:
                exact.append(f"{path}/{k}: {x.get(k)!r} != {y.get(k)!r}")
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for a, b in zip(x, y):
            _compare(a, b, f"{path}/[]", exact, moves, rtol)
    elif type(x) is float and type(y) is float:
        move = 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))
        if move > rtol:
            entry = moves.setdefault(path, [0, 0.0, x, y])
            entry[0] += 1
            if move > entry[1]:
                entry[1:] = [move, x, y]
    elif x != y:
        exact.append(f"{path}: {x!r} != {y!r}")


def diff(a: dict, b: dict, rtol: float = 0.0) -> list:
    """One line per entry and field that differ between two digests."""
    lines = []
    for key in sorted(set(a) | set(b)):
        exact, moves = [], {}
        _compare(a.get(key, {}), b.get(key, {}), "", exact, moves, rtol)
        lines += [f"{key} {line.lstrip('/')}" for line in exact]
        lines += [f"{key} {path.lstrip('/')}: {count} moved past rtol, largest "
                  f"relative move {move:.3g} ({x!r} -> {y!r})"
                  for path, (count, move, x, y) in moves.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-105", help="a seed or a range lo-hi")
    parser.add_argument("--workloads", nargs="+", default=list(CHOICES),
                        choices=CHOICES)
    parser.add_argument("--values", action="store_true",
                        help="record parsed reports and artifacts, not their sha256")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list what differs between two digests")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="relative move a float may make in --diff (default 0)")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        lines = diff(a, b, args.rtol)
        print("\n".join(lines), end="\n" if lines else "")
        return 1 if lines else 0
    print(json.dumps(digest(args.workloads, _seeds(args.seeds), args.values),
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
