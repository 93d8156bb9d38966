"""Command-line driver producing deterministic verification reports.

Exit codes: 0 all checks pass, 1 a verified inequality/identity fails,
2 invalid input or unmet preconditions, 3 exploratory run (conclusion
holds but a hypothesis flag is raised; never reported as a clean pass).

Each command imports the engine it runs when it runs, so importing this
module loads none of them.  Every engine computes in plain Python floats:
no command loads numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import sys
from pathlib import Path

from . import (INEQ_TOL, MAX_GRID_SIZE, THEOREM_C, ModelError, __version__,
               is_exploratory, require_theorem_C)

EXIT_INVALID = 2
EXIT_CODES = {"pass": 0, "fail": 1, "exploratory": 3}

#: finite-difference steps h with h^2 and the oracle's gate 100 h^2 normal floats
H_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 100.0))

#: the commands that build a profile, and those of them that gate a C
_PROFILE = ("verify", "audit", "corollary", "min-c", "export-profile")
_GATED = ("verify", "audit", "corollary")
#: every run setting: (type, default, the commands that read it).  A command
#: takes --config and a flag for each setting it reads, and its report echoes
#: those as its config; a config file may set any of them, and every value is
#: checked whichever command runs
SETTINGS = {
    "model": (str, "euclidean", _PROFILE),
    "n": (int, 4, _PROFILE + ("oracle",)),
    "C": (float, 10.0, _GATED),
    "r_min": (float, 1e-2, _PROFILE),
    "r_max": (float, 1e2, _PROFILE),
    "grid_size": (int, 512, _PROFILE),
    "tol": (float, INEQ_TOL, _GATED),
    "lambdas": (list, (0.0, 0.25, 0.5, 0.75, 1.0), ("corollary",)),
    "seed": (int, 0, ("corollary", "oracle")),
    "output_dir": (str, "", _PROFILE + ("symbolic", "oracle", "models")),
}


def _finite_number(x) -> bool:
    """A finite int or float; a bool is never a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


#: each type of setting: whether a value is of it, and what the error says
_TYPES = {
    str: (lambda v: isinstance(v, str), "a string"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_finite_number, "a finite number"),
    list: (lambda v: isinstance(v, (list, tuple)) and all(map(_finite_number, v)),
           "a list of finite numbers"),
}


def _settings(args):
    """args with every setting filled in, the defaults, then a config file,
    then the flags, and each one checked; `given` names those a file or a
    flag set."""
    given = {}
    if args.config:
        given = json.loads(Path(args.config).read_text())
        if not isinstance(given, dict):
            raise ModelError(f"config file {args.config} must hold a JSON object, "
                             f"got {type(given).__name__}")
        for key in given:
            if key not in SETTINGS:
                raise ModelError(f"unknown config key {key!r}")
    given.update((key, val) for key, val in vars(args).items()
                 if key in SETTINGS and val is not None)
    args.given = set(given)
    for key, (kind, default, _) in SETTINGS.items():
        val = given.get(key, default)
        is_kind, what = _TYPES[kind]
        if not is_kind(val):
            raise ModelError(f"{key} must be {what}, got {val!r}")
        setattr(args, key, val)
    if args.seed < 0:
        raise ModelError(f"seed must be non-negative, got {args.seed!r}")
    if not 2 <= args.grid_size <= MAX_GRID_SIZE:
        raise ModelError(f"grid_size must lie in [2, {MAX_GRID_SIZE}], "
                         f"got {args.grid_size!r}")
    for key in ("C", "tol"):
        if getattr(args, key) < 0:
            raise ModelError(f"{key} must be >= 0, got {getattr(args, key)!r}")
    if not 0.0 < args.r_min < args.r_max:
        raise ModelError(f"need 0 < r_min < r_max, got r_min={args.r_min!r}, "
                         f"r_max={args.r_max!r}")
    args.lambdas = tuple(map(float, args.lambdas))
    return args


def _enc(x):
    """17-significant-digit floats, recursively (byte-stable); refuses NaN/inf."""
    if isinstance(x, bool):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ModelError(f"report holds the non-finite value {x!r}")
        return float(format(x, ".17g"))
    if isinstance(x, dict):
        return {k: _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    return x


def _emit(payload: dict, command: str, output_dir: str) -> None:
    text = json.dumps(_enc(payload), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if output_dir:
        _artifact(output_dir, f"{command}.json").write_text(text)


def _artifact(output_dir: str, name: str) -> Path:
    """The path of an artifact in output_dir, the directory made if need be."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _report(args, verdict: str, body: dict) -> int:
    """Emit the report of a command, which echoes the settings the command
    reads, and return the exit code of its verdict."""
    payload = {
        "version": __version__,
        "command": args.command,
        "config": {key: getattr(args, key) for key, (_, _, readers) in SETTINGS.items()
                   if args.command in readers},
        "verdict": verdict,
        **body,
    }
    _emit(payload, args.command, args.output_dir)
    return EXIT_CODES[verdict]


def _verdict(ok: bool, exploratory: bool = False) -> str:
    return "fail" if not ok else ("exploratory" if exploratory else "pass")


def _model_profile(args):
    """The Green profile of the configured model on the configured grid."""
    from .green import compute_profile, default_grid
    from .models import model_from_id

    return compute_profile(model_from_id(args.model, args.n),
                           default_grid(args.r_min, args.r_max, args.grid_size))


# -- commands -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .harnack import verify_theorem

    if args.D is not None and not math.isfinite(args.D):
        raise ModelError(f"D must be finite, got {args.D!r}")
    require_theorem_C(args.C, args.exploratory)  # before the profile, which may refuse n
    report = verify_theorem(_model_profile(args), args.C, tol=args.tol,
                            exploratory=args.exploratory, D=args.D)
    return _report(args, _verdict(report.passed, report.exploratory),
                   {"report": report.payload()})


def cmd_min_c(args) -> int:
    from .harnack import minimal_C

    return _report(args, _verdict(True), {"minimal_C": minimal_C(_model_profile(args))})


def _sample_triples(point, rng, count: int):
    """count (y, z) pairs of slice points made by point(r, phi), y at phi = 0.

    Pair by pair, rng draws the radii of y and z, uniform in log scale on
    [0.5, 3], then the angle of z, uniform on [0, pi].
    """
    lo, hi = math.log(0.5), math.log(3.0)
    return [(point(math.exp(rng.uniform(lo, hi)), 0.0),
             point(math.exp(rng.uniform(lo, hi)), rng.uniform(0.0, math.pi)))
            for _ in range(count)]


def cmd_corollary(args) -> int:
    from . import geodesics
    from .green import write_csv
    from .models import hypothesis_report

    # before the profile, which may refuse n
    if not args.lambdas:
        raise ModelError("corollary needs at least one lambda")
    if not all(0.0 <= lam <= 1.0 for lam in args.lambdas):
        raise ModelError("lambda must lie in [0, 1]")
    rng = random.Random(args.seed)
    profile = _model_profile(args)
    rows = []
    worst = math.inf
    misses = 0
    branches = dict.fromkeys(("radial", "monotone", "turning", "tip"), 0)
    shot_gap = None
    for y, z in _sample_triples(geodesics.SlicePoint, rng, args.triples):
        # one shot per report: the first pair that can be shot checks the
        # points found by arclength inversion
        triples = geodesics.corollary_check(profile, y, z, args.C, args.lambdas,
                                            shoot=shot_gap is None)
        # every triple of a pair shares one minimizer, its branch and quad misses
        misses += triples[0].quad_misses
        branches[triples[0].branch] += 1
        if shot_gap is None:
            shot_gap = triples[0].shot_gap
        for t in triples:
            worst = min(worst, t.slack)
            rows.append((t.y.r, t.y.phi, t.z.r, t.z.phi, t.lam, t.d_yz, t.b2_w, t.rhs,
                         t.slack, int(t.through_tip_region)))
    if args.output_dir:
        with _artifact(args.output_dir, "corollary.csv").open("w") as out:
            write_csv(out, "y_r,y_phi,z_r,z_phi,lambda,d_yz,b2_w,rhs,slack,through_tip",
                      rows)

    flags = hypothesis_report(profile.model, profile.grid[0], profile.grid[-1]).flags()
    return _report(args, _verdict(worst >= -args.tol, is_exploratory(args.C, flags)), {
        "triples": args.triples,
        "worst_slack": float(worst),
        "quad_misses": misses,
        "branches": branches,
        "shot_gap": shot_gap,
        "hypothesis_flags": flags,
    })


def cmd_audit(args) -> int:
    from .harnack import audit_proof_terms

    audit = audit_proof_terms(_model_profile(args), args.r, args.C)
    # a group's rounding grows with its terms: gate it relative to their size
    ok = all(getattr(audit, name) <= args.tol * max(1.0, scale)
             for name, scale in audit.group_scales.items())
    # the proof's sign claims hold for C in the theorem's range only
    exploratory = bool(audit.hypothesis_flags) or args.C < THEOREM_C
    return _report(args, _verdict(ok, exploratory), {"audit": audit._asdict()})


def cmd_symbolic(args) -> int:
    if args.action != "verify-all" and not args.name:
        raise ModelError("symbolic supports: verify-all, or verify --name <id>")
    # the exact tensor engine, imported here so numeric commands never load it
    from .symbolic import verify_all, verify_identity

    results = [verify_identity(args.name)] if args.name else verify_all()
    table = [
        {"name": r.name, "zero": r.zero, "expected_zero": r.expect_zero,
         "ok": r.ok, "note": r.note,
         "residual": None if r.residual is None else repr(r.residual)}
        for r in results
    ]
    return _report(args, _verdict(all(r.ok for r in results)), {
        "identities": table,
        "zero_count": sum(r.zero for r in results),
    })


def cmd_oracle(args) -> int:
    # the commutator oracle first, so its module, the largest this command
    # compiles, compiles while the fewest objects are live
    from . import commutators, fdcheck

    h = fdcheck.DEFAULT_H if args.h is None else args.h
    if not H_RANGE[0] <= h <= H_RANGE[1]:
        raise ModelError(f"the finite-difference step h must lie in "
                         f"[{H_RANGE[0]:.3g}, {H_RANGE[1]:.3g}], got {h!r}")
    chart = commutators.chart_by_name(args.chart, n=args.n)
    if chart.dim != args.n:  # round_sphere and s2xr2 have their own dimension
        if "n" in args.given:
            raise ModelError(f"chart {args.chart} has dimension {chart.dim}, got n={args.n}")
        args.n = chart.dim
    f = commutators.default_test_function(chart)
    rng = random.Random(args.seed)
    base = commutators.default_probe_point(chart)
    gate = 100.0 * h**2
    rows = []
    for k in range(args.probes):
        point = [b + rng.uniform(-0.05, 0.05) for b in base]
        res = fdcheck.check_lemma31(chart, f, point, h)
        rows.append({"probe": k, "point": point, "residuals": list(res)})
    # identity 5 holds only where Ricci is parallel: elsewhere it is not gated
    gated = 5 if args.chart in commutators.PARALLEL_RICCI_CHARTS else 4
    # a NaN residual anywhere makes worst NaN, which fails the gate
    worst = fdcheck.max_residual(v for row in rows for v in row["residuals"][:gated])
    body = {"chart": args.chart, "h": h, "gate": gate, "worst_residual": worst, "probes": rows}
    if gated < 5:
        body["outside_hypothesis"] = {
            "identity": 5, "hypothesis": "parallel_ricci",
            "worst_residual": fdcheck.max_residual(row["residuals"][4] for row in rows)}
    return _report(args, _verdict(worst <= gate, gated < 5), body)


def cmd_models(args) -> int:
    return _report(args, _verdict(True), {
        "presets": [
            {"id": "euclidean", "description": "flat space, f(r) = r"},
            {"id": "cone:<c>", "description": "metric cone, f(r) = c r, 0 < c <= 1"},
            {"id": "smoothed-cone:<c>:<r0>",
             "description": "f = r near the tip, c r beyond r0, C^2 blend"},
            {"id": "custom:<path>", "description": "CSV table with header r,f"},
        ],
    })


def cmd_export_profile(args) -> int:
    profile = _model_profile(args)
    verdict = _verdict(True)
    if not args.output_dir:
        profile.to_csv(sys.stdout)
        return EXIT_CODES[verdict]
    with _artifact(args.output_dir, "profile.csv").open("w") as out:
        profile.to_csv(out)
    return _report(args, verdict, {"rows": args.grid_size, "artifact": "profile.csv"})


# -- argument plumbing --------------------------------------------------------


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_settings(p: argparse.ArgumentParser, command: str) -> None:
    """--config and a flag for each setting the command reads but lambdas,
    which corollary takes as a list."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key, (kind, _, readers) in SETTINGS.items():
        if command in readers and kind is not list:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exploratory", action="store_true",
                   help=f"allow C < {THEOREM_C} / unmet hypotheses (exit 3 on success)")
    p.add_argument("--D", type=float, default=None,
                   help="also check the eigenvalue lower bound for Hess b^2 <= D g")


def _corollary_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--triples", type=_count, default=100)
    p.add_argument("--lambdas", type=float, nargs="+", default=None)


def _audit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, default=1.0, help="radius to audit")


def _symbolic_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["verify-all", "verify"])
    p.add_argument("--name", help="single identity to verify")


def _oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("what", choices=["commutators"])
    p.add_argument("--chart", default="s2xr2",
                   choices=["euclidean", "round_sphere", "s2xr2", "cone"])
    p.add_argument("--h", type=float,
                   help="finite-difference step (default fdcheck.DEFAULT_H)")
    p.add_argument("--probes", type=_count, default=10)


def _models_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["list"])


def _no_args(p: argparse.ArgumentParser) -> None:
    pass


#: (name, help, the arguments past its settings' flags, command) of each subcommand
_SUBCOMMANDS = (
    ("verify", "check Hess b^2 <= C g over the grid", _verify_args, cmd_verify),
    ("min-c", "measure the least C with Hess b^2 <= C g", _no_args, cmd_min_c),
    ("corollary", "geodesic interpolation bound on b^2", _corollary_args, cmd_corollary),
    ("audit", "sign audit of the pointwise estimate", _audit_args, cmd_audit),
    ("symbolic", "exact tensor identity catalogue", _symbolic_args, cmd_symbolic),
    ("oracle", "finite-difference commutator residuals", _oracle_args, cmd_oracle),
    ("models", "list model presets", _models_args, cmd_models),
    ("export-profile", "dump the Green profile as CSV", _no_args, cmd_export_profile),
)


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser with every subcommand registered under its help, and the
    arguments of `command` alone: the top-level help, a usage error and the
    command's own help read as if every subcommand had its arguments."""
    parser = argparse.ArgumentParser(
        prog="harnacklab",
        description="Verification lab for the matrix bound Hess b^2 <= C g "
                    "on rotationally symmetric model manifolds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, add_args, func in _SUBCOMMANDS:
        p = sub.add_parser(name, help=text)
        if name == command:
            _add_settings(p, name)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option with a value, so its first word that is
    # not an option names the subcommand, the only one whose arguments are built
    command = next((word for word in argv if not word.startswith("-")), "")
    try:
        # the parser is dropped once it has parsed, before the command's engine loads
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(_settings(args))
    except (ModelError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:  # a float power, e.g. G ~ r^{2-n} at large n
        print(f"error: {exc}: past the float range; lower n or raise r_min", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    code = main()
    # the objects left are freed with the process: exit without a last
    # collection walking them
    gc.freeze()
    sys.exit(code)
