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

DEFAULT_LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: finite-difference steps h with h^2 and the oracle's gate 100 h^2 normal floats
H_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 100.0))


class RunConfig:
    """A run's settings: these defaults, then a config file, then the flags."""

    model: str = "euclidean"
    n: int = 4
    C: float = 10.0
    r_min: float = 1e-2
    r_max: float = 1e2
    grid_size: int = 512
    tol: float = INEQ_TOL
    lambdas: tuple = DEFAULT_LAMBDAS
    seed: int = 0
    output_dir: str = ""
    #: the settings above: what a config file may set and a report echoes
    FIELDS = ("model", "n", "C", "r_min", "r_max", "grid_size", "tol", "lambdas", "seed",
              "output_dir")

    @classmethod
    def load(cls, args) -> "RunConfig":
        cfg = cls()
        cfg.given = set()  # the fields a config file or a flag set
        if getattr(args, "config", None):
            data = json.loads(Path(args.config).read_text())
            if not isinstance(data, dict):
                raise ModelError(f"config file {args.config} must hold a JSON object, "
                                 f"got {type(data).__name__}")
            for key, val in data.items():
                if key not in cls.FIELDS:
                    raise ModelError(f"unknown config key {key!r}")
                setattr(cfg, key, val)
                cfg.given.add(key)
        for key in cls.FIELDS:
            val = getattr(args, key, None)
            if val is not None:
                setattr(cfg, key, val)
                cfg.given.add(key)
        # the type of every field, whether a config file or a flag set it
        for key in ("model", "output_dir"):
            val = getattr(cfg, key)
            if not isinstance(val, str):
                raise ModelError(f"{key} must be a string, got {val!r}")
        for key in ("n", "grid_size", "seed"):
            val = getattr(cfg, key)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ModelError(f"{key} must be an integer, got {val!r}")
        for key in ("C", "tol", "r_min", "r_max"):
            val = getattr(cfg, key)
            if not _finite_number(val):
                raise ModelError(f"{key} must be a finite number, got {val!r}")
        if not isinstance(cfg.lambdas, (list, tuple)) or not all(
                map(_finite_number, cfg.lambdas)):
            raise ModelError(f"lambdas must be a list of finite numbers, got {cfg.lambdas!r}")
        if cfg.seed < 0:
            raise ModelError(f"seed must be non-negative, got {cfg.seed!r}")
        if not 2 <= cfg.grid_size <= MAX_GRID_SIZE:
            raise ModelError(f"grid_size must lie in [2, {MAX_GRID_SIZE}], "
                             f"got {cfg.grid_size!r}")
        if cfg.tol < 0:
            raise ModelError(f"tol must be >= 0, got {cfg.tol!r}")
        if not 0.0 < cfg.r_min < cfg.r_max:
            raise ModelError(f"need 0 < r_min < r_max, got r_min={cfg.r_min!r}, "
                             f"r_max={cfg.r_max!r}")
        D = getattr(args, "D", None)
        if D is not None and not math.isfinite(D):
            raise ModelError(f"D must be finite, got {D!r}")
        h = getattr(args, "h", None)
        if h is not None and not H_RANGE[0] <= h <= H_RANGE[1]:
            raise ModelError(f"the finite-difference step h must lie in "
                             f"[{H_RANGE[0]:.3g}, {H_RANGE[1]:.3g}], got {h!r}")
        cfg.lambdas = tuple(float(x) for x in cfg.lambdas)
        return cfg

    def echo(self) -> dict:
        d = {key: getattr(self, key) for key in self.FIELDS}
        d["lambdas"] = list(d["lambdas"])
        return d


def _finite_number(x) -> bool:
    """A finite int or float; a bool is never a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


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
        _artifact(output_dir, f"{command.replace(' ', '_')}.json").write_text(text)


def _artifact(output_dir: str, name: str) -> Path:
    """The path of an artifact in output_dir, the directory made if need be."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _report(command: str, cfg: RunConfig, verdict: str, body: dict) -> int:
    """Emit the report of a command and return the exit code of its verdict."""
    payload = {
        "version": __version__,
        "command": command,
        "config": cfg.echo(),
        "verdict": verdict,
        **body,
    }
    _emit(payload, command, cfg.output_dir)
    return EXIT_CODES[verdict]


def _verdict(ok: bool, exploratory: bool = False) -> str:
    return "fail" if not ok else ("exploratory" if exploratory else "pass")


def _model_profile(cfg: RunConfig):
    """The Green profile of the configured model on the configured grid."""
    from .green import compute_profile, default_grid
    from .models import model_from_id

    return compute_profile(model_from_id(cfg.model, cfg.n),
                           default_grid(cfg.r_min, cfg.r_max, cfg.grid_size))


# -- commands -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .harnack import verify_theorem

    cfg = RunConfig.load(args)
    exploratory = bool(args.exploratory)
    require_theorem_C(cfg.C, exploratory)  # before the profile, which may refuse n
    profile = _model_profile(cfg)
    report = verify_theorem(profile, cfg.C, tol=cfg.tol, exploratory=exploratory, D=args.D)
    return _report("verify", cfg, _verdict(report.passed, report.exploratory),
                   {"report": report.payload()})


def cmd_min_c(args) -> int:
    from .harnack import minimal_C

    cfg = RunConfig.load(args)
    return _report("min-c", cfg, _verdict(True), {"minimal_C": minimal_C(_model_profile(cfg))})


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

    cfg = RunConfig.load(args)
    # before the profile, which may refuse n
    if not cfg.lambdas:
        raise ModelError("corollary needs at least one lambda")
    if not all(0.0 <= lam <= 1.0 for lam in cfg.lambdas):
        raise ModelError("lambda must lie in [0, 1]")
    rng = random.Random(cfg.seed)
    profile = _model_profile(cfg)
    rows = []
    worst = math.inf
    misses = 0
    branches = dict.fromkeys(("radial", "monotone", "turning", "tip"), 0)
    shot_gap = None
    for y, z in _sample_triples(geodesics.SlicePoint, rng, args.triples):
        # one shot per report: the first pair that can be shot checks the
        # points found by arclength inversion
        triples = geodesics.corollary_check(profile, y, z, cfg.C, cfg.lambdas,
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
    if cfg.output_dir:
        with _artifact(cfg.output_dir, "corollary.csv").open("w") as out:
            write_csv(out, "y_r,y_phi,z_r,z_phi,lambda,d_yz,b2_w,rhs,slack,through_tip",
                      rows)

    flags = hypothesis_report(profile.model, profile.grid[0], profile.grid[-1]).flags()
    return _report("corollary", cfg,
                   _verdict(worst >= -cfg.tol, is_exploratory(cfg.C, flags)), {
                       "triples": args.triples,
                       "worst_slack": float(worst),
                       "quad_misses": misses,
                       "branches": branches,
                       "shot_gap": shot_gap,
                       "hypothesis_flags": flags,
                   })


def cmd_audit(args) -> int:
    from .harnack import audit_proof_terms

    cfg = RunConfig.load(args)
    audit = audit_proof_terms(_model_profile(cfg), args.r, cfg.C)
    # a group's rounding grows with its terms: gate it relative to their size
    ok = all(getattr(audit, name) <= cfg.tol * max(1.0, scale)
             for name, scale in audit.group_scales.items())
    return _report("audit", cfg, _verdict(ok, bool(audit.hypothesis_flags)),
                   {"audit": audit._asdict()})


def cmd_symbolic(args) -> int:
    cfg = RunConfig.load(args)
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
    return _report("symbolic", cfg, _verdict(all(r.ok for r in results)), {
        "identities": table,
        "zero_count": sum(r.zero for r in results),
    })


def cmd_oracle(args) -> int:
    # the commutator oracle first, so its module, the largest this command
    # compiles, compiles while the fewest objects are live
    from . import commutators, fdcheck

    cfg = RunConfig.load(args)
    h = fdcheck.DEFAULT_H if args.h is None else args.h
    chart = commutators.chart_by_name(args.chart, n=cfg.n)
    if chart.dim != cfg.n:  # round_sphere and s2xr2 have their own dimension
        if "n" in cfg.given:
            raise ModelError(f"chart {args.chart} has dimension {chart.dim}, got n={cfg.n}")
        cfg.n = chart.dim
    f = commutators.default_test_function(chart)
    rng = random.Random(cfg.seed)
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
    return _report("oracle", cfg, _verdict(worst <= gate, gated < 5), body)


def cmd_models(args) -> int:
    cfg = RunConfig.load(args)
    return _report("models", cfg, _verdict(True), {
        "presets": [
            {"id": "euclidean", "description": "flat space, f(r) = r"},
            {"id": "cone:<c>", "description": "metric cone, f(r) = c r, 0 < c <= 1"},
            {"id": "smoothed-cone:<c>:<r0>",
             "description": "f = r near the tip, c r beyond r0, C^2 blend"},
            {"id": "custom:<path>", "description": "CSV table with header r,f"},
        ],
    })


def cmd_export_profile(args) -> int:
    cfg = RunConfig.load(args)
    profile = _model_profile(cfg)
    verdict = _verdict(True)
    if not cfg.output_dir:
        profile.to_csv(sys.stdout)
        return EXIT_CODES[verdict]
    with _artifact(cfg.output_dir, "profile.csv").open("w") as out:
        profile.to_csv(out)
    return _report("export-profile", cfg, verdict,
                   {"rows": cfg.grid_size, "artifact": "profile.csv"})


# -- argument plumbing --------------------------------------------------------


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", help="model id (euclidean | cone:<c> | ...)")
    p.add_argument("--n", type=int, help="dimension, >= 3")
    p.add_argument("--C", type=float, help="Harnack constant")
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", dest="output_dir")


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


#: (name, help, the arguments past the common ones, command) of each subcommand
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
            _add_common(p)
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
        return args.func(args)
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
