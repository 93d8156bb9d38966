"""In-process run of a workload cycle, optionally traced layer by layer.

Run as a child of ``run.py`` (``python3 perfbench/tracer.py --workload W
--seed S --out DIR --traced 0|1``, with ``PYTHONPATH`` pointing at the
checkout's ``src``).  It imports ``harnacklab.cli`` (timing the import),
then calls ``harnacklab.cli.main(argv)`` for every command of the cycle
and of the known-defect probes, and prints one JSON line.

With ``--traced 1`` the public functions of each layer are wrapped in
spans (name, start, end, parent, request).  A function is replaced in
every ``harnacklab`` module namespace that holds it, so calls through a
name imported with ``from ... import`` are caught too.  Warping-profile
evaluations are only counted: they run inside quadrature loops, where a
span per call would cost more than the call.  ``scipy.integrate.quad`` is
counted too, per calling module: its calls, and the calls that missed their
tolerance.  A miss shows either as an ``IntegrationWarning`` (recorded with
``warnings.catch_warnings``) or, where the caller passed ``full_output``, as
the message quad returns instead of warning, which the package discards.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
import traceback
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import check
import workloads

# (module, function) pairs wrapped in spans; the layer is the module's
# first name below the package
FUNCTIONS = (
    ("harnacklab.cli", "main"),
    ("harnacklab.cli", "_emit"),
    ("harnacklab.green", "compute_profile"),
    ("harnacklab.green", "hess_b2_eigs"),
    ("harnacklab.models", "hypothesis_report"),
    ("harnacklab.harnack", "minimal_C"),
    ("harnacklab.harnack", "verify_theorem"),
    ("harnacklab.harnack", "audit_proof_terms"),
    ("harnacklab.geodesics", "corollary_check"),
    ("harnacklab.geodesics", "shoot_geodesic"),
    ("harnacklab.fdcheck", "check_parallel_ricci"),
    ("harnacklab.fdcheck", "check_lemma31"),
    ("harnacklab.symbolic.identities", "verify_identity"),
    ("harnacklab.symbolic.engine", "normalize"),
    ("harnacklab.symbolic.engine", "commute_and_reduce"),
)
# (module, class, method) wrapped in spans
METHODS = (
    ("harnacklab.green", "RadialGreenProfile", "green_at"),
    ("harnacklab.green", "RadialGreenProfile", "to_csv"),
)
# (module, class, method) only counted, under one counter
COUNTED = {
    "models.profile_evals": (
        ("harnacklab.models", "WarpingProfile", "f"),
        ("harnacklab.models", "WarpingProfile", "fp"),
        ("harnacklab.models", "WarpingProfile", "fpp"),
    ),
}
# modules whose quadrature calls and misses are counted (the ones calling quad)
QUAD_MODULES = ("models", "green", "geodesics")


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[1]}.{attr}"


class Tracer:
    """Spans kept in memory as [name, start, end, parent, request, failed]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.counts = Counter()

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.request, False]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                stack.pop()
                rec[2] = time.perf_counter()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace each traced function wherever the package holds it."""
        for module, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module)
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "harnacklab" or name.startswith("harnacklab.")]
        for module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self.span(span_name(module, attr), orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        for module, cls, attr in METHODS:
            klass = getattr(sys.modules[module], cls)
            setattr(klass, attr, self.span(span_name(module, attr),
                                           getattr(klass, attr)))
        for counter, targets in COUNTED.items():
            for module, cls, attr in targets:
                klass = getattr(sys.modules[module], cls)
                setattr(klass, attr, self.counter(counter, getattr(klass, attr)))
        from scipy import integrate  # after the timed package import
        integrate.quad = self.quad_counter(integrate.quad)

    def quad_counter(self, quad):
        """quad, counting calls and silenced misses per calling layer.

        quad warns with ``stacklevel=2``, which would now name this wrapper
        as the source; its warnings are re-issued at the caller's line.
        """
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = quad(*args, **kwargs)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, frame.f_code.co_filename,
                                       frame.f_lineno)
            caller = frame.f_globals.get("__name__", "").split(".")
            if caller[0] == "harnacklab" and len(caller) > 1:
                counts[f"{caller[1]}.quad_calls"] += 1
                # with full_output, quad returns a message instead of warning
                if kwargs.get("full_output") and len(out) > 3:
                    counts[f"{caller[1]}.quad_silenced"] += 1
            return out

        wrapper.__wrapped__ = quad
        return wrapper

    def aggregate(self) -> dict:
        """Per span name: calls, failed calls, total ms and self ms.

        Total time counts only outermost spans of a name, so recursion is
        not counted twice; self time is a span's duration minus the time
        its direct child spans cover.
        """
        spans = self.spans
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "failed": 0, "ms": 0.0, "self_ms": 0.0})
        for idx, (name, t0, t1, parent, _, failed) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["failed"] += int(failed)
            agg["self_ms"] += 1e3 * (t1 - t0 - child[idx])
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                agg["ms"] += 1e3 * (t1 - t0)
        return dict(out)


def run_one(cli, argv, tracer, request):
    """Call cli.main(argv); a crash is recorded with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = request
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(list(argv))
        except Exception:  # the harness boundary: record, never hide
            rc = 1
            err.write(traceback.format_exc())
    quad = Counter(Path(w.filename).stem for w in caught
                   if w.category.__name__ == "IntegrationWarning")
    return rc, out.getvalue(), err.getvalue(), quad


def layer_metrics(tracer: Tracer, import_ms: float, quad: Counter) -> dict:
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {
        "cli.import_ms": import_ms,
        "cli.report_ms": get("cli._emit", "ms"),
        "cli.self_ms": get("cli.main", "self_ms"),
        "green.compute_profile.ms": get("green.compute_profile", "ms"),
        "green.compute_profile.calls": get("green.compute_profile", "calls"),
        "green.green_at.self_ms": get("green.green_at", "self_ms"),
        "green.green_at.calls": get("green.green_at", "calls"),
        "green.hess_b2_eigs.calls": get("green.hess_b2_eigs", "calls"),
        "green.to_csv.ms": get("green.to_csv", "ms"),
        "models.hypothesis_report.ms": get("models.hypothesis_report", "ms"),
        "models.hypothesis_report.calls": get("models.hypothesis_report", "calls"),
        "models.profile_evals": tracer.counts["models.profile_evals"],
        "fdcheck.check_parallel_ricci.ms": get("fdcheck.check_parallel_ricci", "ms"),
        "fdcheck.check_parallel_ricci.calls": get("fdcheck.check_parallel_ricci", "calls"),
        "fdcheck.check_lemma31.ms": get("fdcheck.check_lemma31", "ms"),
        "fdcheck.check_lemma31.calls": get("fdcheck.check_lemma31", "calls"),
        "harnack.minimal_C.self_ms": get("harnack.minimal_C", "self_ms"),
        "harnack.verify_theorem.self_ms": get("harnack.verify_theorem", "self_ms"),
        "harnack.audit_proof_terms.self_ms": get("harnack.audit_proof_terms", "self_ms"),
        "geodesics.corollary_check.self_ms": get("geodesics.corollary_check", "self_ms"),
        "geodesics.corollary_check.calls": get("geodesics.corollary_check", "calls"),
        "geodesics.corollary_check.failed": get("geodesics.corollary_check", "failed"),
        "geodesics.shoot_geodesic.ms": get("geodesics.shoot_geodesic", "ms"),
        "geodesics.shoot_geodesic.calls": get("geodesics.shoot_geodesic", "calls"),
        "symbolic.verify_identity.ms": get("symbolic.verify_identity", "ms"),
        "symbolic.verify_identity.calls": get("symbolic.verify_identity", "calls"),
        "symbolic.normalize.ms": get("symbolic.normalize", "ms"),
        "symbolic.normalize.calls": get("symbolic.normalize", "calls"),
        "symbolic.commute_and_reduce.ms": get("symbolic.commute_and_reduce", "ms"),
        "symbolic.commute_and_reduce.calls": get("symbolic.commute_and_reduce", "calls"),
    }
    for mod in QUAD_MODULES:
        m[f"{mod}.quad_calls"] = tracer.counts[f"{mod}.quad_calls"]
        m[f"{mod}.quad_warnings"] = quad[mod] + tracer.counts[f"{mod}.quad_silenced"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="scratch dir for --output-dir")
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import harnacklab.cli as cli
    import_ms = 1e3 * (time.perf_counter() - t0)
    import harnacklab
    from harnacklab.symbolic.identities import IDENTITIES
    catalogue = {name: e.expect_zero for name, e in IDENTITIES.items()}

    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    cycle, probes = workloads.build(args.workload, args.seed)
    ledger = check.Ledger(catalogue)
    commands, quad = [], Counter()
    t0 = time.perf_counter()
    for k, argv in enumerate(cycle + probes):
        argv = workloads.fill(argv, args.out)
        rc, out, err, q = run_one(cli, argv, tracer, k)
        failed, wrong = ledger.judge(argv, rc, out, err)
        quad.update(q)
        commands.append({"argv": argv, "probe": k >= len(cycle),
                         "failed": failed, "wrong": wrong})
    loop_s = time.perf_counter() - t0

    result = {
        "harnacklab_file": harnacklab.__file__,
        "import_ms": import_ms,
        "loop_s": loop_s,
        "commands": commands,
        "integration_warnings": dict(quad),
    }
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer, import_ms, quad)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
