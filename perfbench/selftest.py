"""Self-test of the benchmark harness (about 80 s on 2 cores).

    python3 perfbench/selftest.py

Checks that a seed fixes the argv lists, that every metric name is valid
and listed in BENCHMARK.json, that each traced function is hit on the
workload meant to use it and reads zero where its layer is unused, and
that the checker flags doctored reports.  Exits 1 on the first failing
group, after printing every failure of that group.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import check
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_GEODESICS = ("geodesics.corollary_check.self_ms", "geodesics.corollary_check.calls",
              "geodesics.shoot_geodesic.ms", "geodesics.shoot_geodesic.calls",
              "geodesics.quad_calls")
_SYMBOLIC = ("symbolic.verify_identity.calls", "symbolic.normalize.calls",
             "symbolic.commute_and_reduce.calls", "fdcheck.check_lemma31.calls")
_HARNACK = ("harnack.minimal_C.self_ms", "harnack.verify_theorem.self_ms",
            "harnack.audit_proof_terms.self_ms")
_GREEN = ("green.compute_profile.calls", "green.green_at.calls",
          "green.hess_b2_eigs.calls", "green.to_csv.ms", "green.quad_calls")

#: per workload: metrics that must be > 0, metrics that must read 0
COVERAGE = {
    "verdict-grid": (
        _GREEN + _HARNACK + ("models.hypothesis_report.calls",
                             "fdcheck.check_parallel_ricci.calls",
                             "models.profile_evals", "cli.report_ms"),
        _GEODESICS + _SYMBOLIC + ("geodesics.corollary_check.failed",),
    ),
    "corollary-triples": (
        _GEODESICS + ("green.compute_profile.calls", "green.green_at.calls",
                      "models.hypothesis_report.calls", "models.profile_evals"),
        _SYMBOLIC + _HARNACK + ("green.hess_b2_eigs.calls", "green.to_csv.ms"),
    ),
    "identities": (
        _SYMBOLIC + ("symbolic.verify_identity.ms", "fdcheck.check_lemma31.ms"),
        _GREEN + _HARNACK + _GEODESICS + ("models.hypothesis_report.calls",
                                          "fdcheck.check_parallel_ricci.calls",
                                          "geodesics.corollary_check.failed"),
    ),
}


class Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)

    def report(self, group):
        status = "ok" if not self else f"FAILED ({len(self)})"
        print(f"{group}: {status}")
        for what in self:
            print(f"  - {what}")
        if self:
            sys.exit(1)


def test_seeds():
    f = Failures()
    for w in workloads.WORKLOADS:
        a, b, c = (workloads.build(w, s) for s in (7, 7, 8))
        f.expect(a == b, f"{w}: seed 7 gave two different argv lists")
        f.expect(a != c, f"{w}: seeds 7 and 8 gave the same argv list")
        cycle = a[0]
        f.expect(len(cycle) >= 11, f"{w}: cycle has {len(cycle)} < 11 commands")
        f.expect(len(cycle) > len({tuple(x) for x in cycle}),
                 f"{w}: cycle repeats no argv, so byte identity goes unchecked")
    f.report("same seed, same argv")


def test_spec():
    f = Failures()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    f.expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
             "workload names differ from workloads.WORKLOADS")
    names = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            f.expect(NAME.match(m["name"]), f"bad metric name {m['name']!r}")
            f.expect(UNIT.match(m["unit"]), f"bad unit {m['unit']!r}")
            f.expect(m["better"] in ("lower", "higher"), f"{m['name']}: better")
    f.expect(len(names) == len(set(names)), "a metric name is used twice")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    f.expect(all(0 < m["bound"] <= 0.25 for m in e2e.values()), "bound out of range")
    f.expect(e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()),
             "setup_s must have the largest bound")
    f.report("metric names")
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def test_timed(e2e_names):
    """One short end-to-end run prints exactly the end-to-end metrics."""
    f = Failures()
    p = subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"),
                        "--workload", "identities", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True,
                       timeout=run.DEADLINE_S + 30)
    f.expect(p.returncode == 0, f"run.py exited {p.returncode}: {p.stderr[-500:]}")
    if p.returncode == 0:
        result = json.loads(p.stdout.splitlines()[-1])
        f.expect(set(result["metrics"]) == e2e_names,
                 "timed metrics differ from BENCHMARK.json end_to_end")
        f.expect(result["correct"] and result["failed"] == 0,
                 f"identities run not correct: {p.stdout.splitlines()[-2][:500]}")
    f.report("end-to-end run")


def test_coverage(layer_names):
    f = Failures()
    with run.scratch_dir("selftest-") as scratch:
        r = run.Run(scratch)
        for w, (hit, zero) in COVERAGE.items():
            _, rc, out, err = r.python(
                [str(run.ROOT / "perfbench" / "tracer.py"), "--workload", w,
                 "--seed", "0", "--out", scratch, "--traced", "1"],
                timeout=run.DEADLINE_S)
            if rc != 0:
                f.append(f"{w}: tracer exited {rc}: {err[-500:]}")
                continue
            metrics = json.loads(out.splitlines()[-1])["metrics"]
            added = {"trace.overhead_frac", "failed_ops_frac", "wrong_results"}
            f.expect(set(metrics) | added == layer_names,
                     f"{w}: traced metrics differ from BENCHMARK.json per_layer: "
                     f"{sorted((set(metrics) | added) ^ layer_names)}")
            for name in hit:
                f.expect(metrics[name] > 0, f"{w}: {name} is 0, expected > 0")
            for name in zero:
                f.expect(metrics[name] == 0, f"{w}: {name} = {metrics[name]}, expected 0")
    f.report("layer coverage")


def _report(**fields):
    return json.dumps({"version": "0", "config": {}, **fields}, sort_keys=True)


def test_checker():
    f = Failures()
    catalogue = {"misc.1": True, "lap_of_harnack.literal": False}
    judge = check.Ledger(catalogue).judge

    # a real report passes, and a doctored copy of it does not
    argv = ["min-c", "--model", "cone:0.5", "--n", "4", "--grid-size", "512"]
    with run.scratch_dir("selftest-") as scratch:
        _, rc, out, err = run.Run(scratch).cli(argv)
    f.expect(judge(argv, rc, out, err) == (None, None), f"real report rejected: {err}")
    real = json.loads(out)
    real["minimal_C"] += 1e-5
    f.expect(check.Ledger(catalogue).judge(argv, rc, json.dumps(real), "")[1]
             is not None,
             "doctored minimal_C passed")
    f.expect(judge(argv, rc, out.replace("\n", " "), "")[1] is not None,
             "repeated argv with different bytes passed")

    verify = ["verify", "--model", "euclidean", "--n", "10", "--C", "10"]
    cases = [
        (["min-c", "--model", "euclidean", "--n", "5"], 0,
         _report(command="min-c", verdict="pass", minimal_C=2.00001), "wrong"),
        (verify, 3, _report(command="verify", verdict="exploratory"), "wrong"),
        (verify, 0, _report(command="verify", verdict="exploratory"), "failed"),
        (["corollary", "--model", "euclidean", "--n", "4", "--C", "2"], 3,
         _report(command="corollary", verdict="exploratory", worst_slack=-2e-6), "wrong"),
        (["symbolic", "verify-all"], 0,
         _report(command="symbolic", verdict="pass", zero_count=2, identities=[
             {"name": "misc.1", "ok": True, "zero": True},
             {"name": "lap_of_harnack.literal", "ok": True, "zero": False}]), "wrong"),
        (["oracle", "commutators", "--chart", "s2xr2"], 1,
         _report(command="oracle", verdict="fail", worst_residual=1.0), "wrong"),
        (["min-c"], 2, "", "failed"),
        (["min-c"], 1, "Traceback (most recent call last):", "failed"),
        (["min-c"], 0, "not json", "failed"),
        (["min-c"], None, "", "failed"),
    ]
    for argv, rc, out, kind in cases:
        failed, wrong = check.Ledger(catalogue).judge(
            argv, rc, out, out if "Traceback" in out else "")
        flagged = failed if kind == "failed" else wrong
        f.expect(flagged is not None, f"{argv} rc={rc}: not flagged as {kind}")
    f.report("checker flags doctored reports")


def main():
    test_seeds()
    e2e_names, layer_names = test_spec()
    test_checker()
    test_coverage(layer_names)
    test_timed(e2e_names)
    print("selftest passed")


if __name__ == "__main__":
    main()
