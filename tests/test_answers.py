"""tools/answers.py, the digest of what every benchmark argv answers."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "answers.py"


def test_digest_diffed_against_itself_is_empty(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(TOOL), "--workloads", "identities",
                        "--seeds", "101"], capture_output=True, text=True, env=env,
                       cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    entries = json.loads(r.stdout)
    # every slot of the cycle, each with its report as an artifact
    assert len(entries) == 14
    assert all(e["exit"] == 0 and e["artifacts"] for e in entries.values())
    digest = tmp_path / "digest.json"
    digest.write_text(r.stdout)
    r = subprocess.run([sys.executable, str(TOOL), "--diff", str(digest), str(digest)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, ""), r.stderr


def _answers():
    spec = importlib.util.spec_from_file_location("answers", TOOL)
    answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answers)
    return answers


def test_tables_workload_answers_a_custom_table(tmp_path, monkeypatch):
    # the concave table only, to keep the test cheap
    answers = _answers()
    monkeypatch.setattr(answers, "TABLES", {"concave": answers.TABLES["concave"]})
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["tables"], answers._seeds("101"), values=True)
    assert {key: e["exit"] for key, e in entries.items()} == {
        "tables:concave:verify": 3, "tables:concave:min-c": 0,
        "tables:concave:export-profile": 0}
    assert entries["tables:concave:verify"]["stdout"]["verdict"] == "exploratory"
    csv = entries["tables:concave:export-profile"]["artifacts"]["profile.csv"]
    assert len(csv["columns"]["G"]) == 512
    assert answers.diff(entries, entries) == []


def test_edges_workload_answers_min_c_on_each_blend(tmp_path, monkeypatch):
    # the 512-point grid only, to keep the test cheap
    answers = _answers()
    assert "edges" in answers.CHOICES
    monkeypatch.setattr(answers, "EDGE_GRID_SIZES", ("512",))
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["edges"], answers._seeds("101"), values=True)
    want = {"edges:smoothed-cone:0.3:1:n30:grid512": 2.364743624953019,
            "edges:smoothed-cone:0.1:100:n12:grid512": 2.0000000000000107}
    assert sorted(entries) == sorted([*want, *(f"{key}:verify" for key in want)])
    for key, minimal_C in want.items():
        assert entries[key]["exit"] == 0
        assert entries[key]["stdout"]["minimal_C"] == pytest.approx(minimal_C, rel=1e-12)
        # at C = 1 verify fails, with the sup min-c gives and 32 violations
        verify = entries[f"{key}:verify"]
        assert verify["exit"] == 1 and verify["stdout"]["verdict"] == "fail"
        report = verify["stdout"]["report"]
        assert report["minimal_C"] == pytest.approx(minimal_C, rel=1e-12)
        assert len(report["violations"]) == 32


def test_geodesics_workload_answers_corollary_on_a_smoothed_cone(tmp_path, monkeypatch):
    # one smoothed cone at 2 triples, to keep the test cheap
    answers = _answers()
    assert "geodesics" in answers.CHOICES
    monkeypatch.setattr(answers, "GEODESICS", answers.GEODESICS[:1])
    monkeypatch.setattr(answers, "GEODESIC_TRIPLES", "2")
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["geodesics"], answers._seeds("101"), values=True)
    assert list(entries) == ["geodesics:smoothed-cone:0.8:1:n4"]
    entry = entries["geodesics:smoothed-cone:0.8:1:n4"]
    assert entry["argv"][:9] == ["corollary", "--model", "smoothed-cone:0.8:1", "--n", "4",
                                 "--C", "12", "--triples", "2"]
    # the blend's f'' > 0 raises a hypothesis flag: the run is exploratory
    assert entry["exit"] == 3
    report = entry["stdout"]
    assert (report["config"]["seed"], report["triples"]) == (0, 2)
    # the two pairs take the two branches that sweep the blend
    assert report["branches"] == {"monotone": 1, "radial": 0, "tip": 0, "turning": 1}
    assert report["quad_misses"] == 0
    assert sorted(entry["artifacts"]) == ["corollary.csv", "corollary.json"]
    assert answers.diff(entries, entries) == []


def test_oracle_charts_workload_answers_every_preset(tmp_path, monkeypatch):
    from harnacklab import commutators

    answers = _answers()
    assert "oracle-charts" in answers.CHOICES and "oracle-cone" not in answers.CHOICES
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["oracle-charts"], answers._seeds("101"), values=True)
    assert sorted(entries) == sorted(f"oracle-charts:{key}" for key in answers.ORACLE_CHARTS)
    charts = set()
    for key, entry in entries.items():
        argv = entry["argv"]
        assert argv[:4] == ["oracle", "commutators", "--probes", "2"]
        report, chart = entry["stdout"], argv[5]
        charts.add(chart)
        assert sorted(entry["artifacts"]) == ["oracle.json"]
        # every preset's check has content: no residual set is all zero
        assert 0.0 < report["worst_residual"] <= report["gate"], key
        # identities 2-4 pass on the cone; identity 5 lies outside its hypothesis
        if chart == "cone":
            assert (entry["exit"], report["verdict"]) == (3, "exploratory")
            assert report["outside_hypothesis"]["identity"] == 5
        else:
            assert (entry["exit"], report["verdict"]) == (0, "pass")
            assert "outside_hypothesis" not in report
    assert charts == set(commutators.CHARTS)
    assert answers.diff(entries, entries) == []


def test_reports_workload_answers_each_report_shape(tmp_path, monkeypatch):
    answers = _answers()
    assert "reports" in answers.CHOICES
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["reports"], answers._seeds("101"), values=True)
    assert sorted(entries) == sorted(f"reports:{key}" for key in answers.REPORTS)
    exits = {key.partition(":")[2]: e["exit"] for key, e in entries.items()}
    # the smoothed cone's blend and the cones raise a hypothesis flag
    assert exits == {"verify-D": 0, "verify-D-smoothed": 3, "verify-D-far": 0, "models": 0,
                     "export-profile-stdout": 0, "symbolic-name": 0, "audit-off-grid": 3,
                     "cone-tiny-r-min": 3, "C-near-max": 0}
    for key, e in entries.items():
        if key == "reports:export-profile-stdout":
            # no artifact: the profile's CSV is printed
            assert e["artifacts"] == {}
            assert e["stdout"].startswith("r,G,Gp,Gpp,b,b2,grad_b,mu_rad,mu_tan\n")
        else:
            # the report printed is the report written
            assert list(e["artifacts"].values()) == [e["stdout"]]
    assert entries["reports:verify-D"]["stdout"]["report"]["D_premise_holds"] is True
    assert entries["reports:verify-D-far"]["stdout"]["report"]["D_premise_holds"] is False
    assert entries["reports:audit-off-grid"]["stdout"]["config"]["model"] == "cone:0.5"
    assert answers.diff(entries, entries) == []


def test_ranges_workload_refuses_each_argv_with_one_line(tmp_path, monkeypatch):
    # the concave table only, to keep the test cheap
    answers = _answers()
    assert "ranges" in answers.CHOICES
    monkeypatch.setattr(answers, "TABLES", {"concave": answers.TABLES["concave"]})
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["ranges"], answers._seeds("101"), values=True)
    grid = "leaves the float range on the grid at n="
    narrow = "lower n or narrow the radii"
    assert {key.partition(":")[2]: (e["exit"], e["stderr"]) for key, e in entries.items()} == {
        "cone-slope-G": (2, f"error: G {grid}4, r_min=0.01, r_max=100; {narrow}"),
        "r-min-G": (2, f"error: G {grid}4, r_min=9.99989e-321, r_max=100; {narrow}"),
        "table-Gpp": (2, f"error: Gpp {grid}152, r_min=0.01, r_max=100; {narrow}"),
        "table-G": (2, f"error: G {grid}700, r_min=0.01, r_max=100; {narrow}"),
        "audit-r-G": (2, "error: G, G' or G'' leaves the float range at n=4, r=1e-200; "
                         "lower n or choose another r"),
        "audit-r-G-squared": (2, "error: G^2 or G'^2 leaves the float range at n=3, "
                                 "r=1e+300; lower n or choose another r"),
    }
    assert answers.diff(entries, entries) == []


def test_reports_print_their_verdict_where_g_alpha_overflows(tmp_path, monkeypatch):
    # G ~ 1e102 at r_min = 1e-100 on cone:0.01 in n = 3, and C = 1e308 at n = 4:
    # each verdict is printed, as the report no longer holds G^alpha (C - mu)
    answers = _answers()
    monkeypatch.setattr(answers, "REPORTS", {key: answers.REPORTS[key] for key in (
        "cone-tiny-r-min", "C-near-max")})
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["reports"], answers._seeds("101"), values=True)
    cone, big_C = entries["reports:cone-tiny-r-min"], entries["reports:C-near-max"]
    assert (cone["exit"], cone["stdout"]["verdict"]) == (3, "exploratory")
    assert (big_C["exit"], big_C["stdout"]["verdict"]) == (0, "pass")
    # the tangent-cone law: sup mu = 2 c^{2(n-1)/(n-2)} = 2e-8 at c = 0.01, n = 3
    assert cone["stdout"]["report"]["minimal_C"] == pytest.approx(2e-8, rel=1e-12)
    assert sorted(cone["stdout"]["report"]["boundary_diagnostics"]) == [
        "mu_max_at_r_max", "mu_max_at_r_min"]


def test_ids_workload_answers_each_model_id(tmp_path, monkeypatch):
    answers = _answers()
    assert "ids" in answers.CHOICES
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["ids"], answers._seeds("101"), values=True)
    aperture = (2, "error: cone aperture c must satisfy 0 < c <= 1")
    r0 = (2, "error: smoothed_cone requires a finite r0 > 0")
    unknown = "error: unrecognized model id "
    assert {key.partition(":")[2]: (e["exit"], e["stderr"]) for key, e in entries.items()} == {
        "cone:0": aperture, "cone:1.5": aperture, "cone:nan": aperture,
        "smoothed-cone:nan:1": aperture,
        "smoothed-cone:0.5:inf": r0, "smoothed-cone:0.5:0": r0, "smoothed-cone:0.5:nan": r0,
        "euclidean:1": (2, f"{unknown}'euclidean:1'"), "cone": (2, f"{unknown}'cone'"),
        "custom": (2, f"{unknown}'custom'"), "blend:1": (2, f"{unknown}'blend:1'"),
        "cone:abc": (2, "error: could not convert string to float: 'abc'"),
        # the blend raises a hypothesis flag
        "smoothed_cone:0.8:1": (3, ""),
    }
    assert all(e["argv"][:5] == ["verify", "--model", key.partition(":")[2], "--n", "4"]
               for key, e in entries.items())
    # the report names the canonical id
    report = entries["ids:smoothed_cone:0.8:1"]["stdout"]
    assert (report["config"]["model"], report["report"]["model"]) == (
        "smoothed_cone:0.8:1", "smoothed-cone:0.8:1")
    assert answers.diff(entries, entries) == []


def test_forms_workload_records_reduced_forms(tmp_path, monkeypatch):
    answers = _answers()
    assert "forms" in answers.CHOICES
    monkeypatch.chdir(tmp_path)
    entries = answers.digest(["forms"], answers._seeds("101"), values=True)
    assert sorted(entries) == [
        "forms:dg-kron-trace", "forms:gradG-pairing-dg-dg", "forms:laplacian-B",
        "forms:laplacian-dg-dg", "forms:laplacian-hessian-shifted",
        "forms:third-commutator-long-strings"]
    forms = {key: e["form"] for key, e in entries.items()}
    assert forms["forms:dg-kron-trace"] == "(1) dg(i,_0,_0)"
    # the product of an identity and two long strings keeps a non-zero form
    assert forms["forms:third-commutator-long-strings"].count("  +  ") == 2
    assert all(form != "0" and not form.startswith("raised") for form in forms.values())
    # without --values each form is its sha256
    digests = answers.digest(["forms"], answers._seeds("101"))
    assert digests == {key: {"form": answers._sha(form.encode())}
                       for key, form in forms.items()}
    assert answers.diff(entries, entries) == []
