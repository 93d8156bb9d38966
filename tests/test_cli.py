"""Command-line driver: exit codes, report determinism, artifacts."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from harnacklab import cli, green, harnack, models
from harnacklab.cli import main
from tables import concave_table, late_bump_table, line_table, write_csv


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


# -- verify -------------------------------------------------------------------


def test_verify_euclidean_passes(capsys):
    code, doc = run_json(["verify", "--model", "euclidean", "--n", "4",
                          "--C", "10"], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["report"]["worst_margin"] == pytest.approx(8.0, abs=1e-6)


def test_verify_cone_is_exploratory(capsys):
    code, doc = run_json(["verify", "--model", "cone:0.5", "--n", "4",
                          "--C", "10"], capsys)
    assert code == 3
    assert doc["verdict"] == "exploratory"
    assert doc["report"]["hypothesis_flags"]["parallel_ricci"] is False


@pytest.mark.parametrize("n", ["9", "10", "12", "40", "45", "100", "150"])
def test_verify_euclidean_passes_at_every_dimension(n, capsys):
    code, doc = run_json(["verify", "--model", "euclidean", "--n", n,
                          "--C", "10"], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert all(doc["report"]["hypothesis_flags"].values())


@pytest.mark.parametrize("n", ["100", "150"])
def test_min_c_euclidean_at_large_dimension(n, capsys):
    code, doc = run_json(["min-c", "--model", "euclidean", "--n", n], capsys)
    assert code == 0
    assert doc["minimal_C"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "euclidean", "--n", "200", "--C", "10"],
    ["min-c", "--model", "euclidean", "--n", "200"],
    ["export-profile", "--model", "euclidean", "--n", "200"],
    # G(r0) = c^{1-n} r0^{2-n} is past the float range, so G is inf on the grid
    ["min-c", "--model", "smoothed-cone:0.3:1", "--n", "600"],
])
def test_past_the_float_range_is_invalid_input(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "float range" in captured.err and "Traceback" not in captured.err


def test_export_profile_at_large_dimension_is_finite(capsys):
    code, out = run(["export-profile", "--model", "euclidean", "--n", "100"], capsys)
    assert code == 0
    values = [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
    assert len(values) == 512 * 9
    assert all(math.isfinite(v) for v in values)


def test_audit_euclidean_high_dimension_relies_on_parallel_ricci(capsys):
    _, doc = run_json(["audit", "--model", "euclidean", "--n", "10",
                       "--C", "12", "--r", "1.0"], capsys)
    assert doc["audit"]["hypothesis_flags"]["parallel_ricci"] is True


_ALL_HOLD = dict(nonneg_sectional_along_gradG=True, nonneg_ricci=True,
                 parallel_ricci=False, euclidean_volume_growth=True,
                 nonparabolic=True)


@pytest.mark.parametrize("model,n,flags", [
    ("cone:0.3", "4", _ALL_HOLD),
    ("cone:0.7", "7", _ALL_HOLD),
    # f'' > 0 near the top of a smoothed-cone blend with c < 1, so k_rad < 0
    ("smoothed-cone:0.8:1", "5",
     dict(_ALL_HOLD, nonneg_sectional_along_gradG=False, nonneg_ricci=False)),
    ("smoothed-cone:0.85:1.5", "9",
     dict(_ALL_HOLD, nonneg_sectional_along_gradG=False, nonneg_ricci=False)),
])
def test_cone_hypothesis_flags(model, n, flags, capsys):
    code, doc = run_json(["verify", "--model", model, "--n", n, "--C", "10"], capsys)
    assert code == 3
    assert doc["report"]["hypothesis_flags"] == flags


def test_verify_small_C_requires_exploratory_flag(capsys):
    code, _ = run(["verify", "--model", "euclidean", "--n", "4", "--C", "2"],
                  capsys)
    assert code == 2
    code, doc = run_json(["verify", "--model", "euclidean", "--n", "4",
                          "--C", "2", "--exploratory"], capsys)
    assert code == 3  # never a silent pass below the theorem's C range
    assert doc["verdict"] == "exploratory"


def test_verify_bad_model_is_invalid_input(capsys):
    code, _ = run(["verify", "--model", "torus", "--n", "4"], capsys)
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--C", "--tol", "--r-min", "--r-max"])
def test_non_finite_flag_is_invalid_input(flag, value, capsys):
    code, _ = run(["verify", "--model", "euclidean", "--n", "4", flag, value],
                  capsys)
    assert code == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_value_is_invalid_input(value, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"model": "euclidean", "C": %s}' % value)
    code, _ = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2


def test_verify_determinism_byte_identical():
    argv = [sys.executable, "-m", "harnacklab.cli", "verify",
            "--model", "cone:0.5", "--n", "4", "--C", "10"]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 3


# -- config file / overrides --------------------------------------------------


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "cone:0.5", "n": 4, "C": 0.3}))
    code, doc = run_json(["min-c", "--config", str(cfg)], capsys)
    assert doc["config"]["model"] == "cone:0.5"
    # the file may set a C, which min-c does not read or echo
    assert "C" not in doc["config"]
    assert doc["minimal_C"] == pytest.approx(0.25, abs=1e-6)
    # a flag wins over the file
    code, doc = run_json(["min-c", "--config", str(cfg),
                          "--model", "euclidean"], capsys)
    assert doc["config"]["model"] == "euclidean"
    assert doc["minimal_C"] == pytest.approx(2.0, abs=1e-6)


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    code, _ = run(["min-c", "--config", str(cfg)], capsys)
    assert code == 2


@pytest.mark.parametrize("config,message", [
    # a dunder and method names of a settings object are not settings
    ({"echo": 1}, "unknown config key 'echo'"),
    ({"__class__": 1}, "unknown config key '__class__'"),
    ({"load": 1}, "unknown config key 'load'"),
    ([1, 2], "config file {path} must hold a JSON object, got list"),
])
def test_config_that_names_no_setting_exits_2_with_one_line(config, message, tmp_path,
                                                             capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code = main(["min-c", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message.format(path=cfg)}"]


# -- artifacts ----------------------------------------------------------------


def test_output_dir_artifacts(tmp_path, capsys):
    out = tmp_path / "reports"
    code, stdout = run(["verify", "--model", "euclidean", "--n", "4",
                        "--C", "10", "--output-dir", str(out)], capsys)
    assert code == 0
    assert (out / "verify.json").read_text() == stdout


def test_corollary_writes_csv(tmp_path, capsys):
    out = tmp_path / "reports"
    code, doc = run_json(["corollary", "--model", "euclidean", "--n", "4",
                          "--C", "2", "--triples", "20", "--seed", "5",
                          "--output-dir", str(out)], capsys)
    assert code == 3  # C below the theorem range: flagged exploratory
    assert abs(doc["worst_slack"]) < 1e-6
    lines = (out / "corollary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("y_r,")
    assert len(lines) == 1 + 20 * 5  # header + triples x default lambdas


def test_corollary_formats_its_csv_only_for_an_output_dir(tmp_path, capsys, monkeypatch):
    tables, write_csv = [], green.write_csv

    def recorded(out, header, rows):
        tables.append(header)
        write_csv(out, header, rows)

    monkeypatch.setattr(green, "write_csv", recorded)
    argv = ["corollary", "--model", "cone:0.5", "--n", "4", "--C", "10", "--triples", "2"]
    code = run(argv, capsys)[0]
    assert code == 3 and tables == []
    assert run(argv + ["--output-dir", str(tmp_path)], capsys)[0] == code
    assert tables == ["y_r,y_phi,z_r,z_phi,lambda,d_yz,b2_w,rhs,slack,through_tip"]
    assert len((tmp_path / "corollary.csv").read_text().splitlines()) == 1 + 2 * 5


def test_corollary_draws_each_pair_in_turn(tmp_path, capsys):
    # a pair's radii and angle are drawn together, so fewer triples at one
    # seed are the leading rows of more
    rows = {}
    for count in (3, 6):
        out = tmp_path / str(count)
        run(["corollary", "--model", "cone:0.6", "--n", "4", "--C", "10",
             "--triples", str(count), "--seed", "7", "--output-dir", str(out)], capsys)
        rows[count] = (out / "corollary.csv").read_text().splitlines()[1:]
    assert len(rows[3]) == 3 * 5 and rows[3] == rows[6][:15]


def test_corollary_reports_quad_misses(capsys):
    argv = ["corollary", "--model", "cone:0.7", "--n", "3", "--C", "10",
            "--triples", "6", "--seed", "3"]
    code, first = run(argv, capsys)
    doc = json.loads(first)
    assert isinstance(doc["quad_misses"], int) and doc["quad_misses"] >= 0
    assert run(argv, capsys) == (code, first)  # deterministic, no timings


@pytest.mark.parametrize("model", ["cone:0.6", "smoothed-cone:0.8:1"])
def test_corollary_reports_branches_and_shot_gap(model, capsys):
    # every pair counts under its minimizer's branch; one shot checks the
    # points that arclength inversion found on the first shootable pair
    argv = ["corollary", "--model", model, "--n", "4", "--C", "10",
            "--triples", "8", "--seed", "11"]
    code, first = run(argv, capsys)
    doc = json.loads(first)
    assert set(doc["branches"]) == {"radial", "monotone", "turning", "tip"}
    assert sum(doc["branches"].values()) == 8
    assert 0.0 <= doc["shot_gap"] <= 1e-9
    assert run(argv, capsys) == (code, first)  # deterministic, no timings


def test_corollary_without_lambdas_is_invalid_input(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambdas": []}))
    argv = ["corollary", "--config", str(config), "--model", "cone:0.6", "--n", "4",
            "--triples", "2"]
    assert run(argv, capsys) == (2, "")


def test_corollary_non_monotone_profile_is_invalid_input(capsys):
    # f' < 0 inside the blend of smoothed-cone:0.5:1 breaks the Clairaut
    # sweeps' precondition: exit 2 with a message, not a traceback
    code = main(["corollary", "--model", "smoothed-cone:0.5:1", "--n", "4",
                 "--C", "10", "--triples", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "f' > 0" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["corollary", "--model", "euclidean", "--n", "4", "--C", "2", "--triples", "0"],
    ["corollary", "--model", "euclidean", "--n", "4", "--C", "2", "--triples", "-3"],
    ["oracle", "commutators", "--chart", "euclidean", "--probes", "0"],
])
def test_empty_sample_is_invalid_input(argv, capsys):
    # zero triples or probes check nothing, so they must not pass
    assert run(argv, capsys) == (2, "")


def test_oracle_on_a_line_is_invalid_input(capsys):
    # the flat test function needs two coordinates: exit 2, not a traceback
    argv = ["oracle", "commutators", "--chart", "euclidean", "--n", "1"]
    assert run(argv, capsys) == (2, "")


@pytest.mark.parametrize("argv,needle", [
    # a radius past the float range of G or of the audit's squares
    (["audit", "--model", "euclidean", "--n", "4", "--C", "12", "--r", "inf"], "r=inf"),
    (["audit", "--model", "cone:0.5", "--n", "4", "--C", "12", "--r", "1e200"],
     "n=4, r=1e+200"),
    (["audit", "--model", "cone:0.5", "--n", "4", "--C", "12", "--r", "1e308"],
     "n=4, r=1e+308"),
    (["audit", "--model", "euclidean", "--n", "30", "--C", "12", "--r", "1e10"],
     "n=30, r=1e+10"),
    # numeric flags, refused before any engine sees them
    (["verify", "--model", "euclidean", "--n", "4", "--D", "nan"], "D must be finite"),
    (["verify", "--model", "euclidean", "--n", "4", "--D", "inf"], "D must be finite"),
    (["oracle", "commutators", "--h", "nan"], "step h"),
    (["oracle", "commutators", "--h", "inf"], "step h"),
    (["oracle", "commutators", "--h", "1e300"], "step h"),
    (["oracle", "commutators", "--h", "1e-300"], "step h"),
    (["min-c", "--model", "euclidean", "--r-min", "-1"], "0 < r_min < r_max"),
    (["min-c", "--model", "euclidean", "--r-min", "0"], "0 < r_min < r_max"),
    (["min-c", "--model", "euclidean", "--r-min", "10", "--r-max", "1"],
     "0 < r_min < r_max"),
    # a smoothing radius that is not a finite positive number
    (["verify", "--model", "smoothed-cone:0.5:inf", "--n", "4"], "finite r0 > 0"),
    (["verify", "--model", "smoothed-cone:0.5:nan", "--n", "4"], "finite r0 > 0"),
    # a step below the probe point's resolution: x + h == x, every difference 0
    (["oracle", "commutators", "--h", "1e-20", "--probes", "2"], "h=1e-20"),
    # r^{-n} overflows at a tiny radius: the radius at fault is named
    (["audit", "--model", "cone:0.5", "--n", "4", "--C", "12", "--r", "1e-100"],
     "n=4, r=1e-100"),
    # C is refused before the profile is built, so the profile cannot blame n
    (["verify", "--model", "euclidean", "--n", "200", "--C", "2"],
     "C < 10 requires exploratory"),
    # a probe costs about n^4 and its caches hold about n^5 floats: the
    # preset charts stop at n = 12
    (["oracle", "commutators", "--chart", "euclidean", "--n", "13"], "2 <= n <= 12, got 13"),
    (["oracle", "commutators", "--chart", "cone", "--n", "13"], "3 <= n <= 12"),
    # lambdas are refused before the profile, which would refuse n = 200
    (["corollary", "--model", "euclidean", "--n", "200", "--C", "12", "--lambdas", "2",
      "--triples", "2"], "lambda must lie in [0, 1]"),
    # round_sphere has its own dimension: a given n is refused, the default's 4 too
    (["oracle", "commutators", "--chart", "round_sphere", "--n", "7", "--probes", "1"],
     "chart round_sphere has dimension 2, got n=7"),
    (["oracle", "commutators", "--chart", "round_sphere", "--n", "4", "--probes", "1"],
     "chart round_sphere has dimension 2, got n=4"),
    # a negative C is refused before the profile, which would refuse n = 200,
    # exploratory or not
    (["verify", "--exploratory", "--n", "200", "--C", "-1"], "C must be >= 0, got -1.0"),
    (["audit", "--n", "200", "--C", "-1"], "C must be >= 0, got -1.0"),
    (["corollary", "--n", "200", "--C", "-1", "--triples", "2"], "C must be >= 0, got -1.0"),
])
def test_out_of_range_input_exits_2_with_one_line(argv, needle):
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", *argv],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), r.stderr
    assert needle in lines[0]
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["corollary", "--model", "cone:0.5", "--n", "4", "--triples", "2", "--seed", "-1"],
    ["oracle", "commutators", "--probes", "2", "--seed", "-1"],
    ["oracle", "commutators", "--probes", "2", "--seed", str(-(2**70))],
])
def test_negative_seed_exits_2_with_one_line(argv):
    # random.Random would take a negative seed as its absolute value:
    # the settings check refuses it first
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", *argv],
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [f"error: seed must be non-negative, got {argv[-1]}"]


@pytest.mark.parametrize("key,value", [
    ("seed", 1.5), ("seed", "7"), ("seed", True), ("seed", 7.0),
    ("grid_size", 3.5), ("grid_size", "512"), ("grid_size", False),
    ("n", 4.5), ("n", "4"), ("n", True),
])
def test_config_integer_field_must_be_an_integer(key, value, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "euclidean", key: value}))
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", "min-c", "--config", str(cfg)],
                       capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [f"error: {key} must be an integer, got {value!r}"]


@pytest.mark.parametrize("config,message", [
    ({"lambdas": 5}, "lambdas must be a list of finite numbers, got 5"),
    ({"model": 5}, "model must be a string, got 5"),
    ({"output_dir": 5}, "output_dir must be a string, got 5"),
    ({"C": True}, "C must be a finite number, got True"),
    ({"tol": -1}, "tol must be >= 0, got -1"),
    # refused before the profile, which would refuse n = 200
    ({"lambdas": [], "n": 200}, "corollary needs at least one lambda"),
])
def test_config_field_of_the_wrong_type_exits_2_with_one_line(config, message, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", "corollary", "--config",
                        str(cfg), "--triples", "2"], capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [f"error: {message}"]


def test_non_finite_report_value_is_refused(monkeypatch, capsys, tmp_path):
    with pytest.raises(ValueError, match="inf"):
        cli._emit({"a": [1.0, {"b": float("inf")}]}, "min-c", str(tmp_path / "out"))
    # refused before anything is printed or written
    assert capsys.readouterr().out == "" and not (tmp_path / "out").exists()
    monkeypatch.setattr(harnack, "minimal_C", lambda *args, **kwargs: float("nan"))
    assert run(["min-c", "--model", "euclidean", "--n", "4"], capsys) == (2, "")


def test_nan_report_exits_2_naming_the_value(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harnack, "minimal_C", lambda *args, **kwargs: float("nan"))
    out_dir = tmp_path / "out"
    assert main(["min-c", "--model", "euclidean", "--n", "4",
                 "--output-dir", str(out_dir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not out_dir.exists()
    assert err.splitlines() == [
        "error: Out of range float values are not JSON compliant: nan"]


def test_corollary_exploratory_below_C_range(capsys):
    code, doc = run_json(["corollary", "--model", "cone:0.5", "--n", "4",
                          "--C", "0.25", "--triples", "10"], capsys)
    assert code == 3
    assert doc["worst_slack"] >= -1e-6


# -- one verdict path -----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "cone:0.5", "--n", "4", "--C", "10", "--grid-size", "64"],
    ["audit", "--model", "smoothed-cone:0.8:1", "--n", "5", "--C", "12", "--r", "0.7",
     "--r-min", "0.05", "--r-max", "40"],
    ["corollary", "--model", "cone:0.6", "--n", "4", "--C", "10", "--triples", "2",
     "--r-min", "0.2", "--r-max", "30"],
])
def test_hypotheses_are_decided_once_over_the_profile_range(argv, monkeypatch, capsys):
    grids, calls = [], []
    compute_profile, hypothesis_report = green.compute_profile, models.hypothesis_report

    def profile_spy(model, grid):
        grids.append(grid)
        return compute_profile(model, grid)

    def hypothesis_spy(*args, **kwargs):
        calls.append((args, kwargs))
        return hypothesis_report(*args, **kwargs)

    monkeypatch.setattr(green, "compute_profile", profile_spy)
    for module in (models, harnack):
        monkeypatch.setattr(module, "hypothesis_report", hypothesis_spy)
    code, doc = run_json(argv, capsys)
    assert code == cli.EXIT_CODES[doc["verdict"]]
    assert len(grids) == 1 and len(calls) == 1
    (model, r_min, r_max), kwargs = calls[0]
    assert (model.profile.name, model.n) == (argv[2], int(argv[4]))
    assert (r_min, r_max, kwargs) == (grids[0][0], grids[0][-1], {})


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "euclidean", "--n", "4", "--C", "10"],
    ["verify", "--model", "cone:0.5", "--n", "4", "--C", "10"],
    ["verify", "--model", "euclidean", "--n", "4", "--C", "2", "--exploratory"],
    ["min-c", "--model", "cone:0.5", "--n", "4"],
    ["audit", "--model", "euclidean", "--n", "4", "--C", "12"],
    ["audit", "--model", "smoothed-cone:0.5:1", "--n", "4", "--C", "12", "--r", "0.9"],
    ["corollary", "--model", "cone:0.6", "--n", "4", "--C", "10", "--triples", "2"],
    ["symbolic", "verify", "--name", "power_rule"],
    ["oracle", "commutators", "--chart", "euclidean", "--probes", "1"],
    ["oracle", "commutators", "--chart", "s2xr2", "--probes", "1", "--h", "1e-7"],
    ["models", "list"],
    ["export-profile", "--model", "euclidean", "--n", "4", "--grid-size", "8",
     "--output-dir", "{out}"],
])
def test_exit_code_is_the_code_of_the_printed_verdict(argv, tmp_path, capsys):
    argv = [str(tmp_path) if a == "{out}" else a for a in argv]
    code, doc = run_json(argv, capsys)
    assert code == cli.EXIT_CODES[doc["verdict"]]


# -- argument parsing -----------------------------------------------------------

_PROFILE_FLAGS = ("--model", "--n", "--r-min", "--r-max", "--grid-size", "--output-dir")
#: the flags of the settings each subcommand reads, which its report echoes
SETTING_FLAGS = {
    "verify": _PROFILE_FLAGS + ("--C", "--tol"),
    "min-c": _PROFILE_FLAGS,
    "corollary": _PROFILE_FLAGS + ("--C", "--tol", "--lambdas", "--seed"),
    "audit": _PROFILE_FLAGS + ("--C", "--tol"),
    "symbolic": ("--output-dir",),
    "oracle": ("--n", "--seed", "--output-dir"),
    "models": ("--output-dir",),
    "export-profile": _PROFILE_FLAGS,
}
ALL_SETTING_FLAGS = set().union(*SETTING_FLAGS.values())
#: each subcommand's own arguments, past --config and its settings' flags
OWN_ARGUMENTS = {
    "verify": ("--exploratory", "--D"),
    "min-c": (),
    "corollary": ("--triples",),
    "audit": ("--r",),
    "symbolic": ("{verify-all,verify}", "--name"),
    "oracle": ("{commutators}", "--chart", "--h", "--probes"),
    "models": ("{list}",),
    "export-profile": (),
}


def _listed_flags(command, capsys):
    """Every --flag that the help of the subcommand lists."""
    code, out = run([command, "--help"], capsys)
    assert code == 0
    assert out.startswith(f"usage: harnacklab {command} [-h]")
    return out, set(re.findall(r"(?<![\w-])--[\w-]+", out))


@pytest.mark.parametrize("command", sorted(OWN_ARGUMENTS))
def test_each_subcommand_help_lists_its_arguments(command, capsys):
    # the parser builds the invoked subcommand's arguments only: its help
    # must list every one of them, and no flag of a setting it does not read
    out, listed = _listed_flags(command, capsys)
    own = OWN_ARGUMENTS[command]
    assert listed == {"--help", "--config", *SETTING_FLAGS[command],
                      *(arg for arg in own if arg.startswith("--"))}
    assert all(f" {arg}" in out for arg in own if not arg.startswith("--"))


def test_the_commands_take_51_setting_flags(capsys):
    # --config and one flag per setting each command reads, and no flag that
    # a command would parse and then ignore
    pairs = sum(len(_listed_flags(command, capsys)[1] & (ALL_SETTING_FLAGS | {"--config"}))
                for command in OWN_ARGUMENTS)
    assert pairs == 51


#: one cheap argv of each command, which prints a report
_REPORTING = {
    "verify": ["verify", "--grid-size", "8"],
    "min-c": ["min-c", "--grid-size", "8"],
    "corollary": ["corollary", "--triples", "1"],
    "audit": ["audit", "--C", "12"],
    "symbolic": ["symbolic", "verify", "--name", "power_rule"],
    "oracle": ["oracle", "commutators", "--chart", "euclidean", "--n", "3", "--probes", "1"],
    "models": ["models", "list"],
    "export-profile": ["export-profile", "--grid-size", "8", "--output-dir", "{out}"],
}


@pytest.mark.parametrize("command", sorted(_REPORTING))
def test_each_report_echoes_the_settings_its_command_reads(command, tmp_path, capsys):
    argv = [str(tmp_path) if a == "{out}" else a for a in _REPORTING[command]]
    code, doc = run_json(argv, capsys)
    assert code == cli.EXIT_CODES[doc["verdict"]]
    assert set(doc["config"]) == {flag[2:].replace("-", "_") for flag in SETTING_FLAGS[command]}
    # a flag of a setting the command does not read is refused, not ignored,
    # in the command's own usage
    for flag in sorted(ALL_SETTING_FLAGS - set(SETTING_FLAGS[command])):
        assert main(argv + [flag, "1"]) == 2, flag
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: harnacklab {command} "), flag
        assert f"harnacklab {command}: error: unrecognized arguments: {flag} 1" in err


def test_top_level_help_and_usage_errors_name_every_subcommand(capsys):
    choices = "{" + ",".join(OWN_ARGUMENTS) + "}"
    code, out = run(["--help"], capsys)
    assert code == 0 and choices in out
    for command in OWN_ARGUMENTS:
        assert f"    {command} " in out
    assert main(["no-such-command"]) == 2
    err = capsys.readouterr().err
    assert "argument command: invalid choice: 'no-such-command'" in err
    assert all(f"'{command}'" in err for command in OWN_ARGUMENTS)
    assert main([]) == 2 and main(["verify", "--no-such-option"]) == 2
    # main takes argv's first word that is not an option as the subcommand,
    # which holds while the top level has no option that takes a value
    assert set(cli.build_parser("")._option_string_actions) == {"-h", "--help", "--version"}


# -- remaining commands -------------------------------------------------------


def test_audit_euclidean(capsys):
    code, doc = run_json(["audit", "--model", "euclidean", "--n", "4",
                          "--C", "12", "--r", "1.0"], capsys)
    assert doc["audit"]["final_bound"] == pytest.approx(-96.0, abs=1e-6)


@pytest.mark.parametrize("C", ["0", "1"])
def test_audit_below_the_theorem_s_C_is_exploratory(C, capsys):
    # euclidean space meets every hypothesis, and Htilde stays >= 0 at these
    # C: C alone makes the run exploratory, never a pass
    code, doc = run_json(["audit", "--model", "euclidean", "--n", "4", "--C", C, "--r", "1"],
                         capsys)
    assert (code, doc["verdict"]) == (3, "exploratory")


def test_audit_report_keeps_every_field_of_the_audit(capsys):
    _, doc = run_json(["audit", "--model", "euclidean", "--n", "4",
                       "--C", "12", "--r", "1.0"], capsys)
    assert set(doc["audit"]) == {
        "r", "C", "direction", "group_curv1", "group_curv2", "group_Hsq", "group_Csq",
        "group_mixed", "final_bound", "group_Csq_bound", "group_mixed_bound",
        "lap_assembled", "lap_fd", "group_scales", "hypothesis_flags",
        "max_principle_case"}


@pytest.mark.parametrize("model", ["cone:0.5", "smoothed-cone:0.5:1"])
def test_audit_flags_are_verify_s(model, capsys):
    # one hypothesis dict, one polarity: true where the hypothesis holds
    window = ["--model", model, "--n", "4", "--C", "12"]
    _, audit = run_json(["audit", *window, "--r", "1.0"], capsys)
    _, verify = run_json(["verify", *window], capsys)
    assert audit["audit"]["hypothesis_flags"] == verify["report"]["hypothesis_flags"]


def test_audit_euclidean_at_large_G_does_not_fail(capsys):
    # group_mixed is the roundoff of terms near 1e41, far inside its gate
    # tol * (sum of their absolute values); euclidean meets the proof exactly.
    # At r = 0.25 that roundoff is positive, so the gate is exercised
    _, doc = run_json(["audit", "--model", "euclidean", "--n", "30",
                       "--C", "12", "--r", "0.25"], capsys)
    assert doc["verdict"] != "fail"
    audit = doc["audit"]
    assert audit["group_scales"]["group_mixed"] > 1e35
    assert 0.0 < audit["group_mixed"] <= 1e-8 * audit["group_scales"]["group_mixed"]


def test_audit_group_past_its_scaled_gate_fails(capsys):
    # k_rad < 0 on the blend: group_curv1 is a few percent of its terms' size
    code, doc = run_json(["audit", "--model", "smoothed-cone:0.5:1", "--n", "4",
                          "--C", "12", "--r", "0.9"], capsys)
    assert (code, doc["verdict"]) == (1, "fail")
    audit = doc["audit"]
    scale = audit["group_scales"]["group_curv1"]
    assert audit["group_curv1"] > 1e-3 * scale > 1.0
    assert audit["hypothesis_flags"]["nonneg_sectional_along_gradG"] is False


def test_symbolic_verify_all(capsys):
    code, doc = run_json(["symbolic", "verify-all"], capsys)
    assert code == 0
    results = doc["identities"]
    zeros = [r for r in results if r["zero"]]
    assert len(zeros) >= 12
    assert all(r["ok"] for r in results)


def test_symbolic_verify_single_and_unknown(capsys):
    code, doc = run_json(["symbolic", "verify", "--name", "power_rule"], capsys)
    assert code == 0
    code, _ = run(["symbolic", "verify", "--name", "bogus"], capsys)
    assert code == 2


def test_symbolic_verify_all_refuses_a_name(capsys):
    # verify-all checks the whole catalogue: a --name there is refused, not
    # read as a one-identity run reported as the catalogue's pass
    assert main(["symbolic", "verify-all", "--name", "misc.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "symbolic supports: verify-all, or verify --name <id>" in captured.err


@pytest.mark.parametrize("D,premise,window", [
    pytest.param(1.0, False, ("--n", "4"), id="1.0-False"),
    pytest.param(11.0, True, ("--n", "4"), id="11.0-True"),
    # G^alpha <= 1e-10 on this window, where a gate with an absolute floor
    # of tol once passed the lower bound on Lambda that D = 1 breaks
    pytest.param(1.0, False, ("--n", "10", "--r-min", "10", "--r-max", "100",
                              "--C", "10"), id="far-window"),
])
def test_verify_D_reports_its_bound_and_premise(D, premise, window, capsys):
    code, doc = run_json(["verify", "--model", "euclidean", *window,
                          "--D", str(D)], capsys)
    assert code == 0
    report = doc["report"]
    # minimal_C is 2 on euclidean space: D = 1 breaks the premise Hess b^2 <= D g
    assert report["minimal_C"] == pytest.approx(2.0)
    assert (report["D"], report["D_premise_holds"]) == (D, premise)
    # the lower bound on Lambda restated the premise, and is not reported
    assert "lambda_lower_bound_ok" not in report


def _bool_keys(doc):
    """Every key, at any depth of a report, whose value is a bool."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, bool):
                yield key
            yield from _bool_keys(val)
    elif isinstance(doc, list):
        for val in doc:
            yield from _bool_keys(val)


def test_every_boolean_of_a_report_is_in_the_readme_table(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Report fields", 1)[1].split("\n#", 1)[0]
    listed = set(re.findall(r"^\| `([a-zA-Z_]+)` \|", table, re.MULTILINE))
    printed = set()
    for argv in (["verify", "--model", "euclidean", "--D", "1"],
                 ["audit", "--model", "cone:0.5"],
                 ["corollary", "--model", "euclidean", "--C", "2", "--triples", "2"],
                 ["symbolic", "verify", "--name", "lap_of_harnack.literal"]):
        _, doc = run_json(argv, capsys)
        printed.update(_bool_keys(doc))
    # no boolean goes undocumented, and the table names no field left unprinted
    assert printed == listed


@pytest.mark.parametrize("argv", [["oracle", "bogus"], ["models", "bogus"]])
def test_unknown_action_exits_2(argv, capsys):
    # argparse's choices refuse it before the command runs
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'bogus'" in captured.err


def test_oracle_commutators(capsys):
    code, doc = run_json(["oracle", "commutators", "--chart", "s2xr2",
                          "--probes", "3"], capsys)
    assert code == 0
    assert doc["worst_residual"] <= doc["gate"]


@pytest.mark.parametrize("n", ["3", "6"])
def test_oracle_on_the_cone_leaves_identity_5_ungated(n, capsys):
    # identity 5 drops the grad Ric terms and the cone's Ricci is not
    # parallel: its residual is shown outside the gate, and identities 2-4
    # passing make the run exploratory, never a pass or a fail; a probe
    # reports the residuals of identities 2-5
    code, doc = run_json(["oracle", "commutators", "--chart", "cone", "--n", n,
                          "--probes", "2"], capsys)
    assert (code, doc["verdict"]) == (3, "exploratory")
    residuals = [row["residuals"] for row in doc["probes"]]
    assert all(len(res) == 4 for res in residuals)
    assert doc["worst_residual"] == max(v for res in residuals for v in res[:3])
    assert doc["worst_residual"] <= doc["gate"]
    outside = doc["outside_hypothesis"]
    assert (outside["identity"], outside["hypothesis"]) == (5, "parallel_ricci")
    assert outside["worst_residual"] == max(res[3] for res in residuals) > 1.0


#: each preset of ``oracle --chart`` and the dimension it probes with no n given
ORACLE_DIMS = {"round_sphere": 2, "s2xr2": 4, "euclidean": 4, "cone": 4}


def test_oracle_chart_choices_are_the_chart_table(capsys):
    # the parser spells the choices out, so that it compiles no oracle: they
    # are the table's keys, in its order, and each is probed below
    from harnacklab import commutators

    out, _ = _listed_flags("oracle", capsys)
    assert f"--chart {{{','.join(commutators.CHARTS)}}}" in out
    assert sorted(ORACLE_DIMS) == sorted(commutators.CHARTS)


@pytest.mark.parametrize("chart,dim", ORACLE_DIMS.items())
def test_oracle_echoes_the_dimension_it_probes(chart, dim, capsys):
    # with no n given, round_sphere and s2xr2 report their own dimension, the
    # others 4
    from harnacklab import commutators

    code, doc = run_json(["oracle", "commutators", "--chart", chart, "--probes", "1"], capsys)
    assert doc["config"]["n"] == dim == len(doc["probes"][0]["point"])
    # identities 2-5 are all gated where Ricci is parallel; on the cone the
    # fifth is reported outside its hypothesis, and the run is exploratory
    parallel_ricci = commutators.CHARTS[chart][4]
    assert ("outside_hypothesis" not in doc) == parallel_ricci
    assert code == (3 if chart == "cone" else 0)
    gated = doc["probes"][0]["residuals"][:4 if parallel_ricci else 3]
    assert doc["worst_residual"] == max(gated)


def test_oracle_refuses_a_config_n_its_chart_does_not_take(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3}))
    code = main(["oracle", "commutators", "--chart", "s2xr2", "--probes", "1",
                 "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: chart s2xr2 has dimension 4, got n=3"]


def test_oracle_nan_residual_in_a_later_probe_never_passes(monkeypatch, capsys):
    # Python's max keeps a NaN only when it comes first; a NaN residual in the
    # second probe must not pass, and a report cannot hold it: exit 2
    from harnacklab import commutators, fdcheck

    real, calls = commutators.check_lemma31, []

    def nan_in_second_probe(chart, f, x, h):
        calls.append(x)
        res = real(chart, f, x, h)
        return res if len(calls) != 2 else (res[0], math.nan) + res[2:]

    # the command calls it through fdcheck, where the benchmark's tracer wraps it
    monkeypatch.setattr(fdcheck, "check_lemma31", nan_in_second_probe)
    code, out = run(["oracle", "commutators", "--chart", "round_sphere", "--probes", "3"], capsys)
    assert (code, out) == (2, "")
    assert len(calls) == 3


def test_models_list(capsys):
    # the command lists the ids itself, so that it compiles no models module:
    # each preset of the table with its parameters, then a custom table
    code, doc = run_json(["models", "list"], capsys)
    assert code == 0
    presets = [":".join([name, *(f"<{p}>" for p in params)])
               for name, (params, _) in models.PRESETS.items()]
    assert [m["id"] for m in doc["presets"]] == [*presets, "custom:<path>"]


def test_export_profile(tmp_path, capsys):
    out = tmp_path / "reports"
    code, doc = run_json(["export-profile", "--model", "euclidean", "--n", "4",
                          "--grid-size", "64", "--output-dir", str(out)], capsys)
    assert code == 0
    csv = (out / "profile.csv").read_text().strip().splitlines()
    assert len(csv) == 65


def test_export_profile_stdout_is_its_artifact(tmp_path):
    # without --output-dir the CSV goes to stdout: the same bytes as the file
    argv = [sys.executable, "-m", "harnacklab.cli", "export-profile", "--model",
            "smoothed-cone:0.8:1", "--n", "4", "--grid-size", "300"]
    streamed = subprocess.run(argv, capture_output=True, check=True).stdout
    subprocess.run(argv + ["--output-dir", str(tmp_path)], capture_output=True, check=True)
    assert streamed == (tmp_path / "profile.csv").read_bytes()
    assert streamed.count(b"\n") == 301


def test_unknown_command_exit_2():
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", "frob"],
                       capture_output=True)
    assert r.returncode == 2


def test_cli_import_does_not_load_sympy():
    # only the symbolic command needs sympy; it imports it when it runs
    code = "import sys, harnacklab.cli; sys.exit('sympy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


def test_cli_import_does_not_load_numpy():
    # each command imports the engine it runs; the CLI itself needs none
    code = "import sys, harnacklab.cli; sys.exit('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


_SYMBOLIC = {"harnacklab.symbolic", "harnacklab.symbolic.engine",
             "harnacklab.symbolic.identities", "harnacklab.symbolic.ring",
             "harnacklab.symbolic.terms"}
# models needs the quadrature core and its polynomials; it loads the FD oracle
# only to confirm a closed-form parallel Ricci, so only euclidean verify brings
# it, and the table reader only for a custom profile
_MODELS = {"harnacklab.models", "harnacklab.poly", "harnacklab.quadrature"}
#: a CSV table of flat space, whose path stands in for TABLE in an argv
_FLAT_TABLE = "r,f\n" + "".join(f"{r:g},{r:g}\n" for r in (1e-3, 1e-2, 0.1, 1, 10, 100, 1e3))
#: (argv, exit code, the package modules it loads beyond the root and the CLI)
_ENGINES = [
    (["symbolic", "verify-all"], 0, _SYMBOLIC),
    (["symbolic", "verify", "--name", "lap_of_harnack"], 0, _SYMBOLIC),
    (["models", "list"], 0, set()),
    (["--version"], 0, set()),
    (["oracle", "commutators", "--chart", "s2xr2", "--probes", "2"], 0,
     {"harnacklab.fdcheck", "harnacklab.fdgeom", "harnacklab.commutators"}),
    (["verify", "--model", "euclidean", "--n", "4", "--C", "10"], 0,
     _MODELS | {"harnacklab.green", "harnacklab.harnack", "harnacklab.fdcheck",
                "harnacklab.fdgeom"}),
    (["export-profile", "--model", "euclidean", "--n", "4", "--grid-size", "8"], 0,
     _MODELS | {"harnacklab.green"}),
    (["corollary", "--model", "cone:0.5", "--n", "4", "--C", "10", "--triples", "2"], 3,
     _MODELS | {"harnacklab.green", "harnacklab.geodesics"}),
    (["min-c", "--model", "euclidean", "--n", "4", "--grid-size", "8"], 0,
     _MODELS | {"harnacklab.green", "harnacklab.harnack"}),
    (["export-profile", "--model", "custom:TABLE", "--n", "4", "--grid-size", "8"], 0,
     _MODELS | {"harnacklab.green", "harnacklab.tables"}),
]


@pytest.mark.parametrize("argv,code,engine", _ENGINES)
def test_each_command_loads_only_its_engine(argv, code, engine, tmp_path):
    table = tmp_path / "flat.csv"
    table.write_text(_FLAT_TABLE)
    argv = [a.replace("TABLE", str(table)) for a in argv]
    script = ("import contextlib, io, json, sys\n"
              "from harnacklab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.split('.')[0] == 'harnacklab')]))")
    r = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    ran, loaded = json.loads(r.stdout)
    assert ran == code
    assert set(loaded) == {"harnacklab", "harnacklab.cli"} | engine


def test_every_module_is_some_command_s_engine():
    # a module that no command loads is dead code
    root = Path(cli.__file__).resolve().parent
    modules = {".".join(("harnacklab", *path.relative_to(root).with_suffix("").parts))
               .removesuffix(".__init__") for path in root.rglob("*.py")}
    loaded = {"harnacklab", "harnacklab.cli"}.union(*(engine for _, _, engine in _ENGINES))
    assert modules == loaded


@pytest.mark.parametrize("argv", [
    ["verify", "--model", "euclidean", "--n", "4", "--C", "10", "--grid-size", "8"],
    # euclidean loads the FD oracle, which confirms its parallel Ricci
    ["corollary", "--model", "euclidean", "--n", "4", "--C", "10", "--triples", "2"],
    ["symbolic", "verify", "--name", "misc.1"],
    ["oracle", "commutators", "--chart", "s2xr2", "--probes", "2"],
])
def test_no_command_loads_dataclasses_or_inspect(argv):
    # each would cost every command its import time
    script = ("import contextlib, io, json, sys\n"
              "from harnacklab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))")
    r = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [0, []]


def test_oracle_does_not_load_sympy():
    # the oracle's test functions carry their own jets, so the FD route and
    # the symbolic engine share no library
    code = ("import sys\n"
            "from harnacklab.cli import main\n"
            "code = main(['oracle', 'commutators', '--chart', 's2xr2', '--probes', '2'])\n"
            "sys.exit(10 * code + ('sympy' in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


def test_no_command_loads_sympy():
    # the symbolic engine computes in its own exact ring: sympy is a
    # test-only reference (the oracle is checked alone above)
    argvs = [
        ["symbolic", "verify-all"],
        ["symbolic", "verify", "--name", "lap_of_harnack"],
        ["verify", "--model", "euclidean", "--n", "4", "--C", "10"],
        ["corollary", "--model", "euclidean", "--n", "3", "--C", "2", "--triples", "2"],
    ]
    code = ("import contextlib, io, json, sys\n"
            "from harnacklab.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    seen.append([code, 'sympy' in sys.modules])\n"
            "print(json.dumps(seen))")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    # the euclidean corollary is exploratory (exit 3), the rest pass
    assert json.loads(r.stdout) == [[0, False]] * 3 + [[3, False]]


def _each_command(tmp_path):
    """One argv of each of the eight commands, the numeric ones on the
    smoothed cone, where the Green kernel and the sweeps run quadrature."""
    return [
        ["verify", "--model", "smoothed-cone:0.8:1", "--n", "4", "--C", "10"],
        ["min-c", "--model", "smoothed-cone:0.8:1", "--n", "5"],
        ["audit", "--model", "smoothed-cone:0.8:1", "--n", "4", "--C", "12", "--r", "0.7"],
        ["corollary", "--model", "smoothed-cone:0.8:1", "--n", "4", "--C", "10",
         "--triples", "2"],
        ["export-profile", "--model", "smoothed-cone:0.8:1", "--n", "4",
         "--output-dir", str(tmp_path)],
        ["symbolic", "verify-all"],
        ["oracle", "commutators", "--chart", "s2xr2", "--probes", "2"],
        ["models", "list"],
    ]


def _loaded_after_each(argvs, library):
    """[command, ran to a verdict, library loaded] after each argv, all run
    in turn in one child process."""
    code = ("import contextlib, io, json, sys\n"
            "from harnacklab.cli import main\n"
            "seen = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    seen.append([argv[0], code in (0, 1, 3), any(\n"
            "        m == sys.argv[2] or m.startswith(sys.argv[2] + '.') for m in sys.modules)])\n"
            "print(json.dumps(seen))")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs), library],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_no_command_loads_scipy(tmp_path):
    # scipy is the tests' reference for the numeric core; every command,
    # the numeric ones included, runs on the package alone
    argvs = _each_command(tmp_path)
    assert _loaded_after_each(argvs, "scipy") == [[argv[0], True, False] for argv in argvs]


def test_no_command_loads_numpy(tmp_path):
    # numpy is a test-only reference too: every engine computes in plain floats
    argvs = _each_command(tmp_path)
    assert _loaded_after_each(argvs, "numpy") == [[argv[0], True, False] for argv in argvs]


@pytest.mark.parametrize("size", ["1", "0", "-5", str(cli.MAX_GRID_SIZE + 1), "100000000000"])
def test_grid_size_out_of_range_exits_2_before_any_grid(size):
    # the bound is checked with the config: a grid is never laid out
    code = ("import contextlib, io, sys\n"
            "from harnacklab import quadrature\n"
            "from harnacklab.cli import main\n"
            "laid = []\n"
            "quadrature.geomspace = lambda *args: laid.append(args)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['min-c', '--model', 'euclidean', '--n', '4',\n"
            "                 '--grid-size', sys.argv[1]])\n"
            "sys.exit(10 * code + len(laid))")
    r = subprocess.run([sys.executable, "-c", code, size], capture_output=True, text=True)
    assert r.returncode == 20, r.stderr
    assert r.stderr.splitlines() == [
        f"error: grid_size must lie in [2, {cli.MAX_GRID_SIZE}], got {size}"]


def test_grid_size_at_its_bounds_runs(capsys):
    code, doc = run_json(["min-c", "--model", "cone:0.5", "--n", "4", "--grid-size", "2"],
                         capsys)
    assert code == 0 and doc["minimal_C"] == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("cell,shown", [("", "''"), ("abc", "'abc'"), ("nan", "'nan'"),
                                        ("inf", "'inf'"), ("-inf", "'-inf'")])
@pytest.mark.parametrize("command", [["verify", "--C", "10"], ["min-c"],
                                     ["corollary", "--triples", "2"], ["export-profile"]])
def test_custom_table_bad_cell_exits_2_naming_its_place(cell, shown, command, tmp_path):
    # a missing or non-numeric cell once read as NaN, which passed every
    # check and was refused only as a parabolic model
    path = tmp_path / "table.csv"
    rows = [f"{r!r},{r!r}" for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
    rows[3] = f"4.0,{cell}"
    path.write_text("r,f\n" + "\n".join(rows) + "\n")
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", command[0], "--model",
                        f"custom:{path}", "--n", "4", *command[1:]],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [
        f"error: custom table {path}: line 5, column f: {shown} is not a finite number"]


def test_custom_table_columns_by_name(tmp_path, capsys):
    # the header names the columns, in any order, beside others
    r = [0.5, 1.0, 2.0, 4.0, 8.0]
    path = tmp_path / "table.csv"
    path.write_text("f, note ,r\n" + "".join(f"{0.5 * x!r},x,{x!r}\n" for x in r) + "\n")
    code, doc = run_json(["min-c", "--model", f"custom:{path}", "--n", "4",
                          "--r-min", "0.6", "--r-max", "7", "--grid-size", "16"], capsys)
    assert code == 0 and doc["minimal_C"] == pytest.approx(0.25, rel=1e-9)
    path.write_text("r,g\n1,1\n")
    assert main(["min-c", "--model", f"custom:{path}"]) == 2
    assert "names no column 'f'" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["3", "4", "6", "10"])
def test_verify_concave_table_is_not_fail(n, tmp_path, capsys):
    # a silent miss of one quadrature over the whole spline piece once made
    # G at the refined sup wrong, and verify said fail with minimal_C 5e17
    path = write_csv(tmp_path / "concave.csv", concave_table())
    code, doc = run_json(["verify", "--model", f"custom:{path}", "--n", n, "--C", "10",
                          "--grid-size", "2048"], capsys)
    assert doc["verdict"] != "fail" and code != 1
    assert 1.7 < doc["report"]["minimal_C"] < 2.0


@pytest.mark.parametrize("table,n,message", [
    (concave_table, 152, "Gpp leaves the float range on the grid at n=152"),
    (concave_table, 700, "G leaves the float range on the grid at n=700"),
    (late_bump_table, 200, "G leaves the float range on the grid at n=200"),
])
def test_table_past_the_float_range_names_the_column(table, n, message, tmp_path):
    # G overflows at the knots below r_min first: each such G is inf, and
    # the grid's range checks name what left the range (once a quadrature
    # miss, or an OverflowError)
    path = write_csv(tmp_path / "table.csv", table())
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", "verify", "--model",
                        f"custom:{path}", "--n", str(n), "--C", "10"],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (2, "")
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), r.stderr


def test_table_is_verified_where_only_knots_below_r_min_overflow(tmp_path, capsys):
    # at n = 150 G overflows at the knots below 0.0083 only, under r_min = 0.01
    path = write_csv(tmp_path / "concave.csv", concave_table())
    code, doc = run_json(["verify", "--model", f"custom:{path}", "--n", "150",
                          "--C", "10"], capsys)
    assert code == 3 and doc["verdict"] == "exploratory"
    assert doc["report"]["pass"]
    assert 2.0 < doc["report"]["minimal_C"] < 2.001


@pytest.mark.parametrize("argv", [
    ["symbolic", "verify-all"],
    ["symbolic", "verify", "--name", "lap_of_harnack.literal"],
])
def test_symbolic_report_does_not_depend_on_hash_seed(argv):
    runs = [subprocess.run([sys.executable, "-m", "harnacklab.cli", *argv],
                           capture_output=True,
                           env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert b"{i,j}, {k,l}" in runs[0].stdout


def test_version_flag():
    r = subprocess.run([sys.executable, "-m", "harnacklab.cli", "--version"],
                       capture_output=True)
    assert r.returncode == 0 and r.stdout.strip()


def test_verify_flat_table_passes(tmp_path, capsys):
    path = write_csv(tmp_path / "flat.csv", line_table(50))
    code, doc = run_json(["verify", "--model", f"custom:{path}", "--n", "4", "--C", "10"],
                         capsys)
    assert code == 0 and doc["verdict"] == "pass"
    assert all(doc["report"]["hypothesis_flags"].values())


@pytest.mark.parametrize("window", [("--r-max", "1"), ("--r-min", "1e-5", "--r-max", "0.1")])
def test_verify_flat_space_keeps_parallel_ricci_on_a_small_window(window, capsys):
    # the FD oracle's step and gate are absolute: on a window far below
    # r = 20 it differences the model scaled to the window, so its probes
    # sit as far above the step as on [2, 20]
    code, doc = run_json(["verify", "--model", "euclidean", "--n", "4", "--C", "10",
                          *window], capsys)
    assert (code, doc["verdict"]) == (0, "pass")
    assert all(doc["report"]["hypothesis_flags"].values())


def test_verify_flat_table_on_a_window_up_to_its_top(tmp_path, capsys):
    # f is undefined past the table's top, r_max here: every FD stencil
    # stays below it
    r = np.arange(1, 21) * 0.5
    path = write_csv(tmp_path / "flat.csv", (r, r))
    code, doc = run_json(["verify", "--model", f"custom:{path}", "--n", "4", "--C", "10",
                          "--r-min", "0.5", "--r-max", "10"], capsys)
    assert (code, doc["verdict"]) == (0, "pass")
    assert all(doc["report"]["hypothesis_flags"].values())


@pytest.mark.xfail(strict=True, reason="the sectional margin -1.8e-9 of the spline's "
                   "rounding misses the absolute curvature gate 1e-9")
def test_verify_flat_table_of_4000_rows_passes(tmp_path, capsys):
    path = write_csv(tmp_path / "flat.csv", line_table(4000))
    code, _ = run(["verify", "--model", f"custom:{path}", "--n", "4", "--C", "10"], capsys)
    assert code == 0
