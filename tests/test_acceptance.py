"""Acceptance gate: end-to-end checks with fixed tolerances and budgets."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from harnacklab.commutators import check_lemma31, oracle_preset
from harnacklab.fdcheck import DEFAULT_H, check_parallel_ricci
from harnacklab.geodesics import SlicePoint, corollary_check
from harnacklab.green import compute_profile
from harnacklab.quadrature import geomspace
from harnacklab.harnack import audit_proof_terms, minimal_C
from harnacklab.models import model_from_id
from harnacklab.symbolic import verify_identity
from green_reference import check_power_laplacian, consistency_hess_vs_H


GRID = geomspace(0.1, 50.0, 512)


def _presets():
    return [
        model_from_id("euclidean", 4),
        model_from_id("euclidean", 3),
        model_from_id("cone:0.5", 4),
        model_from_id("cone:0.8", 4),
        model_from_id("cone:0.3", 5),
        model_from_id("smoothed-cone:0.5:1", 4),
    ]


def test_01_euclidean_exactness():
    t0 = time.time()
    for n in (3, 4, 5, 6):
        model = model_from_id("euclidean", n)
        profile = compute_profile(model, GRID)
        mu_rad, mu_tan = np.asarray(profile.mu_rad), np.asarray(profile.mu_tan)
        assert np.max(np.abs(mu_rad - 2.0)) < 1e-6
        assert np.max(np.abs(mu_tan - 2.0)) < 1e-6
        assert minimal_C(profile) == pytest.approx(2.0, abs=1e-6)
    assert time.time() - t0 < 5.0


def test_02_gradient_estimate():
    t0 = time.time()
    models = []
    for n in (3, 4, 5):
        models.append(model_from_id("euclidean", n))
        for c in (0.3, 0.5, 0.8, 1.0):
            models.append(model_from_id(f"cone:{c!r}", n))
        models.append(model_from_id("smoothed-cone:0.5:1", n))
    for model in models:
        profile = compute_profile(model, GRID)
        assert np.max(profile.grad_b) <= 1.0 + 1e-8, model.profile.name
    assert time.time() - t0 < 10.0


def test_03_cone_minimal_C_closed_form():
    for n in (3, 4, 5):
        for c in (0.3, 0.5, 0.8, 1.0):
            model = model_from_id(f"cone:{c!r}", n)
            expect = 2.0 * c ** (2.0 * (n - 1) / (n - 2))
            got = minimal_C(compute_profile(model, GRID))
            assert got == pytest.approx(expect, abs=1e-6), (n, c)


def test_04_symbolic_zero_reduction():
    names = (
        ["misc.1", "misc.2", "misc.3", "misc.4", "misc.5",
         "power_rule", "b_squared", "lap_of_harnack",
         "lap_of_harnack.step1", "lap_of_harnack.step2",
         "lap_of_harnack.step3"]
    )
    t0 = time.time()
    for name in names:
        res = verify_identity(name)
        assert res.zero, name
    assert time.time() - t0 < 30.0


def test_05_commutator_oracle():
    for name in ("round_sphere", "s2xr2"):
        chart, f, x, _ = oracle_preset(name)
        res = check_lemma31(chart, f, x, DEFAULT_H)
        assert np.max(res) <= 1e-4, name
        res2 = check_lemma31(chart, f, x, 2 * DEFAULT_H)
        for a, b in zip(res2, res):
            if b < 1e-12:
                continue
            assert 3.5 <= a / b <= 4.5, name
    s2, _, x, _ = oracle_preset("s2xr2")
    assert check_parallel_ricci(s2, x, DEFAULT_H) <= 1e-5


def test_06_power_laplacian_identity():
    for model in _presets():
        profile = compute_profile(model, GRID)
        n = model.n
        alpha = n / (n - 2.0)
        for r, G, Gp in zip(profile.grid, profile.G, profile.Gp):
            scale = abs(alpha * (alpha - 1) * G ** (alpha - 2) * Gp**2)
            rel = check_power_laplacian(profile, float(r), alpha) / scale
            assert rel <= 1e-6, (model.profile.name, r)


def _triples(seed, count):
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(0.5), math.log(3.0), size=(count, 2)))
    phi = rng.uniform(0.0, math.pi, size=count)
    return [
        (SlicePoint(float(r[k, 0]), 0.0), SlicePoint(float(r[k, 1]), float(phi[k])))
        for k in range(count)
    ]


def test_07_corollary_equality_and_bound():
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    model = model_from_id("euclidean", 4)
    profile = compute_profile(model, GRID)
    for y, z in _triples(0, 100):
        for t in corollary_check(profile, y, z, 2.0, lambdas):
            assert abs(t.slack) <= 1e-6, (y, z, t.lam)

    cone = model_from_id("cone:0.5", 4)
    cone_profile = compute_profile(cone, GRID)
    C = minimal_C(cone_profile)
    for y, z in _triples(1, 100):
        for t in corollary_check(cone_profile, y, z, C, lambdas):
            if t.branch == "tip":
                continue
            assert t.slack >= -1e-6, (y, z, t.lam)


def test_08_proof_term_audit():
    model = model_from_id("euclidean", 4)
    profile = compute_profile(model, GRID)
    a = audit_proof_terms(profile, 1.0, 10.0)
    for g in (a.group_curv1, a.group_curv2, a.group_Hsq, a.group_Csq,
              a.group_mixed):
        assert g <= 1e-10
    assert a.final_bound == pytest.approx(0.0, abs=1e-10)
    a12 = audit_proof_terms(profile, 1.0, 12.0)
    assert a12.final_bound == pytest.approx(-96.0, abs=1e-6)


def test_09_hessian_H_consistency_everywhere():
    for model in _presets():
        profile = compute_profile(model, GRID)
        for r in profile.grid:
            assert consistency_hess_vs_H(profile, float(r)) <= 1e-9, \
                (model.profile.name, r)


def test_10_byte_identical_reports():
    argv = [sys.executable, "-m", "harnacklab.cli", "verify",
            "--model", "euclidean", "--n", "4", "--C", "10"]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode == 0
