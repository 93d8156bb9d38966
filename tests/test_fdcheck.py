"""Finite-difference chart oracle: curvature, commutators, cross-checks."""

import gc
import math
import random
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnacklab import commutators, fdcheck, fdgeom
from harnacklab.models import (
    DEFAULT_CURV_TOL, ModelManifold, curvature_at, model_from_id,
)
from harnacklab.green import compute_profile, default_grid, hess_b2_eigs
from model_reference import ricci_gradient_norm

H = fdcheck.DEFAULT_H


# -- the oracle's geometry, as its checks compose it -------------------------------


def _memo(chart, h=H):
    return fdcheck._ChristoffelMemo(chart, h)


def christoffels(chart, x, h=H):
    """Gamma[k, i, j] = Gamma^k_ij, as the memo's Christoffel terms give it."""
    d = chart.dim
    terms = _memo(chart, h).gamma(fdgeom._point(x))
    return np.reshape(fdgeom._gamma_flat(terms, d), (d,) * 3)


def riemann_coord(chart, x, h=H):
    """R[i, j, k, l] with all indices down."""
    return np.reshape(fdgeom._riemann_flat(_memo(chart, h), fdgeom._point(x)),
                      (chart.dim,) * 4)


def _riemann_frame(memo, x):
    """R_abcd in the orthonormal frame, flat, as `check_lemma31` takes it."""
    frame = fdcheck.orthonormal_frame(memo, x)
    return fdcheck._to_frame(fdgeom._riemann_flat(memo, x), frame, 4)


def riemann(chart, x, h=H):
    """Curvature components in an orthonormal frame."""
    return np.reshape(_riemann_frame(_memo(chart, h), fdgeom._point(x)), (chart.dim,) * 4)


def ricci(chart, x, h=H):
    """Ric_ab = sum_c R(e_a, e_c, e_b, e_c) in an orthonormal frame."""
    d = chart.dim
    R = _riemann_frame(_memo(chart, h), fdgeom._point(x))
    return np.reshape(commutators._ricci_of(R, d), (d, d))


def hessian_scalar(chart, func, x, h=H):
    """Covariant Hessian (orthonormal frame) of a scalar given numerically,
    as identity 5 of `check_lemma31` takes that of the Laplacian."""
    x = fdgeom._point(x)
    stack = commutators._CovariantStack(chart, None, h)
    hess = stack.hess_scalar(func, x)
    return np.reshape(fdcheck._to_frame(hess, fdcheck.orthonormal_frame(stack, x), 2),
                      (chart.dim,) * 2)


def test_euclidean_christoffels_vanish():
    ch, _, x, _ = commutators.oracle_preset("euclidean", 4)
    assert np.max(np.abs(christoffels(ch, x, H))) < 1e-12


def test_sphere_christoffel_value():
    ch = commutators.oracle_preset("round_sphere")[0]
    theta = math.pi / 3
    gamma = christoffels(ch, (theta, 0.7), H)
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta)
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                           abs=1e-6)


def test_cone_christoffel_value():
    ch, _, x, _ = commutators.oracle_preset("cone", 4)
    assert x == fdcheck.warped_probe_point(4, 1.0)
    # Gamma^r_{phi phi} = -c^2 r sin^2(...) pattern; for the first angular
    # coordinate the sphere factor is 1: Gamma^r_{11} = -c^2 r
    gamma = christoffels(ch, x, H)
    assert gamma[0, 1, 1] == pytest.approx(-0.25, abs=1e-6)


def test_sphere_sectional_curvature_sign_pin():
    # the curvature sign convention is pinned by the unit sphere being +1
    ch, _, x, _ = commutators.oracle_preset("round_sphere")
    R = riemann(ch, x, H)
    assert R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-5)
    ric = ricci(ch, x, H)
    assert np.allclose(ric, np.eye(2), atol=1e-5)  # Ric = (n-1) g on S^2


def test_euclidean_curvature_zero():
    ch, _, x, _ = commutators.oracle_preset("euclidean", 4)
    assert np.max(np.abs(riemann(ch, x, H))) < 1e-10


def test_warped_chart_matches_closed_form_curvature():
    model = model_from_id("cone:0.5", 4)
    ch = fdcheck.warped_chart(model)
    r = 1.0
    x = fdcheck.warped_probe_point(4, r)
    R = riemann(ch, x, H)
    s = curvature_at(model, r)
    # tangential plane (indices 1,2), radial plane (0,1) in the frame
    assert R[1, 2, 1, 2] == pytest.approx(s.k_tan, abs=1e-4)
    assert R[0, 1, 0, 1] == pytest.approx(s.k_rad, abs=1e-4)


def test_warped_chart_random_radii_cross_module():
    rng = np.random.default_rng(11)
    for model in (model_from_id("euclidean", 4),
                  model_from_id("smoothed-cone:0.5:1", 4)):
        ch = fdcheck.warped_chart(model)
        for r in rng.uniform(0.8, 5.0, 5):
            x = fdcheck.warped_probe_point(4, float(r))
            R = riemann(ch, x, H)
            s = curvature_at(model, float(r))
            assert R[1, 2, 1, 2] == pytest.approx(s.k_tan, abs=5e-4)
            assert R[0, 1, 0, 1] == pytest.approx(s.k_rad, abs=5e-4)


def test_parallel_ricci_values():
    flat, _, x, _ = commutators.oracle_preset("euclidean", 3)
    assert fdcheck.check_parallel_ricci(flat, x, H) < 1e-10
    s2, _, x, _ = commutators.oracle_preset("s2xr2")
    assert fdcheck.check_parallel_ricci(s2, x, H) < 1e-5
    cone = commutators.oracle_preset("cone", 4)[0]
    val = fdcheck.check_parallel_ricci(cone, fdcheck.warped_probe_point(4, 1.0), H)
    assert val > 1e-2  # cones are not Ricci-parallel


def test_cone_chart_matches_warped_chart_of_cone_model():
    cone = commutators.oracle_preset("cone", 4)[0]
    ref = fdcheck.warped_chart(model_from_id("cone:0.5", 4))
    assert cone.name == ref.name == "warped[cone:0.5]"
    x = fdcheck.warped_probe_point(4, 1.3)
    assert cone._flat_g(x) == ref._flat_g(x)
    for n in (2, 13):
        with pytest.raises(fdcheck.ChartError, match=f"3 <= n <= 12, got {n}"):
            commutators.oracle_preset("cone", n)


def test_fdcheck_does_not_import_models():
    code = ("import sys, harnacklab.fdcheck; "
            "sys.exit('harnacklab.models' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


def test_parallel_ricci_loads_no_commutator_oracle():
    # every euclidean verdict checks parallel Ricci: it compiles the geometry only
    code = ("import sys, harnacklab.fdcheck as fd, harnacklab.models as m; "
            "chart = fd.warped_chart(m.model_from_id('euclidean', 3)); "
            "fd.check_parallel_ricci(chart, (1.0, 1.2, 1.4)); "
            "sys.exit('harnacklab.commutators' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert r.returncode == 0, r.stderr


def test_commutator_names_of_fdcheck_are_the_oracle_module_s():
    # fdcheck gives the one commutator name the oracle command calls there
    assert fdcheck.check_lemma31 is commutators.check_lemma31
    for name in ("oracle_preset", "no_such_name"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(fdcheck, name)


# radii inside the smoothed-cone blend [r0/2, r0) and beyond it, not at its ends
PARALLEL_RICCI_CASES = [
    ("euclidean", (1.5, 2.0, 5.0)),
    ("cone:0.3", (1.5, 2.0, 5.0)),
    ("cone:0.7", (1.5, 2.0, 5.0)),
    ("smoothed-cone:0.5:1", (0.6, 0.75, 0.9, 1.5, 5.0)),
    ("smoothed-cone:0.8:2", (1.2, 1.5, 1.8, 2.5, 5.0)),
]


@pytest.mark.parametrize("model_id,radii", PARALLEL_RICCI_CASES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_grad_ricci_matches_fd_oracle(model_id, radii, n):
    model = model_from_id(model_id, n)
    chart = fdcheck.warped_chart(model)
    chart3 = fdcheck.warped_chart(ModelManifold(3, model.profile))
    gate = max(DEFAULT_CURV_TOL, 10 * H**2)  # the FD gate of hypothesis_report
    p = model.profile
    for r in radii:
        closed = ricci_gradient_norm(model, r)
        fd = fdcheck.check_parallel_ricci(chart, fdcheck.warped_probe_point(n, r), H)
        fd3 = fdcheck.check_parallel_ricci(chart3, fdcheck.warped_probe_point(3, r), H)
        # the FD error is h^2 times higher derivatives of f, which inside the
        # blend carry powers of 2/r0: there it reaches about 4e-4 relative
        in_blend = any(lo < r < hi for lo, hi in zip(p.knots, p.knots[1:]))
        rel = 1e-3 if in_blend else 1e-4
        assert abs(closed - fd) <= 10 * H**2 + rel * closed, (r, closed, fd)
        # the 3-dim chart of the same f reaches the same verdict
        assert (fd <= gate) == (fd3 <= gate) == (closed <= DEFAULT_CURV_TOL)


# the test function of every preset, as (preset, n, the same function in
# sympy's notation); sympy differentiates it as an independent reference
JET_CASES = [
    ("euclidean", 2, "x0**2*x1 + exp(-x1)*cos(x0)"),
    ("euclidean", 3, "x0**2*x1 + exp(-x1)*cos(x2)"),
    ("euclidean", 5, "x0**2*x1 + exp(-x1)*cos(x2)"),
    ("round_sphere", 2, "cos(x0) + sin(x0)*cos(x1)"),
    ("s2xr2", 4, "cos(x0)*exp(-x2**2/4) + sin(x0)*cos(x1) + x3*x2"),
    ("cone", 3, "exp(-x0)*cos(x1)"),
    ("cone", 5, "exp(-x0)*cos(x1)"),
]


@pytest.mark.parametrize("name,n,expr", JET_CASES, ids=[
    f"{commutators.oracle_preset(name, n)[0].name}-{n}" for name, n, _ in JET_CASES])
def test_jet_partials_match_sympy(name, n, expr):
    sp = pytest.importorskip("sympy")
    chart, f, base, _ = commutators.oracle_preset(name, n)
    xs = sp.symbols(f"x0:{chart.dim}")
    e = sp.sympify(expr)
    rng = np.random.default_rng(chart.dim)
    base = np.asarray(base)
    for _ in range(5):
        x = base + rng.uniform(-0.5, 0.5, chart.dim)
        at = dict(zip(xs, x))
        d1 = [float(sp.diff(e, xs[i]).subs(at)) for i in range(chart.dim)]
        d2 = [[float(sp.diff(e, xs[i], xs[j]).subs(at)) for j in range(chart.dim)]
              for i in range(chart.dim)]
        assert f.jet(x).v == pytest.approx(float(e.subs(at)), abs=1e-13)
        jet = f.jet(x)
        assert np.max(np.abs(np.asarray(jet.g) - d1)) <= 1e-13
        assert np.max(np.abs(np.reshape(jet.h, (chart.dim,) * 2) - d2)) <= 1e-13


def test_jet_is_computed_once_per_point():
    # within one probe each distinct stencil point's jet and metric are
    # evaluated exactly once: 129 metric points and 41 jets on s2xr2
    s2, f2, x, _ = commutators.oracle_preset("s2xr2")
    metric_at, jet_at = [], []

    def metric(y):
        metric_at.append(tuple(y))
        return s2.metric(y)

    def func(x):
        jet_at.append(tuple(j.v for j in x))
        return f2.func(x)

    chart = fdcheck.CoordinateChart(s2.name, 4, metric)
    f = commutators.TestFunction(func, 4)
    x = tuple(v + 0.01 for v in x)
    res = commutators.check_lemma31(chart, f, x, H)
    assert len(metric_at) == len(set(metric_at)) == 129
    assert len(jet_at) == len(set(jet_at)) == 41
    assert res == commutators.check_lemma31(s2, f2, x, H)
    metric_at.clear()
    fdcheck.check_parallel_ricci(chart, x, H)
    assert len(metric_at) == len(set(metric_at)) == 129
    stack = commutators._CovariantStack(chart, f, H)
    assert stack.jet(x) is stack.jet(x)
    with pytest.raises(TypeError):
        stack.jet(x).g[0] = 1.0  # shared by every caller in the probe: immutable
    with pytest.raises(TypeError):
        f.jet(x).h[0] = 1.0


@pytest.mark.parametrize("name", ["s2xr2", "euclidean"])
def test_oracle_memory_is_flat_in_the_probe_count(name):
    # the oracle's probe loop, with its chart and test function alive from
    # the first probe to the last: what it still holds after the loop must
    # not grow with the number of probes
    chart, f, base, _ = commutators.oracle_preset(name, 4)
    commutators.check_lemma31(chart, f, base, H)  # the first probe's one-time allocations

    def held_after(probes):
        rng = random.Random(probes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = [commutators.check_lemma31(
                chart, f, [b + rng.uniform(-0.05, 0.05) for b in base], H)
                for _ in range(probes)]
            # a full collection also empties the interpreter's free lists,
            # which would otherwise count the freed tuples as held
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == probes
        return held

    assert held_after(12) - held_after(3) < 32 * 1024


def test_commutators_flat_chart():
    ch, _, x, _ = commutators.oracle_preset("euclidean", 3)
    f = commutators.TestFunction(lambda x: x[0] * x[0] * x[1] + x[2], 3)
    res = commutators.check_lemma31(ch, f, x, H)
    assert len(res) == 4  # identities 2-5
    assert np.max(res) < 1e-9


def test_commutators_sphere():
    ch = commutators.oracle_preset("round_sphere")[0]
    f = commutators.TestFunction(lambda x: x[0].cos(), 2)
    res = commutators.check_lemma31(ch, f, np.array([math.pi / 3, 0.9]), H)
    assert np.max(res) <= 1e-4


def test_commutators_s2xr2():
    ch, f, x, _ = commutators.oracle_preset("s2xr2")
    res = commutators.check_lemma31(ch, f, x, H)
    assert np.max(res) <= 1e-4


class _Unmemoized(commutators._CovariantStack):
    """The covariant stack with every derivative recomputed on each call."""

    gamma = fdcheck._ChristoffelMemo.gamma.__wrapped__
    hess = commutators._CovariantStack.hess.__wrapped__
    third = commutators._CovariantStack.third.__wrapped__


class _UnmemoizedChristoffels(fdcheck._ChristoffelMemo):
    """The Christoffel memo recomputing them on each call."""

    gamma = fdcheck._ChristoffelMemo.gamma.__wrapped__


@pytest.mark.parametrize("name", ["s2xr2", "round_sphere", "cone"])
def test_covariant_stack_computes_each_point_once(name, monkeypatch):
    ch, f, x, _ = commutators.oracle_preset(name)
    x = tuple(v + 0.01 for v in x)
    points = []
    terms = fdgeom._christoffel_terms

    def counted(memo, y):
        points.append(tuple(y))
        return terms(memo, y)

    monkeypatch.setattr(fdcheck, "_christoffel_terms", counted)
    commutators.check_lemma31(ch, f, x, H)
    # riemann and the nested differences share one memo per point
    assert len(points) == len(set(points))
    if name == "s2xr2":
        assert len(points) == 41
    monkeypatch.setattr(fdcheck, "_christoffel_terms", terms)
    # bit for bit the values of the stack without its memo
    memo, plain = commutators._CovariantStack(ch, f, H), _Unmemoized(ch, f, H)
    for method in ("gamma", "hess", "third", "fourth"):
        a, b = getattr(memo, method)(x), getattr(plain, method)(x)
        assert a == b, method
    assert isinstance(memo.hess(x), tuple)  # shared by every caller: immutable
    # the curvature on the stack's memo is that on a memo of its own
    R = fdgeom._riemann_flat(memo, x)
    assert R == fdgeom._riemann_flat(fdcheck._ChristoffelMemo(ch, H), x)


def test_commutator_quadratic_convergence():
    ch, f, x, _ = commutators.oracle_preset("s2xr2")
    res_h = commutators.check_lemma31(ch, f, x, H)
    res_2h = commutators.check_lemma31(ch, f, x, 2 * H)
    for a, b in zip(res_2h, res_h):
        if b < 1e-12:
            continue  # identically satisfied; below the noise floor
        assert 3.5 <= a / b <= 4.5


#: every preset at both ends of the dimensions it takes
PRESET_ENDS = [(name, n) for name, (dims, *_) in commutators.CHARTS.items()
               for n in sorted({dims[0], dims[-1]})]


@pytest.mark.parametrize("name,n", PRESET_ENDS, ids=[f"{name}-{n}" for name, n in PRESET_ENDS])
def test_every_preset_check_has_content(name, n):
    # residuals that read 0.0 at every probe show nothing: on each preset some
    # gated identity reads the O(h^2) error of its differences, which grows
    # 4x from h to 2h; identity 5 counts only where Ricci is parallel, as an
    # FD check of grad Ric finds it (the residuals are identities 2-5)
    chart, f, x, gated = commutators.oracle_preset(name, n)
    assert (gated == 4) == (fdcheck.check_parallel_ricci(chart, x, H) < 1e-5)
    res = commutators.check_lemma31(chart, f, x, H)[:gated]
    res_2h = commutators.check_lemma31(chart, f, x, 2 * H)[:gated]
    assert max(res) > 0.0
    for a, b in zip(res_2h, res):
        if b > 1e-12:
            assert 3.5 <= a / b <= 4.5, (res, res_2h)


def test_frame_independence_of_residuals():
    # the identities are tensorial: residuals must not depend on which
    # Gram-Schmidt order produced the frame; reversing coordinates gives
    # a genuinely different frame on the sphere factor
    ch, f, x, _ = commutators.oracle_preset("s2xr2")
    r1 = commutators.check_lemma31(ch, f, x, H)
    x2 = np.asarray(x) + [0.0, 0.0, 0.013, -0.02]  # flat directions: same geometry
    r2 = commutators.check_lemma31(ch, f, x2, H)
    assert np.all(np.abs(np.asarray(r1) - r2) < 1e-4)


def test_hessian_scalar_matches_profile():
    model = model_from_id("cone:0.5", 4)
    profile = compute_profile(model, default_grid(1e-2, 1e2, 512))
    ch = fdcheck.warped_chart(model)
    r = 1.3
    x = fdcheck.warped_probe_point(4, r)
    hess = hessian_scalar(ch, lambda p: profile.b2_at(p[0]), x, 1e-3)
    mu_rad, mu_tan = hess_b2_eigs(profile, r)
    assert hess[0, 0] == pytest.approx(mu_rad, abs=5e-5)
    assert hess[1, 1] == pytest.approx(mu_tan, abs=5e-5)
    assert hess[2, 2] == pytest.approx(mu_tan, abs=5e-5)
    off = hess - np.diag(np.diag(hess))
    assert np.max(np.abs(off)) < 5e-5


def test_oracle_preset_refuses_a_dimension_it_does_not_take_and_bad_step():
    ch = commutators.oracle_preset("euclidean", 3)[0]
    assert ch.dim == 3
    # the flat test function needs two coordinates; a probe's cost grows as n^4
    for n in (1, 0, 13):
        with pytest.raises(fdcheck.ChartError, match=f"2 <= n <= 12, got {n}"):
            commutators.oracle_preset("euclidean", n)
    # with no n, a preset takes its own dimension, or 4 where it takes several
    assert {name: commutators.oracle_preset(name)[0].dim for name in commutators.CHARTS} == {
        "euclidean": 4, "round_sphere": 2, "s2xr2": 4, "cone": 4}
    with pytest.raises(fdcheck.ChartError, match="chart round_sphere has dimension 2, got n=4"):
        commutators.oracle_preset("round_sphere", 4)
    with pytest.raises(fdcheck.ChartError):
        christoffels(ch, np.zeros(3), -1.0)


@pytest.mark.parametrize("chart,x,distinct", [
    (commutators.oracle_preset("s2xr2"), None, 41),
    (commutators.oracle_preset("cone", 5), None, 63),
    (fdcheck.warped_chart(ModelManifold(3, model_from_id("smoothed-cone:0.8:1", 3).profile)),
     fdcheck.warped_probe_point(3, 0.75), None),
])
def test_parallel_ricci_computes_each_point_once(chart, x, distinct, monkeypatch):
    if x is None:  # a preset, at its probe point
        chart, _, x, _ = chart
    points = []
    terms = fdgeom._christoffel_terms

    def counted(memo, y):
        points.append(tuple(y))
        return terms(memo, y)

    monkeypatch.setattr(fdcheck, "_christoffel_terms", counted)
    memo = fdcheck.check_parallel_ricci(chart, x, H)
    assert len(points) == len(set(points))
    if distinct is not None:
        assert len(points) == distinct
    monkeypatch.setattr(fdcheck, "_christoffel_terms", terms)
    # bit for bit the norm of the same differences without the memo
    monkeypatch.setattr(fdcheck, "_ChristoffelMemo", _UnmemoizedChristoffels)
    assert memo == fdcheck.check_parallel_ricci(chart, x, H)


# -- generic metrics against the numpy einsum reference ---------------------------

# no preset has an off-diagonal metric, a non-diagonal frame or dense
# Christoffels: these charts reach those paths
SHEAR = np.array([[1.0, 0.3, -0.2, 0.1],
                  [0.1, 0.9, 0.25, -0.05],
                  [-0.15, 0.2, 1.1, 0.3],
                  [0.05, -0.1, 0.2, 0.95]])


def sheared_flat(d):
    """R^d in the linear coordinates u = A x: g = A^T A, constant."""
    A = SHEAR[:d, :d]
    g = A.T @ A
    return fdcheck.CoordinateChart(f"sheared-flat-{d}", d, lambda x: g)


def sheared(chart, point):
    """The chart pulled back by u = A (x - point) + point, so that point is
    fixed: g_x = A^T g_u(u) A, non-diagonal and not constant."""
    d = chart.dim
    A, p = SHEAR[:d, :d], np.asarray(point, float)
    return fdcheck.CoordinateChart(
        f"sheared-{chart.name}", d,
        lambda x: A.T @ np.asarray(chart.metric(A @ (np.asarray(x) - p) + p)) @ A)


def generic_function(d):
    if d == 2:
        return commutators.TestFunction(lambda x: x[0].cos() * x[1].exp() + x[0] * x[1], 2)
    return commutators.TestFunction(
        lambda x: (x[0] * x[1]).sin() + x[2].cos() * x[0].exp() + x[d - 1] * x[1], d)


GENERIC_CASES = [
    (sheared_flat(3), (0.2, -0.3, 0.5)),
    (sheared_flat(4), (0.2, -0.3, 0.5, 0.1)),
    (sheared(commutators.oracle_preset("round_sphere")[0], (1.1, 0.7)), (1.1, 0.7)),
    (sheared(commutators.oracle_preset("s2xr2")[0], (1.1, 0.7, 0.3, -0.4)),
     (1.12, 0.69, 0.31, -0.38)),
]


@pytest.mark.parametrize("chart,x", GENERIC_CASES, ids=[c.name for c, _ in GENERIC_CASES])
def test_generic_metric_matches_numpy_reference(chart, x):
    ref = pytest.importorskip("fd_reference")
    g = np.reshape(chart._flat_g(x), (chart.dim,) * 2)
    assert np.count_nonzero(g - np.diag(np.diag(g))) > 0
    assert np.allclose(christoffels(chart, x, H), ref.christoffels(chart, x, H),
                       rtol=0, atol=1e-12)
    assert np.allclose(riemann_coord(chart, x, H), ref.riemann_coord(chart, x, H),
                       rtol=0, atol=1e-8)
    E = np.asarray(fdcheck.orthonormal_frame(_memo(chart), fdgeom._point(x)))
    assert np.count_nonzero(E - np.diag(np.diag(E))) > 0
    assert np.allclose(E, ref.orthonormal_frame(chart, x), rtol=0, atol=1e-14)
    assert np.allclose(riemann(chart, x, H), ref.riemann(chart, x, H), rtol=0, atol=1e-8)
    assert np.allclose(ricci(chart, x, H), ref.ricci(chart, x, H), rtol=0, atol=1e-8)
    assert fdcheck.check_parallel_ricci(chart, x, H) == pytest.approx(
        ref.check_parallel_ricci(chart, x, H), rel=1e-6, abs=1e-9)
    f = generic_function(chart.dim)
    res = commutators.check_lemma31(chart, f, x, H)
    # identity 5 takes second differences of the Laplacian over h^2 = 1e-6,
    # where the two orders of summation differ by about 1e-8; the reference
    # also gives identity 1, which the package holds exact by construction
    assert np.max(np.abs(np.asarray(res) - ref.check_lemma31(chart, f, x, H)[1:])) <= 1e-7
    # the identities hold on any metric, to O(h^2)
    assert max(res) <= 1e-4


def test_sheared_sphere_keeps_its_curvature():
    chart, x = GENERIC_CASES[2]
    R = riemann(chart, x, H)
    assert R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-5)
    assert np.allclose(ricci(chart, x, H), np.eye(2), atol=1e-5)


@pytest.mark.parametrize("metric", [
    lambda x: [[1.0, 2.0], [2.0, 4.0]],  # singular
    lambda x: [[0.0, 0.0], [0.0, 1.0]],  # singular, a zero pivot column
])
def test_singular_metric_raises_chart_error(metric):
    chart = fdcheck.CoordinateChart("singular", 2, metric)
    with pytest.raises(fdcheck.ChartError, match="singular"):
        _memo(chart)._ginv_entries((0.3, 0.4))
    with pytest.raises(fdcheck.ChartError, match="singular"):
        christoffels(chart, (0.3, 0.4), H)


@pytest.mark.parametrize("metric", [
    lambda x: [[1.0, 0.0]],
    lambda x: np.eye(3),
    lambda x: [1.0, 0.0, 0.0, 1.0],
    lambda x: [[1.0, 0.0], [0.0]],
    lambda x: 1.0,
])
def test_wrong_shape_metric_raises_chart_error(metric):
    chart = fdcheck.CoordinateChart("bad", 2, metric)
    with pytest.raises(fdcheck.ChartError, match="wrong shape"):
        chart._flat_g((0.3, 0.4))
    with pytest.raises(fdcheck.ChartError, match="wrong shape"):
        fdcheck.check_parallel_ricci(chart, (0.3, 0.4), H)


# -- NaN never passes ---------------------------------------------------------------


def test_max_residual_keeps_nan_wherever_it_is():
    assert fdcheck.max_residual([]) == 0.0
    assert fdcheck.max_residual([1e-12, 3.0, 2.0]) == 3.0
    assert max([1e-12, math.nan, 1e-12]) == 1e-12  # Python's max drops the NaN
    for values in ([math.nan, 1.0], [1.0, math.nan], [1e-12, math.nan, 1e-12]):
        assert math.isnan(fdcheck.max_residual(values))
    assert fdcheck.max_residual([1.0, math.inf]) == math.inf


def test_metric_nan_at_one_stencil_point_fails_every_check():
    x = (0.1, 0.3, 0.5)
    bad = (x[0] + H, x[1], x[2])  # one point of the stencil of the Christoffels at x
    eye = np.eye(3)

    def metric(y):
        visited.append(tuple(y))
        return np.full((3, 3), math.nan) if tuple(y) == bad else eye

    chart = fdcheck.CoordinateChart("flat-with-a-nan", 3, metric)
    f = commutators.TestFunction(lambda x: x[0] * x[0] * x[1] + x[2].cos(), 3)
    visited = []
    assert math.isnan(fdcheck.max_residual(commutators.check_lemma31(chart, f, x, H)))
    assert bad in visited  # the NaN point was visited
    visited = []
    assert math.isnan(fdcheck.check_parallel_ricci(chart, x, H))
    assert bad in visited


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5]),
    st.floats(allow_nan=True, allow_infinity=True))


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_central_difference_of_a_tensor_is_exact_at_every_entry(data):
    # out[k][p] = (F(x + h e_k)[p] - F(x - h e_k)[p]) / 2h, bit for bit at
    # every position: zeros of either sign, NaN and inf included
    d = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(0, 6))
    h = data.draw(st.sampled_from([1e-3, 0.25, 3.0]))
    x = tuple(data.draw(st.floats(-2.0, 2.0)) for _ in range(d))
    kind = data.draw(st.sampled_from([tuple, list]))
    stencil = [(x[:k] + (v + h,) + x[k + 1:], x[:k] + (v - h,) + x[k + 1:])
               for k, v in enumerate(x)]
    values = {y: kind(data.draw(st.lists(_ENTRY, min_size=size, max_size=size)))
              for pair in stencil for y in pair}
    out = fdgeom._central(values.__getitem__, x, h)
    assert len(out) == d
    for row, (plus, minus) in zip(out, stencil):
        assert type(row) is tuple
        want = [(p - m) / (2 * h) for p, m in zip(values[plus], values[minus])]
        assert _bits(row) == _bits(want)


def test_probe_points_are_numpys_bit_for_bit():
    # the oracle's probe points did not move when numpy left the oracle
    for n in range(2, 13):
        assert fdcheck.warped_probe_point(n, 1.3) == (1.3, *np.linspace(1.0, 1.6, n - 1).tolist())
        x = commutators.oracle_preset("euclidean", n)[2]
        assert x == tuple((0.1 + 0.2 * np.arange(n)).tolist())
