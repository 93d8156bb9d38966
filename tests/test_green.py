"""Green profile: quadrature vs closed forms, b-function, power rule."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from harnacklab import quadrature
from harnacklab.models import (ModelError, ModelManifold, model_from_id, nonparabolic_check,
                               table_profile)
from harnacklab.green import (
    COLUMNS, compute_profile, default_grid, hess_b2_eigs, in_float_range, write_csv,
)
from green_reference import check_power_laplacian, reference_G_hi, reference_rows
from model_reference import offset_end_profiles, preset_id
from tables import concave_table, late_bump_table

#: the commands' default window
GRID = default_grid(1e-2, 1e2, 512)


@pytest.fixture(scope="module")
def eucl4():
    return compute_profile(model_from_id("euclidean", 4), GRID)


@pytest.fixture(scope="module")
def cone4():
    return compute_profile(model_from_id("cone:0.5", 4), GRID)


def test_euclidean_green_values(eucl4):
    # G = r^{2-n}: the quadrature must reproduce the power law
    assert eucl4.green_at(2.0) == pytest.approx(0.25, abs=1e-12)
    _, Gp, _, _, _, _, mu_rad, mu_tan = eucl4.row_at(2.0)
    assert Gp == pytest.approx(-0.25, abs=1e-14)
    # b^2 = r^2, so Hess b^2 = 2 g
    assert (mu_rad, mu_tan) == pytest.approx((2.0, 2.0), rel=1e-14)
    # b = r and |grad b| = 1 over the whole grid
    assert np.allclose(eucl4.b, eucl4.grid, rtol=1e-12, atol=0)
    assert np.allclose(eucl4.grad_b, 1.0, rtol=1e-12, atol=0)


def test_hess_b2_eigs_refuses_a_radius_off_the_grid(eucl4):
    with pytest.raises(ModelError, match="outside profile grid range"):
        hess_b2_eigs(eucl4, 1e5)
    with pytest.raises(ModelError, match="outside profile grid range"):
        hess_b2_eigs(eucl4, 1e-3)


def test_euclidean_green_power_law_whole_grid(eucl4):
    assert np.allclose(eucl4.G, np.asarray(eucl4.grid)**-2.0, rtol=1e-11, atol=0)


def test_cone_green_closed_form(cone4):
    # G = c^{1-n} r^{2-n}
    assert cone4.green_at(1.0) == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize("c,n", [(0.5, 4), (0.3, 3), (0.7, 10)])
def test_cone_b_and_grad_b_closed_form(c, n):
    # b = G^{1/(2-n)} = c^{(n-1)/(n-2)} r, so |grad b| = c^{(n-1)/(n-2)}
    prof = compute_profile(model_from_id(f"cone:{c!r}", n), GRID)
    slope = c ** ((n - 1) / (n - 2))
    assert np.allclose(prof.b, slope * np.asarray(prof.grid), rtol=1e-12, atol=0)
    assert np.allclose(prof.grad_b, slope, rtol=1e-12, atol=0)


def test_cone_c1_equals_euclidean(eucl4):
    prof = compute_profile(model_from_id("cone:1", 4), GRID)
    assert np.allclose(prof.G, eucl4.G, rtol=1e-12, atol=0)


def test_hess_b2_euclidean(eucl4):
    mu = hess_b2_eigs(eucl4, 2.0)
    assert mu == pytest.approx((2.0, 2.0), abs=1e-10)


def test_hess_b2_cone(cone4):
    mu = hess_b2_eigs(cone4, 1.0)
    assert mu == pytest.approx((0.25, 0.25), abs=1e-10)


def test_hess_b2_smoothed_cone_tail():
    prof = compute_profile(model_from_id("smoothed-cone:0.5:1", 4), GRID)
    mu = hess_b2_eigs(prof, 4.0)
    assert mu == pytest.approx((0.25, 0.25), abs=1e-6)


def test_hess_b2_out_of_range(eucl4):
    with pytest.raises(ModelError):
        hess_b2_eigs(eucl4, 1e4)


def test_power_laplacian_examples(eucl4, cone4):
    # beta = alpha = 2 on flat n=4: both sides are 8 r^{-6}
    assert check_power_laplacian(eucl4, 1.0, 2.0) < 1e-9
    # beta = 1: G is harmonic
    assert check_power_laplacian(eucl4, 1.0, 1.0) < 1e-12
    # beta = -1 on the cone
    assert check_power_laplacian(cone4, 1.0, -1.0) < 1e-10


def test_gradient_derivative_cross_check(eucl4):
    # numerically differentiating G reproduces the closed-form Gp
    g, G = np.asarray(eucl4.grid), np.asarray(eucl4.G)
    dG = np.gradient(G, g)
    mid = slice(10, -10)
    assert np.allclose(dG[mid], eucl4.Gp[mid], rtol=5e-3)


def test_nonparabolic_examples():
    # an end f = a r decays as r^{1-n} exactly
    for model in (model_from_id("euclidean", 4), model_from_id("cone:0.5", 3),
                  model_from_id("smoothed-cone:0.8:1", 5)):
        rep = nonparabolic_check(model)
        assert rep.varopoulos_integral_finite and rep.tail_exponent == 1 - model.n
    # sublinear growth is parabolic and must be rejected outright
    r = np.linspace(0.05, 80, 500)
    slow = ModelManifold(3, table_profile((r, r ** (1.0 / 3))))
    rep = nonparabolic_check(slow)
    assert not rep.varopoulos_integral_finite
    with pytest.raises(ModelError):
        compute_profile(slow, default_grid(0.1, 50, 64))


def test_profile_csv_shape(cone4):
    out = io.StringIO()
    cone4.to_csv(out)
    lines = out.getvalue().strip().split("\n")
    assert lines[0] == "r,G,Gp,Gpp,b,b2,grad_b,mu_rad,mu_tan"
    assert len(lines) == len(cone4.grid) + 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                   2.2250738585072014e-308, 1e308, -0.1, 0, 1])
def test_csv_line_is_each_value_in_17_digits(value):
    # the ints 0 and 1 are the corollary's through_tip column
    out = io.StringIO()
    write_csv(out, "a,b,c", [(value, -value, 1.5)])
    assert out.getvalue() == (f"a,b,c\n{format(value, '.17g')},{format(-value, '.17g')},"
                              "1.5\n")


def test_to_csv_streams_row_by_row():
    # no text of the whole table is built: the writer's own memory stays that
    # of a row, where a 4096-row table's text is about 1.5 MB
    profile = compute_profile(model_from_id("euclidean", 6), default_grid(1e-2, 1e2, 4096))
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            profile.to_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024


#: the peak of one profile's compute_profile under tracemalloc, in a child
#: interpreter: (peak, the grid's typecode and length, each column's typecode).
#: A profile of 8 radii is computed first, untraced: the kernels' first calls
#: run about twice as slow under tracemalloc as later ones, at the same peak
_PROFILE_PEAK = """\
import json, sys, tracemalloc
from harnacklab.green import COLUMNS, compute_profile, default_grid
from harnacklab.models import model_from_id
model_id, n, size = json.loads(sys.argv[1])
model, grid = model_from_id(model_id, n), default_grid(1e-2, 1e2, size)
compute_profile(model, default_grid(1e-2, 1e2, 8))
tracemalloc.start()
profile = compute_profile(model, grid)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([peak, profile.grid.typecode, len(profile.grid),
                  [getattr(profile, col).typecode for col in COLUMNS]]))
"""


@pytest.mark.parametrize("model_id,n", [("euclidean", 6), ("smoothed-cone:0.3:1", 30)])
def test_profile_memory_is_its_columns(model_id, n):
    # the grid and eight float64 columns are 72 bytes a radius; no row tuple,
    # transposed copy or float object per value is held on the way.  The
    # peak is taken in a fresh interpreter that imports only harnacklab:
    # tracemalloc's cost grows with the heap of the process it traces
    size = 65536
    r = subprocess.run([sys.executable, "-c", _PROFILE_PEAK, json.dumps([model_id, n, size])],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    peak, typecode, length, typecodes = json.loads(r.stdout)
    assert peak <= 128 * size
    assert typecode == "d" and length == size
    assert typecodes == ["d"] * len(COLUMNS)


def test_grid_validation():
    m = model_from_id("euclidean", 4)
    with pytest.raises(ModelError):
        compute_profile(m, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ModelError):
        compute_profile(m, np.array([2.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_non_finite_grid_radius_is_refused(bad, where):
    # an inf at the end used to fall out of the columns, which then held
    # one radius fewer than the grid; a NaN passed both grid checks
    grid = [0.1, 0.5, 1.0, 5.0, 10.0]
    grid[where] = bad
    with pytest.raises(ModelError, match=rf"grid radius {bad!r} is not finite"):
        compute_profile(model_from_id("euclidean", 4), grid)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.05, 40.0), st.floats(0.05, 40.0))
def test_green_is_decreasing_property(r1, r2):
    prof = _cached_cone3()
    lo, hi = sorted((r1, r2))
    if hi - lo < 1e-9:
        return
    assert prof.green_at(lo) > prof.green_at(hi)


_CONE3 = None


def _cached_cone3():
    global _CONE3
    if _CONE3 is None:
        _CONE3 = compute_profile(model_from_id("cone:0.8", 3),
                                 default_grid(1e-2, 1e2, 128))
    return _CONE3


# -- piecewise kernel against a full-range quadrature reference ---------------

KERNEL_MODELS = (
    [("euclidean", n, None, None) for n in (3, 5, 10)]
    + [("cone", n, c, None) for c in (0.3, 0.7) for n in (3, 5, 10)]
    + [("smoothed_cone", n, c, r0) for c in (0.2, 0.5, 0.85)
       for r0 in (0.5, 1.0, 2.0) for n in (3, 5, 10)]
)


def _quad_reference(model, r):
    """(n-2) int_r^inf f^{1-n} by plain quadrature over the whole range.

    It is only told where f''' jumps (the ends of the smoothed-cone blend)
    and uses no closed form, so it is independent of the piecewise kernel.
    """
    p, n = model.profile, model.n
    cuts = [r, *(x for x in p.knots if x > r)]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:] + [np.inf]):
        total += integrate.quad(lambda s: p.f(s) ** (1 - n), lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return (n - 2) * total


@pytest.mark.parametrize("kind,n,c,r0", KERNEL_MODELS)
def test_kernel_matches_full_range_quadrature(kind, n, c, r0):
    model = model_from_id(preset_id(kind, c, r0), n)
    prof = compute_profile(model, default_grid(1e-2, 1e2, 16))
    ref = np.array([_quad_reference(model, r) for r in prof.grid])
    assert np.max(np.abs(np.asarray(prof.G) / ref - 1.0)) <= 1e-12
    # off-grid points, some of them inside the blend when there is one
    radii = list(np.geomspace(0.013, 77.0, 6))
    if r0 is not None:
        radii += [0.3 * r0, 0.55 * r0, 0.8 * r0, 0.99 * r0, 1.3 * r0]
    for r in radii:
        assert prof.green_at(r) == pytest.approx(_quad_reference(model, r),
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c,r0,n", [(0.2, 1.0, 3), (0.5, 0.5, 5), (0.85, 2.0, 10)])
def test_kernel_continuous_at_blend_ends(c, r0, n):
    prof = compute_profile(model_from_id(f"smoothed-cone:{c!r}:{r0!r}", n),
                           default_grid(1e-2, 1e2, 64))
    for edge in (0.5 * r0, r0):
        left = prof.green_at(float(np.nextafter(edge, 0.0)))
        assert left == pytest.approx(prof.green_at(edge), rel=1e-12, abs=0.0)


def test_custom_linear_table_reproduces_cone():
    # a table sampled from f = 0.6 r: the tip piece below the table, the
    # spline piece on it and the closed tail must all give the cone's G
    r = np.geomspace(0.5, 50.0, 200)
    model = ModelManifold(4, table_profile((r, 0.6 * r)))
    prof = compute_profile(model, default_grid(0.05, 20.0, 64))
    assert np.allclose(prof.G, 0.6**-3 * np.asarray(prof.grid)**-2.0, rtol=1e-12, atol=0)
    for x in (0.07, 0.49, 0.51, 3.0, 19.0):
        assert prof.green_at(x) == pytest.approx(0.6**-3 * x**-2.0, rel=1e-12)


def _quad_reference_cuts(model, r):
    """(n-2) int_r^inf f^{1-n}: quad between the table's radii up to the
    closed tail the kernel uses (slope f(r_top)/r_top from r_top on)."""
    p, n = model.profile, model.n
    knots = np.asarray(p.knots)
    cuts = [r, *knots[knots > r]]
    total = sum(integrate.quad(lambda s: p.f(s) ** (1 - n), lo, hi, epsabs=0.0,
                               epsrel=1e-13, limit=500)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    r_top = cuts[-1]
    return (n - 2) * total + (p.f(r_top) / r_top) ** (1 - n) * r_top ** (2 - n)


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_concave_table_pointwise_G_is_grid_G(n):
    # one Gauss integral from r up to the next knot, on the grid and off it
    model = ModelManifold(n, table_profile(concave_table()))
    prof = compute_profile(model, default_grid(1e-2, 1e2, 2048))
    pointwise = np.array([prof.green_at(r) for r in prof.grid])
    assert np.max(np.abs(pointwise / np.asarray(prof.G) - 1.0)) <= 1e-12
    radii = np.geomspace(1.1e-3, 900.0, 7)
    ref = np.array([_quad_reference_cuts(model, r) for r in radii])
    got = np.array([prof.green_at(r) for r in radii.tolist()])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-12


def test_G_past_the_float_range_below_the_grid_is_inf_there_only():
    # at n = 150 f^{1-n} overflows on the concave table's knots below 0.0083:
    # G is inf there, a miss no more, and the grid from 0.01 stays in range
    prof = compute_profile(ModelManifold(150, table_profile(concave_table())), GRID)
    G_hi = reference_G_hi(prof)
    assert G_hi[0] == math.inf and math.isfinite(G_hi[-2])
    assert all(math.isfinite(g) for g in prof.G) and prof.green_at(0.005) == math.inf
    with pytest.raises(ModelError, match="leaves the float range at n=150, r=0.005"):
        prof.row_at(0.005)


def test_table_is_integrated_up_to_its_top():
    # f = r below 300 and above 500, so it equals the closing line f(top)/top r
    # at radii below the bump: G must still integrate the bump
    model = ModelManifold(4, table_profile(late_bump_table()))
    assert model.profile.cover[-1].lo == 1e3 and model.profile.tail_slope == 1.0
    prof = compute_profile(model, GRID)
    ref = _quad_reference_cuts(model, float(prof.grid[-1]))
    assert prof.G[-1] == pytest.approx(ref, rel=1e-12, abs=0.0)


EXACT_MODELS = [(model_from_id(mid, n), mid) for mid, n in (
    ("euclidean", 5), ("cone:0.4", 6), ("smoothed-cone:0.8:1", 4),
    ("smoothed-cone:0.5:2", 7))] + [
    (ModelManifold(n, table_profile(table)), name) for table, n, name in (
        (concave_table(), 4, "concave"), (late_bump_table(), 6, "late-bump"))]


def _grid_with_knots(model):
    """The default radii, some of the model's knots and its top knot (a
    smoothed cone's r0, a table's top), ascending."""
    knots = model.profile.knots
    radii = set(default_grid(1e-2, 1e2, 256)) | set(knots[:-1:len(knots) // 10 or 1])
    if knots and knots[-1] < math.inf:
        radii.add(knots[-1])
    return sorted(radii)


@pytest.mark.parametrize("model,name", EXACT_MODELS, ids=[name for _, name in EXACT_MODELS])
def test_pointwise_G_is_grid_G_exactly(model, name):
    # one G function and one column kernel per piece serve the grid and
    # every pointwise call, so the two agree bit for bit, on the knots too
    prof = compute_profile(model, _grid_with_knots(model))
    columns = [getattr(prof, col) for col in COLUMNS]
    assert all(len(col) == len(prof.grid) for col in columns)
    for i, r in enumerate(prof.grid):
        assert prof.green_at(r) == prof.G[i]
        assert prof.row_at(r) == [col[i] for col in columns]


@pytest.fixture
def quad_calls(monkeypatch):
    """Intervals integrated by quadrature.gauss_legendre while it is active,
    one (a, b) per call."""
    calls = []
    real = quadrature.gauss_legendre

    def counting(func, a, b, *args, **kwargs):
        calls.append((a, b))
        return real(func, a, b, *args, **kwargs)

    monkeypatch.setattr(quadrature, "gauss_legendre", counting)
    return calls


@pytest.mark.parametrize("model_id", ["euclidean", "cone:0.3", "cone:0.7"])
def test_linear_models_make_no_quadrature(model_id, quad_calls):
    prof = compute_profile(model_from_id(model_id, 5), default_grid(1e-2, 1e2, 512))
    for r in (1e-3, 0.02, 1.0, 50.0, 1e3):
        prof.green_at(r)
    assert quad_calls == []


@pytest.mark.parametrize("n", [3, 4, 8])
def test_offset_end_is_closed_and_agrees_with_its_gauss_route(n, quad_calls):
    # an affine end off the origin is a cone in r - x0: the profile closes G
    # on it, as on a line through the origin, and the same line integrated
    # by Gauss panels gives every column to the quadrature's accuracy
    closed, gauss = (ModelManifold(n, p) for p in offset_end_profiles())
    a = compute_profile(closed, GRID)
    assert quad_calls == []
    b = compute_profile(gauss, GRID)
    assert closed.profile.cover == closed.profile.pieces
    assert closed.profile.tail_slope == gauss.profile.tail_slope == 0.5
    assert quad_calls
    for name in COLUMNS:
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        assert np.max(np.abs(x / y - 1.0)) <= 1e-13, name
    for r in (1.0, 3.0, 49.0, 50.0, 700.0):
        assert a.row_at(r) == pytest.approx(b.row_at(r), rel=1e-13, abs=0.0)


def test_smoothed_cone_quadrature_stays_in_blend(quad_calls):
    r0 = 1.0
    prof = compute_profile(model_from_id(f"smoothed-cone:0.5:{r0!r}", 5),
                           default_grid(1e-2, 1e2, 512))
    assert quad_calls
    assert all(0.5 * r0 <= a <= b <= r0 for a, b in quad_calls)
    del quad_calls[:]
    for r in (0.01, 0.2, 0.4999, 1.0, 1.5, 99.0, 1e3):
        prof.green_at(r)
    assert quad_calls == []
    prof.green_at(0.7)
    assert quad_calls == [(0.7, r0)]


def test_each_blend_radius_is_its_own_integral_on_a_fine_grid():
    # 4932 of the 65536 radii lie on the blend [r0/2, r0); each integral is
    # capped on its own, so their number does not decide whether G converges,
    # and G there is green_at's bit for bit
    prof = compute_profile(model_from_id("smoothed-cone:0.3:1", 30),
                           default_grid(1e-2, 1e2, 65536))
    blend = [i for i, r in enumerate(prof.grid) if 0.5 <= r < 1.0]
    assert len(blend) == 4932
    for i in (*blend[::1000], blend[-1]):
        assert prof.green_at(prof.grid[i]) == prof.G[i]


# -- one radial kernel: finite at large n, the same on floats and arrays ------

LARGE_N = (3, 10, 40, 100, 150)
# cone:0.5 and cone:0.7 leave the float range at n = 150 on the default grid
# (G'' ~ (c r)^{-n} at r = 0.01); cone:0.95 stays inside it.  G' and G''
# take the powers of c and r apart, as G = c^{1-n} r^{2-n} does, so an
# aperture whose product c r rounds meets the same 1e-12 as c = 0.5.
MU_CASES = ([("euclidean", None, n, 1e-12) for n in LARGE_N]
            + [("cone", 0.5, n, 1e-12) for n in LARGE_N[:-1]]
            + [("cone", 0.7, n, 1e-12) for n in LARGE_N[:-1]]
            + [("cone", 0.95, n, 1e-12) for n in LARGE_N])


@pytest.mark.parametrize("kind,c,n,tol", MU_CASES)
def test_hess_b2_closed_form_at_every_dimension(kind, c, n, tol):
    # b^2 = c^{2(n-1)/(n-2)} r^2 (c = 1 on euclidean), so Hess b^2 = 2 c^... g
    prof = compute_profile(model_from_id(preset_id(kind, c), n), GRID)
    mu = 2.0 * (1.0 if c is None else c) ** (2.0 * (n - 1) / (n - 2))
    assert np.max(np.abs(np.asarray(prof.mu_rad) / mu - 1.0)) <= tol
    assert np.max(np.abs(np.asarray(prof.mu_tan) / mu - 1.0)) <= tol
    for col in (prof.G, prof.Gp, prof.Gpp, prof.b, prof.b2, prof.grad_b):
        assert np.all(np.isfinite(col))
    # the pointwise route (green_at, floats) that refines the sup
    sample = range(0, len(prof.grid), 29)
    for i in sample:
        assert hess_b2_eigs(prof, float(prof.grid[i])) == pytest.approx(
            (mu, mu), rel=tol, abs=0)


@pytest.mark.parametrize("kind,c,n,r_min", [
    ("euclidean", None, 200, 0.01), ("cone", 0.5, 150, 0.01), ("cone", 0.7, 150, 0.01),
    # G(100) = 1e-320 is subnormal: G'/G would keep 4 digits and mu_rad read 316
    ("euclidean", None, 162, 1.0),
])
def test_profile_past_the_float_range_is_refused(kind, c, n, r_min):
    with pytest.raises(ModelError, match=rf"n={n}, r_min={r_min:g}"):
        compute_profile(model_from_id(preset_id(kind, c), n), default_grid(r_min, 1e2, 512))


# -- one kernel per piece: the grid and the pointwise calls, bit for bit ------

KERNEL_EQUALITY_MODELS = ("euclidean", "cone:0.3", "smoothed-cone:0.8:1", "concave")
#: the names of the fields of a `reference_rows` row, in order
REFERENCE_ROW = ("r", "G", "Gp", "Gpp", "b", "b2", "b2p", "grad_b", "mu_rad", "mu_tan",
                 "f", "fp")


@pytest.mark.parametrize("n", [3, 4, 8, 10])
@pytest.mark.parametrize("name", KERNEL_EQUALITY_MODELS)
def test_every_column_is_the_per_radius_path_and_the_pointwise_calls(name, n):
    # the earlier per-radius path (G per radius, green_derivs, power_jet,
    # b2_hessian) against the per-piece kernels, with ==, at every radius
    # (blend radii, knots and a table's top included), and every column
    # against the pointwise calls there
    if name == "concave":
        model = ModelManifold(n, table_profile(concave_table()))
    else:
        model = model_from_id(name, n)
    prof = compute_profile(model, _grid_with_knots(model))
    # G at each piece's upper end: the next piece's G at its lower end, 0 at inf
    G_hi = (*(g(pc.lo) for g, pc in zip(prof.green[1:], prof.pieces[1:])), 0.0)
    assert G_hi == reference_G_hi(prof)
    ref = reference_rows(prof)
    assert [row[0] for row in ref] == list(prof.grid)
    for col in COLUMNS:
        k = REFERENCE_ROW.index(col)
        assert list(getattr(prof, col)) == [row[k] for row in ref], col
    columns = [getattr(prof, col) for col in COLUMNS]
    for i, r in enumerate(prof.grid):
        assert prof.row_at(r) == [col[i] for col in columns]
        assert hess_b2_eigs(prof, r) == (prof.mu_rad[i], prof.mu_tan[i])
        assert prof.b2_at(r) == prof.b2[i]
        assert prof.green_at(r) == prof.G[i]


# -- the float-range test: its fast scans decide as the value-by-value rule ---

_TINY = sys.float_info.min


def _in_range_by_value(values):
    return all(_TINY <= abs(v) < math.inf or v == 0.0 for v in values)


_SPECIAL = st.sampled_from([
    0.0, -0.0, _TINY, -_TINY, 5e-324, -5e-324, _TINY / 2, -_TINY / 3,
    sys.float_info.max, -sys.float_info.max, 1e308, -1e308,
    math.inf, -math.inf, math.nan, 1.0, -2.5])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(min_value=-1e-300, max_value=1e-300)), max_size=12))
def test_in_float_range_is_the_value_by_value_rule(values):
    # zeros of both signs, subnormals, the least normals, finite values whose
    # sum overflows, infinities and NaN, mixed
    assert in_float_range(values) is _in_range_by_value(values)
    assert in_float_range(iter(values)) is _in_range_by_value(values)
    # an array, as a profile's columns are, is scanned as it stands
    assert in_float_range(array("d", values)) is in_float_range(tuple(values))
