"""Model manifolds: warping profiles, closed-form curvature, hypotheses."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from harnacklab import fdcheck, models, quadrature
from harnacklab.models import (
    ModelError, ModelManifold, curvature_at, hypothesis_report, model_from_id,
    table_profile,
)
from model_reference import preset_id, ricci_gradient_norm, third_derivative
from tables import bump_table, concave_table, cylinder_table, line_table


def sphere_area(n):
    """Area of the unit (n-1)-sphere, 2 pi^{n/2} / Gamma(n/2), in logarithms
    (Gamma(n/2) leaves the float range from n = 344 on)."""
    return 2.0 * math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0))


def volume_ratio(model, t):
    """Vol B(t) / (|B^n_1| t^n) = (n/t) int_0^t (f(s)/t)^{n-1} ds, piece by
    piece: a^{n-1} (((hi - x0)/t)^n - ((lo - x0)/t)^n) in closed form wherever
    f = a (r - x0),
    scipy's quad on the other pieces."""
    n, p = model.n, model.profile
    if not 0 < t <= p.pieces[-1].hi:
        raise ModelError(f"volume requires 0 < t <= {p.pieces[-1].hi!r}, got {t!r}")
    total = 0.0
    for pc in p.pieces:
        if pc.lo >= t:
            break
        hi = min(pc.hi, t)
        if pc.slope is not None:
            total += pc.slope ** (n - 1) * (((hi - pc.x0) / t) ** n - ((pc.lo - pc.x0) / t) ** n)
        else:
            total += n / t * integrate.quad(lambda s: (p.f(s) / t) ** (n - 1), pc.lo, hi,
                                            epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return total


def volume_growth(model, t):
    """Vol B(t) / t^n."""
    return sphere_area(model.n) / model.n * volume_ratio(model, t)


def ball_volume(model, t):
    """Volume of the geodesic ball of radius t about the tip, by the
    piecewise volume ratio."""
    return volume_growth(model, t) * t ** model.n


def test_euclidean_profile_values():
    m = model_from_id("euclidean", 4)
    p = m.profile
    assert p.f(2.0) == 2.0
    assert p.fp(2.0) == 1.0
    assert p.fpp(2.0) == 0.0


def test_cone_profile_values():
    m = model_from_id("cone:0.5", 4)
    assert m.profile.f(1.0) == 0.5
    assert m.profile.fp(1.0) == 0.5


def test_dimension_gate():
    with pytest.raises(ModelError):
        model_from_id("cone:0.5", 2)
    with pytest.raises(ModelError):
        model_from_id("euclidean", 3.5)


@pytest.mark.parametrize("n", [2, 3.5])
def test_model_manifold_refuses_a_dimension_itself(n):
    # hypothesis_report and the FD tests build it directly, past model_from_id
    profile = model_from_id("euclidean", 4).profile
    with pytest.raises(ModelError, match=r"^dimension must be an integer >= 3$"):
        models.ModelManifold(n, profile)


def test_cone_aperture_gate():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ModelError):
            model_from_id(f"cone:{bad!r}", 4)


def test_profile_rejects_nonpositive_radius():
    m = model_from_id("euclidean", 4)
    with pytest.raises(ModelError):
        m.profile.f(0.0)
    with pytest.raises(ModelError):
        curvature_at(m, -1.0)


def test_curvature_euclidean_flat():
    s = curvature_at(model_from_id("euclidean", 4), 2.0)
    assert s.k_rad == 0.0 and s.k_tan == 0.0
    assert s.ric_rad == 0.0 and s.ric_tan == 0.0


def test_curvature_cone_closed_form():
    s = curvature_at(model_from_id("cone:0.5", 4), 1.0)
    assert s.k_rad == 0.0
    assert s.k_tan == pytest.approx(3.0, abs=1e-12)  # (1 - c^2)/(c^2 r^2)


def test_curvature_smoothed_cone_outside_blend():
    s = curvature_at(model_from_id("smoothed-cone:0.5:1", 4), 2.0)
    assert s.k_rad == pytest.approx(0.0, abs=1e-12)
    assert s.k_tan == pytest.approx(0.75, abs=1e-12)


def test_smoothed_cone_is_c2_at_junctions():
    p = model_from_id("smoothed-cone:0.5:1", 4).profile
    # jump across the junction is bounded by (next derivative) * step
    tols = {"f": 1e-6, "fp": 1e-5, "fpp": 1e-3}
    for r in (0.5, 1.0):
        for order, tol in tols.items():
            lo = getattr(p, order)(r - 1e-7)
            hi = getattr(p, order)(r + 1e-7)
            assert abs(hi - lo) < tol, (r, order)
    # exact cone/flat behavior outside the blend
    assert p.f(0.25) == 0.25
    assert p.f(3.0) == pytest.approx(1.5, abs=1e-15)


def test_ricci_identities_exact():
    models = [
        model_from_id("euclidean", 3),
        model_from_id("cone:0.7", 5),
        model_from_id("smoothed-cone:0.5:1", 4),
    ]
    for m in models:
        for r in np.geomspace(0.1, 30, 7):
            s = curvature_at(m, float(r))
            n = m.n
            assert s.ric_rad == (n - 1) * s.k_rad
            assert s.ric_tan == s.k_rad + (n - 2) * s.k_tan


def test_sphere_area_n4():
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_volume_growth_euclidean():
    m = model_from_id("euclidean", 4)
    assert volume_growth(m, 3.0) == pytest.approx(math.pi**2 / 2, rel=1e-10)


def test_volume_growth_cone_scale_invariant():
    m = model_from_id("cone:0.5", 4)
    v1 = volume_growth(m, 1.0)
    v10 = volume_growth(m, 10.0)
    assert v1 == pytest.approx(math.pi**2 / 16, rel=1e-10)
    assert abs(v10 / v1 - 1.0) < 1e-9


def test_ball_volume_positive_and_monotone():
    m = model_from_id("cone:0.5", 4)
    vols = [ball_volume(m, t) for t in (0.5, 1.0, 2.0)]
    assert all(v > 0 for v in vols)
    assert vols[0] < vols[1] < vols[2]


def test_model_from_id_round_trip():
    for mid in ("euclidean", "cone:0.5", "smoothed-cone:0.5:1"):
        m = model_from_id(mid, 4)
        assert m.describe() == mid
    with pytest.raises(ModelError):
        model_from_id("torus", 4)


#: parameters of each preset that ``:g`` writes exactly
PRESET_PARAMS = {"euclidean": (), "cone": (0.25,), "smoothed-cone": (0.75, 2.5)}


@pytest.mark.parametrize("name", sorted(models.PRESETS))
def test_a_preset_s_id_rebuilds_its_pieces(name):
    params = PRESET_PARAMS[name]
    assert len(params) == len(models.PRESETS[name][0])
    m = model_from_id(preset_id(name, *params), 5)
    again = model_from_id(m.describe(), 5)
    assert again.describe() == m.describe()
    assert again.profile.pieces == m.profile.pieces


def test_smoothed_cone_knots_are_its_blend_ends():
    assert model_from_id("smoothed-cone:0.8:3", 4).profile.knots == (1.5, 3.0)
    assert model_from_id("cone:0.8", 4).profile.knots == ()


def test_custom_profile_from_table(tmp_path):
    r = np.linspace(0.05, 50, 400)
    path = tmp_path / "profile.csv"
    path.write_text("r,f\n" + "\n".join(f"{x},{x}" for x in r) + "\n")
    m = model_from_id(f"custom:{path}", 4)
    assert m.profile.f(1.0) == pytest.approx(1.0, abs=1e-9)


def test_custom_table_validation():
    with pytest.raises(ModelError):
        table_profile(([1.0, 2.0], [1.0, 2.0]))  # too short
    with pytest.raises(ModelError):
        table_profile(([1, 2, 2, 3], [1, 2, 2, 3]))  # not increasing


def test_hypothesis_report_euclidean():
    rep = hypothesis_report(model_from_id("euclidean", 4), 0.1, 50.0)
    assert all(rep.flags().values())
    assert rep.parallel_ricci_residual < 1e-5


def test_hypothesis_report_cone_parallel_ricci_fails():
    rep = hypothesis_report(model_from_id("cone:0.5", 4), 0.1, 50.0)
    flags = rep.flags()
    assert flags["nonneg_sectional_along_gradG"]
    assert flags["nonneg_ricci"]
    assert not flags["parallel_ricci"]
    assert rep.parallel_ricci_residual > 0


def test_hypothesis_report_quadratic_profile_negative_ricci():
    r = np.linspace(0.05, 80, 600)
    m = ModelManifold(4, table_profile((r, r**2)))
    rep = hypothesis_report(m, 0.1, 50.0)
    flags = rep.flags()
    assert flags["euclidean_volume_growth"]
    assert not flags["nonneg_ricci"]   # k_rad = -2/r^2 < 0


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(0.2, 1.0),
    n=st.integers(3, 6),
    r=st.floats(0.1, 20.0),
)
def test_cone_curvature_closed_form_property(c, n, r):
    s = curvature_at(model_from_id(f"cone:{c!r}", n), r)
    assert s.k_rad == 0.0
    assert s.k_tan == pytest.approx((1 - c * c) / (c * c * r * r), rel=1e-12)


# -- third derivative and closed-form |grad Ric| --------------------------------


def test_third_derivative_of_profiles():
    assert third_derivative(model_from_id("euclidean", 4).profile)(2.0) == 0.0
    assert third_derivative(model_from_id("cone:0.5", 4).profile)(2.0) == 0.0
    p = model_from_id("smoothed-cone:0.5:1", 4).profile
    fppp = third_derivative(p)
    h = 1e-5
    for r in (0.55, 0.7, 0.85, 0.95):
        fd = (p.fpp(r + h) - p.fpp(r - h)) / (2 * h)
        assert fppp(r) == pytest.approx(fd, rel=1e-6)
    assert fppp(0.3) == 0.0 and fppp(1.5) == 0.0
    # not-a-knot splines reproduce cubics: f''' = 6 on the table, 0 below it
    r = np.linspace(0.5, 5.0, 40)
    q = third_derivative(table_profile((r, r**3)))
    assert q(2.0) == pytest.approx(6.0, rel=1e-8)
    assert q(0.2) == 0.0


@pytest.mark.parametrize("n", [3, 4, 10, 40])
def test_ricci_gradient_norm_closed_forms(n):
    for r in (0.01, 1.0, 70.0):
        assert ricci_gradient_norm(model_from_id("euclidean", n), r) == 0.0
    # cone: ric_rad = 0, ric_tan = (n-2)(1-c^2)/(c r)^2, so
    # |grad Ric| = sqrt(6(n-1)) (n-2)(1-c^2) / (c^2 r^3)
    for c in (0.3, 0.7):
        for r in (0.5, 2.0):
            expect = math.sqrt(6 * (n - 1)) * (n - 2) * (1 - c * c) / (c * c * r**3)
            got = ricci_gradient_norm(model_from_id(f"cone:{c!r}", n), r)
            assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("model_id", ["euclidean", "cone:0.5", "smoothed-cone:0.8:1",
                                      "smoothed-cone:0.5:1"])
def test_parallel_ricci_flag_does_not_depend_on_n(model_id):
    for n in (3, 9, 10, 12, 40):
        rep = hypothesis_report(model_from_id(model_id, n), 1e-2, 1e2)
        assert rep.parallel_ricci == (model_id == "euclidean"), n


def _flatness(F):
    d = F.deriv()
    return d * (1.0 - d ** 2)


_FLATNESS_CASES = [
    *((model_id, model_id, window) for model_id in (
        "euclidean", "cone:0.3", "cone:0.7", "smoothed-cone:0.5:1", "smoothed-cone:0.8:2",
        "smoothed-cone:0.75:0.5", "smoothed-cone:0.9:1.5")
      for window in ((1e-2, 1e2), (0.3, 0.9), (0.7, 5.0))),
    *((name, table, window) for name, table in (
        ("concave", concave_table), ("bump", bump_table), ("line", line_table))
      for window in ((1e-2, 1e2), (0.6, 0.9), (40.0, 400.0))),
]


@pytest.mark.parametrize("name,model,window", _FLATNESS_CASES,
                         ids=[f"{c[0]}-{c[2][0]:g}-{c[2][1]:g}" for c in _FLATNESS_CASES])
def test_flatness_residual_takes_both_extrema_from_one_root_find(name, model, window):
    # the residual max |f'(1 - f'^2)| once took max(|min q|, |min -q|), two
    # root-finds of the same polynomial: one now serves both, with == values
    n = 5
    m = (model_from_id(model, n) if isinstance(model, str)
         else ModelManifold(n, table_profile(model())))
    p, (lo, hi) = m.profile, window
    least, most = p.ratio_range(lo, hi, _flatness)
    negated = p.ratio_range(lo, hi, lambda F: -_flatness(F))[0]  # roots of -q' found anew
    assert -most == negated
    two_calls = max(abs(least), abs(negated))
    assert hypothesis_report(m, lo, hi).parallel_ricci_residual == two_calls


def test_parallel_ricci_closed_form_sees_beyond_the_fd_probes():
    # the FD probes sit at r in [2, 20], where this profile is still flat;
    # the blend [25, 50) and the cone beyond it are seen only by the exact
    # route on the pieces
    model = model_from_id("smoothed-cone:0.5:50", 4)
    chart = fdcheck.warped_chart(models.ModelManifold(3, model.profile))
    fd = [fdcheck.check_parallel_ricci(chart, fdcheck.warped_probe_point(3, r))
          for r in np.geomspace(2.0, 20.0, models.FD_PROBES)]
    assert max(fd) <= 1e-5
    rep = hypothesis_report(model, 1e-2, 1e2)
    assert rep.parallel_ricci_residual > 1e-3
    assert not rep.parallel_ricci
    # the oracle could not have turned the closed form's False, so it never ran
    assert rep.parallel_ricci_fd_residual is None


@pytest.mark.parametrize("model_id,runs", [
    ("euclidean", 3), ("cone:0.5", 0), ("cone:0.9", 0),
    ("smoothed-cone:0.8:1", 0), ("smoothed-cone:0.5:50", 0),
])
def test_fd_oracle_runs_only_where_the_closed_form_passes(model_id, runs, monkeypatch):
    seen = []
    real = fdcheck.check_parallel_ricci
    monkeypatch.setattr(fdcheck, "check_parallel_ricci",
                        lambda chart, x: seen.append(x) or real(chart, x))
    rep = hypothesis_report(model_from_id(model_id, 4), 1e-2, 1e2)
    assert len(seen) == runs
    assert rep.parallel_ricci == (runs > 0)
    assert (rep.parallel_ricci_fd_residual is None) == (runs == 0)


@pytest.mark.parametrize("window,radii,residual", [
    ((100.0, 1000.0), [100.0], 4.434009857678412e-08),
    ((37.3, 1000.0), [37.3], 4.96042412015806e-08),
    ((1e-2, 1e2), [2.0, 6.32455532033676, 20.0], 8.782036756789091e-07),
])
def test_fd_oracle_probes_each_radius_once(window, radii, residual, monkeypatch):
    # a window that starts past 20 pins both ends of the probe range to
    # r_min: one probe there, with the residual the three equal probes gave
    seen = []
    real = fdcheck.check_parallel_ricci
    monkeypatch.setattr(fdcheck, "check_parallel_ricci",
                        lambda chart, x: seen.append(x[0]) or real(chart, x))
    rep = hypothesis_report(model_from_id("euclidean", 4), *window)
    assert seen == radii
    assert rep.parallel_ricci_fd_residual == residual


@pytest.mark.parametrize("probes", [[1e-12, math.nan, 1e-12], [math.nan, 1e-12, 1e-12],
                                    [1e-12, 1e-12, math.nan]])
def test_nan_fd_probe_fails_parallel_ricci(probes, monkeypatch):
    # Python's max drops a NaN that is not first: the flag needs every probe
    # finite and within the gate, and a NaN probe is reported as the residual
    values = iter(probes)
    monkeypatch.setattr(fdcheck, "check_parallel_ricci", lambda chart, x: next(values))
    rep = hypothesis_report(model_from_id("euclidean", 4), 1e-2, 1e2)
    assert not rep.parallel_ricci
    assert math.isnan(rep.parallel_ricci_fd_residual)


@pytest.mark.parametrize("n", [3, 10, 40])
def test_parallel_ricci_fd_probe_runs_on_3_dim_chart(n, monkeypatch):
    seen = []
    real = fdcheck.check_parallel_ricci

    def spy(chart, x, h=fdcheck.DEFAULT_H):
        seen.append((chart.dim, len(x)))
        return real(chart, x, h)

    monkeypatch.setattr(fdcheck, "check_parallel_ricci", spy)
    rep = hypothesis_report(model_from_id("euclidean", n), 1e-2, 1e2)
    assert seen == [(3, 3)] * 3
    assert rep.parallel_ricci
    assert rep.parallel_ricci_residual == 0.0
    assert 0.0 < rep.parallel_ricci_fd_residual <= 1e-5


# -- parallel Ricci decided on sampled tables ------------------------------------


@pytest.mark.parametrize("size", [50, 400, 4000, 6000])
def test_flat_table_has_parallel_ricci_at_every_size(size):
    rep = hypothesis_report(ModelManifold(4, table_profile(line_table(size))), 1e-2, 1e2)
    assert rep.parallel_ricci
    assert rep.parallel_ricci_residual <= 1e-14
    assert rep.euclidean_volume_growth and rep.tail_slope == pytest.approx(1.0, rel=1e-15)


def test_cone_table_has_the_flags_of_the_cone():
    table = hypothesis_report(ModelManifold(4, table_profile(line_table(400, 0.5))), 1e-2, 1e2)
    cone = hypothesis_report(model_from_id("cone:0.5", 4), 1e-2, 1e2)
    assert table.flags() == cone.flags()
    assert not table.parallel_ricci
    # |f'(1 - f'^2)| = 0.5 * 0.75 on the whole range
    assert table.parallel_ricci_residual == pytest.approx(0.375, rel=1e-12)
    assert cone.parallel_ricci_residual == 0.375


def test_bump_table_fails_parallel_ricci_on_the_bump():
    rep = hypothesis_report(ModelManifold(4, table_profile(bump_table())), 1e-2, 1e2)
    assert not rep.parallel_ricci and rep.parallel_ricci_fd_residual is None
    # f' = 1.3 at the bump's middle, r = 41: |1.3 (1 - 1.69)| = 0.897
    assert rep.parallel_ricci_residual == pytest.approx(0.897, rel=1e-6)
    assert rep.sectional_margin == pytest.approx(-1.94e-3, rel=1e-2)
    assert not rep.nonneg_sectional_along_gradG and not rep.nonneg_ricci


def test_cylinder_table_has_parallel_ricci():
    model = ModelManifold(4, table_profile(cylinder_table()))
    rep = hypothesis_report(model, 1e-2, 1e2)
    assert rep.parallel_ricci and rep.parallel_ricci_residual == 0.0
    assert all(ricci_gradient_norm(model, r) == 0.0 for r in (1e-2, 1.0, 1e2))
    assert not rep.nonparabolic  # f = 1 has no Green function


def test_concave_table_fails_parallel_ricci():
    rep = hypothesis_report(ModelManifold(6, table_profile(concave_table())), 1e-2, 1e2)
    assert not rep.parallel_ricci and rep.parallel_ricci_residual > 0.1


# -- ball volume against a full-range quadrature reference ----------------------

VOLUME_MODELS = (
    [("euclidean", None, None), ("cone", 0.3, None), ("cone", 0.7, None)]
    + [("smoothed_cone", c, r0) for c in (0.2, 0.5, 0.85) for r0 in (0.5, 1.0, 2.0)]
)


def _volume_reference(model, t):
    """Vol B(t) by plain quadrature of f^{n-1} over [0, t].

    It is only told where the smoothed-cone blend starts and ends, and uses
    no closed form, so it is independent of the piecewise ball_volume.
    """
    p, n = model.profile, model.n
    cuts = [0.0, *(x for x in p.knots if x < t)]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:] + [t]):
        total += integrate.quad(lambda s: p.f(s) ** (n - 1), lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return sphere_area(n) * total


@pytest.mark.parametrize("kind,c,r0", VOLUME_MODELS)
@pytest.mark.parametrize("n", [3, 5, 10])
def test_ball_volume_matches_full_range_quadrature(kind, c, r0, n):
    model = model_from_id(preset_id(kind, c, r0), n)
    for t in (0.1, 0.3, 0.75, 1.5, 10.0, 90.0):
        assert ball_volume(model, t) == pytest.approx(_volume_reference(model, t),
                                                      rel=1e-10, abs=0.0)


def test_ball_volume_custom_table():
    # the tip below the table in closed form, quadrature on the spline
    r = np.geomspace(0.5, 50.0, 200)
    model = ModelManifold(4, table_profile((r, 0.6 * r)))
    for t in (0.3, 0.5, 2.0, 40.0):
        assert ball_volume(model, t) == pytest.approx(
            sphere_area(4) * 0.6**3 * t**4 / 4, rel=1e-10)
    with pytest.raises(ModelError):
        ball_volume(model, 60.0)  # beyond the table


def test_hypothesis_report_makes_no_quadrature(monkeypatch):
    calls = []
    real = quadrature.gauss_legendre
    monkeypatch.setattr(quadrature, "gauss_legendre",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    for model_id in ("euclidean", "cone:0.4", "smoothed-cone:0.8:1", "smoothed-cone:0.5:50"):
        hypothesis_report(model_from_id(model_id, 6), 1e-2, 1e2)
    hypothesis_report(ModelManifold(6, table_profile(concave_table())), 1e-2, 1e2)
    assert calls == []


@pytest.mark.parametrize("kind,c,r0", VOLUME_MODELS)
@pytest.mark.parametrize("n", [3, 5, 10])
def test_tail_slope_is_the_limit_of_the_volume_ratio(kind, c, r0, n):
    # Vol B(t) / (|B^n_1| t^n) -> a^{n-1}: the flag's hypothesis holds iff a > 0
    model = model_from_id(preset_id(kind, c, r0), n)
    a = model.profile.tail_slope
    t = 1e4 * (r0 or 1.0)
    ratio = _volume_reference(model, t) / (sphere_area(n) / n * t**n)
    assert a ** (n - 1) == pytest.approx(ratio, rel=1e-8)
    assert a == (c or 1.0)
    assert hypothesis_report(model, 1e-2, 1e2).tail_slope == a


# -- float evaluation against the pieces' Horner rows in numpy ------------------


def array_eval(profile, order, r):
    """Derivative `order` of f at the radii r, each piece's Horner rows run
    by numpy's polyval: the array path the profile kept before it became
    float-only, now the reference for the float path."""
    r = np.asarray(r, dtype=float)
    los = np.array([pc.lo for pc in profile.pieces])
    idx = los.searchsorted(r, side="right") - 1
    out = np.empty_like(r)
    for i, pc in enumerate(profile.pieces):
        inside = idx == i
        coef = models.Poly(pc.coef).deriv(order).coef
        out[inside] = np.polynomial.polynomial.polyval(r[inside] - pc.x0, coef)
    return out


EVAL_MODELS = ("euclidean", "cone:0.3", "cone:0.7", "smoothed-cone:0.5:1",
               "smoothed-cone:0.8:2", "smoothed-cone:0.2:0.5")


def _eval_grid(profile):
    r = list(np.geomspace(1e-3, 1e3, 61))
    if profile.knots:  # a smoothed cone's blend
        a, b = profile.knots
        r += list(np.linspace(a, b, 41))  # both ends exactly
        for edge in (a, b):  # just inside and just outside the blend
            r += [np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                  edge * (1 - 1e-9), edge * (1 + 1e-9)]
    return np.array(r)


@pytest.mark.parametrize("model_id", EVAL_MODELS)
def test_float_and_array_evaluation_agree(model_id):
    p = model_from_id(model_id, 4).profile
    r = _eval_grid(p)
    assert set(p.knots) <= set(r.tolist())
    for order, fun in enumerate((p.f, p.fp, p.fpp, third_derivative(p))):
        arr = array_eval(p, order, r)
        for x, want in zip(r, arr):
            for arg in (float(x), np.float64(x)):
                got = fun(arg)
                assert type(got) is float
                assert abs(got - want) <= 1e-15 * abs(want), (fun.__name__, x)


def test_custom_profile_float_evaluation():
    r = np.linspace(0.5, 5.0, 40)
    p = table_profile((r, r + 0.1 * np.sin(r)))
    x = np.array([0.1, 0.5, 1.234, 4.9, 5.0])
    for order, fun in enumerate((p.f, p.fp, p.fpp, third_derivative(p))):
        arr = array_eval(p, order, x)
        got = [fun(float(v)) for v in x]
        assert all(type(g) is float for g in got)
        assert np.array_equal(got, arr)


@pytest.mark.parametrize("model_id", EVAL_MODELS + ("custom",))
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_float_and_array_evaluation_reject_the_same_inputs(model_id, bad):
    if model_id == "custom":
        r = np.linspace(0.5, 5.0, 10)
        p = table_profile((r, r))
    else:
        p = model_from_id(model_id, 4).profile
    for arg in (bad, np.float64(bad), np.array(bad)):
        for fun in (p.f, p.fp, p.fpp, third_derivative(p)):
            with pytest.raises(ModelError, match="only defined for r > 0"):
                fun(arg)


def _blend_reference(profile, r):
    """(f, f', f'', f''') of f = r (1 + (c-1) w(t)), t = (r - r0/2) / (r0/2),
    w the quintic smoothstep, in closed form; right-continuous at both
    blend ends, as the pieces are."""
    c, h = profile.tail_slope, profile.knots[0]
    t = (r - h) / h
    inside = (t >= 0.0) & (t < 1.0)
    w0 = np.where(inside, t**3 * (10.0 - 15.0 * t + 6.0 * t**2), (t >= 1.0) * 1.0)
    w1 = np.where(inside, 30.0 * t**2 * (1.0 - t) ** 2, 0.0) / h
    w2 = np.where(inside, 60.0 * t * (1.0 - 3.0 * t + 2.0 * t**2), 0.0) / h**2
    w3 = np.where(inside, 60.0 * (1.0 - 6.0 * t + 6.0 * t**2), 0.0) / h**3
    return (r * (1.0 + (c - 1.0) * w0),
            1.0 + (c - 1.0) * (w0 + r * w1),
            (c - 1.0) * (2.0 * w1 + r * w2),
            (c - 1.0) * (3.0 * w2 + r * w3))


@pytest.mark.parametrize("model_id", [m for m in EVAL_MODELS if m.startswith("smoothed")])
def test_smoothed_cone_pieces_match_the_closed_blend(model_id):
    p = model_from_id(model_id, 4).profile
    r = _eval_grid(p)
    funs = [np.vectorize(fun, otypes=[float])
            for fun in (p.f, p.fp, p.fpp, third_derivative(p))]
    for order, (fun, want) in enumerate(zip(funs, _blend_reference(p, r))):
        got = fun(r)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), order
    # outside the blend the pieces are f = r and f = c r, exactly
    (a, b), c = p.knots, p.tail_slope
    below, above = r[r < a], r[r >= b]
    assert np.array_equal(funs[0](below), below) and np.array_equal(funs[0](above), c * above)
    assert np.all(funs[1](below) == 1.0) and np.all(funs[1](above) == c)
    for fun in funs[2:]:
        assert np.all(fun(below) == 0.0) and np.all(fun(above) == 0.0)


def _dense_margins(model, r_min, r_max):
    """(min k_rad, min Ricci) over dense samples of [r_min, r_max] and the
    knots inside it: the sampled second route to the exact minima."""
    p, n = model.profile, model.n
    knots = np.asarray(p.knots)
    knots = knots[(knots >= r_min) & (knots <= r_max)]
    r = np.concatenate([np.geomspace(r_min, r_max, 200001), knots])
    f, fp, fpp = (array_eval(p, order, r) for order in range(3))
    k_rad = -fpp / f
    ric_tan = k_rad + (n - 2) * (1.0 - fp * fp) / (f * f)
    return k_rad.min(), min((n - 1) * k_rad.min(), ric_tan.min())


def _margin_model(name):
    if name == "concave":  # the spline rings a little below f'' = 0
        return ModelManifold(6, table_profile(concave_table()))
    if name == "quadratic":  # f = r^2: k_rad = -2/r^2
        r = np.linspace(0.005, 80.0, 600)
        return ModelManifold(4, table_profile((r, r**2)))
    return model_from_id(name, 4)


@pytest.mark.parametrize("name,k_rad_min", [
    # 16 probe radii missed these blend minima, and flagged all three as holding
    ("smoothed-cone:0.5:1", -19.0266),
    ("smoothed-cone:0.8:1", -4.89674),
    ("smoothed-cone:0.9:2", -0.547304),
    ("concave", -0.00647045),
    ("quadratic", -2e4),
])
def test_curvature_margins_are_exact_minima(name, k_rad_min):
    model = _margin_model(name)
    rep = hypothesis_report(model, 1e-2, 50.0)
    k_dense, ric_dense = _dense_margins(model, 1e-2, 50.0)
    assert rep.sectional_margin == pytest.approx(k_rad_min, rel=1e-5)
    for exact, dense in ((rep.sectional_margin, k_dense), (rep.ricci_margin, ric_dense)):
        assert exact <= dense + 1e-12 * abs(dense)
        assert exact == pytest.approx(dense, rel=1e-6)
    assert not rep.nonneg_sectional_along_gradG and not rep.nonneg_ricci


@pytest.mark.parametrize("model_id", ["euclidean", "cone:0.3", "cone:0.9"])
def test_linear_models_have_zero_sectional_margin(model_id):
    model = model_from_id(model_id, 5)
    rep = hypothesis_report(model, 1e-2, 1e2)
    assert rep.sectional_margin == 0.0
    assert rep.ricci_margin == pytest.approx(_dense_margins(model, 1e-2, 1e2)[1], abs=1e-15)
    assert rep.nonneg_sectional_along_gradG and rep.nonneg_ricci


# -- real roots of a polynomial in an interval ----------------------------------


def _seeded_polys(seed):
    """(ascending coefficients, u, v, [(root, multiplicity)] in [u, v]) of
    products of seeded linear and quadratic factors of degree <= 9: simple
    roots, double roots, complex pairs, and roots at the interval's ends.
    Every root, end and coefficient is a multiple of a power of 2 small
    enough for the products to be exact in floats, so the roots are known."""
    rng = np.random.default_rng(seed)
    P = np.polynomial.Polynomial
    for _ in range(40):
        lo, hi = sorted(rng.choice(np.arange(-12, 13), 2, replace=False).tolist())
        poly = P([rng.choice([-1.0, 1.0]) * rng.integers(1, 5) / 2.0])
        roots = Counter()
        while poly.degree() < 9:
            kind = rng.integers(4)
            if kind == 2 and poly.degree() <= 7:  # a complex pair
                re, im = rng.integers(-12, 13) / 4.0, rng.integers(1, 9) / 4.0
                poly *= P([re * re + im * im, -2.0 * re, 1.0])
                continue
            if kind == 3:  # at an end, or outside
                x = rng.choice([lo, hi, lo - rng.integers(1, 4), hi + rng.integers(1, 4)]) / 4.0
            else:
                x = rng.integers(lo, hi + 1) / 4.0
            m = 2 if kind == 1 and poly.degree() <= 7 else 1
            poly *= P([-x, 1.0]) ** m
            if lo <= 4.0 * x <= hi:
                roots[float(x)] += m
        yield poly.coef.tolist(), lo / 4.0, hi / 4.0, sorted(roots.items())


def _root_tolerance(coef, u, v, root, m):
    """How far rounding may move a root of multiplicity m: the polynomial's
    values carry Horner's error bound on [u, v], and near the root it grows
    as |p^(m)(root)/m!| |x - root|^m."""
    reach = max(abs(u), abs(v))
    noise = 4.0 * len(coef) * 2.0**-52 * sum(abs(a) * reach**k for k, a in enumerate(coef))
    lead = abs(np.polynomial.polynomial.polyval(
        root, np.polynomial.polynomial.polyder(coef, m))) / math.factorial(m)
    return 2.0 * (noise / lead) ** (1.0 / m) + 1e-15 * reach


@pytest.mark.parametrize("seed", range(5))
def test_real_roots_match_polyroots(seed):
    for coef, u, v, roots in _seeded_polys(seed):
        got = models.Poly(coef).real_roots(u, v)
        assert got == sorted(got) and all(u <= x <= v for x in got)
        assert len(got) <= sum(m for _, m in roots)
        tol = [_root_tolerance(coef, u, v, x, m) for x, m in roots]
        # every root found is one the polynomial was made of, to rounding
        for x in got:
            assert any(abs(x - want) <= t for (want, _), t in zip(roots, tol)), (coef, u, v, x)
        # numpy's companion-matrix roots, the real ones among them, in [u, v],
        # are found too: the rounded coefficients may turn a double root into
        # two real roots, or into a complex pair with no real root to find
        for z in np.polynomial.polynomial.polyroots(coef):
            if z.imag == 0.0 and u <= z.real <= v:
                i = min(range(len(roots)), key=lambda i: abs(roots[i][0] - z.real))
                assert min(abs(x - roots[i][0]) for x in got) <= tol[i], (coef, u, v, z)


def test_real_roots_of_constants_and_lines():
    assert models.Poly((0.0,)).real_roots(-1.0, 1.0) == []
    assert models.Poly((2.0, 0.0, 0.0)).real_roots(-1.0, 1.0) == []
    assert models.Poly((-0.5, 1.0)).real_roots(0.0, 1.0) == [0.5]
    assert models.Poly((-0.5, 1.0)).real_roots(0.6, 1.0) == []
    assert models.Poly((0.0, 1.0)).real_roots(0.0, 1.0) == pytest.approx([0.0], abs=1e-14)


def _count_halves(monkeypatch):
    from harnacklab import poly

    count, halves = [0], poly._halves

    def counted(bern):
        count[0] += 1
        return halves(bern)

    monkeypatch.setattr(poly, "_halves", counted)
    return count


@pytest.mark.parametrize("coef,u,v,want", [
    ((-0.5, 1.0, -0.5, 1.0), 0.5, 2.0, [0.5]),  # (t - 1/2)(t^2 + 1), a root at u
    ((-0.5, 1.0, -0.5, 1.0), -1.0, 0.5, [0.5]),  # the same, a root at v
    ((0.0, 1.0, -1.0), 0.0, 1.0, [0.0, 1.0]),  # t (1 - t), a root at each end
    # (t - 1/4)(t - 1/2)(t + 1): roots on the first and second split points
    ((0.125, -0.625, 0.25, 1.0), 0.0, 1.0, [0.25, 0.5]),
])
def test_real_roots_stop_at_a_root_on_a_parts_end(coef, u, v, want, monkeypatch):
    # a simple root on an end of a part whose other coefficients are of one
    # sign is that end exactly, reported once, without halving toward it
    count = _count_halves(monkeypatch)
    assert models.Poly(coef).real_roots(u, v) == want
    assert count[0] <= 8


@pytest.mark.parametrize("c", (0.75, 0.8, 0.85, 0.9))
def test_smoothed_cone_report_halves_a_few_times(c, monkeypatch):
    # f'' is 0 at both blend knots, so the flatness residual's derivative
    # has a root on each end of the blend piece; the report stops there
    count = _count_halves(monkeypatch)
    for r0 in (0.5, 1.0, 1.5, 2.0):
        for n in (3, 4, 5, 6, 8, 9):
            count[0] = 0
            hypothesis_report(model_from_id(f"smoothed-cone:{c}:{r0}", n), 1e-2, 1e2)
            assert count[0] <= 8, (r0, n, count[0])


# -- f' minimum: the monotonicity precondition of the Clairaut sweeps -----------


def test_smoothstep_blend_is_numpy_composition():
    # numpy's Polynomial composition is the reference: the blend, composed
    # on Poly in the same Horner order, has its coefficients bit for bit
    P = np.polynomial.Polynomial
    rng = np.random.default_rng(15)
    for c, r0 in zip(rng.uniform(0.05, 1.0, 300).tolist(), rng.uniform(0.3, 4.0, 300).tolist()):
        h = 0.5 * r0
        w = P([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])(P([0.0, 1.0 / h]))
        expect = tuple((P([h, 1.0]) * (1.0 + (c - 1.0) * w)).coef.tolist())
        assert models._smoothstep_blend(c, r0) == expect


def test_fp_min_closed_forms():
    assert model_from_id("euclidean", 4).profile.fp_min(1e-4, 50.0) == 1.0
    assert model_from_id("cone:0.3", 4).profile.fp_min(1e-4, 50.0) == 0.3
    # on the blend f'(t) = 1 + (c-1) P(t), P = 30t^2 - 20t^3 - 45t^4 + 36t^5,
    # whose maximum on [0, 1] is P(1/sqrt 3) = 5 - 8/(3 sqrt 3)
    p_max = 5.0 - 8.0 / (3.0 * math.sqrt(3.0))
    for c in (0.2, 0.5, 0.75, 0.9):
        for r0 in (0.5, 1.0, 2.0):
            p = model_from_id(f"smoothed-cone:{c!r}:{r0!r}", 4).profile
            want = 1.0 + (c - 1.0) * p_max
            assert p.fp_min(1e-4, 3.0 * r0) == pytest.approx(want, abs=1e-13)
            # below the critical point f' falls monotonically from 1
            t = 0.5
            r_hi = 0.5 * r0 * (1.0 + t)
            assert p.fp_min(1e-4, r_hi) == pytest.approx(p.fp(r_hi), abs=1e-13)
            assert p.fp_min(1e-4, 0.4 * r0) == 1.0


def test_interior_minimum_reads_the_same_on_every_window_holding_it():
    # the critical points of a finite piece are isolated on the whole piece,
    # not on the window's part of it, so where the window's upper end falls
    # cannot move them by an ulp; the blend is [0.5, 1), its minima near 0.9
    p = model_from_id("smoothed-cone:0.5:1", 4).profile
    his = (0.9376, 0.999, 0.8474, 1.0, 1.2, 2.47)
    assert len({p.fp_min(1e-4, hi) for hi in his}) == 1
    assert p.fp_min(1e-4, 2.47) == pytest.approx(
        1.0 - 0.5 * (5.0 - 8.0 / (3.0 * math.sqrt(3.0))), abs=1e-13)
    sectional = {hi: p.ratio_range(1e-4, hi, lambda F: -F.deriv(2), 1)[0] for hi in his}
    assert len({sectional[hi] for hi in his if hi != 0.8474}) == 1


@pytest.mark.parametrize("model_id,values", [
    ("smoothed-cone:0.8:1", (1.0, 0.3079201435678002, 0.3079201435678002,
                             0.3079201435678002, 0.3079201435678002)),
    ("smoothed-cone:0.75:2", (1.0, 1.0, 0.13490017945975052, 0.13490017945975052,
                              0.13490017945975052)),
    ("smoothed-cone:0.9:0.5", (0.9020480000000001, 0.6539600717839, 0.6539600717839,
                               0.9, 0.6539600717839)),
])
def test_fp_min_reads_the_same_on_every_call(model_id, values):
    # a finite piece's roots are isolated afresh on every call, on the
    # whole piece, so each window's minimum reads the same bits each time
    p = model_from_id(model_id, 4).profile
    windows = ((1e-4, 0.3), (1e-4, 0.9), (1e-4, 1.7), (0.6, 3.0), (1e-4, 50.0))
    for _ in range(3):
        assert tuple(p.fp_min(lo, hi) for lo, hi in windows) == values


def test_fp_min_custom_spline_against_dense_samples():
    r = np.linspace(1.0, 5.0, 9)
    fvals = np.array([1.0, 1.6, 1.9, 1.7, 1.8, 2.6, 3.0, 3.1, 4.0])
    p = table_profile((r, fvals))
    dense = array_eval(p, 1, np.linspace(1.0, 5.0, 200001))
    assert p.fp_min(1e-4, 5.0) == pytest.approx(dense.min(), abs=1e-8)
    assert p.fp_min(1e-4, 5.0) <= dense.min()
    assert p.fp_min(1e-4, 0.5) == pytest.approx(1.0)  # the linear tip


# -- volume growth on a scale that does not depend on n -------------------------


@pytest.mark.parametrize("model_id,slope", [("euclidean", 1.0), ("cone:0.5", 0.5),
                                            ("smoothed-cone:0.8:1", 0.8),
                                            ("smoothed-cone:0.5:1", 0.5)])
def test_volume_growth_flag_does_not_depend_on_n(model_id, slope):
    flags = []
    for n in (3, 10, 40, 45):
        rep = hypothesis_report(model_from_id(model_id, n), 1e-2, 1e2)
        flags.append(rep.euclidean_volume_growth)
        assert rep.tail_slope == slope
    assert flags == [True] * 4


@pytest.mark.parametrize("n", [3, 4, 45, 400])
def test_volume_growth_slope_is_the_linear_slope(n):
    # Vol B(t) / t^n = |B^n_1| c^{n-1} on a cone, which underflows as n grows
    for model_id, slope in (("euclidean", 1.0), ("cone:0.3", 0.3)):
        model = model_from_id(model_id, n)
        rep = hypothesis_report(model, 1e-2, 1e2)
        assert rep.tail_slope == slope
        assert rep.euclidean_volume_growth
        unit_ball = sphere_area(n) / n
        for t in (1e-2, 1.0, 1e2):
            assert volume_growth(model, t) == pytest.approx(
                unit_ball * rep.tail_slope ** (n - 1), rel=1e-12)
