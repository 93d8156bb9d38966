"""Slice geodesics: shooting, distances and arclength inversion vs unrolling and
shooting, interpolation bound."""

import json
import math
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from harnacklab import cli, geodesics, models, quadrature
from harnacklab.models import model_from_id, table_profile
from harnacklab.green import compute_profile, default_grid
from harnacklab.geodesics import GeodesicError, SlicePoint, corollary_check, shoot_geodesic
from model_reference import offset_end_profiles
from tables import line_table

#: the commands' default window
GRID = default_grid(1e-2, 1e2, 512)


def distance(model, y, z):
    """Length of the minimizing slice geodesic between y and z, as the
    corollary finds it."""
    return geodesics._solve_minimizer(model, y, z).length


def evenly(length, num=200):
    """The num - 1 arclengths past 0 of num evenly spaced ones up to length."""
    return np.linspace(0.0, length, num)[1:]


@pytest.fixture(scope="module")
def eucl4():
    return model_from_id("euclidean", 4)


@pytest.fixture(scope="module")
def cone4():
    return model_from_id("cone:0.5", 4)


def test_slice_point_validation():
    with pytest.raises(GeodesicError):
        SlicePoint(r=-1.0, phi=0.0)


def test_slice_point_at_the_tip_is_refused():
    with pytest.raises(GeodesicError, match=r"^slice points need r > 0$"):
        SlicePoint(r=0.0, phi=0.0)


def test_radial_shot_is_straight(eucl4):
    path = shoot_geodesic(eucl4, SlicePoint(1.0, 0.0), 0.0, evenly(3.0))
    assert path.r[-1] == pytest.approx(4.0, abs=1e-9)
    assert path.phi[-1] == pytest.approx(0.0, abs=1e-12)
    assert path.unit_speed_defect < 1e-9


def test_tangential_shot_flat_endpoint(eucl4):
    # quarter-turn construction: leave (1, 0) orthogonally and travel 1;
    # planar geometry puts the endpoint at (sqrt(2), pi/4)
    path = shoot_geodesic(eucl4, SlicePoint(1.0, 0.0), math.pi / 2, evenly(1.0))
    assert path.r[-1] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert path.phi[-1] == pytest.approx(math.pi / 4, abs=1e-9)


def test_cone_tangential_shot_unrolls(cone4):
    # unroll the cone slice dr^2 + c^2 r^2 dphi^2 to a wedge: a tangential
    # shot of length sqrt(2)... endpoint radius sqrt(1 + 2) is planar
    L = math.sqrt(2.0)
    path = shoot_geodesic(cone4, SlicePoint(1.0, 0.0), math.pi / 2, evenly(L))
    r_plane = math.sqrt(1.0 + L * L)
    assert path.r[-1] == pytest.approx(r_plane, abs=1e-9)
    # planar polar angle, scaled back by 1/c
    psi = math.atan2(L, 1.0)
    assert path.phi[-1] == pytest.approx(psi / 0.5, abs=1e-9)


def _dop853_shot(model, start, angle, length, s):
    """(r, phi) at the arclengths s by scipy's DOP853, the reference."""
    prof = model.profile

    def rhs(_, y):
        r, _, rp, php = y
        f, fp = prof.f(r), prof.fp(r)
        return [rp, php, f * fp * php * php, -2.0 * fp / f * rp * php]

    y0 = [start.r, start.phi, math.cos(angle), math.sin(angle) / prof.f(start.r)]
    sol = integrate.solve_ivp(rhs, (0.0, length), y0, method="DOP853", rtol=1e-13,
                              atol=1e-13, dense_output=True)
    return sol.sol(s)[:2]


@pytest.mark.parametrize("model_id", ["smoothed-cone:0.8:1", "smoothed-cone:0.75:2",
                                      "cone:0.4"])
def test_shot_matches_dop853(model_id):
    # the knots of a smoothed cone are stepped onto, not across
    model = model_from_id(model_id, 4)
    rng = np.random.default_rng(5)
    for _ in range(6):
        start = SlicePoint(rng.uniform(0.4, 3.0), rng.uniform(-1.0, 1.0))
        angle, length = rng.uniform(0.0, math.pi), rng.uniform(0.3, 3.0)
        path = shoot_geodesic(model, start, angle, evenly(length, 7))
        if path.truncated:
            continue
        r, phi = _dop853_shot(model, start, angle, length, path.s)
        assert np.max(np.abs(path.r - r)) <= 1e-9
        assert np.max(np.abs(path.phi - phi)) <= 1e-9
        assert path.unit_speed_defect < 1e-9


def test_shot_truncates_at_r_floor(eucl4):
    # straight in from r = 1: r = 1 - s reaches the floor 0.1 at s = 0.9, so
    # of the samples 2/9, 4/9, ... the path holds those up to 8/9
    at = evenly(2.0, 10)
    path = shoot_geodesic(eucl4, SlicePoint(1.0, 0.3), math.pi, at, r_floor=0.1)
    assert path.truncated
    assert path.s == (0.0, *at[:4])
    assert np.allclose(path.r, 1.0 - np.asarray(path.s), rtol=0.0, atol=1e-12)
    assert np.allclose(path.phi, 0.3, rtol=0.0, atol=1e-12)


def test_distance_examples(eucl4, cone4):
    d1 = distance(eucl4, SlicePoint(1.0, 0.0), SlicePoint(1.0, math.pi / 2))
    assert d1 == pytest.approx(math.sqrt(2.0), rel=1e-10)
    d2 = distance(cone4, SlicePoint(1.0, 0.0), SlicePoint(1.0, math.pi))
    assert d2 == pytest.approx(math.sqrt(2.0), rel=1e-10)  # 2 sin(c pi/2)
    d3 = distance(eucl4, SlicePoint(2.0, 0.0), SlicePoint(3.0, 0.0))
    assert d3 == pytest.approx(1.0, abs=1e-12)


def test_distance_symmetry(eucl4):
    y, z = SlicePoint(0.8, 0.2), SlicePoint(2.5, 2.0)
    assert distance(eucl4, y, z) == pytest.approx(distance(eucl4, z, y), abs=1e-10)


def test_distance_matches_chord_property(eucl4, cone4):
    rng = np.random.default_rng(3)
    for model, c in ((eucl4, 1.0), (cone4, 0.5)):
        for _ in range(12):
            r1, r2 = np.exp(rng.uniform(math.log(0.5), math.log(3.0), 2))
            dphi = rng.uniform(0.0, math.pi)
            ang = c * dphi
            if ang >= math.pi - 0.05:
                continue
            chord = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(ang))
            d = distance(model, SlicePoint(r1, 0.0), SlicePoint(r2, dphi))
            assert d == pytest.approx(chord, rel=1e-9), (r1, r2, dphi)


def test_triangle_consistency(cone4):
    profile = compute_profile(cone4, GRID)
    y, z = SlicePoint(1.0, 0.0), SlicePoint(2.0, 2.5)
    triples = corollary_check(profile, y, z, 0.25, [0.5])
    w = triples[0].w
    d = triples[0].d_yz
    assert distance(cone4, y, w) + distance(cone4, w, z) - d <= 1e-7


def test_corollary_equality_flat_C2(eucl4):
    profile = compute_profile(eucl4, GRID)
    y, z = SlicePoint(1.0, 0.0), SlicePoint(1.0, math.pi / 2)
    for t in corollary_check(profile, y, z, 2.0, [0.0, 0.25, 0.5, 1.0]):
        assert abs(t.slack) < 1e-9
        if t.lam == 0.5:
            assert t.b2_w == pytest.approx(0.5, abs=1e-9)
            assert t.rhs == pytest.approx(0.5, abs=1e-9)


def test_corollary_slack_grows_with_C(eucl4):
    profile = compute_profile(eucl4, GRID)
    y, z = SlicePoint(1.0, 0.0), SlicePoint(1.0, math.pi / 2)
    t = corollary_check(profile, y, z, 10.0, [0.5])[0]
    # RHS drops by (C-2)/2 * lam(1-lam) d^2 = 8/2 * 1/4 * 2 = 2 below equality
    assert t.slack == pytest.approx(2.0, abs=1e-8)


def test_corollary_lambda_endpoints_are_exact(cone4):
    profile = compute_profile(cone4, GRID)
    y, z = SlicePoint(0.7, 0.1), SlicePoint(2.0, 1.4)
    t0, t1 = corollary_check(profile, y, z, 0.25, [0.0, 1.0])
    assert abs(t0.slack) < 1e-9 and abs(t1.slack) < 1e-9


def test_corollary_lambda_range_gate(capsys):
    # the command refuses a lambda outside [0, 1] before it builds a profile
    code = cli.main(["corollary", "--model", "euclidean", "--n", "4", "--C", "2",
                     "--lambdas", "1.5", "--triples", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: lambda must lie in [0, 1]\n"


def test_through_tip_flagged():
    # narrow cone: opposite points at angle pi span c * pi < pi on the
    # unrolled wedge, so the chord avoids the tip and the minimizer turns
    # short of it; the CSV's through_tip column is branch == "tip", 0 here
    model = model_from_id("cone:0.3", 4)
    profile = compute_profile(model, GRID)
    y, z = SlicePoint(1.0, 0.0), SlicePoint(1.0, math.pi)
    t = corollary_check(profile, y, z, 2.0, [0.5])[0]
    assert t.branch == "turning"


@settings(max_examples=25, deadline=None)
@given(
    r1=st.floats(0.5, 3.0), r2=st.floats(0.5, 3.0),
    dphi=st.floats(0.01, 2.8),
)
def test_unit_speed_and_positivity_property(r1, r2, dphi):
    model = model_from_id("euclidean", 4)
    d = distance(model, SlicePoint(r1, 0.0), SlicePoint(r2, dphi))
    chord = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(dphi))
    assert d == pytest.approx(chord, rel=1e-8)
    assert d >= abs(r1 - r2) - 1e-12


@pytest.mark.parametrize("z", [SlicePoint(0.6, 0.8), SlicePoint(1.5, 2.9)])
def test_quad_misses_are_counted_per_minimizer(z, monkeypatch):
    # monotone (0.8 rad) and turning (2.9 rad) branches across the blend of
    # a smoothed cone, the only piece that runs Gauss panels: report every
    # sweep quadrature as a miss, and the count must equal the number of
    # calls while the values stay those of the plain quadrature
    cone4 = model_from_id("smoothed-cone:0.8:1", 4)
    y = SlicePoint(1.0, 0.0)
    prof = compute_profile(cone4, GRID)
    plain = corollary_check(prof, y, z, 10.0, [0.0, 0.5, 1.0])
    calls = []
    real = quadrature.gauss_legendre

    def missing(*args, **kwargs):
        calls.append(1)
        val, err, _ = real(*args, **kwargs)
        return val, err, True

    # the geodesic layer's calls only: b2 at a point on the blend runs the
    # Green kernel's own panels, which refuse a miss
    monkeypatch.setattr(geodesics, "quadrature", SimpleNamespace(
        gauss_legendre=missing, brent_root=quadrature.brent_root))
    forced = corollary_check(prof, y, z, 10.0, [0.0, 0.5, 1.0])
    assert calls
    assert [t.quad_misses for t in forced] == [len(calls)] * 3
    assert [t.slack for t in forced] == [t.slack for t in plain]
    assert all(t.quad_misses == plain[0].quad_misses for t in plain)


@pytest.mark.parametrize("model_id,z,branch", [
    ("cone:0.5", SlicePoint(2.0, 0.8), "monotone"),
    ("cone:0.5", SlicePoint(1.5, 2.9), "turning"),
    ("smoothed-cone:0.8:1", SlicePoint(2.5, 0.6), "monotone"),
    ("smoothed-cone:0.8:1", SlicePoint(1.2, 2.5), "turning"),
])
def test_root_find_runs_only_angle_quadratures(model_id, z, branch, monkeypatch):
    # a sweep makes one Gauss call where it meets a curved piece of f and
    # none on the pieces f = a r; the root-find iterates sweep the angle
    # only, and the length runs once per arc, at the accepted root
    model = model_from_id(model_id, 4)
    y = SlicePoint(1.0, 0.0)
    quads, sweeps, evals = [], [], []
    real_quad, real_brentq = quadrature.gauss_legendre, quadrature.brent_root

    def counting_quad(*args, **kwargs):
        quads.append(1)
        return real_quad(*args, **kwargs)

    def counting_brentq(fun, *args, **kwargs):
        # the Clairaut root-finds only, not the root isolation of fp_min
        if sys._getframe(1).f_globals["__name__"] != "harnacklab.geodesics":
            return real_brentq(fun, *args, **kwargs)

        def counted(x):
            evals.append(x)
            return fun(x)
        return real_brentq(counted, *args, **kwargs)

    real_sweep = geodesics._Arc.sweep

    def spy(arc, r_lo, r_hi, length=False):
        # a monotone arc by its Clairaut constant, a turning one by its base
        args = (r_lo, r_hi) if arc.turning else (arc.k, r_lo, r_hi)
        sweeps.append(("turning" if arc.turning else "monotone", args, length))
        return real_sweep(arc, r_lo, r_hi, length)

    monkeypatch.setattr(quadrature, "gauss_legendre", counting_quad)
    monkeypatch.setattr(quadrature, "brent_root", counting_brentq)
    monkeypatch.setattr(geodesics._Arc, "sweep", spy)
    mini = geodesics._solve_minimizer(model, y, z)

    assert mini.branch == branch
    angle = [s for s in sweeps if not s[2]]
    length = [s for s in sweeps if s[2]]
    assert len(sweeps) == len(angle) + len(length)
    curved = [s for s in sweeps if any(
        pc.slope is None and max(pc.lo, s[1][-2]) < min(pc.hi, s[1][-1])
        for pc in model.profile.pieces)]
    assert len(quads) == len(curved)
    if model_id.startswith("cone"):
        assert not quads
    if branch == "monotone":
        # limiting turning arc (2 sweeps), then one sweep per iterate
        assert len(angle) == 2 + len(evals)
        assert length == [("monotone", (mini.arc.k, 1.0, z.r), True)]
    else:
        # limiting arc and tip test (2 sweeps each), two per iterate
        assert len(angle) == 4 + 2 * len(evals)
        assert [(s[0], s[1][1]) for s in length] == [("turning", 1.0), ("turning", z.r)]
        r_t = length[0][1][0]
        assert length[1][1][0] == r_t and model.profile.f(r_t) == mini.arc.k


def test_non_monotone_profile_raises_geodesic_error():
    # f' < 0 inside the blend for c below 1 - 1/(5 - 8/(3 sqrt 3)) ~ 0.711
    model = model_from_id("smoothed-cone:0.5:1", 4)
    with pytest.raises(GeodesicError, match="f' > 0"):
        distance(model, SlicePoint(1.0, 0.0), SlicePoint(2.0, 1.0))
    with pytest.raises(GeodesicError, match="f' > 0"):
        distance(model, SlicePoint(0.2, 0.0), SlicePoint(0.8, 1.0))
    # the range checked is where the sweeps run: below r0/2 f = r, and
    # f' > 0 up to 0.6; radial pairs need no sweep
    flat = distance(model, SlicePoint(0.2, 0.0), SlicePoint(0.3, 1.0))
    assert flat == pytest.approx(math.sqrt(0.13 - 0.12 * math.cos(1.0)), rel=1e-9)
    assert distance(model, SlicePoint(0.2, 0.0), SlicePoint(0.6, 1.0)) > 0.4
    assert distance(model, SlicePoint(1.0, 0.5), SlicePoint(2.0, 0.5)) == 1.0
    ok = model_from_id("smoothed-cone:0.75:1", 4)
    assert distance(ok, SlicePoint(1.0, 0.0), SlicePoint(2.0, 1.0)) > 1.0


# -- closed-form sweeps and arclength inversion ---------------------------------


@pytest.mark.parametrize("model_id", ["euclidean", "cone:0.3", "cone:0.7"])
def test_closed_form_sweeps_match_gauss_panels(model_id, monkeypatch):
    # on f = a r both sweeps are closed; with the closed form switched off
    # the same pieces run Gauss panels, which must agree within 1e-12 up to
    # the near-turning limit k = f(r_lo) (1 - 1e-12) of a monotone arc
    model = model_from_id(model_id, 4)
    prof = model.profile
    a = prof.pieces[0].slope
    r_lo, r_hi = 0.8, 2.5
    f_lo = prof.f(r_lo)
    def swept(k, base, turning, lo):
        """(sweep of the arc over [lo, r_hi], its Gauss misses), per `length`."""
        def case(L):
            arc = geodesics._Arc(prof, k, base, turning)
            return arc.sweep(lo, r_hi, L), arc.misses
        return case

    monotone = [swept(k, r_lo, False, r_lo)
                for k in f_lo * np.array([0.0, 0.3, 0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])]
    # and from above the arc's inner radius, as the inversion sweeps
    monotone.append(swept(0.95 * f_lo, r_lo, False, 1.3))
    turning = [swept(prof.f(r_t), r_t, True, r_t) for r_t in (1e-3, 0.3, r_lo, 2.4)]
    turning.append(swept(f_lo, r_lo, True, 1.3))
    closed = [[case(L) for L in (False, True)] for case in monotone + turning]
    # the turning arcs in the wedge: angle arccos(r_t / r) / a and length
    # sqrt(r^2 - r_t^2) from r_t, less their values at 1.3 for the last
    def wedge(r_t, r):
        return math.acos(r_t / r) / a, math.sqrt(r * r - r_t * r_t)

    exact = [wedge(r_t, r_hi) for r_t in (1e-3, 0.3, r_lo, 2.4)]
    exact.append(tuple(x - y for x, y in zip(wedge(r_lo, r_hi), wedge(r_lo, 1.3))))
    for (ang, length), want in zip(closed[len(monotone):], exact):
        assert ang[0] == pytest.approx(want[0], rel=1e-14)
        assert length[0] == pytest.approx(want[1], rel=1e-14)
    monkeypatch.setattr(models.Piece, "slope", property(lambda pc: None))
    for k, (case, want) in enumerate(zip(monotone + turning, closed)):
        # turning arcs: the panels' own gate, 1e-11 (sqrt(2.5^2 - 2.4^2) = 0.7
        # comes out 0.7 + 1.2e-12 on cone:0.7), the closed form is exact above
        rel = 1e-12 if k < len(monotone) else 1e-11
        for L, (val, missed) in zip((False, True), want):
            gauss, gauss_missed = case(L)
            assert not missed and not gauss_missed
            assert val == pytest.approx(gauss, rel=rel, abs=1e-12), (L, val, gauss)


def test_offset_end_sweeps_and_inversion_agree_with_their_gauss_route():
    # on the end f = (r + 1)/2, the cone of slope 1/2 in r + 1, the sweeps
    # and the inversion are closed; the same line written as a Gauss piece on
    # [1, 50] gives them within the panels' gate, and so the corollary too
    closed, gauss = offset_end_profiles()
    arcs = [(closed.f(r_t), r_t, True) for r_t in (0.5, 2.0, 30.0)]
    arcs += [(k * closed.f(base), base, False) for base in (0.7, 3.0) for k in (0.0, 0.3, 0.9)]
    for k, base, turning in arcs:
        a, b = (geodesics._Arc(p, k, base, turning) for p in (closed, gauss))
        for hi in (5.0, 40.0):
            if hi <= base:
                continue
            for length in (False, True):
                assert a.sweep(base, hi, length) == pytest.approx(
                    b.sweep(base, hi, length), rel=1e-11, abs=1e-13)
            total = a.sweep(base, hi, length=True)
            for s in (0.3 * total, 0.8 * total):
                assert a.invert(s, hi) == pytest.approx(b.invert(s, hi), rel=1e-11, abs=1e-13)
        assert b.misses == 0
    for y, z in ((SlicePoint(0.5, 0.0), SlicePoint(30.0, 1.0)),
                 (SlicePoint(3.0, 0.0), SlicePoint(8.0, 2.5))):
        ta, tb = (corollary_check(compute_profile(models.ModelManifold(4, p), GRID),
                                  y, z, 10.0, (0.25, 0.5)) for p in (closed, gauss))
        for u, v in zip(ta, tb):
            assert u.branch == v.branch
            assert (u.d_yz, u.w.r, u.w.phi, u.b2_w) == pytest.approx(
                (v.d_yz, v.w.r, v.w.phi, v.b2_w), rel=1e-11, abs=1e-13)


def test_curved_piece_sweeps_read_the_pieces_row_and_not_the_profile(monkeypatch):
    # the Gauss integrand evaluates f on its own piece's Horner row: the
    # profile is asked only for f' and f'' at the base, once per sweep, and
    # every node keeps the arithmetic of a profile lookup, bit for bit
    prof = model_from_id("smoothed-cone:0.8:1", 4).profile
    arc = geodesics._Arc(prof, prof.f(0.4), 0.4, turning=True)
    calls = Counter()
    for name in ("f", "fp", "fpp"):
        real = getattr(models.WarpingProfile, name)

        def counted(self, r, real=real, name=name):
            calls[name] += 1
            return real(self, r)

        monkeypatch.setattr(models.WarpingProfile, name, counted)
    angle, length = arc.sweep(0.4, 1.5), arc.sweep(0.4, 1.5, length=True)
    assert (angle, length) == (1.4919076080205387, 1.4887343202760268)
    assert all(calls[name] <= 2 for name in ("f", "fp", "fpp")), calls


def test_an_arc_takes_the_base_derivatives_once_across_many_pieces(monkeypatch):
    # a spline of 400 nodes has a curved piece per node interval: the arc
    # asks the profile for f' and f'' at its base once, on the first
    # integrand, not once per piece a sweep crosses
    prof = table_profile(line_table(400))
    arc = geodesics._Arc(prof, prof.f(0.4), 0.4, turning=True)
    calls = Counter()
    for name in ("fp", "fpp"):
        real = getattr(models.WarpingProfile, name)

        def counted(self, r, real=real, name=name):
            calls[name] += 1
            return real(self, r)

        monkeypatch.setattr(models.WarpingProfile, name, counted)
    arc.sweep(0.4, 50.0)
    arc.sweep(0.4, 50.0, length=True)
    assert sum(pc.slope is None for pc, _, _ in arc._parts(0.4, 50.0)) > 100
    assert calls == {"fp": 1, "fpp": 1}


def _wedge_point(c, y, z, lam):
    """(r, phi, chord) of the point at lam along the straight chord between
    y and z in the unrolled wedge of a cone f = c r."""
    dphi = math.remainder(z.phi - y.phi, 2.0 * math.pi)
    Y = np.array([y.r, 0.0])
    Z = z.r * np.array([math.cos(c * dphi), math.sin(c * dphi)])
    W = Y + lam * (Z - Y)
    return float(np.hypot(*W)), y.phi + math.atan2(W[1], W[0]) / c, float(np.hypot(*(Z - Y)))


@pytest.mark.parametrize("model_id,c", [("euclidean", 1.0), ("cone:0.3", 0.3),
                                        ("cone:0.5", 0.5), ("cone:0.9", 0.9)])
def test_inversion_matches_the_wedge(model_id, c):
    model = model_from_id(model_id, 4)
    rng = np.random.default_rng(7)
    branches = Counter()
    for _ in range(60):
        r1, r2 = np.exp(rng.uniform(math.log(0.5), math.log(3.0), 2))
        dphi = rng.uniform(0.05, math.pi) * rng.choice([-1.0, 1.0])
        if c * abs(dphi) >= math.pi - 1e-3:  # the chord runs through the tip
            continue
        y, z = SlicePoint(float(r1), 0.0), SlicePoint(float(r2), float(dphi))
        mini = geodesics._solve_minimizer(model, y, z)
        branches[mini.branch] += 1
        lams = (0.1, 0.25, 0.5, 0.75, 0.9)
        points = geodesics._points_along(y, z, mini, [lam * mini.length for lam in lams])
        for lam, w in zip(lams, points):
            r, phi, chord = _wedge_point(c, y, z, lam)
            assert mini.quad_misses == 0
            assert mini.length == pytest.approx(chord, rel=1e-12, abs=0.0)
            assert w.r == pytest.approx(r, rel=1e-12, abs=0.0), (y, z, lam)
            assert w.phi == pytest.approx(phi, rel=1e-12, abs=0.0), (y, z, lam)
    assert branches["monotone"] and branches["turning"]


@pytest.mark.parametrize("model_id", ["smoothed-cone:0.8:1", "smoothed-cone:0.75:2"])
@pytest.mark.parametrize("y,z,branch", [
    (SlicePoint(0.7, 0.0), SlicePoint(2.5, 0.6), "monotone"),
    (SlicePoint(2.5, 0.3), SlicePoint(0.7, -0.4), "monotone"),
    (SlicePoint(1.2, 0.0), SlicePoint(1.6, 2.4), "turning"),
    (SlicePoint(2.2, 0.0), SlicePoint(0.9, 2.0), "turning"),
])
def test_inversion_matches_shot_and_dop853(model_id, y, z, branch):
    # across the blend, where the inversion solves Gauss length sweeps
    # with Brent's method; y.r > z.r on the second and fourth pairs
    model = model_from_id(model_id, 4)
    mini = geodesics._solve_minimizer(model, y, z)
    assert mini.branch == branch
    s = [lam * mini.length for lam in (0.1, 0.25, 0.5, 0.75, 0.9)]
    points = geodesics._points_along(y, z, mini, s)
    angle = geodesics._departure(model, y, z, mini)
    path = shoot_geodesic(model, y, angle, s)
    r_ref, phi_ref = _dop853_shot(model, y, angle, s[-1], np.array(s))
    for w, r, phi, rr, pr in zip(points, path.r[1:], path.phi[1:], r_ref, phi_ref):
        assert abs(w.r - r) <= 1e-9 and abs(w.phi - phi) <= 1e-9
        assert abs(w.r - rr) <= 1e-9 and abs(w.phi - pr) <= 1e-9


@pytest.mark.parametrize("model_id", ["euclidean", "cone:0.6"])
def test_corollary_on_linear_profiles_runs_no_gauss_panels_and_one_shot(
        model_id, monkeypatch, capsys):
    counts = Counter()
    real_gauss, real_shoot = quadrature.gauss_legendre, geodesics.shoot_geodesic

    def gauss(*args, **kwargs):
        counts["gauss_legendre"] += 1
        return real_gauss(*args, **kwargs)

    def shoot(*args, **kwargs):
        counts["shoot_geodesic"] += 1
        return real_shoot(*args, **kwargs)

    monkeypatch.setattr(quadrature, "gauss_legendre", gauss)
    monkeypatch.setattr(geodesics, "shoot_geodesic", shoot)
    code = cli.main(["corollary", "--model", model_id, "--n", "4", "--C", "10",
                     "--triples", "6", "--seed", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 3)
    assert counts == Counter(shoot_geodesic=1)
    assert doc["shot_gap"] <= 1e-9
