"""The numeric core and the custom-profile spline against scipy and numpy,
the references."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.interpolate import CubicSpline

import quad_reference
from harnacklab import quadrature
from harnacklab.models import table_profile
from model_reference import third_derivative
from tables import concave_table


def _seeded_integrands(seed):
    """Integrands with seeded parameters: (vectorized f, a, b, the kinks
    of f inside (a, b), which quad is told of)."""
    rng = np.random.default_rng(seed)
    p, q, w = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(1.0, 8.0)
    a = rng.uniform(0.05, 1.0)
    b = a + rng.uniform(0.1, 5.0)
    kinks = [k * math.pi / w for k in range(math.ceil(a * w / math.pi),
                                             math.floor(b * w / math.pi) + 1)]
    return [
        (lambda x: x ** (-p) * np.exp(q * x), a, b, None),
        (lambda x: np.cos(w * x) ** 2 + 1.0 / (1.0 + x * x), a, b, None),
        (lambda x: 1.0 / np.sqrt(x - a + 1e-3), a, b, None),  # sharp near a
        (lambda x: np.abs(np.sin(w * x)), a, b, kinks or None),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_gauss_matches_quad(seed):
    for fun, a, b, kinks in _seeded_integrands(seed):
        val, err, missed = quadrature.gauss_legendre(fun, a, b, rtol=1e-12)
        ref = integrate.quad(fun, a, b, epsabs=0.0, epsrel=1e-13, limit=500,
                             points=kinks)[0]
        assert not missed
        assert isinstance(val, float) and err <= 1e-12 * abs(val)
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_gauss_integrals_are_independent_and_exact_on_polynomials():
    # one interval a call, its value, estimate and flag as plain floats
    for a, b in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (-1.0, 0.5)):
        val, err, missed = quadrature.gauss_legendre(lambda x: 5 * x**4 - 3 * x**2, a, b,
                                                     rtol=1e-14)
        assert type(val) is float and type(err) is float and missed is False
        exact = (b**5 - b**3) - (a**5 - a**3)
        assert abs(val - exact) <= 1e-14 + 1e-14 * abs(exact)
        if a == b:
            assert val == 0.0  # an empty interval


def test_gauss_rules_are_correctly_rounded():
    # each node and weight is the float nearest mpmath's 50-digit value
    for nodes, weights, k in ((quadrature._X1, quadrature._W1, quadrature.GAUSS_K),
                              (quadrature._X2, quadrature._W2, 2 * quadrature.GAUSS_K)):
        assert (list(nodes), list(weights)) == quad_reference.mpmath_rule(k)


@pytest.mark.parametrize("seed", range(6))
def test_gauss_matches_the_numpy_panels(seed):
    # the same panels and gates as the array form: the same values to the
    # rounding of the sums, the same misses, and the same integrals at once
    for fun, a, b, _ in _seeded_integrands(seed):
        for rtol in (1e-12, 1e-6):
            got = quadrature.gauss_legendre(fun, a, b, rtol=rtol)
            want = quad_reference.gauss_legendre(fun, a, b, rtol=rtol)
            assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-6, abs=1e-15 * abs(want[0]))
            assert got[2] == want[2]
    def fun(x):
        return 1.0 / np.sqrt(x) + np.cos(7.0 * x)

    # the array form runs these three at once; each alone gives its entry
    lo, hi = [0.0, 0.5, 1e-3], [1.0, 3.0, 1.0]
    want = quad_reference.gauss_legendre(fun, np.array(lo), np.array(hi), rtol=1e-12)
    for a, b, want_val, want_missed in zip(lo, hi, want[0].tolist(), want[2].tolist()):
        val, _, missed = quadrature.gauss_legendre(fun, a, b, rtol=1e-12)
        assert val == pytest.approx(want_val, rel=1e-14, abs=0.0)
        assert missed == want_missed


def test_geomspace_is_numpys_with_exact_ends():
    # numpy's power is its own SIMD routine, which differs from libm's by an
    # ulp at about 5 % of the points
    for start, stop, num in ((1e-2, 1e2, 512), (1e-2, 1e2, 4096), (1e-3, 1e3, 4000),
                             (0.5, 3.0, 7), (2.0, 2.0, 3), (1e-4, 1e4, 65536)):
        got = quadrature.geomspace(start, stop, num)
        want = np.geomspace(start, stop, num).tolist()
        assert len(got) == num and (got[0], got[-1]) == (start, stop)
        assert all(abs(x - y) <= math.ulp(y) for x, y in zip(got, want))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_gauss_stops_at_a_sum_that_is_not_finite(bad):
    # no halving makes a non-finite sum finite: one level of panels, then a
    # miss, while the finite integral of the same function beside it is resolved
    nodes = []

    def fun(x):
        nodes.append(x)
        return bad if x < 1.0 else x

    val, _, missed = quadrature.gauss_legendre(fun, 0.0, 1.0, rtol=1e-12)
    assert missed and not math.isfinite(val)
    assert len(nodes) == quadrature.GAUSS_K + 2 * quadrature.GAUSS_K
    val, _, missed = quadrature.gauss_legendre(fun, 1.0, 2.0, rtol=1e-12)
    assert not missed and val == pytest.approx(1.5, rel=1e-14)


def test_gauss_flags_a_miss_it_cannot_resolve():
    val, err, missed = quadrature.gauss_legendre(lambda x: 1.0 / x, 0.0, 1.0, rtol=1e-12)
    assert missed and err > 1e-12 * abs(val)
    _, _, missed = quadrature.gauss_legendre(lambda x: math.nan, 0.0, 1.0, rtol=1e-12)
    assert missed


@pytest.mark.parametrize("seed", range(8))
def test_brent_root_matches_brentq(seed):
    rng = np.random.default_rng(seed)
    c, s = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)
    funs = [lambda x: math.tanh(s * (x - c)) + 0.1 * (x - c) ** 3,
            lambda x: math.exp(x) - math.exp(c),
            lambda x: (x - c) * (1.0 + s * (x - c) ** 2)]
    for fun in funs:
        a, b = c - rng.uniform(0.1, 3.0), c + rng.uniform(0.1, 3.0)
        for xtol, rtol in ((1e-14, 8.9e-16), (1e-6, 1e-10)):
            got = quadrature.brent_root(fun, a, b, xtol=xtol, rtol=rtol)
            ref = optimize.brentq(fun, a, b, xtol=xtol, rtol=rtol)
            # the same algorithm in the same arithmetic: the same iterates
            assert got == ref


def test_brent_root_refuses_a_bracket_without_sign_change():
    with pytest.raises(quadrature.QuadratureError):
        quadrature.brent_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-15)
    assert quadrature.brent_root(lambda x: x, 0.0, 1.0, xtol=1e-12, rtol=1e-15) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_brent_min_matches_fminbound(seed):
    rng = np.random.default_rng(seed)
    m, s = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
    funs = [lambda x: (x - m) ** 2 + 0.3 * math.sin(s * x),
            lambda x: -math.exp(-s * (x - m) ** 2),
            lambda x: x]  # the minimum sits at the lower end
    for fun in funs:
        lo, hi = m - rng.uniform(0.2, 2.0), m + rng.uniform(0.2, 2.0)
        xatol = 1e-10 * (hi - lo) + 1e-14
        x, fx = quadrature.brent_min(fun, lo, hi, xatol=xatol)
        ref = optimize.minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
        # the same algorithm in the same arithmetic: the same iterates
        assert (x, fx) == (ref.x, ref.fun)


def _seeded_tables():
    rng = np.random.default_rng(11)
    for size in (4, 5, 9, 60):
        r = np.sort(rng.uniform(0.05, 20.0, size))
        yield r, np.exp(0.3 * np.sin(r)) * r + rng.normal(0.0, 0.01, size)
    r = np.geomspace(0.1, 50.0, 200)
    yield r, 0.6 * r


@pytest.mark.parametrize("table", [concave_table(), *_seeded_tables()],
                         ids=["concave", "4", "5", "9", "60", "linear"])
def test_spline_matches_scipy_cubic_spline(table):
    # a custom profile's f ... f''' over its table range: one cubic piece per
    # table interval, the not-a-knot spline that CubicSpline builds
    r, f = table
    p, ref = table_profile((r, f)), CubicSpline(r, f)
    x = np.concatenate([r, np.geomspace(r[0], r[-1], 997)])
    for order, fun in enumerate((p.f, p.fp, p.fpp, third_derivative(p))):
        want = ref(x, order)
        got = np.vectorize(fun, otypes=[float])(x)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, order
        # floats take the same polynomial through plain float arithmetic
        for xi in x[::37].tolist():
            assert abs(fun(xi) - float(ref(xi, order))) <= 1e-12 * scale
