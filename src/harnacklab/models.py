"""Rotationally symmetric model manifolds.

A model is R^n \\ {tip} with the warped-product metric

    g = dr^2 + f(r)^2 * g_{S^{n-1}},

so everything is determined by the dimension n and the warping profile
f.  Closed-form curvature of such metrics:

    k_rad = -f''/f            (planes containing the radial direction)
    k_tan = (1 - f'^2)/f^2    (purely tangential planes)

and Ric = ric_rad dr^2 + ric_tan (g - dr^2) with ric_rad = (n-1) k_rad,
ric_tan = k_rad + (n-2) k_tan.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fdcheck, quadrature

__all__ = [
    "WarpingProfile",
    "ModelManifold",
    "CurvatureSample",
    "HypothesisReport",
    "NonParabolicityReport",
    "make_model",
    "model_from_id",
    "curvature_at",
    "ricci_gradient_norm",
    "volume_growth",
    "hypothesis_report",
    "nonparabolic_check",
    "sphere_area",
]

KINDS = ("euclidean", "cone", "smoothed_cone", "custom")

#: default absolute tolerance on curvature margins for hypothesis booleans
DEFAULT_CURV_TOL = 1e-9


class ModelError(ValueError):
    """Invalid model parameters or evaluation outside the admissible range."""


def _clip01(t):
    """t clipped to [0, 1]: a float for float t, an array otherwise."""
    if isinstance(t, float):
        return min(max(t, 0.0), 1.0)
    return np.clip(t, 0.0, 1.0)


def _full(r, value):
    """value in the shape of r: a float for float r, an array otherwise."""
    return value if isinstance(r, float) else np.full_like(r, value)


def _quintic_blend(t, k):
    """k-th derivative (k = 0..3) of the C^2 smoothstep w with w(0)=0,
    w(1)=1 and w'=w''=0 at both ends.

    w''' jumps at both ends; outside the open interval (0, 1) it is 0.
    Float t runs in plain float arithmetic, arrays elementwise.
    """
    if k == 0:
        return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    if k == 1:
        return 30.0 * t**2 * (1.0 - 2.0 * t + t**2)
    if k == 2:
        return 60.0 * t * (1.0 - 3.0 * t + 2.0 * t**2)
    wppp = 60.0 * (1.0 - 6.0 * t + 6.0 * t**2)
    if isinstance(t, float):
        return wppp if 0.0 < t < 1.0 else 0.0
    return np.where((t > 0.0) & (t < 1.0), wppp, 0.0)


class NotAKnotSpline:
    """Cubic spline through (x, y) whose third derivative is continuous at
    x[1] and x[-2] (not-a-knot ends), for >= 4 strictly increasing x.

    The knot slopes solve a tridiagonal system; on [x_i, x_{i+1}] the
    spline is c0 t^3 + c1 t^2 + c2 t + c3 in t = r - x_i, evaluated (with
    its derivatives of orders 1-3) by Horner's rule, on floats in plain
    float arithmetic and on arrays elementwise.  An r outside [x_0, x_-1]
    takes the polynomial of the nearest end interval.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, float), np.asarray(y, float)
        dx = np.diff(x)
        m = np.diff(y) / dx
        # the tridiagonal system for the slopes s: sub, diag, super, rhs
        sub = np.concatenate([dx[1:], [x[-1] - x[-3]]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        sup = np.concatenate([[x[2] - x[0]], dx[:-1]])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.concatenate([
            [((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0],
            3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:]),
            [(dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1],
        ])
        s = _solve_tridiagonal(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
        t = (s[:-1] + s[1:] - 2.0 * m) / dx
        self.x = x
        self.c = np.stack([t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]], axis=1)
        self._x = x.tolist()
        self._c = self.c.tolist()

    def __call__(self, r, order: int = 0):
        if isinstance(r, float):
            i = min(max(bisect.bisect_right(self._x, r) - 1, 0), len(self._c) - 1)
            return _horner(self._c[i], r - self._x[i], order)
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self._c) - 1)
        return _horner(np.moveaxis(self.c[i], -1, 0), r - self.x[i], order)


def _solve_tridiagonal(sub, diag, sup, rhs):
    """x with diag[i] x[i] + sup[i] x[i+1] + sub[i-1] x[i-1] = rhs[i]:
    elimination without pivoting, stable on the spline system (every
    pivot after the first exceeds its row's off-diagonal entry)."""
    n = len(diag)
    d, b = diag[:], rhs[:]
    for i in range(1, n):
        w = sub[i - 1] / d[i - 1]
        d[i] -= w * sup[i - 1]
        b[i] -= w * b[i - 1]
    x = [0.0] * n
    x[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - sup[i] * x[i + 1]) / d[i]
    return np.array(x)


def _horner(c, t, order):
    """Derivative `order` of c0 t^3 + c1 t^2 + c2 t + c3."""
    c0, c1, c2, c3 = c
    if order == 0:
        return ((c0 * t + c1) * t + c2) * t + c3
    if order == 1:
        return (3.0 * c0 * t + 2.0 * c1) * t + c2
    if order == 2:
        return 6.0 * c0 * t + 2.0 * c1
    return 6.0 * c0 + 0.0 * t


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function f(r) of a rotationally symmetric metric.

    kind
        one of ``euclidean`` (f = r), ``cone`` (f = c*r), ``smoothed_cone``
        (f = r near the tip, f = c*r beyond r0, C^2 quintic blend on
        [r0/2, r0]) or ``custom`` (cubic spline through a sampled table).
    """

    kind: str
    c: Optional[float] = None
    r0: Optional[float] = None
    table: Optional[tuple] = None  # (r, f) samples for kind == "custom"
    _spline: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("cone", "smoothed_cone"):
            if self.c is None or not (0.0 < self.c <= 1.0):
                raise ModelError("cone aperture c must satisfy 0 < c <= 1")
        if self.kind == "smoothed_cone":
            if self.r0 is None or self.r0 <= 0.0:
                raise ModelError("smoothed_cone requires r0 > 0")
        if self.kind == "custom":
            if self.table is None:
                raise ModelError("custom profile requires a sample table")
            r, fvals = np.asarray(self.table[0], float), np.asarray(self.table[1], float)
            if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
                raise ModelError("custom table needs >= 4 strictly increasing radii")
            if np.any(r <= 0) or np.any(fvals <= 0):
                raise ModelError("custom table must have r > 0 and f > 0")
            object.__setattr__(self, "_spline", NotAKnotSpline(r, fvals))

    # -- evaluation ------------------------------------------------------

    def _eval(self, r, order):
        # a float (np.float64 included) runs the same formulas in plain
        # float arithmetic: numpy boxing would cost far more than they do
        scalar = isinstance(r, float)
        if scalar:
            r = float(r)
            ok = r > 0.0
        else:
            r = np.asarray(r, dtype=float)
            ok = bool(np.all(r > 0.0))
        if not ok:  # NaN fails the comparison too
            raise ModelError("profile is only defined for r > 0")
        zero = _full(r, 0.0)
        if self.kind == "euclidean":
            out = (r, _full(r, 1.0), zero, zero)[order]
        elif self.kind == "cone":
            c = self.c
            out = (c * r, _full(r, c), zero, zero)[order]
        elif self.kind == "smoothed_cone":
            out = self._smoothed(r, order)
        else:
            out = self._custom(r, order)
        return float(out) if scalar or out.ndim == 0 else out

    def _custom(self, r, order):
        if np.any(r > self.table[0][-1]):
            raise ModelError("custom profile evaluated beyond its table range")
        # below the table the profile is closed off with the linear cone
        # f = (f(r_lo)/r_lo) r, so tip integrals (volumes) stay defined
        _, r_lo, slope = self.linear_pieces()[0]
        tip = slope * r if order == 0 else _full(r, slope if order == 1 else 0.0)
        if isinstance(r, float):
            return tip if r < r_lo else self._spline(r, order)
        return np.where(r < r_lo, tip, self._spline(np.maximum(r, r_lo), order))

    def _smoothed(self, r, order):
        """Derivative `order` of f = r * (1 + (c-1) w(t(r))), from only the
        derivatives of w that it needs."""
        c, r0 = self.c, self.r0
        a, b = 0.5 * r0, r0
        t = _clip01((r - a) / (b - a))
        if order == 0:
            return r * (1.0 + (c - 1.0) * _quintic_blend(t, 0))
        if order == 1:
            wp = _quintic_blend(t, 1) / (b - a)
            return 1.0 + (c - 1.0) * _quintic_blend(t, 0) + r * (c - 1.0) * wp
        wpp = _quintic_blend(t, 2) / (b - a) ** 2
        if order == 2:
            wp = _quintic_blend(t, 1) / (b - a)
            return 2.0 * (c - 1.0) * wp + r * (c - 1.0) * wpp
        wppp = _quintic_blend(t, 3) / (b - a) ** 3
        return 3.0 * (c - 1.0) * wpp + r * (c - 1.0) * wppp

    def f(self, r):
        return self._eval(r, 0)

    def fp(self, r):
        return self._eval(r, 1)

    def fpp(self, r):
        return self._eval(r, 2)

    def fppp(self, r):
        return self._eval(r, 3)

    def asymptotic_slope(self, r_ref=None):
        """Slope a of the linear asymptote f(r) ~ a*r, if one exists."""
        if self.kind == "euclidean":
            return 1.0
        if self.kind in ("cone", "smoothed_cone"):
            return self.c
        r_top = self.table[0][-1] if r_ref is None else r_ref
        return float(self.f(r_top) / r_top)

    def linear_from(self):
        """Radius beyond which f(r) = asymptotic_slope * r exactly (inf if never)."""
        if self.kind in ("euclidean", "cone"):
            return 0.0
        if self.kind == "smoothed_cone":
            return self.r0
        return math.inf

    def linear_pieces(self):
        """Intervals [lo, hi) on which f(r) = a*r exactly, as (lo, hi, a).

        Ascending and disjoint; the gaps between them are where f is not
        linear (the smoothed-cone blend, the custom spline).
        """
        if self.kind == "euclidean":
            return ((0.0, math.inf, 1.0),)
        if self.kind == "cone":
            return ((0.0, math.inf, self.c),)
        if self.kind == "smoothed_cone":
            return ((0.0, 0.5 * self.r0, 1.0), (self.r0, math.inf, self.c))
        r_lo = float(self.table[0][0])
        return ((0.0, r_lo, float(self._spline(r_lo)) / r_lo),)

    def pieces(self):
        """linear_pieces() with the gaps between them filled: (lo, hi, a)
        covering (0, inf) in ascending order, a = None where f is not linear."""
        out, edge = [], 0.0
        for lo, hi, a in self.linear_pieces():
            if lo > edge:
                out.append((edge, lo, None))
            out.append((lo, hi, a))
            edge = hi
        if edge < math.inf:
            out.append((edge, math.inf, None))
        return tuple(out)

    def cuts(self, lo: float, hi: float) -> np.ndarray:
        """[lo, the knots of f strictly inside (lo, hi), hi], ascending.

        Knots are the radii where f stops being one polynomial: the ends
        of the smoothed-cone blend and the radii of a custom table.  So
        between two consecutive cuts f is a single polynomial, on which
        Gauss rules converge fast.
        """
        if self.kind == "smoothed_cone":
            knots = np.array([0.5 * self.r0, self.r0])
        elif self.kind == "custom":
            knots = self._spline.x
        else:
            knots = np.empty(0)
        return np.concatenate([[lo], knots[(knots > lo) & (knots < hi)], [hi]])

    def fp_min(self, lo, hi):
        """Minimum of f' over [lo, hi], decided piece by piece.

        f' = a on a linear piece.  Elsewhere f' is a polynomial: of degree
        5 in r on the smoothed-cone blend (f = r (1 + (c-1) w) with w
        quintic in t, itself linear in r) and quadratic on each interval of
        the custom spline.  deg + 1 samples of f' fix it, so its minimum is
        the least value of f' at the ends and at the real critical points.
        """
        out = math.inf
        for p_lo, p_hi, a in self.pieces():
            u, v = max(lo, p_lo), min(hi, p_hi)
            if u > v:
                continue
            if a is not None:
                out = min(out, a)
                continue
            deg = 5 if self.kind == "smoothed_cone" else 2
            cuts = self.cuts(u, v).tolist()
            for x0, x1 in zip(cuts[:-1], cuts[1:]):
                x = [x0, x1]
                if x1 > x0:
                    nodes = x0 + (x1 - x0) * np.linspace(0.0, 1.0, deg + 1)
                    poly = np.polynomial.Polynomial.fit(nodes, self.fp(nodes), deg)
                    # complex roots add only harmless extra samples
                    x += [z.real for z in poly.deriv().roots() if x0 < z.real < x1]
                out = min(out, float(np.min(self.fp(np.array(x)))))
        return out


@dataclass(frozen=True)
class ModelManifold:
    """Dimension n >= 3 together with a warping profile."""

    n: int
    profile: WarpingProfile

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ModelError("dimension must be an integer >= 3")

    def describe(self) -> str:
        p = self.profile
        if p.kind == "euclidean":
            return "euclidean"
        if p.kind == "cone":
            return f"cone:{p.c:g}"
        if p.kind == "smoothed_cone":
            return f"smoothed-cone:{p.c:g}:{p.r0:g}"
        return "custom"


@dataclass(frozen=True)
class CurvatureSample:
    """Sectional and Ricci curvature of the warped metric at one radius."""

    r: float
    k_rad: float
    k_tan: float
    ric_rad: float
    ric_tan: float


@dataclass(frozen=True)
class HypothesisReport:
    """Where the model stands with respect to the curvature/volume hypotheses."""

    nonneg_sectional_along_gradG: bool
    sectional_margin: float
    nonneg_ricci: bool
    ricci_margin: float
    parallel_ricci_residual: float      # closed form, max over the probes
    parallel_ricci_fd_residual: float   # FD oracle on the 3-dim chart
    parallel_ricci: bool
    euclidean_volume_growth: bool
    volume_growth_inf: float        # Vol B(t) / t^n
    volume_growth_slope_inf: float  # (Vol B(t) / (|B^n_1| t^n))^{1/(n-1)}, decides the flag
    nonparabolic: bool
    tol: float

    def flags(self) -> dict:
        return {
            "nonneg_sectional_along_gradG": self.nonneg_sectional_along_gradG,
            "nonneg_ricci": self.nonneg_ricci,
            "parallel_ricci": self.parallel_ricci,
            "euclidean_volume_growth": self.euclidean_volume_growth,
            "nonparabolic": self.nonparabolic,
        }


@dataclass(frozen=True)
class NonParabolicityReport:
    varopoulos_integral_finite: bool
    tail_exponent: float


# ---------------------------------------------------------------------------


def make_model(kind, n, c=None, r0=None, table=None) -> ModelManifold:
    """Build a model manifold, validating dimension and profile parameters."""
    if int(n) != n or n < 3:
        raise ModelError(
            f"dimension n={n} rejected: need n >= 3 for non-parabolicity"
        )
    profile = WarpingProfile(kind=kind, c=c, r0=r0, table=table)
    return ModelManifold(n=int(n), profile=profile)


def model_from_id(model_id: str, n: int) -> ModelManifold:
    """Resolve a preset id: euclidean | cone:<c> | smoothed-cone:<c>:<r0> | custom:<path>."""
    parts = model_id.split(":")
    head = parts[0]
    if head == "euclidean" and len(parts) == 1:
        return make_model("euclidean", n)
    if head == "cone" and len(parts) == 2:
        return make_model("cone", n, c=float(parts[1]))
    if head in ("smoothed-cone", "smoothed_cone") and len(parts) == 3:
        return make_model("smoothed_cone", n, c=float(parts[1]), r0=float(parts[2]))
    if head == "custom" and len(parts) >= 2:
        path = ":".join(parts[1:])
        data = np.genfromtxt(path, delimiter=",", names=True)
        return make_model("custom", n, table=(data["r"], data["f"]))
    raise ModelError(f"unrecognized model id {model_id!r}")


def curvature_at(model: ModelManifold, r: float) -> CurvatureSample:
    """Closed-form curvature of the warped metric at radius r > 0."""
    if r <= 0:
        raise ModelError("curvature_at requires r > 0")
    p, n = model.profile, model.n
    f, fp, fpp = p.f(r), p.fp(r), p.fpp(r)
    k_rad = -fpp / f
    k_tan = (1.0 - fp * fp) / (f * f)
    return CurvatureSample(
        r=float(r),
        k_rad=float(k_rad),
        k_tan=float(k_tan),
        ric_rad=float((n - 1) * k_rad),
        ric_tan=float(k_rad + (n - 2) * k_tan),
    )


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere, 2 pi^{n/2} / Gamma(n/2).

    Gamma(n/2) leaves the float range from n = 344 on; there the ratio is
    taken in logarithms (it is below 1e-220, and underflows to 0 later).
    """
    if n < 344:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return 2.0 * math.exp(n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0))


def ricci_gradient_norm(model: ModelManifold, r: float) -> float:
    """|grad Ric| at radius r, the Frobenius norm in an orthonormal frame.

    With Hess r = (f'/f)(g - dr^2), the only nonzero frame components of
    grad Ric are (grad_r Ric)_rr = ric_rad', (grad_r Ric)_aa = ric_tan' and
    (grad_a Ric)_ar = (grad_a Ric)_ra = (f'/f)(ric_rad - ric_tan), so

        |grad Ric|^2 = ric_rad'^2 + (n-1) ric_tan'^2
                       + 2 (n-1) (f'/f)^2 (ric_rad - ric_tan)^2.
    """
    s = curvature_at(model, r)
    p, n = model.profile, model.n
    f, fp, fpp, fppp = p.f(r), p.fp(r), p.fpp(r), p.fppp(r)
    dk_rad = (fpp * fp / f - fppp) / f
    dk_tan = -2.0 * fp * (fpp * f + 1.0 - fp * fp) / f**3
    d_rad = (n - 1) * dk_rad
    d_tan = dk_rad + (n - 2) * dk_tan
    mixed = fp / f * (s.ric_rad - s.ric_tan)
    return float(math.sqrt(d_rad**2 + (n - 1) * (d_tan**2 + 2.0 * mixed**2)))


def _volume_ratio(model: ModelManifold, t: float) -> float:
    """Vol B(t) / (|B^n_1| t^n) = (n/t) int_0^t (f(s)/t)^{n-1} ds.

    The scaled integrand keeps every term below 1 where f(s) <= s, so
    nothing overflows or underflows with n.  On every piece where f = a r
    the integral is a^{n-1} ((hi/t)^n - (lo/t)^n) in closed form; Gauss
    panels run only where f is not linear, one per polynomial piece of f.
    """
    if t <= 0:
        raise ModelError("volume requires t > 0")
    n, p = model.n, model.profile
    total = 0.0
    for lo, hi, a in p.pieces():
        if lo >= t:
            break
        hi = min(hi, t)
        if a is not None:
            total += a ** (n - 1) * ((hi / t) ** n - (lo / t) ** n)
            continue
        cuts = p.cuts(lo, hi)
        vals, errs, _ = quadrature.gauss_legendre(
            lambda s: (p.f(s) / t) ** (n - 1), cuts[:-1], cuts[1:], rtol=1e-10)
        val, err = float(np.sum(vals)), float(np.sum(errs))
        if not math.isfinite(val) or (val > 0 and err / val > 1e-8):
            raise ModelError("ball volume quadrature did not converge")
        total += n * val / t
    if not math.isfinite(total):
        raise ModelError("ball volume is not finite")
    return total


def volume_growth(model: ModelManifold, t: float) -> float:
    """Vol B(t) / t^n; bounded below by a positive constant means Euclidean growth."""
    return sphere_area(model.n) / model.n * _volume_ratio(model, t)


def nonparabolic_check(model: ModelManifold, s: float) -> NonParabolicityReport:
    """Convergence of the volume integral test, via the decay rate of f^{1-n}.

    The integrand t / Vol B(t) behaves like f(t)^{1-n}, so the integral is
    finite iff the measured log-log slope of f^{1-n} is below -1.
    """
    if s <= 0:
        raise ModelError("nonparabolic_check requires s > 0")
    p, n = model.profile, model.n
    if p.kind == "custom":
        r_hi = p.table[0][-1]
        r_lo = r_hi / 2.0
    else:
        r_lo = max(s, 10.0 * (p.r0 if p.kind == "smoothed_cone" else 1.0))
        r_hi = 2.0 * r_lo
    slope = (math.log(p.f(r_hi)) - math.log(p.f(r_lo))) / (
        math.log(r_hi) - math.log(r_lo)
    )
    tail_exponent = (1 - n) * slope
    return NonParabolicityReport(
        varopoulos_integral_finite=bool(tail_exponent < -1.0 - 1e-9),
        tail_exponent=float(tail_exponent),
    )


def hypothesis_report(
    model: ModelManifold,
    r_min: float,
    r_max: float,
    probes: int = 16,
    tol: float = DEFAULT_CURV_TOL,
    fd_probes: int = 3,
    fd_h: float = 1e-3,
) -> HypothesisReport:
    """Probe the curvature/volume hypotheses on [r_min, r_max].

    The gradient of the Green function is radial on these models, so
    nonnegative sectional curvature along it reduces to k_rad >= 0.

    Parallel Ricci is decided by the closed form |grad Ric| (see
    ricci_gradient_norm) at the probe radii.  For n >= 3 it vanishes
    exactly when k_rad' = k_tan' = 0 and (k_rad - k_tan) f' = 0: conditions
    on f alone, the same at every n.  So the finite-difference chart
    oracle, the independent route, cross-checks it on the 3-dim chart of
    the same f, and the flag holds only when both routes pass.  Neither
    route's cost grows with n.
    """
    if not (0 < r_min < r_max) or probes < 2:
        raise ModelError("need 0 < r_min < r_max and probes >= 2")
    radii = np.geomspace(r_min, r_max, probes)
    samples = [curvature_at(model, r) for r in radii]
    sec_margin = min(s.k_rad for s in samples)
    ric_margin = min(min(s.ric_rad, s.ric_tan) for s in samples)
    residual = max(ricci_gradient_norm(model, r) for r in radii)

    chart = fdcheck.warped_chart(ModelManifold(3, model.profile))
    # keep fd probes at moderate radii: the step must stay well below r for
    # the nested differences to see the geometry instead of noise
    fd_lo = min(max(r_min, 2.0), r_max)
    fd_hi = max(min(r_max, 20.0), fd_lo)
    sub = np.geomspace(fd_lo, fd_hi, fd_probes)
    fd_residual = 0.0
    for r in sub:
        point = fdcheck.warped_probe_point(3, r)
        fd_residual = max(fd_residual, fdcheck.check_parallel_ricci(chart, point, fd_h))

    # Vol B(t) / t^n = |B^n_1| q carries |B^n_1| -> 0, so the flag is decided
    # on q^{1/(n-1)}, which is a at every n wherever f = a r on (0, t]
    # (1 on euclidean, c on cones); both are increasing in q
    q_inf = min(_volume_ratio(model, t) for t in radii)
    vg_inf = sphere_area(model.n) / model.n * q_inf
    slope_inf = q_inf ** (1.0 / (model.n - 1))

    nonpar = nonparabolic_check(model, r_min).varopoulos_integral_finite

    # the fd residual carries O(h^2) noise, so its boolean gets a looser gate
    fd_tol = max(tol, 10.0 * fd_h**2)
    return HypothesisReport(
        nonneg_sectional_along_gradG=bool(sec_margin >= -tol),
        sectional_margin=float(sec_margin),
        nonneg_ricci=bool(ric_margin >= -tol),
        ricci_margin=float(ric_margin),
        parallel_ricci_residual=float(residual),
        parallel_ricci_fd_residual=float(fd_residual),
        parallel_ricci=bool(residual <= tol and fd_residual <= fd_tol),
        euclidean_volume_growth=bool(slope_inf >= tol),
        volume_growth_inf=float(vg_inf),
        volume_growth_slope_inf=float(slope_inf),
        nonparabolic=bool(nonpar),
        tol=float(tol),
    )
