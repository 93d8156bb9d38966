"""Rotationally symmetric model manifolds.

A model is R^n \\ {tip} with the warped-product metric

    g = dr^2 + f(r)^2 * g_{S^{n-1}},

so everything is determined by the dimension n and the warping profile
f.  Closed-form curvature of such metrics:

    k_rad = -f''/f            (planes containing the radial direction)
    k_tan = (1 - f'^2)/f^2    (purely tangential planes)

and Ric = ric_rad dr^2 + ric_tan (g - dr^2) with ric_rad = (n-1) k_rad,
ric_tan = k_rad + (n-2) k_tan.

The pieces of f are polynomials (`harnacklab.poly`).  Each preset is one
entry of `PRESETS`, which `model_from_id` parses; a custom table is read
and splined by `harnacklab.tables`, which only a custom profile loads.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Optional

from . import ModelError, quadrature
from .poly import Poly

__all__ = [
    "PRESETS",
    "WarpingProfile",
    "ModelManifold",
    "CurvatureSample",
    "HypothesisReport",
    "NonParabolicityReport",
    "table_profile",
    "model_from_id",
    "curvature_at",
    "hypothesis_report",
    "nonparabolic_check",
]

#: absolute tolerance on curvature margins for hypothesis booleans
DEFAULT_CURV_TOL = 1e-9
#: radii where the FD chart oracle cross-checks parallel Ricci
FD_PROBES = 3


class Piece(NamedTuple):
    """f(r) = sum_k coef[k] (r - x0)^k on [lo, hi).

    x0 is the apex of an affine piece, f = a (r - x0) with coef = (0, a):
    the cone a s in s = r - x0, s = r on every preset and closure piece;
    elsewhere x0 = lo, which keeps the powers of r - x0 small.  The
    profile's f, f' and f'', the Green kernels and the Clairaut sweeps all
    evaluate a piece by Horner's rule on one of its `row`s.
    """

    lo: float
    hi: float
    x0: float
    coef: tuple  # ascending powers of r - x0

    def row(self, k: int = 0) -> tuple:
        """The Horner row of f^(k): its coefficients in descending powers
        of t = r - x0, read as out = out * t + a from out = 0."""
        return Poly(self.coef).deriv(k).coef[::-1]

    @property
    def slope(self) -> Optional[float]:
        """a where f = a (r - x0) exactly on the piece, else None."""
        if len(self.coef) == 2 and self.coef[0] == 0.0:
            return self.coef[1]
        return None


def _smoothstep_blend(c, r0):
    """f = r (1 + (c-1) w(t)) on [r0/2, r0], in powers of t = r - r0/2,
    with w the C^2 quintic smoothstep: w(0) = 0, w(1) = 1 and w' = w'' = 0
    at both ends."""
    t = Poly((0.0, 1.0 / (0.5 * r0)))
    # Horner in t, the order in which numpy composes polynomials
    w = (((6.0 * t - 15.0) * t + 10.0) * t) * t * t
    return (Poly((0.5 * r0, 1.0)) * (1.0 + (c - 1.0) * w)).coef


def _euclidean():
    return [Piece(0.0, math.inf, 0.0, (0.0, 1.0))]


def _cone(c):
    if not 0.0 < c <= 1.0:  # NaN fails the comparison too
        raise ModelError("cone aperture c must satisfy 0 < c <= 1")
    return [Piece(0.0, math.inf, 0.0, (0.0, c))]


def _smoothed_cone(c, r0):
    """f = r near the tip, f = c r beyond r0, the C^2 quintic blend on [r0/2, r0]."""
    _cone(c)  # checks the aperture
    if not 0.0 < r0 < math.inf:
        raise ModelError("smoothed_cone requires a finite r0 > 0")
    a = 0.5 * r0
    return [Piece(0.0, a, 0.0, (0.0, 1.0)), Piece(a, r0, a, _smoothstep_blend(c, r0)),
            Piece(r0, math.inf, 0.0, (0.0, c))]


#: the preset models: name -> (its parameters' names, the builder that
#: checks them and returns the pieces of f)
PRESETS = {
    "euclidean": ((), _euclidean),
    "cone": (("c",), _cone),
    "smoothed-cone": (("c", "r0"), _smoothed_cone),
}


class WarpingProfile:
    """Warping function f(r) of a rotationally symmetric metric.

    `name` is its model id, a preset's (`PRESETS`) with its parameters, or
    ``custom`` (`table_profile`).  `pieces` hold f, one polynomial of r per
    interval, ascending; f and its derivatives of every order come from
    them alone.  `knots` are the radii where f changes polynomial.  `cover`,
    where the end is decided, is the pieces and, above a table's top, the
    line from the origin through it: the cover of (0, inf) G is closed on.
    """

    __slots__ = ("name", "pieces", "knots", "cover", "_rows")

    def __init__(self, name: str, pieces: list):
        top = pieces[-1].hi
        knots = [pc.lo for pc in pieces[1:]] + ([top] if top < math.inf else [])
        self.name, self.pieces, self.knots = name, tuple(pieces), tuple(knots)
        # _rows: the pieces' lo and x0, and for f, f' and f'' the Horner
        # rows (descending powers) of every piece
        rows = [[pc.row(k) for pc in pieces] for k in range(3)]
        los, x0s = [pc.lo for pc in pieces], [pc.x0 for pc in pieces]
        self._rows = (los, x0s, rows, top)
        self.cover = self.pieces if top == math.inf else (
            *self.pieces, Piece(top, math.inf, 0.0, (0.0, self.f(top) / top)))

    # -- evaluation ------------------------------------------------------

    def _eval(self, r, order):
        """Derivative `order` of f at r by Horner's rule on the piece holding r."""
        los, x0s, rows, top = self._rows
        r = float(r)
        if not 0.0 < r <= top:  # NaN fails the comparison too
            self._refuse(r)
        i = bisect.bisect_right(los, r) - 1
        t = r - x0s[i]
        out = 0.0
        for a in rows[order][i]:
            out = out * t + a
        return out

    def _refuse(self, r):
        if not r > 0.0:
            raise ModelError("profile is only defined for r > 0")
        raise ModelError(f"profile is only defined up to r = {self.pieces[-1].hi!r}, "
                         "the top of its table")

    def f(self, r):
        return self._eval(r, 0)

    def fp(self, r):
        return self._eval(r, 1)

    def fpp(self, r):
        return self._eval(r, 2)

    def piece_at(self, r: float) -> Piece:
        """The piece whose [lo, hi) holds r > 0 (the top piece of a table
        also holds its top)."""
        return self.pieces[bisect.bisect_right(self._rows[0], r) - 1]

    def ratio_range(self, lo, hi, numer, power=0):
        """(min, max) over [lo, hi] of N / f^power, where on each piece N =
        numer(F) for F the piece as a `Poly` in r - x0.

        On a piece (N/F^p)' = (N'F - p F'N) / F^(p+1) with F > 0, so the
        candidates are the ends of the piece's part of [lo, hi] (both
        one-sided values at a knot) and the real roots of N'F - p F'N
        inside it, which serve both extrema.  `Poly.real_roots` isolates
        them on the whole of a finite piece, so that a root, and the
        extremum there, reads the same on every window that holds it; on
        the top piece, which reaches to infinity, on the window's part.
        """
        if not 0.0 < lo <= hi <= self.pieces[-1].hi:
            raise ModelError(f"minimum over [{lo!r}, {hi!r}] leaves the profile's range")
        least, most = math.inf, -math.inf
        for pc in self.pieces:
            if pc.hi <= lo or pc.lo > hi:
                continue
            F = Poly(pc.coef)
            N = numer(F)
            u, v = max(lo, pc.lo) - pc.x0, min(hi, pc.hi) - pc.x0
            # with F > 0, N' alone where power = 0
            D = N.deriv() * F - power * F.deriv() * N if power else N.deriv()
            if pc.hi < math.inf:
                roots = [t for t in D.real_roots(pc.lo - pc.x0, pc.hi - pc.x0) if u <= t <= v]
            else:
                roots = D.real_roots(u, v)
            for t in (u, v, *roots):
                value = N(t) / F(t) ** power
                least, most = min(least, value), max(most, value)
        return least, most

    def fp_min(self, lo, hi):
        """Minimum of f' over [lo, hi]."""
        return self.ratio_range(lo, hi, Poly.deriv)[0]

    @property
    def tail_slope(self) -> float:
        """a of the end f = a (r - x0), the slope of the cover's top piece."""
        return self.cover[-1].slope


class ModelManifold:
    """Dimension n >= 3 together with a warping profile."""

    __slots__ = ("n", "profile")

    def __init__(self, n: int, profile: WarpingProfile):
        if int(n) != n or n < 3:
            raise ModelError("dimension must be an integer >= 3")
        self.n, self.profile = int(n), profile

    def describe(self) -> str:
        return self.profile.name


class CurvatureSample(NamedTuple):
    """Sectional and Ricci curvature of the warped metric at one radius."""

    r: float
    k_rad: float
    k_tan: float
    ric_rad: float
    ric_tan: float


class HypothesisReport(NamedTuple):
    """Where the model stands with respect to the curvature/volume hypotheses."""

    nonneg_sectional_along_gradG: bool
    sectional_margin: float
    nonneg_ricci: bool
    ricci_margin: float
    parallel_ricci_residual: float      # exact max |f'(1 - f'^2)| over the range
    parallel_ricci_fd_residual: Optional[float]  # FD oracle on the 3-dim chart;
                                                 # None where the exact route fails
    parallel_ricci: bool
    euclidean_volume_growth: bool
    tail_slope: float  # a of the end f ~ a r, decides the flag
    nonparabolic: bool

    def flags(self) -> dict:
        return {
            "nonneg_sectional_along_gradG": self.nonneg_sectional_along_gradG,
            "nonneg_ricci": self.nonneg_ricci,
            "parallel_ricci": self.parallel_ricci,
            "euclidean_volume_growth": self.euclidean_volume_growth,
            "nonparabolic": self.nonparabolic,
        }


class NonParabolicityReport(NamedTuple):
    varopoulos_integral_finite: bool
    tail_exponent: float


# ---------------------------------------------------------------------------


def table_profile(table) -> WarpingProfile:
    """The custom profile of an (r, f) sample table: the not-a-knot cubic
    spline through it, closed off below it by the line f = (f_0/r_0) r."""
    r, fvals = (list(map(float, col)) for col in table)
    if len(r) != len(fvals):
        raise ModelError("custom table needs as many f values as radii")
    if not all(map(math.isfinite, r + fvals)):
        raise ModelError("custom table must hold finite numbers")
    if len(r) < 4 or any(b <= a for a, b in zip(r, r[1:])):
        raise ModelError("custom table needs >= 4 strictly increasing radii")
    if r[0] <= 0 or min(fvals) <= 0:
        raise ModelError("custom table must have r > 0 and f > 0")
    from .tables import not_a_knot_rows

    # the line through the first row closes the table off below, so tip
    # integrals (volumes) stay defined
    pieces = [Piece(0.0, r[0], 0.0, (0.0, fvals[0] / r[0]))]
    pieces += [Piece(lo, hi, lo, row) for lo, hi, row
               in zip(r[:-1], r[1:], not_a_knot_rows(r, fvals))]
    return WarpingProfile("custom", pieces)


def model_from_id(model_id: str, n: int) -> ModelManifold:
    """Resolve a model id: a preset name of `PRESETS` and its parameters
    (euclidean | cone:<c> | smoothed-cone:<c>:<r0>, smoothed_cone read as
    smoothed-cone), or custom:<path>."""
    head, *params = model_id.split(":")
    if head == "custom" and params:
        from .tables import read_table

        return ModelManifold(n, table_profile(read_table(":".join(params))))
    if head == "smoothed_cone":
        head = "smoothed-cone"
    names, build = PRESETS.get(head, (None, None))
    if names is None or len(params) != len(names):
        raise ModelError(f"unrecognized model id {model_id!r}")
    values = [float(x) for x in params]
    name = ":".join([head, *(f"{v:g}" for v in values)])
    return ModelManifold(n, WarpingProfile(name, build(*values)))


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
        k_rad=k_rad,
        k_tan=k_tan,
        ric_rad=(n - 1) * k_rad,
        ric_tan=k_rad + (n - 2) * k_tan,
    )


def nonparabolic_check(model: ModelManifold) -> NonParabolicityReport:
    """Convergence of the volume integral test, via the decay rate of f^{1-n}.

    The integrand t / Vol B(t) behaves like f(t)^{1-n}, so the integral is
    finite iff the tail exponent of f^{1-n} is below -1.  On an end f = a r
    it is exactly 1 - n; a table ends at its top, so there it is (1 - n)
    times the log-log secant of f over [top/2, top].
    """
    p, n = model.profile, model.n
    top = p.pieces[-1].hi
    if top == math.inf:
        slope = 1.0
    else:
        slope = (math.log(p.f(top)) - math.log(p.f(top / 2.0))) / math.log(2.0)
    tail_exponent = (1 - n) * slope
    return NonParabolicityReport(
        varopoulos_integral_finite=tail_exponent < -1.0 - 1e-9,
        tail_exponent=tail_exponent,
    )


def hypothesis_report(model: ModelManifold, r_min: float, r_max: float) -> HypothesisReport:
    """Decide the curvature/volume hypotheses on [r_min, r_max].

    The gradient of the Green function is radial on these models, so
    nonnegative sectional curvature along it reduces to k_rad >= 0.  The
    sectional and Ricci margins are the exact minima over [r_min, r_max]
    (see WarpingProfile.ratio_range).

    Parallel Ricci: with Hess r = (f'/f)(g - dr^2), in an orthonormal frame

        |grad Ric|^2 = ric_rad'^2 + (n-1) ric_tan'^2
                       + 2 (n-1) (f'/f)^2 (ric_rad - ric_tan)^2,

    whose mixed term vanishes where f' = 0 or k_rad = k_tan, and then
    ric_rad' = 0 makes k_rad a constant K with f'' = -K f and
    f'^2 + K f^2 = 1.  A polynomial piece meets that only as a cylinder
    (f' = 0) or flat (K = 0, f'^2 = 1), so grad Ric = 0 on the range iff
    f'(1 - f'^2) vanishes there, the same at every n; the residual is its
    exact maximum modulus.  The finite-difference chart oracle, the
    independent route, cross-checks a True on the 3-dim chart of the same
    f, scaled where the window ends below r = 20, and the flag holds only
    when both routes pass; on a False it does not run, and its residual is
    None.

    Euclidean volume growth: Vol B(t) / (|B^n_1| t^n) is continuous and
    positive on (0, inf) and tends to a^{n-1} as t -> inf, a the tail
    slope, so the hypothesis holds iff a > 0.
    """
    if not 0 < r_min < r_max:
        raise ModelError("need 0 < r_min < r_max")
    p, n, tol = model.profile, model.n, DEFAULT_CURV_TOL
    # exact minima over [r_min, r_max]: k_rad = -f''/f, ric_rad = (n-1) k_rad
    # and ric_tan = (-f f'' + (n-2)(1 - f'^2)) / f^2
    sec_margin = p.ratio_range(r_min, r_max, lambda F: -F.deriv(2), 1)[0]
    ric_tan_min = p.ratio_range(
        r_min, r_max, lambda F: -F * F.deriv(2) + (n - 2) * (1.0 - F.deriv() ** 2), 2)[0]
    ric_margin = min((n - 1) * sec_margin, ric_tan_min)

    def flatness(F):  # f'(1 - f'^2): zero only on cylinders and flat pieces
        d = F.deriv()
        return d * (1.0 - d ** 2)

    # max |q| = max(|min q|, |max q|), both from one root-find per piece
    residual = max(map(abs, p.ratio_range(r_min, r_max, flatness)))

    parallel_ricci, fd_residual = residual <= tol, None
    if parallel_ricci:
        # the FD oracle can only overturn a True, so only a True loads it
        from . import fdcheck

        # the absolute step and gate read the model scaled by 1/L (f is then
        # s -> f(L s)/L, grad Ric L^3 times the model's) at s in [2, 20], L = 1
        # where r_max >= 20; no 3-step stencil reaches the window's top
        L = min(r_max / 20.0, 1.0)
        scaled = [Piece(pc.lo / L, pc.hi / L, pc.x0 / L, tuple(
            c * L ** (k - 1) for k, c in enumerate(pc.coef))) for pc in p.pieces]
        chart = fdcheck.warped_chart(ModelManifold(3, WarpingProfile(p.name, scaled)))
        top = r_max / L - 4.0 * fdcheck.DEFAULT_H
        fd_lo = min(max(r_min / L, 2.0), top)
        fd_hi = max(min(top, 20.0), fd_lo)
        # NaN if any probe is NaN, so the flag needs every probe finite
        fd_residual = fdcheck.max_residual(
            fdcheck.check_parallel_ricci(chart, fdcheck.warped_probe_point(3, r))
            for r in quadrature.geomspace(fd_lo, fd_hi, FD_PROBES if fd_lo < fd_hi else 1))
        # the fd residual carries O(h^2) noise, so its boolean gets a looser gate
        parallel_ricci = fd_residual <= max(tol, 10.0 * fdcheck.DEFAULT_H**2)

    nonpar = nonparabolic_check(model).varopoulos_integral_finite
    tail_slope = p.tail_slope

    return HypothesisReport(
        nonneg_sectional_along_gradG=sec_margin >= -tol,
        sectional_margin=sec_margin,
        nonneg_ricci=ric_margin >= -tol,
        ricci_margin=ric_margin,
        parallel_ricci_residual=residual,
        parallel_ricci_fd_residual=fd_residual,
        parallel_ricci=parallel_ricci,
        euclidean_volume_growth=tail_slope >= tol,
        tail_slope=tail_slope,
        nonparabolic=nonpar,
    )
