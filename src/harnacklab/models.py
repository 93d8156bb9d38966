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
from typing import NamedTuple, Optional

import numpy as np

from . import ModelError

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
    "hypothesis_report",
    "nonparabolic_check",
]

#: absolute tolerance on curvature margins for hypothesis booleans
DEFAULT_CURV_TOL = 1e-9
#: radii where the FD chart oracle cross-checks parallel Ricci
FD_PROBES = 3


class Piece(NamedTuple):
    """f(r) = sum_k coef[k] (r - x0)^k on [lo, hi).

    x0 = 0 where f = a r, so a r is evaluated as the product itself;
    elsewhere x0 = lo, which keeps the powers of r - x0 small.
    """

    lo: float
    hi: float
    x0: float
    coef: tuple  # ascending powers of r - x0

    @property
    def slope(self) -> Optional[float]:
        """a where f = a r exactly on the piece, else None."""
        if self.x0 == 0.0 and len(self.coef) == 2 and self.coef[0] == 0.0:
            return self.coef[1]
        return None


class Poly:
    """A polynomial as its tuple of ascending coefficients, in plain float
    arithmetic: sums, products and integer powers with floats and other
    Polys, derivatives, Horner evaluation at a float, and real roots.
    The smoothed-cone blend, the derivative rows of every profile and the
    margins of `WarpingProfile.min_ratio` are built from these."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = tuple(coef)

    @staticmethod
    def _coef(x):
        return x.coef if isinstance(x, Poly) else (float(x),)

    def __add__(self, other):
        a, b = self.coef, self._coef(other)
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return Poly(-x for x in self.coef)

    def __sub__(self, other):
        return self + -Poly(self._coef(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = self._coef(other)
        out = [0.0] * (len(self.coef) + len(b) - 1)
        for i, x in enumerate(self.coef):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly((1.0,))
        for _ in range(k):
            out = out * self
        return out

    def deriv(self, m: int = 1) -> "Poly":
        c = self.coef
        for _ in range(m):
            c = tuple(k * x for k, x in enumerate(c))[1:] or (0.0,)
        return Poly(c)

    def __call__(self, t: float) -> float:
        out = 0.0
        for a in reversed(self.coef):
            out = out * t + a
        return out

    def roots(self) -> list:
        """Real parts of the roots (none for a constant), by numpy's
        `polyroots`: the eigenvalues of the companion matrix."""
        c = self.coef
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        return np.polynomial.polynomial.polyroots(c).real.tolist() if len(c) > 1 else []


def _not_a_knot_rows(x, y):
    """Ascending coefficients, in t = r - x[i], of the cubic spline through
    (x, y) on each [x[i], x[i+1]], for >= 4 strictly increasing x, with a
    third derivative continuous at x[1] and x[-2] (not-a-knot ends).

    The knot slopes s solve a tridiagonal system; row i is
    (y_i, s_i, (m_i - s_i)/dx_i - u_i, u_i/dx_i) with m_i the secant slope
    and u_i = (s_i + s_{i+1} - 2 m_i)/dx_i.
    """
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
    u = (s[:-1] + s[1:] - 2.0 * m) / dx
    return np.stack([y[:-1], s[:-1], (m - s[:-1]) / dx - u, u / dx], axis=1)


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


def _smoothstep_blend(c, r0):
    """f = r (1 + (c-1) w(t)) on [r0/2, r0], in powers of t = r - r0/2,
    with w the C^2 quintic smoothstep: w(0) = 0, w(1) = 1 and w' = w'' = 0
    at both ends."""
    t = Poly((0.0, 1.0 / (0.5 * r0)))
    # Horner in t, the order in which numpy composes polynomials
    w = (((6.0 * t - 15.0) * t + 10.0) * t) * t * t
    return (Poly((0.5 * r0, 1.0)) * (1.0 + (c - 1.0) * w)).coef


@dataclass(frozen=True)
class WarpingProfile:
    """Warping function f(r) of a rotationally symmetric metric.

    kind
        one of ``euclidean`` (f = r), ``cone`` (f = c*r), ``smoothed_cone``
        (f = r near the tip, f = c*r beyond r0, C^2 quintic blend on
        [r0/2, r0]) or ``custom`` (cubic spline through a sampled table,
        closed off below it by the line f = (f_0/r_0) r).

    Every kind is stored as `pieces`, one polynomial of r per interval,
    ascending; f and its derivatives of every order come from them alone.
    `knots` are the radii where f changes polynomial.
    """

    kind: str
    c: Optional[float] = None
    r0: Optional[float] = None
    table: Optional[tuple] = None  # (r, f) samples for kind == "custom"
    pieces: tuple = field(init=False, repr=False, compare=False)
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in ("cone", "smoothed_cone"):
            if self.c is None or not (0.0 < self.c <= 1.0):
                raise ModelError("cone aperture c must satisfy 0 < c <= 1")
        if self.kind == "smoothed_cone":
            if self.r0 is None or not 0.0 < self.r0 < math.inf:
                raise ModelError("smoothed_cone requires a finite r0 > 0")
        if self.kind == "euclidean":
            pieces = [Piece(0.0, math.inf, 0.0, (0.0, 1.0))]
        elif self.kind == "cone":
            pieces = [Piece(0.0, math.inf, 0.0, (0.0, self.c))]
        elif self.kind == "smoothed_cone":
            a, b = 0.5 * self.r0, self.r0
            pieces = [Piece(0.0, a, 0.0, (0.0, 1.0)),
                      Piece(a, b, a, _smoothstep_blend(self.c, self.r0)),
                      Piece(b, math.inf, 0.0, (0.0, self.c))]
        elif self.kind == "custom":
            if self.table is None:
                raise ModelError("custom profile requires a sample table")
            r, fvals = np.asarray(self.table[0], float), np.asarray(self.table[1], float)
            if r.ndim != 1 or r.size < 4 or np.any(np.diff(r) <= 0):
                raise ModelError("custom table needs >= 4 strictly increasing radii")
            if np.any(r <= 0) or np.any(fvals <= 0):
                raise ModelError("custom table must have r > 0 and f > 0")
            # the line through the first row closes the table off below,
            # so tip integrals (volumes) stay defined
            x = r.tolist()
            pieces = [Piece(0.0, x[0], 0.0, (0.0, float(fvals[0]) / x[0]))]
            pieces += [Piece(lo, hi, lo, tuple(row)) for lo, hi, row
                       in zip(x[:-1], x[1:], _not_a_knot_rows(r, fvals).tolist())]
        else:
            raise ModelError(f"unknown profile kind {self.kind!r}")
        top = pieces[-1].hi
        knots = [pc.lo for pc in pieces[1:]] + ([top] if top < math.inf else [])
        object.__setattr__(self, "pieces", tuple(pieces))
        object.__setattr__(self, "knots", np.array(knots))
        # _rows: per derivative order, the Horner rows (descending powers)
        # of every piece, as lists for floats and, zero-padded to a common
        # height, as one array column per piece; with the pieces' lo and x0
        rows = [[list(Poly(pc.coef).deriv(k).coef[::-1]) for pc in pieces]
                for k in range(4)]
        height = len(max(rows[0], key=len))
        cols = [np.array([[0.0] * (height - len(row)) + row for row in order]).T.copy()
                for order in rows]
        los, x0s = [pc.lo for pc in pieces], [pc.x0 for pc in pieces]
        object.__setattr__(self, "_rows", (los, x0s, rows, top,
                                           np.array(los), np.array(x0s), cols))

    # -- evaluation ------------------------------------------------------

    def _eval(self, r, order):
        """Derivative `order` of f by Horner's rule on the piece holding r.

        A float (np.float64 included) runs in plain float arithmetic, as
        numpy boxing would cost far more than the polynomial; an array
        runs the same operations elementwise.
        """
        los, x0s, rows, top, lo_arr, x0_arr, cols = self._rows
        if isinstance(r, float):
            r = float(r)
            if not 0.0 < r <= top:  # NaN fails the comparison too
                self._refuse(r)
            i = bisect.bisect_right(los, r) - 1
            t = r - x0s[i]
            out = 0.0
            for a in rows[order][i]:
                out = out * t + a
            return out
        r = np.asarray(r, dtype=float)
        if r.size and not (r.min() > 0.0 and (top == math.inf or r.max() <= top)):
            self._refuse(r)
        i = lo_arr.searchsorted(r, side="right") - 1
        t = r - x0_arr.take(i)
        coef = cols[order].take(i, axis=1)
        out = coef[0] * t
        for a in coef[1:-1]:
            out += a
            out *= t
        out += coef[-1]
        return float(out) if out.ndim == 0 else out

    def _refuse(self, r):
        if not np.all(np.asarray(r) > 0.0):
            raise ModelError("profile is only defined for r > 0")
        raise ModelError(f"profile is only defined up to r = {self.pieces[-1].hi!r}, "
                         "the top of its table")

    def f(self, r):
        return self._eval(r, 0)

    def fp(self, r):
        return self._eval(r, 1)

    def fpp(self, r):
        return self._eval(r, 2)

    def fppp(self, r):
        return self._eval(r, 3)

    def piece_at(self, r: float) -> Piece:
        """The piece whose [lo, hi) holds r > 0 (the top piece of a table
        also holds its top)."""
        return self.pieces[bisect.bisect_right(self._rows[0], r) - 1]

    def min_ratio(self, lo, hi, numer, power=0):
        """min over [lo, hi] of N / f^power, where on each piece N =
        numer(F) for F the piece as a `Poly` in r - x0.

        On a piece (N/F^p)' = (N'F - p F'N) / F^(p+1) with F > 0, so the
        candidates are the ends of the piece's part of [lo, hi] (both
        one-sided values at a knot) and the real roots of N'F - p F'N
        inside it.  Complex roots are taken by their real part: they add
        only values the function takes, never one below its minimum.
        """
        if not 0.0 < lo <= hi <= self.pieces[-1].hi:
            raise ModelError(f"minimum over [{lo!r}, {hi!r}] leaves the profile's range")
        out = math.inf
        for pc in self.pieces:
            if pc.hi <= lo or pc.lo > hi:
                continue
            F = Poly(pc.coef)
            N = numer(F)
            u, v = max(lo, pc.lo) - pc.x0, min(hi, pc.hi) - pc.x0
            roots = (N.deriv() * F - power * F.deriv() * N).roots()
            for t in (u, v, *(x for x in roots if u < x < v)):
                out = min(out, N(t) / F(t) ** power)
        return out

    def fp_min(self, lo, hi):
        """Minimum of f' over [lo, hi]."""
        return self.min_ratio(lo, hi, Poly.deriv)

    @property
    def tail_start(self) -> float:
        """S from which the end is f = tail_slope * r: the lower end of a top
        piece that reaches to infinity, a table's top (f is undefined above
        it, and G is closed beyond it as if f = a r there)."""
        top = self.pieces[-1]
        return top.lo if top.hi == math.inf else top.hi

    @property
    def tail_slope(self) -> float:
        """a of the end f ~ a r from `tail_start` on: the top piece's slope
        where it reaches to infinity, f(top)/top at a table's top."""
        top = self.pieces[-1]
        if top.hi == math.inf:
            return top.slope
        return self.f(top.hi) / top.hi


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
    parallel_ricci_residual: float      # exact max |f'(1 - f'^2)| over the range
    parallel_ricci_fd_residual: Optional[float]  # FD oracle on the 3-dim chart;
                                                 # None where the exact route fails
    parallel_ricci: bool
    euclidean_volume_growth: bool
    tail_slope: float  # a of the end f ~ a r, decides the flag
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
        varopoulos_integral_finite=bool(tail_exponent < -1.0 - 1e-9),
        tail_exponent=float(tail_exponent),
    )


def hypothesis_report(model: ModelManifold, r_min: float, r_max: float) -> HypothesisReport:
    """Decide the curvature/volume hypotheses on [r_min, r_max].

    The gradient of the Green function is radial on these models, so
    nonnegative sectional curvature along it reduces to k_rad >= 0.  The
    sectional and Ricci margins are the exact minima over [r_min, r_max]
    (see WarpingProfile.min_ratio).

    Parallel Ricci: the mixed term of |grad Ric| (see ricci_gradient_norm)
    vanishes where f' = 0 or k_rad = k_tan, and then ric_rad' = 0 makes
    k_rad a constant K with f'' = -K f and f'^2 + K f^2 = 1.  A polynomial
    piece meets that only as a cylinder (f' = 0) or flat (K = 0, f'^2 = 1),
    so grad Ric = 0 on the range iff f'(1 - f'^2) vanishes there, the same
    at every n; the residual is its exact maximum modulus.  The
    finite-difference chart oracle, the independent route, cross-checks a
    True on the 3-dim chart of the same f, and the flag holds only when
    both routes pass; on a False it does not run, and its residual is None.

    Euclidean volume growth: Vol B(t) / (|B^n_1| t^n) is continuous and
    positive on (0, inf) and tends to a^{n-1} as t -> inf, a the tail
    slope, so the hypothesis holds iff a > 0.
    """
    if not 0 < r_min < r_max:
        raise ModelError("need 0 < r_min < r_max")
    p, n, tol = model.profile, model.n, DEFAULT_CURV_TOL
    # exact minima over [r_min, r_max]: k_rad = -f''/f, ric_rad = (n-1) k_rad
    # and ric_tan = (-f f'' + (n-2)(1 - f'^2)) / f^2
    sec_margin = p.min_ratio(r_min, r_max, lambda F: -F.deriv(2), 1)
    ric_tan_min = p.min_ratio(
        r_min, r_max, lambda F: -F * F.deriv(2) + (n - 2) * (1.0 - F.deriv() ** 2), 2)
    ric_margin = min((n - 1) * sec_margin, ric_tan_min)

    def flatness(F):  # f'(1 - f'^2): zero only on cylinders and flat pieces
        d = F.deriv()
        return d * (1.0 - d ** 2)

    # max |q| = max(|min q|, |min -q|)
    residual = max(abs(p.min_ratio(r_min, r_max, flatness)),
                   abs(p.min_ratio(r_min, r_max, lambda F: -flatness(F))))

    parallel_ricci, fd_residual = residual <= tol, None
    if parallel_ricci:
        # the FD oracle can only overturn a True, so only a True loads it
        from . import fdcheck

        chart = fdcheck.warped_chart(ModelManifold(3, model.profile))
        # keep fd probes at moderate radii: the step must stay well below r for
        # the nested differences to see the geometry instead of noise
        fd_lo = min(max(r_min, 2.0), r_max)
        fd_hi = max(min(r_max, 20.0), fd_lo)
        # NaN if any probe is NaN, so the flag needs every probe finite
        fd_residual = fdcheck.max_residual(
            fdcheck.check_parallel_ricci(chart, fdcheck.warped_probe_point(3, r))
            for r in np.geomspace(fd_lo, fd_hi, FD_PROBES))
        # the fd residual carries O(h^2) noise, so its boolean gets a looser gate
        parallel_ricci = fd_residual <= max(tol, 10.0 * fdcheck.DEFAULT_H**2)

    nonpar = nonparabolic_check(model).varopoulos_integral_finite
    tail_slope = p.tail_slope

    return HypothesisReport(
        nonneg_sectional_along_gradG=bool(sec_margin >= -tol),
        sectional_margin=float(sec_margin),
        nonneg_ricci=bool(ric_margin >= -tol),
        ricci_margin=float(ric_margin),
        parallel_ricci_residual=float(residual),
        parallel_ricci_fd_residual=fd_residual,
        parallel_ricci=bool(parallel_ricci),
        euclidean_volume_growth=bool(tail_slope >= tol),
        tail_slope=float(tail_slope),
        nonparabolic=bool(nonpar),
        tol=float(tol),
    )
