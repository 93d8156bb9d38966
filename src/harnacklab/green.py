"""Radial Green function profile on a model manifold.

On a warped product dr^2 + f(r)^2 g_{S^{n-1}} the minimal positive
Green function with pole at the tip is radial and harmonic away from
the pole, which pins it up to normalization:

    G(r)  = (n-2) * int_r^inf f(s)^{1-n} ds
    G'(r) = -(n-2) * f(r)^{1-n}
    G''(r) = (n-2)(n-1) * f(r)^{-n} * f'(r)

The constant is chosen so that G = r^{2-n} when f(r) = r.  Everything
else (b, b^2, |grad b|, Hess b^2) is a power of G, worked on floats and
arrays by `power_jet` in q1 = G'/G and q2 = G''/G: finite wherever G is.

G is computed piecewise.  (0, inf) is cut into pieces on which either
f = a*r exactly, where

    (n-2) * int_r^s (a t)^{1-n} dt = a^{1-n} (r^{2-n} - s^{2-n})

is closed, or f is not linear and Gauss-Legendre panels integrate it
(`quadrature.gauss_legendre`), one knot interval at a time: between two
knots f is one polynomial (the smoothed-cone blend, one interval of a
custom spline), so the rules converge fast there.  Euclidean space and
cones are one linear piece, so G = a^{1-n} r^{2-n} with no quadrature at
all.  A smoothed cone is linear below r0/2 and from r0 on; only its blend
[r0/2, r0) is integrated.  A custom profile is linear below its table,
integrated on its spline up to its top, and closed off above the top as
if f = (f(top)/top) r there (`WarpingProfile.tail_start` and
`tail_slope`, where every kind's end is decided).  The pieces are worked top
down, each starting from G at its upper end, and G at every knot is kept
with the profile.  So G(r), on the grid and pointwise alike, is G at the
next knot above r plus one integral from r to that knot, and an integral
whose error estimate misses its gate raises ModelError.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Optional

import numpy as np

from . import quadrature
from .models import ModelError, ModelManifold, nonparabolic_check

__all__ = [
    "RadialGreenProfile",
    "GreenPiece",
    "compute_profile",
    "green_derivs",
    "power_jet",
    "radial_laplacian",
    "hess_b2_eigs",
    "hess_b2_eigs_arrays",
    "check_power_laplacian",
    "in_float_range",
    "csv_text",
]

#: gate of the Gauss error estimate on each integral of f^{1-n}, relative
GREEN_RTOL = 1e-13


class GreenPiece(NamedTuple):
    """G on [lo, hi): closed form when f = slope*r there, else quadrature
    from the next knot up."""

    lo: float
    hi: float
    slope: Optional[float]  # None: f is not linear on the piece
    G_hi: float             # G(hi); 0 for the unbounded top piece
    knots: Optional[np.ndarray] = None    # quadrature piece: lo, knots of f, hi
    G_knots: Optional[np.ndarray] = None  # G at those knots


def _closed_G(piece: GreenPiece, n: int, r):
    """G(r) = G(hi) + a^{1-n} (r^{2-n} - hi^{2-n}) on a linear piece
    (hi = inf contributes hi^{2-n} = 0)."""
    return piece.G_hi + piece.slope ** (1 - n) * (r ** (2 - n) - piece.hi ** (2 - n))


def _quad_f_pow(model: ModelManifold, r, s):
    """(n-2) * int_r^s f^{1-n} for each pair (r, s), floats or arrays, each
    inside one polynomial piece of f; refuses an estimate past GREEN_RTOL."""
    n, p = model.n, model.profile
    val, _, missed = quadrature.gauss_legendre(lambda t: p.f(t) ** (1 - n), r, s,
                                               rtol=GREEN_RTOL)
    if np.any(missed):
        raise ModelError(f"Green quadrature missed its gate {GREEN_RTOL:g} on "
                         f"[{np.min(r):.17g}, {np.max(s):.17g}] at n={n}")
    return (n - 2) * val


def _knot_G(piece: GreenPiece, model: ModelManifold, r):
    """G(r) on a quadrature piece: G at the first knot >= r plus one integral."""
    k = np.searchsorted(piece.knots, r)
    return piece.G_knots[k] + _quad_f_pow(model, r, piece.knots[k])


def green_derivs(n: int, x, fp, a=1.0):
    """(G', G'') where f = a x and f' = fp, at the same radii.

    In general a = 1 and x = f.  Where f = a r exactly, pass the slope a
    and x = r: the powers f^{1-n} = a^{1-n} r^{1-n} are then taken of a
    and r apart, as `_closed_G` takes them, and not of the rounded product
    a r, whose rounding the power would multiply by n.
    """
    return (-(n - 2) * a ** (1 - n) * x ** (1 - n),
            (n - 2) * (n - 1) * a ** (-n) * x ** (-n) * fp)


def _linear_split(model: ModelManifold, r, f):
    """(x, a) with f = a x at the radii r (floats or arrays): (r, slope)
    on the pieces where f = slope*r, (f, 1) elsewhere; see `green_derivs`."""
    p = model.profile
    if isinstance(r, float):
        a = p.piece_at(r).slope
        return (f, 1.0) if a is None else (r, a)
    r = np.asarray(r, dtype=float)
    x, scale = np.array(f, dtype=float), np.ones_like(r)
    for pc in p.pieces:
        if pc.slope is not None:
            inside = (r >= pc.lo) & (r < pc.hi)
            x[inside], scale[inside] = r[inside], pc.slope
    return x, scale


def power_jet(G, q1, q2, beta: float):
    """(u, u', u'') of u = G^beta, from q1 = G'/G and q2 = G''/G."""
    u = G**beta
    return u, beta * u * q1, beta * u * ((beta - 1) * q1 * q1 + q2)


def radial_laplacian(n: int, f, fp, up, upp):
    """Laplace-Beltrami of a radial function: u'' + (n-1)(f'/f)u'."""
    return upp + (n - 1) * fp / f * up


def _b2_hessian(n: int, G, q1, q2, f, fp):
    """(b^2, b^2', mu_rad, mu_tan) for b^2 = G^{2/(2-n)}; the Hessian of a
    radial u is u'' on the radial line and u' f'/f on the sphere."""
    b2, b2p, b2pp = power_jet(G, q1, q2, 2.0 / (2 - n))
    return b2, b2p, b2pp, b2p * fp / f


@dataclass(frozen=True)
class RadialGreenProfile:
    """G and its companions sampled on a grid, with exact radial derivatives."""

    model: ModelManifold
    grid: np.ndarray
    G: np.ndarray
    Gp: np.ndarray
    Gpp: np.ndarray
    b: np.ndarray
    b2: np.ndarray
    b2p: np.ndarray
    grad_b: np.ndarray
    mu_rad: np.ndarray      # eigenvalues of Hess b^2 relative to g
    mu_tan: np.ndarray
    pieces: tuple  # GreenPiece cover of (0, inf), ascending

    # -- pointwise evaluation (exact up to the quadrature of G itself) ----

    def green_at(self, r: float) -> float:
        """G(r) for any finite r > 0: closed form, or quadrature up to the next knot."""
        if not 0.0 < r < math.inf:
            raise ModelError(f"G is defined for a finite r > 0, got r={r!r}")
        piece = next(pc for pc in self.pieces if r < pc.hi)
        if piece.slope is not None:
            return _closed_G(piece, self.model.n, r)
        return float(_knot_G(piece, self.model, r))

    def green_derivs_at(self, r: float):
        """(G, G', G'', f, f') at r, the derivatives of G in closed form.

        Refuses an r where G, G' or G'' leaves the float range, as
        `compute_profile` does on the grid; G > 0, so G = 0 is an underflow.
        """
        n, p = self.model.n, self.model.profile
        try:
            G = self.green_at(r)
            f, fp = p.f(r), p.fp(r)
            x, a = _linear_split(self.model, r, f)
            Gp, Gpp = green_derivs(n, x, fp, a)
            ok = G > 0 and in_float_range(np.array([G, Gp, Gpp]))
        except OverflowError:  # a float power past the range, e.g. r^{-n}
            ok = False
        if not ok:
            raise ModelError(f"G, G' or G'' leaves the float range at n={n}, r={r:g}; "
                             "lower n or choose another r")
        return G, Gp, Gpp, f, fp

    def b2_at(self, r: float) -> float:
        n = self.model.n
        return self.green_at(r) ** (2.0 / (2 - n))

    def to_csv(self) -> str:
        return csv_text("r,G,Gp,Gpp,b,b2,grad_b,mu_rad,mu_tan", zip(
            self.grid, self.G, self.Gp, self.Gpp, self.b, self.b2,
            self.grad_b, self.mu_rad, self.mu_tan))


def csv_text(header: str, rows) -> str:
    """A header line, then one line per row of numbers in 17 significant digits."""
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(",".join(format(v, ".17g") for v in row) + "\n")
    return buf.getvalue()


def in_float_range(values) -> bool:
    """Every value finite and 0 or normal: a subnormal keeps few digits."""
    mag = np.abs(values)
    return bool(np.all(np.isfinite(mag) & ((mag == 0) | (mag >= np.finfo(float).tiny))))


def default_grid(r_min=1e-2, r_max=1e2, size=512) -> np.ndarray:
    return np.geomspace(r_min, r_max, size)


@np.errstate(all="ignore")  # past the float range: refused below, not warned
def compute_profile(model: ModelManifold, grid=None) -> RadialGreenProfile:
    """G on the grid, piece by piece from the top down (see module doc)."""
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ModelError("grid must be strictly increasing with >= 2 points")
    if grid[0] <= 0:
        raise ModelError("grid must stay inside (0, inf); G has a pole at r = 0")
    rep = nonparabolic_check(model)
    if not rep.varopoulos_integral_finite:
        raise ModelError(
            f"model is parabolic (tail exponent {rep.tail_exponent:.3g} >= -1); "
            "no positive Green function"
        )
    n, p = model.n, model.profile

    # (lo, hi, slope, knots) covering (0, inf): each piece of f = slope*r
    # is closed, each run of other pieces one quadrature piece on its knots
    S, a_top = p.tail_start, p.tail_slope
    spans = []
    below = (pc for pc in p.pieces if pc.lo < S)
    for linear, run in groupby(below, key=lambda pc: pc.slope is not None):
        run = list(run)
        if linear:
            spans += [(pc.lo, pc.hi, pc.slope, None) for pc in run]
        else:
            hi = run[-1].hi
            spans.append((run[0].lo, hi, None, np.array([pc.lo for pc in run] + [hi])))
    spans.append((S, math.inf, a_top, None))

    G = np.empty_like(grid)
    pieces = []
    G_hi = 0.0  # G(inf)
    for lo, hi, a, knots in reversed(spans):
        inside = (grid >= lo) & (grid < hi)
        if a is not None:
            piece = GreenPiece(lo, hi, a, G_hi)
            G[inside] = _closed_G(piece, n, grid[inside])
            if lo > 0:
                G_hi = _closed_G(piece, n, lo)
        else:
            # G at the knots, accumulated from the top
            seg = _quad_f_pow(model, knots[:-1], knots[1:])
            G_knots = G_hi + np.append(np.cumsum(seg[::-1])[::-1], 0.0)
            piece = GreenPiece(lo, hi, a, G_hi, knots, G_knots)
            G[inside] = _knot_G(piece, model, grid[inside])
            G_hi = float(G_knots[0])
        pieces.append(piece)

    fg, fpg = p.f(grid), p.fp(grid)
    x, a = _linear_split(model, grid, fg)
    Gp, Gpp = green_derivs(n, x, fpg, a)
    q1, q2 = Gp / G, Gpp / G
    b, bp, _ = power_jet(G, q1, q2, 1.0 / (2 - n))
    b2, b2p, mu_rad, mu_tan = _b2_hessian(n, G, q1, q2, fg, fpg)
    columns = dict(G=G, Gp=Gp, Gpp=Gpp, b=b, b2=b2, b2p=b2p, grad_b=np.abs(bp),
                   mu_rad=mu_rad, mu_tan=mu_tan)
    for name, col in columns.items():
        if not in_float_range(col):
            raise ModelError(f"{name} leaves the float range on the grid at n={n}, "
                             f"r_min={grid[0]:g}, r_max={grid[-1]:g}; lower n "
                             "or narrow the radii")
    return RadialGreenProfile(
        model=model, grid=grid, pieces=tuple(reversed(pieces)), **columns)


def hess_b2_eigs(profile: RadialGreenProfile, r: float):
    """Eigenvalues (mu_rad, mu_tan) of Hess b^2 relative to g at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    G, Gp, Gpp, f, fp = profile.green_derivs_at(r)
    *_, mu_rad, mu_tan = _b2_hessian(profile.model.n, G, Gp / G, Gpp / G, f, fp)
    return float(mu_rad), float(mu_tan)


def hess_b2_eigs_arrays(profile: RadialGreenProfile):
    """(mu_rad, mu_tan) over the whole grid."""
    return profile.mu_rad, profile.mu_tan


def check_power_laplacian(profile: RadialGreenProfile, r: float, beta: float) -> float:
    """| Delta(G^beta) - beta(beta-1) G^{beta-2} |grad G|^2 | at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    G, Gp, Gpp, f, fp = profile.green_derivs_at(r)
    q1 = Gp / G
    u, up, upp = power_jet(G, q1, Gpp / G, beta)
    lhs = radial_laplacian(profile.model.n, f, fp, up, upp)
    rhs = beta * (beta - 1) * u * q1 * q1
    return abs(lhs - rhs)
