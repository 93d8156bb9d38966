"""Radial Green function profile on a model manifold.

On a warped product dr^2 + f(r)^2 g_{S^{n-1}} the minimal positive
Green function with pole at the tip is radial and harmonic away from
the pole, which pins it up to normalization:

    G(r)  = (n-2) * int_r^inf f(s)^{1-n} ds
    G'(r) = -(n-2) * f(r)^{1-n}
    G''(r) = (n-2)(n-1) * f(r)^{-n} * f'(r)

The constant is chosen so that G = r^{2-n} when f(r) = r.  Everything
else (b, b^2, |grad b|, Hess b^2) is a power of G, worked by `power_jet`
in q1 = G'/G and q2 = G''/G: finite wherever G is.  One kernel,
`_derivs_at`, gives G' and G'' at a radius, on the grid and pointwise
alike, in plain floats; a power past the float range is inf there, so
that the range checks name what left it.

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

import bisect
import io
import math
import sys
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Optional

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
    knots: Optional[tuple] = None    # quadrature piece: lo, knots of f, hi
    G_knots: Optional[tuple] = None  # G at those knots


def _pow(x, y):
    """x ** y, inf where it overflows or x = 0 < -y: a value past the float
    range is refused by `in_float_range`, not raised on the way."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _closed_G(piece: GreenPiece, n: int, r_pow: float) -> float:
    """G(r) = G(hi) + a^{1-n} (r^{2-n} - hi^{2-n}) on a linear piece, from
    r_pow = r^{2-n} (hi = inf contributes hi^{2-n} = 0)."""
    return piece.G_hi + piece.slope ** (1 - n) * (r_pow - piece.hi ** (2 - n))


def _quad_f_pow(model: ModelManifold, r: list, s: list) -> list:
    """(n-2) * int_r^s f^{1-n} for each pair (r, s), each inside one
    polynomial piece of f; refuses an estimate past GREEN_RTOL."""
    n, p = model.n, model.profile
    val, _, missed = quadrature.gauss_legendre(lambda t: _pow(p.f(t), 1 - n), r, s,
                                               rtol=GREEN_RTOL)
    if any(missed):
        raise ModelError(f"Green quadrature missed its gate {GREEN_RTOL:g} on "
                         f"[{min(r):.17g}, {max(s):.17g}] at n={n}")
    return [(n - 2) * v for v in val]


def _knot_G(piece: GreenPiece, model: ModelManifold, r: list) -> list:
    """G at each radius of r on a quadrature piece: G at the first knot >= r
    plus one integral."""
    k = [bisect.bisect_left(piece.knots, x) for x in r]
    seg = _quad_f_pow(model, r, [piece.knots[i] for i in k])
    return [piece.G_knots[i] + v for i, v in zip(k, seg)]


def green_derivs(n: int, x, fp, a=1.0):
    """(G', G'') where f = a x and f' = fp, at the same radii.

    In general a = 1 and x = f.  Where f = a r exactly, pass the slope a
    and x = r: the powers f^{1-n} = a^{1-n} r^{1-n} are then taken of a
    and r apart, as `_closed_G` takes them, and not of the rounded product
    a r, whose rounding the power would multiply by n.
    """
    return (-(n - 2) * _pow(a, 1 - n) * _pow(x, 1 - n),
            (n - 2) * (n - 1) * _pow(a, -n) * _pow(x, -n) * fp)


def _derivs_at(model: ModelManifold, r: float):
    """(G', G'', f, f') at r by `green_derivs`, with x = r and the slope a
    where f = a r exactly."""
    n, p = model.n, model.profile
    f, fp = p.f(r), p.fp(r)
    a = p.piece_at(r).slope
    Gp, Gpp = green_derivs(n, f, fp) if a is None else green_derivs(n, r, fp, a)
    return Gp, Gpp, f, fp


def power_jet(G, q1, q2, beta: float):
    """(u, u', u'') of u = G^beta, from q1 = G'/G and q2 = G''/G."""
    u = _pow(G, beta)
    return u, beta * u * q1, beta * u * ((beta - 1) * q1 * q1 + q2)


def radial_laplacian(n: int, f, fp, up, upp):
    """Laplace-Beltrami of a radial function: u'' + (n-1)(f'/f)u'."""
    return upp + (n - 1) * fp / f * up


def _b2_hessian(n: int, G, q1, q2, f, fp):
    """(b^2, b^2', mu_rad, mu_tan) for b^2 = G^{2/(2-n)}; the Hessian of a
    radial u is u'' on the radial line and u' f'/f on the sphere."""
    b2, b2p, b2pp = power_jet(G, q1, q2, 2.0 / (2 - n))
    return b2, b2p, b2pp, b2p * fp / f


#: the columns of a profile, in the order their float range is checked
COLUMNS = ("G", "Gp", "Gpp", "b", "b2", "b2p", "grad_b", "mu_rad", "mu_tan")


@dataclass(frozen=True)
class RadialGreenProfile:
    """G and its companions sampled on a grid, with exact radial derivatives;
    each column is a tuple of floats, one per grid radius."""

    model: ModelManifold
    grid: tuple
    G: tuple
    Gp: tuple
    Gpp: tuple
    b: tuple
    b2: tuple
    b2p: tuple
    grad_b: tuple
    mu_rad: tuple      # eigenvalues of Hess b^2 relative to g
    mu_tan: tuple
    pieces: tuple  # GreenPiece cover of (0, inf), ascending

    # -- pointwise evaluation (exact up to the quadrature of G itself) ----

    def green_at(self, r: float) -> float:
        """G(r) for any finite r > 0: closed form, or quadrature up to the next knot."""
        if not 0.0 < r < math.inf:
            raise ModelError(f"G is defined for a finite r > 0, got r={r!r}")
        piece = next(pc for pc in self.pieces if r < pc.hi)
        if piece.slope is not None:
            return _closed_G(piece, self.model.n, r ** (2 - self.model.n))
        return _knot_G(piece, self.model, [r])[0]

    def green_derivs_at(self, r: float):
        """(G, G', G'', f, f') at r, the derivatives of G in closed form.

        Refuses an r where G, G' or G'' leaves the float range, as
        `compute_profile` does on the grid; G > 0, so G = 0 is an underflow.
        """
        try:
            G = self.green_at(r)
        except OverflowError:  # r^{2-n} past the range
            G = math.inf
        Gp, Gpp, f, fp = _derivs_at(self.model, r)
        if not (G > 0 and in_float_range((G, Gp, Gpp))):
            raise ModelError(f"G, G' or G'' leaves the float range at n={self.model.n}, "
                             f"r={r:g}; lower n or choose another r")
        return G, Gp, Gpp, f, fp

    def b2_at(self, r: float) -> float:
        n = self.model.n
        G = self.green_at(r)
        b2 = _pow(G, 2.0 / (2 - n))
        if not (G > 0 and in_float_range((G, b2))):
            raise ModelError(f"G or b^2 leaves the float range at n={n}, r={r:g}; "
                             "lower n or choose another r")
        return b2

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


_TINY = sys.float_info.min


def in_float_range(values) -> bool:
    """Every value finite and 0 or normal: a subnormal keeps few digits."""
    return all(_TINY <= abs(v) < math.inf or v == 0.0 for v in values)


def default_grid(r_min=1e-2, r_max=1e2, size=512) -> tuple:
    return quadrature.geomspace(r_min, r_max, size)


def compute_profile(model: ModelManifold, grid=None) -> RadialGreenProfile:
    """G on the grid, piece by piece from the top down (see module doc)."""
    if grid is None:
        grid = default_grid()
    grid = tuple(map(float, grid))
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
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
            spans.append((run[0].lo, hi, None, tuple([pc.lo for pc in run] + [hi])))
    spans.append((S, math.inf, a_top, None))

    G = []
    pieces = []
    G_hi = 0.0  # G(inf)
    for lo, hi, a, knots in reversed(spans):
        inside = [r for r in grid if lo <= r < hi]
        if a is not None:
            piece = GreenPiece(lo, hi, a, G_hi)
            # r^{2-n} is inf past the range, so the G column is refused whole
            G = [_closed_G(piece, n, _pow(r, 2 - n)) for r in inside] + G
            if lo > 0:
                G_hi = _closed_G(piece, n, lo ** (2 - n))
        else:
            # G at the knots, accumulated from the top
            seg = _quad_f_pow(model, list(knots[:-1]), list(knots[1:]))
            above = [0.0]  # the integral from each knot to hi, from the top
            for v in reversed(seg):
                above.append(above[-1] + v)
            piece = GreenPiece(lo, hi, a, G_hi, knots,
                               tuple(G_hi + v for v in reversed(above)))
            G = _knot_G(piece, model, inside) + G
            G_hi = piece.G_knots[0]
        pieces.append(piece)

    rows = []
    for r, g in zip(grid, G):
        Gp, Gpp, f, fp = _derivs_at(model, r)
        # G = 0 is an underflow: q = inf makes b = inf, which is refused
        q1, q2 = (Gp / g, Gpp / g) if g else (math.inf, math.inf)
        b, bp, _ = power_jet(g, q1, q2, 1.0 / (2 - n))
        b2, b2p, mu_rad, mu_tan = _b2_hessian(n, g, q1, q2, f, fp)
        rows.append((g, Gp, Gpp, b, b2, b2p, abs(bp), mu_rad, mu_tan))
    columns = dict(zip(COLUMNS, zip(*rows)))
    for name, col in columns.items():
        if not in_float_range(col):
            raise ModelError(f"{name} leaves the float range on the grid at n={n}, "
                             f"r_min={grid[0]:g}, r_max={grid[-1]:g}; lower n "
                             "or narrow the radii")
    return RadialGreenProfile(model=model, grid=grid, pieces=tuple(reversed(pieces)),
                              **columns)


def hess_b2_eigs(profile: RadialGreenProfile, r: float):
    """Eigenvalues (mu_rad, mu_tan) of Hess b^2 relative to g at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    G, Gp, Gpp, f, fp = profile.green_derivs_at(r)
    *_, mu_rad, mu_tan = _b2_hessian(profile.model.n, G, Gp / G, Gpp / G, f, fp)
    return float(mu_rad), float(mu_tan)


def hess_b2_eigs_arrays(profile: RadialGreenProfile):
    """(mu_rad, mu_tan) over the whole grid, a tuple each."""
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
