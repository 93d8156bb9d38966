"""Radial Green function profile on a model manifold.

On a warped product dr^2 + f(r)^2 g_{S^{n-1}} the minimal positive
Green function with pole at the tip is radial and harmonic away from
the pole, which pins it up to normalization:

    G(r)  = (n-2) * int_r^inf f(s)^{1-n} ds
    G'(r) = -(n-2) * f(r)^{1-n}
    G''(r) = (n-2)(n-1) * f(r)^{-n} * f'(r)

The constant is chosen so that G = r^{2-n} when f(r) = r.  Everything
else (b, b^2, |grad b|, Hess b^2) is a power of G, worked by `power_jet`
in q1 = G'/G and q2 = G''/G: finite wherever G is.

G is computed on the warping profile's own pieces (`models.Piece`), on
each of which f is one polynomial of r.  Where f = a*r exactly

    (n-2) * int_r^s (a t)^{1-n} dt = a^{1-n} (r^{2-n} - s^{2-n})

is closed; on any other piece (the smoothed-cone blend, one interval of a
custom spline) Gauss-Legendre panels (`quadrature.gauss_legendre`)
integrate the piece's own polynomial, on which the rules converge fast:
one integral per radius, whose caps bound it alone, so how many grid
radii a piece holds does not decide whether G converges.
Euclidean space and cones are one linear piece, so G = a^{1-n} r^{2-n}
with no quadrature at all; a smoothed cone integrates only its blend
[r0/2, r0).  The pieces below `WarpingProfile.tail_start` are followed by
one closed end, f = `tail_slope` * r from there on (where every kind's
end is decided): the top piece of a profile that reaches to infinity, or
the closure of a table above its top, so a table is integrated up to its
top.  G at each piece's upper end (`G_hi`) is worked top down, so G(r),
on the grid and pointwise alike, is `G_hi` of the piece holding r plus the
closed form or one integral up to the piece's top, and a finite integral
whose error estimate misses its gate raises ModelError.  One kernel,
`_kernel`, gives G' and G'' from f and f' on the same piece (a table's top
radius takes them from the table's top piece), in plain floats.  A power
past the float range is inf, in G (a knot below the grid may have one) as
in the kernel, so that the range checks refuse only the radii that need
it and name what left the range.
"""

from __future__ import annotations

import bisect
import io
import math
import sys
from typing import NamedTuple

from . import quadrature
from .models import ModelError, ModelManifold, Piece, Poly, nonparabolic_check

__all__ = [
    "RadialGreenProfile",
    "compute_profile",
    "green_derivs",
    "power_jet",
    "radial_laplacian",
    "hess_b2_eigs",
    "check_power_laplacian",
    "in_float_range",
    "csv_text",
]

#: gate of the Gauss error estimate on each integral of f^{1-n}, relative
GREEN_RTOL = 1e-13


def _pow(x, y):
    """x ** y, inf where it overflows or x = 0 < -y: a value past the float
    range is refused by `in_float_range`, not raised on the way."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _piece_G(n: int, pc: Piece, G_hi: float, r: float) -> float:
    """G at a radius r inside the piece pc, from G_hi = G(pc.hi).

    Where f = a*r it is closed, G(r) = G_hi + a^{1-n} (r^{2-n} - hi^{2-n})
    (hi = inf contributes 0); elsewhere it is G_hi plus one Gauss integral
    of the piece's polynomial up to pc.hi.  Every power is taken by `_pow`,
    and a G that is not finite is inf, which the range checks refuse where
    a radius needs it; a finite integral whose estimate misses GREEN_RTOL
    is refused here.
    """
    a = pc.slope
    if a is not None:
        G = G_hi + _pow(a, 1 - n) * (_pow(r, 2 - n) - _pow(pc.hi, 2 - n))
    else:
        F, x0 = Poly(pc.coef), pc.x0
        val, _, missed = quadrature.gauss_legendre(lambda t: _pow(F(t - x0), 1 - n),
                                                   r, pc.hi, rtol=GREEN_RTOL)
        if missed and math.isfinite(val):
            raise ModelError(f"Green quadrature missed its gate {GREEN_RTOL:g} on "
                             f"[{r:.17g}, {pc.hi:.17g}] at n={n}")
        G = G_hi + (n - 2) * val
    return G if math.isfinite(G) else math.inf


def green_derivs(n: int, x, fp, a=1.0):
    """(G', G'') where f = a x and f' = fp, at the same radii.

    In general a = 1 and x = f.  Where f = a r exactly, pass the slope a
    and x = r: the powers f^{1-n} = a^{1-n} r^{1-n} are then taken of a
    and r apart, as `_piece_G` takes them, and not of the rounded product
    a r, whose rounding the power would multiply by n.
    """
    return (-(n - 2) * _pow(a, 1 - n) * _pow(x, 1 - n),
            (n - 2) * (n - 1) * _pow(a, -n) * _pow(x, -n) * fp)


def _kernel(model: ModelManifold, pc: Piece, r_top: float):
    """derivs(r) = (G', G'', f, f') at the radii r <= r_top of the piece pc,
    by `green_derivs`, with x = r and the slope a where f = a*r exactly.

    f and f' come from the profile's piece at pc.lo: pc itself, or at the
    closed end of a table the table's top piece, which holds the top radius
    only; above it the profile refuses r_top.  Their Horner rows are built
    once, with the coefficients `Poly.deriv` gives f'.
    """
    n, p = model.n, model.profile
    fpc = p.piece_at(pc.lo)
    if r_top > fpc.hi:
        p.f(r_top)  # raises: f stops at a table's top
    a, x0 = fpc.slope, fpc.x0
    row = fpc.coef[::-1]  # descending powers of r - x0
    drow = [k * c for k, c in enumerate(fpc.coef)][:0:-1]

    def derivs(r):
        t = r - x0
        f = fp = 0.0
        for c in row:
            f = f * t + c
        for c in drow:
            fp = fp * t + c
        Gp, Gpp = green_derivs(n, f, fp) if a is None else green_derivs(n, r, fp, a)
        return Gp, Gpp, f, fp

    return derivs


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


class RadialGreenProfile(NamedTuple):
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
    pieces: tuple  # models.Piece cover of (0, inf), ascending, the last the closed end
    G_hi: tuple    # G at each piece's upper end

    # -- pointwise evaluation (exact up to the quadrature of G itself) ----

    def _piece_index(self, r: float) -> int:
        """Index of the piece whose [lo, hi) holds a finite r > 0."""
        if not 0.0 < r < math.inf:
            raise ModelError(f"G is defined for a finite r > 0, got r={r!r}")
        return bisect.bisect_right(self.pieces, r, key=lambda pc: pc.lo) - 1

    def green_at(self, r: float) -> float:
        """G(r) for any finite r > 0: closed form, or quadrature up to the
        top of its piece."""
        k = self._piece_index(r)
        return _piece_G(self.model.n, self.pieces[k], self.G_hi[k], r)

    def green_derivs_at(self, r: float):
        """(G, G', G'', f, f') at r, the derivatives of G in closed form.

        Refuses an r where G, G' or G'' leaves the float range, as
        `compute_profile` does on the grid; G > 0, so G = 0 is an underflow.
        """
        n = self.model.n
        k = self._piece_index(r)
        G = _piece_G(n, self.pieces[k], self.G_hi[k], r)
        Gp, Gpp, f, fp = _kernel(self.model, self.pieces[k], r)(r)
        if not (G > 0 and in_float_range((G, Gp, Gpp))):
            raise ModelError(f"G, G' or G'' leaves the float range at n={n}, "
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
    """G on the grid, piece by piece (see module doc)."""
    if grid is None:
        grid = default_grid()
    grid = tuple(map(float, grid))
    for r in grid:
        if not math.isfinite(r):
            raise ModelError(f"grid radius {r!r} is not finite")
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
    S = p.tail_start
    pieces = (*(pc for pc in p.pieces if pc.lo < S),
              Piece(S, math.inf, 0.0, (0.0, p.tail_slope)))
    # G at each upper end, from the top down; the lowest piece starts at 0
    G_hi = [0.0]  # G(inf)
    for pc in reversed(pieces[1:]):
        G_hi.append(_piece_G(n, pc, G_hi[-1], pc.lo))
    G_hi = tuple(reversed(G_hi))

    rows = []
    for pc, g_hi in zip(pieces, G_hi):
        radii = grid[bisect.bisect_left(grid, pc.lo):bisect.bisect_left(grid, pc.hi)]
        if not radii:
            continue
        derivs = _kernel(model, pc, radii[-1])
        for r in radii:
            g = _piece_G(n, pc, g_hi, r)
            Gp, Gpp, f, fp = derivs(r)
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
    return RadialGreenProfile(model=model, grid=grid, pieces=pieces, G_hi=G_hi, **columns)


def hess_b2_eigs(profile: RadialGreenProfile, r: float):
    """Eigenvalues (mu_rad, mu_tan) of Hess b^2 relative to g at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    G, Gp, Gpp, f, fp = profile.green_derivs_at(r)
    *_, mu_rad, mu_tan = _b2_hessian(profile.model.n, G, Gp / G, Gpp / G, f, fp)
    return mu_rad, mu_tan


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
