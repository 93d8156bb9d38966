"""Radial Green function profile on a model manifold.

On a warped product dr^2 + f(r)^2 g_{S^{n-1}} the minimal positive
Green function with pole at the tip is radial and harmonic away from
the pole, which pins it up to normalization:

    G(r)  = (n-2) * int_r^inf f(s)^{1-n} ds
    G'(r) = -(n-2) * f(r)^{1-n}
    G''(r) = (n-2)(n-1) * f(r)^{-n} * f'(r)

The constant is chosen so that G = r^{2-n} when f(r) = r.  b = G^{1/(2-n)}
and b^2 = G^{2/(2-n)} are powers of G, differentiated through
q1 = G'/G and q2 = G''/G, which stay finite wherever G does:
|grad b| = |b q1/(2-n)|, and Hess b^2 has the eigenvalues
mu_rad = (b^2)'' on the radial line and mu_tan = (b^2)' f'/f on the sphere.

G is computed on the warping profile's `cover` (`models.Piece`s, on
each of which f is one polynomial of r), where its end is decided.  Where
f = a s exactly, s = r - x0 (a cone in s, apex x0),

    (n-2) * int_r^R (a (t - x0))^{1-n} dt = a^{1-n} (s(r)^{2-n} - s(R)^{2-n})

is closed; on any other piece (the smoothed-cone blend, one interval of a
custom spline) Gauss-Legendre panels (`quadrature.gauss_legendre`)
integrate the piece's own polynomial, on which the rules converge fast:
one integral per radius, whose caps bound it alone, so how many grid
radii a piece holds does not decide whether G converges.
Euclidean space and cones are one affine piece, and so are a smoothed
cone's core and end and the lines that close a table off below and above,
so a smoothed cone integrates only its blend [r0/2, r0), and a table only its
spline, up to its top.  G at each piece's upper end, G_hi, is worked top
down.  A grid is any strictly increasing radii in (0, inf); the commands
lay theirs out evenly in log scale (`quadrature.geomspace`).

Two kernels per piece do all of this, each with the piece's constants
taken once: `_piece_green` gives G(r) on the piece from its G_hi (the
closed form, or one integral of a Horner-row integrand up to the piece's
top), and `_fill_columns` appends, for a run of radii on the piece, the
value of every column of the profile there to that column (a table's top
radius takes f and f' from the table's top piece).  The grid fills eight
`array('d')` columns, one per entry of `COLUMNS`, so the profile holds
8 bytes per value and no float object; `row_at` fills one row through the
same kernels (`green_at` and `b2_at` through `_piece_green` alone), so a
pointwise value is the grid's bit for bit, and a finite integral whose
error estimate misses its gate raises ModelError.  Every power is taken
by `_pow`, inf past the float range, in G (a knot below the grid may have
one) as in the columns, so that the range checks refuse only the radii
that need it and name what left the range.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from array import array
from typing import NamedTuple

from . import quadrature
from .models import ModelError, ModelManifold, Piece, nonparabolic_check

__all__ = [
    "RadialGreenProfile",
    "compute_profile",
    "hess_b2_eigs",
    "in_float_range",
    "write_csv",
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


def _piece_green(n: int, pc: Piece, G_hi: float):
    """G(r) at the radii r inside the piece pc, from G_hi = G(pc.hi).

    Where f = a s, s = r - x0, it is closed, G(r) = G_hi + a^{1-n}
    (s(r)^{2-n} - s(hi)^{2-n}) (hi = inf contributes 0), with a^{1-n} and
    s(hi)^{2-n} taken once; elsewhere it is G_hi plus one Gauss integral of
    f^{1-n} up to pc.hi, f by Horner's rule on the piece's `row(0)`.  Every power is inf
    past the float range, as `_pow` takes it, and a G that is not finite
    is inf, which the range checks refuse where a radius needs it; a finite
    integral whose estimate misses GREEN_RTOL is refused here.
    """
    isfinite, inf, hi, x0 = math.isfinite, math.inf, pc.hi, pc.x0
    a = pc.slope
    if a is not None:
        scale, e, top = _pow(a, 1 - n), 2 - n, _pow(hi - x0, 2 - n)

        def green(r):
            G = G_hi + scale * (_pow(r - x0, e) - top)
            return G if isfinite(G) else inf

        return green

    row, e = pc.row(0), float(1 - n)

    def integrand(t):
        t -= x0
        f = 0.0
        for c in row:
            f = f * t + c
        try:
            return f ** e
        except (OverflowError, ZeroDivisionError):
            return inf

    def green(r):
        val, _, missed = quadrature.gauss_legendre(integrand, r, hi, rtol=GREEN_RTOL)
        if missed and isfinite(val):
            raise ModelError(f"Green quadrature missed its gate {GREEN_RTOL:g} on "
                             f"[{r:.17g}, {hi:.17g}] at n={n}")
        G = G_hi + (n - 2) * val
        return G if isfinite(G) else inf

    return green


def _fill_columns(model: ModelManifold, pc: Piece, green, radii, puts):
    """Put the values of `COLUMNS` at the radii (ascending, inside the piece
    pc, at least one) through puts, one append per column, in the order of
    `COLUMNS`, so that eight times one list's append collects one row.

    G is green(r); f and f' come from the profile's piece at pc.lo: pc
    itself, or at the closed end of a table the table's top piece, which
    holds the top radius only; above it the profile refuses radii[-1].
    G' = -(n-2) f^{1-n} and G'' = (n-2)(n-1) f^{-n} f', f and f' by
    Horner's rule on the piece's `row(0)` and `row(1)`.  Where f = a s,
    s = r - x0, the powers are taken of a and s apart, as G = a^{1-n}
    s^{2-n} takes them, and not of the rounded product a s, whose rounding
    the power would multiply by n.  Of u = G^beta, u' = beta u q1 and
    u'' = beta u ((beta-1) q1^2 + q2): b = G^{1/(2-n)}, |grad b| = |b'|,
    b^2 = G^{2/(2-n)}, mu_rad = (b^2)'' and mu_tan = (b^2)' f'/f.  Every
    power is taken by `_pow`, whose inf the range checks refuse.
    """
    n, p = model.n, model.profile
    fpc = p.piece_at(pc.lo)
    if radii[-1] > fpc.hi:
        p.f(radii[-1])  # raises: f stops at a table's top
    a, x0 = fpc.slope, fpc.x0
    row, drow = fpc.row(0), fpc.row(1)
    e1, e0 = float(1 - n), float(-n)  # the powers of 1 - n and -n, taken sooner
    base = 1.0 if a is None else a
    c1 = -(n - 2) * _pow(base, e1)
    c2 = (n - 2) * (n - 1) * _pow(base, e0)
    beta_b, beta = 1.0 / (2 - n), 2.0 / (2 - n)
    beta_m1, inf = beta - 1, math.inf
    put_G, put_Gp, put_Gpp, put_b, put_b2, put_grad_b, put_mu_rad, put_mu_tan = puts
    for r in radii:
        G = green(r)
        t = r - x0
        if a is None:
            f = fp = 0.0
            for c in row:
                f = f * t + c
            for c in drow:
                fp = fp * t + c
            x = f
        else:
            f, fp, x = a * t, a, t  # what Horner's rule gives on (a, 0) and (a,)
        Gp = c1 * _pow(x, e1)
        Gpp = c2 * _pow(x, e0) * fp
        # G = 0 is an underflow: q = inf makes b = inf, which is refused
        q1, q2 = (Gp / G, Gpp / G) if G else (inf, inf)
        b, b2 = _pow(G, beta_b), _pow(G, beta)
        s = beta * b2
        put_G(G)
        put_Gp(Gp)
        put_Gpp(Gpp)
        put_b(b)
        put_b2(b2)
        put_grad_b(abs(beta_b * b * q1))
        put_mu_rad(s * (beta_m1 * q1 * q1 + q2))
        put_mu_tan(s * q1 * fp / f)


#: the columns of a profile, in the order of a row, of its CSV and of the
#: float range checks
COLUMNS = ("G", "Gp", "Gpp", "b", "b2", "grad_b", "mu_rad", "mu_tan")
_LO = operator.attrgetter("lo")


class RadialGreenProfile(NamedTuple):
    """G and its companions sampled on a grid, with exact radial derivatives;
    the grid and each column are an `array('d')`, one float64 per grid
    radius."""

    model: ModelManifold
    grid: array
    G: array
    Gp: array
    Gpp: array
    b: array
    b2: array
    grad_b: array
    mu_rad: array      # eigenvalues of Hess b^2 relative to g
    mu_tan: array
    pieces: tuple  # the profile's `cover` of (0, inf), ascending
    green: tuple   # G(r) on each piece, from `_piece_green`

    # -- pointwise evaluation (exact up to the quadrature of G itself) ----

    def _piece_index(self, r: float) -> int:
        """Index of the piece whose [lo, hi) holds a finite r > 0."""
        if not 0.0 < r < math.inf:
            raise ModelError(f"G is defined for a finite r > 0, got r={r!r}")
        return bisect.bisect_right(self.pieces, r, key=_LO) - 1

    def green_at(self, r: float) -> float:
        """G(r) for any finite r > 0: closed form, or quadrature up to the
        top of its piece."""
        return self.green[self._piece_index(r)](r)

    def row_at(self, r: float) -> list:
        """The values of `COLUMNS` at r, refused where G, G' or G'' leaves
        the float range, as `compute_profile` refuses it on the grid; G > 0,
        so G = 0 is an underflow."""
        k = self._piece_index(r)
        row = []
        _fill_columns(self.model, self.pieces[k], self.green[k], (r,),
                      (row.append,) * len(COLUMNS))
        if not (row[0] > 0 and in_float_range(row[:3])):
            raise ModelError(f"G, G' or G'' leaves the float range at n={self.model.n}, "
                             f"r={r:g}; lower n or choose another r")
        return row

    def b2_at(self, r: float) -> float:
        n = self.model.n
        G = self.green_at(r)
        b2 = _pow(G, 2.0 / (2 - n))
        if not (G > 0 and in_float_range((G, b2))):
            raise ModelError(f"G or b^2 leaves the float range at n={n}, r={r:g}; "
                             "lower n or choose another r")
        return b2

    def to_csv(self, out) -> None:
        """Write the profile as CSV to the text stream out (see `write_csv`)."""
        write_csv(out, ",".join(("r", *COLUMNS)),
                  zip(self.grid, *(getattr(self, name) for name in COLUMNS)))


def write_csv(out, header: str, rows) -> None:
    """Write a header line, then one line per row (a tuple of numbers, one
    per column of the header) in 17 significant digits, to the text stream
    out, each line as it is formatted: no text of the whole table is built.
    One `%` template serves every row; "%.17g" gives what format(v, ".17g")
    gives, on ints, signed zeros, subnormals, infs and NaN alike."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    out.write(header + "\n")
    out.writelines(map(line.__mod__, rows))


_TINY = sys.float_info.min


def in_float_range(values) -> bool:
    """Every value finite and 0 or normal: a subnormal keeps few digits.

    Scans at C speed pass the common case: a finite sum (an inf or a NaN
    makes it inf or NaN) of values none nearer 0 than the least normal,
    seen from the least value when all are positive, else from the least
    magnitude.  Anything else (a zero, a value out of range, a sum that
    overflows) is decided value by value.  A tuple, list or array is
    scanned as it stands; any other iterable is taken into a tuple first.
    """
    if not isinstance(values, (tuple, list, array)):
        values = tuple(values)
    if math.isfinite(sum(values)) and (min(values, default=1.0) >= _TINY
                                       or min(map(abs, values)) >= _TINY):
        return True
    return all(_TINY <= abs(v) < math.inf or v == 0.0 for v in values)


def compute_profile(model: ModelManifold, grid) -> RadialGreenProfile:
    """G on the grid, piece by piece (see module doc)."""
    # a tuple while the columns fill, whose radii are read without boxing a
    # float each; the profile keeps the grid as an array
    grid = tuple(map(float, grid))
    if not all(map(math.isfinite, grid)):
        bad = next(r for r in grid if not math.isfinite(r))
        raise ModelError(f"grid radius {bad!r} is not finite")
    if len(grid) < 2 or not all(map(operator.lt, grid, grid[1:])):
        raise ModelError("grid must be strictly increasing with >= 2 points")
    if grid[0] <= 0:
        raise ModelError("grid must stay inside (0, inf); G has a pole at r = 0")
    rep = nonparabolic_check(model)
    if not rep.varopoulos_integral_finite:
        raise ModelError(
            f"model is parabolic (tail exponent {rep.tail_exponent:.3g} >= -1); "
            "no positive Green function"
        )
    n, pieces = model.n, model.profile.cover
    # G at each upper end, from the top down; the lowest piece starts at 0
    green = [None] * len(pieces)
    g_hi = 0.0  # G(inf)
    for k in reversed(range(len(pieces))):
        green[k] = _piece_green(n, pieces[k], g_hi)
        if k:
            g_hi = green[k](pieces[k].lo)

    cols = tuple(array("d") for _ in COLUMNS)
    puts = [col.append for col in cols]
    for pc, g in zip(pieces, green):
        radii = grid[bisect.bisect_left(grid, pc.lo):bisect.bisect_left(grid, pc.hi)]
        if radii:
            _fill_columns(model, pc, g, radii, puts)
    columns = dict(zip(COLUMNS, cols))
    for name, col in columns.items():
        if not in_float_range(col):
            raise ModelError(f"{name} leaves the float range on the grid at n={n}, "
                             f"r_min={grid[0]:g}, r_max={grid[-1]:g}; lower n "
                             "or narrow the radii")
    return RadialGreenProfile(model=model, grid=array("d", grid), pieces=pieces,
                              green=tuple(green), **columns)


def hess_b2_eigs(profile: RadialGreenProfile, r: float):
    """Eigenvalues (mu_rad, mu_tan) of Hess b^2 relative to g at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    row = profile.row_at(r)
    return row[6], row[7]
