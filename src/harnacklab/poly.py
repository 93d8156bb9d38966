"""Polynomials in plain floats, with the real roots in an interval.

A `Poly` is its tuple of ascending coefficients.  Its real roots are
isolated by the signs of its Bernstein coefficients on halved parts of
the interval (de Casteljau's algorithm) and polished by Brent's method
(`quadrature.brent_root`).  The warping profiles of `harnacklab.models`
are built from these: the smoothed-cone blend, the derivative rows of
every piece and the exact margins of the hypothesis report.
"""

from __future__ import annotations

import functools
import math

from . import quadrature

__all__ = ["Poly"]


class Poly:
    """A polynomial as its tuple of ascending coefficients, in plain float
    arithmetic: sums, products and integer powers with floats and other
    Polys, derivatives, Horner evaluation at a float, and the real roots
    in an interval.
    The smoothed-cone blend, the derivative rows of every profile and the
    margins of `WarpingProfile.ratio_range` are built from these."""

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
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return Poly([-x for x in self.coef])

    def __sub__(self, other):
        return self + -Poly(self._coef(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = self._coef(other)
        if len(b) == 1:
            y = b[0]
            return Poly([x * y for x in self.coef])
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
            c = [k * x for k, x in enumerate(c)][1:] or [0.0]
        return Poly(c)

    def __call__(self, t: float) -> float:
        out = 0.0
        for a in reversed(self.coef):
            out = out * t + a
        return out

    def real_roots(self, u: float, v: float) -> list:
        """The real roots in [u, v], ascending (none for a constant, or
        where u >= v).

        The Bernstein coefficients of the polynomial on a part of [u, v]
        have at least as many sign changes as it has roots there (Descartes'
        rule in the Bernstein basis), so a part without sign change holds
        none.  Parts are halved by de Casteljau's algorithm until each has
        one sign change between ends of clear opposite signs, and Brent's
        method finds that simple root.  Rounding is judged by Horner's error
        bound on [u, v]: a part whose coefficients all sit within it is zero
        to rounding, and the midpoint of each run of such parts stands for
        the multiple root or cluster of roots there; a part without sign
        change is dropped only where its coefficients, and so the
        polynomial, keep clear of that bound.  A part whose one end is zero
        to rounding while its other coefficients clear the bound with one
        sign is not halved: those are, up to positive factors, the
        cofactor's, so that end, a run of width zero, is the part's only
        root, and a root on a split point, in two such runs, merges to one.
        """
        c = self.coef
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        if len(c) == 1 or not u < v:
            return []
        reach = max(abs(u), abs(v))
        noise = 4.0 * len(c) * _EPS * sum(abs(a) * reach ** k for k, a in enumerate(c))
        xtol = 4.0 * _EPS * (v - u)
        roots, zero = [], []  # simple roots, and the parts zero to rounding
        parts = [(u, v, _bernstein(c, u, v))]
        while parts:
            a, b, bern = parts.pop()
            mid = 0.5 * (a + b)
            size = [abs(x) for x in bern]
            if max(size) <= noise or not a < mid < b:
                zero.append((a, b))
                continue
            changes = _sign_changes(bern)
            if changes == 0 and min(size) > noise:
                continue
            fa, fb = self(a), self(b)
            if changes == 1 and fa * fb < 0.0 and min(abs(fa), abs(fb)) > noise:
                roots.append(quadrature.brent_root(self, a, b, xtol=xtol, rtol=_EPS))
                continue
            if size[0] <= noise < min(size[1:]) and not _sign_changes(bern[1:]):
                zero.append((a, a))
                continue
            if size[-1] <= noise < min(size[:-1]) and not _sign_changes(bern[:-1]):
                zero.append((b, b))
                continue
            left, right = _halves(bern)
            parts += [(mid, b, right), (a, mid, left)]
        # parts are popped left to right, so touching runs are consecutive
        runs = []
        for a, b in zero:
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
        roots += [0.5 * (a + b) for a, b in runs]
        return sorted(roots)


#: the gap between 1 and the next float
_EPS = 2.0 ** -52


def _bernstein(c, u, v):
    """Bernstein coefficients on [u, v] of the polynomial with ascending
    coefficients c: shift to u, scale to s in [0, 1], then
    b_j = sum_k C(j, k) / C(d, k) a_k."""
    a = list(c)
    d = len(a) - 1
    for i in range(d):  # Taylor shift by u, repeated synthetic division
        for k in range(d - 1, i - 1, -1):
            a[k] += u * a[k + 1]
    w = v - u
    a = [x * w ** k for k, x in enumerate(a)]
    return [sum(r * x for r, x in zip(row, a)) for row in _binomial_ratios(d)]


@functools.lru_cache(maxsize=None)
def _binomial_ratios(d: int) -> tuple:
    """Row j holds C(j, k) / C(d, k) for k <= j."""
    return tuple(tuple(math.comb(j, k) / math.comb(d, k) for k in range(j + 1))
                 for j in range(d + 1))


def _halves(bern):
    """Bernstein coefficients of the two halves of the part (de Casteljau)."""
    left, right, row = [bern[0]], [bern[-1]], list(bern)
    while len(row) > 1:
        row = [0.5 * (x + y) for x, y in zip(row, row[1:])]
        left.append(row[0])
        right.append(row[-1])
    return left, right[::-1]


def _sign_changes(values) -> int:
    signs = [x > 0.0 for x in values if x != 0.0]
    return sum(x != y for x, y in zip(signs, signs[1:]))
