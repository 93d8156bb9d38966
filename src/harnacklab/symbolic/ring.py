"""Exact coefficients: polynomials in n, C and beta over Q, localized at n - 2.

Every coefficient and G exponent of the tensor engine is P/(n-2)^k with
P a polynomial in the dimension n, the Harnack constant C and a free
exponent beta, with rational coefficients.  No other denominator occurs:
G grows like r^{2-n}, so alpha = n/(n-2), and exponents such as 2/(2-n)
divide only by n - 2.

The ring holds its elements in m = n - 2, where that denominator is a
monomial: an element is a Laurent polynomial in m (with polynomial
coefficients in C and beta), kept as its sorted non-zero terms.  So the
form is canonical by construction, + and * are polynomial addition and
multiplication, and equal elements have equal data.  Elements are read
back in n, as P/(n-2)^k with k = 0 or P(2, C, beta) != 0, only to sort
and to print.  The ring has +, -, * and non-negative integer powers;
division is allowed by units q (n-2)^j only (q a non-zero rational).
Anything else (another divisor, a float, a bool, a foreign object)
raises TensorError.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = ["TensorError", "Module", "Coeff", "coerce", "ZERO", "N", "C", "BETA", "ALPHA"]

_VARS = ("n", "C", "beta")


class TensorError(ValueError):
    pass


class Module:
    """Base of the objects the ring's scalars act on: a scalar times one
    defers to the object's own __rmul__."""

    __slots__ = ()


# -- polynomials: {(i, j, l): Fraction} for x^i C^j beta^l, x = m or n ---------


def _terms(p):
    """The dict polynomial p, Fraction-valued, as a sorted tuple of its
    non-zero terms."""
    return tuple(sorted(term for term in p.items() if term[1]))


def _padd(p, q):
    out = dict(p)
    for mono, c in q:
        out[mono] = out.get(mono, 0) + c
    return Coeff(_terms(out))


def _pmul(p, q):
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:  # times one term: p's order and non-zero terms stay
        (i2, j2, l2), c2 = q[0]
        return Coeff(tuple(((i1 + i2, j1 + j2, l1 + l2), c1 * c2)
                           for (i1, j1, l1), c1 in p))
    out = {}
    for (i1, j1, l1), c1 in p:
        for (i2, j2, l2), c2 in q:
            mono = (i1 + i2, j1 + j2, l1 + l2)
            out[mono] = out.get(mono, 0) + c1 * c2
    return Coeff(_terms(out))


class Coeff:
    """A Laurent polynomial in m = n - 2, immutable; ``poly`` is its sorted
    tuple of (exponents (i, j, l) of m^i C^j beta^l, non-zero Fraction)."""

    __slots__ = ("poly", "_key")

    def __init__(self, poly):
        """From its terms, sorted and non-zero."""
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Coeff is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def key(self):
        """(k, P) with self = P/(n-2)^k, P in n a sorted tuple like ``poly``:
        a total-order sort key, equal keys iff equal elements."""
        if self._key is None:
            # poly is sorted, so its first term has the lowest power of m
            k = max(0, -self.poly[0][0][0]) if self.poly else 0
            p = {}
            for (i, j, l), c in self.poly:  # (n - 2)^e = sum C(e, t) n^t (-2)^(e-t)
                e = i + k
                for t in range(e + 1):
                    p[t, j, l] = p.get((t, j, l), 0) + c * comb(e, t) * (-2) ** (e - t)
            object.__setattr__(self, "_key", (k, _terms(p)))
        return self._key

    def constant(self):
        """The Fraction this element equals, or None if it is not constant."""
        if not self.poly:
            return Fraction(0)
        if len(self.poly) == 1 and self.poly[0][0] == (0, 0, 0):
            return self.poly[0][1]
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        return _padd(self.poly, coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return Coeff(tuple((mono, -c) for mono, c in self.poly))

    def __sub__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        return _pmul(self.poly, coerce(other).poly)

    __rmul__ = __mul__

    def __pow__(self, e):
        if type(e) is not int or e < 0:
            raise TensorError(f"only non-negative integer powers, not {e!r}")
        out = ONE
        for _ in range(e):
            out = out * self
        return out

    def __truediv__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        other = coerce(other)
        # a unit q (n-2)^j is the one monomial q m^j
        if len(other.poly) != 1 or other.poly[0][0][1:] != (0, 0):
            raise TensorError(f"division by {other} is outside "
                              "Q[n, C, beta][1/(n-2)]: only q (n-2)^j divides")
        (j, _, _), q = other.poly[0]
        return _pmul(self.poly, (((-j, 0, 0), 1 / q),))

    def __rtruediv__(self, other):
        return coerce(other) / self

    # -- comparison and printing -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Coeff):
            return self.poly == other.poly
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.constant() == other
        return NotImplemented

    def __hash__(self):
        const = self.constant()
        return hash(self.key if const is None else const)

    def __bool__(self):
        return bool(self.poly)

    def __str__(self):
        k, poly = self.key
        num = _poly_str(poly)
        if not k:
            return num
        if len(poly) > 1:
            num = f"({num})"
        den = "(n - 2)" if k == 1 else f"(n - 2)**{k}"
        return f"{num}/{den}"

    __repr__ = __str__


def _poly_str(poly) -> str:
    """Terms of highest exponents first: 'n**2*C - 3/2*beta + 1'."""
    if not poly:
        return "0"
    out = []
    for mono, c in reversed(poly):
        factors = [v if e == 1 else f"{v}**{e}" for v, e in zip(_VARS, mono) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(out)


def coerce(x) -> Coeff:
    """x as a ring element; ints and Fractions embed, nothing else does."""
    if isinstance(x, Coeff):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Coeff(_terms({(0, 0, 0): Fraction(x)}))
    raise TensorError(f"{x!r} ({type(x).__name__}) is not an exact coefficient "
                      "in Q[n, C, beta][1/(n-2)]")


ZERO = coerce(0)
ONE = coerce(1)
N = Coeff((((0, 0, 0), Fraction(2)), ((1, 0, 0), Fraction(1))))
C = Coeff((((0, 1, 0), Fraction(1)),))
BETA = Coeff((((0, 0, 1), Fraction(1)),))
ALPHA = N / (N - 2)
