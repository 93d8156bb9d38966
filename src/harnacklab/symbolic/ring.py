"""Exact coefficients: polynomials in n, C and beta over Q, localized at n - 2.

Every coefficient and G exponent of the tensor engine is P/(n-2)^k with
P a polynomial in the dimension n, the Harnack constant C and a free
exponent beta, with rational coefficients.  No other denominator occurs:
G grows like r^{2-n}, so alpha = n/(n-2), and exponents such as 2/(2-n)
divide only by n - 2.

An element is canonical when k = 0 or P(2, C, beta) != 0; factors of
n - 2 are stripped by synthetic division in n.  Canonical elements are
equal iff their data are, so they hash and sort on it directly.  The
ring has +, -, * and non-negative integer powers; division is allowed by
units q (n-2)^j only (q a non-zero rational).  Anything else (another
divisor, a float, a bool, a foreign object) raises TensorError.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["TensorError", "Module", "Coeff", "coerce", "ZERO", "N", "C", "BETA", "ALPHA"]

_VARS = ("n", "C", "beta")


class TensorError(ValueError):
    pass


class Module:
    """Base of the objects the ring's scalars act on: a scalar times one
    defers to the object's own __rmul__."""

    __slots__ = ()


# -- polynomials: dict {(i, j, l): Fraction} for n^i C^j beta^l ---------------


def _padd(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pmul(p, q):
    out = {}
    for (i1, j1, l1), c1 in p.items():
        for (i2, j2, l2), c2 in q.items():
            m = (i1 + i2, j1 + j2, l1 + l2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


_N_MINUS_2 = {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-2)}


def _div_n2(p):
    """p / (n - 2) by synthetic division in n, or None if n - 2 does not
    divide p (p(2, C, beta) != 0)."""
    columns = {}
    for (i, j, l), c in p.items():
        columns.setdefault((j, l), {})[i] = c
    out = {}
    for (j, l), col in columns.items():
        carry = 0
        for i in range(max(col), 0, -1):
            carry = col.get(i, 0) + 2 * carry
            if carry:
                out[(i - 1, j, l)] = carry
        if col.get(0, 0) + 2 * carry:
            return None
    return out


class Coeff:
    """P/(n-2)^k, canonical and immutable; ``poly`` is P as a sorted tuple
    of (monomial exponents (i, j, l), non-zero Fraction)."""

    __slots__ = ("poly", "k")

    def __init__(self, p, k=0):
        """From a dict polynomial and k >= 0, stripping factors of n - 2."""
        while k and p:
            q = _div_n2(p)
            if q is None:
                break
            p, k = q, k - 1
        self._set(tuple(sorted((m, Fraction(c)) for m, c in p.items() if c)),
                  k if p else 0)

    def _set(self, poly, k):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "k", k)

    @classmethod
    def _canonical(cls, poly, k):
        """From data already in canonical form."""
        out = cls.__new__(cls)
        out._set(poly, k)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Coeff is immutable")

    # -- structure -----------------------------------------------------------

    @property
    def key(self):
        """Total-order sort key; equal keys iff equal elements."""
        return (self.k, self.poly)

    def constant(self):
        """The Fraction this element equals, or None if it is not constant."""
        if self.k:
            return None
        if not self.poly:
            return Fraction(0)
        if len(self.poly) == 1 and self.poly[0][0] == (0, 0, 0):
            return self.poly[0][1]
        return None

    def _dict(self):
        return dict(self.poly)

    def _times_n2(self, e):
        """Numerator times (n - 2)^e, e >= 0."""
        p = self._dict()
        for _ in range(e):
            p = _pmul(p, _N_MINUS_2)
        return p

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        other = coerce(other)
        if not other.poly:
            return self
        if not self.poly:
            return other
        k = max(self.k, other.k)
        return Coeff(_padd(self._times_n2(k - self.k), other._times_n2(k - other.k)), k)

    __radd__ = __add__

    def _scaled(self, q):
        """self * q for a Fraction q: canonical forms stay canonical."""
        if q == 1:
            return self
        if not q:
            return ZERO
        return Coeff._canonical(tuple((m, c * q) for m, c in self.poly), self.k)

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        return self + (-coerce(other))

    def __rsub__(self, other):
        return coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Module):
            return NotImplemented
        other = coerce(other)
        q = other.constant()
        if q is not None:
            return self._scaled(q)
        q = self.constant()
        if q is not None:
            return other._scaled(q)
        return Coeff(_pmul(self._dict(), other._dict()), self.k + other.k)

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
        # other = q (n-2)^(m - other.k) must be a unit
        p, m = other._dict(), 0
        while p and (q := _div_n2(p)) is not None:
            p, m = q, m + 1
        q = Coeff(p).constant()
        if not q:
            raise TensorError(f"division by {other} is outside "
                              "Q[n, C, beta][1/(n-2)]: only q (n-2)^j divides")
        num = self._times_n2(other.k)
        return Coeff({mono: c / q for mono, c in num.items()}, self.k + m)

    def __rtruediv__(self, other):
        return coerce(other) / self

    # -- comparison and printing -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Coeff):
            return self.k == other.k and self.poly == other.poly
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.constant() == other
        return NotImplemented

    def __hash__(self):
        const = self.constant()
        return hash(self.key if const is None else const)

    def __bool__(self):
        return bool(self.poly)

    def __str__(self):
        num = _poly_str(self.poly)
        if not self.k:
            return num
        if len(self.poly) > 1:
            num = f"({num})"
        den = "(n - 2)" if self.k == 1 else f"(n - 2)**{self.k}"
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
        return Coeff({(0, 0, 0): x})
    raise TensorError(f"{x!r} ({type(x).__name__}) is not an exact coefficient "
                      "in Q[n, C, beta][1/(n-2)]")


ZERO = coerce(0)
ONE = coerce(1)
N = Coeff({(1, 0, 0): 1})
C = Coeff({(0, 1, 0): 1})
BETA = Coeff({(0, 0, 1): 1})
ALPHA = N / (N - 2)
