"""sympy images of the engine's exact coefficients, for the tests that
check the coefficient ring against sympy as an independent reference."""

import sympy as sp

n, C, beta = sp.symbols("n C beta")


def to_sympy(x):
    """P/(n-2)^k of a ring element as a sympy expression."""
    num = sum((sp.Rational(c.numerator, c.denominator) * n**i * C**j * beta**l
               for (i, j, l), c in x.poly), sp.Integer(0))
    return num / (n - 2) ** x.k


def same(x, expr) -> bool:
    """The ring element x and the sympy expression are the same function."""
    return sp.cancel(to_sympy(x) - expr) == 0
