"""sympy images of the engine's exact coefficients, for the tests that
check the coefficient ring against sympy as an independent reference."""

import sympy as sp

n, C, beta = sp.symbols("n C beta")


def to_sympy(x):
    """A ring element as a sympy expression, built from its own terms in
    m = n - 2, sum of c (n-2)^i C^j beta^l (i of either sign), so that the
    reference does not go through the ring's read-back in n."""
    return sp.cancel(sum((sp.Rational(c.numerator, c.denominator)
                          * (n - 2)**i * C**j * beta**l for (i, j, l), c in x.poly),
                         sp.Integer(0)))


def same(x, expr) -> bool:
    """The ring element x and the sympy expression are the same function."""
    return sp.cancel(to_sympy(x) - expr) == 0
