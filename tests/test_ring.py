"""The exact coefficient ring Q[n, C, beta][1/(n-2)], checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from harnacklab.symbolic.ring import ALPHA, BETA, C, N, TensorError, coerce

from sympy_ref import C as C_sym, beta as beta_sym, n as n_sym, same, to_sympy

# each leaf and operation in its ring and its sympy spelling
_LEAVES = (
    (lambda q: q, sp.Rational),
    (lambda q: N, lambda q: n_sym),
    (lambda q: C, lambda q: C_sym),
    (lambda q: BETA, lambda q: beta_sym),
    (lambda q: ALPHA, lambda q: n_sym / (n_sym - 2)),
)


def _random_tree(rng: random.Random, depth: int):
    """(ring value, sympy value) of one random expression tree."""
    if depth == 0 or rng.random() < 0.25:
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            q = int(q.numerator)  # plain ints embed too
        ring, ref = rng.choice(_LEAVES)
        return ring(q), ref(sp.Rational(q))
    op = rng.choice("+-*^/")
    a, a_ref = _random_tree(rng, depth - 1)
    if op == "^":
        e = rng.randint(0, 3)
        return a ** e, a_ref ** e
    if op == "/":
        # a unit q (n-2)^j, spelled with either sign of n - 2
        q = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        j = rng.randint(0, 2)
        base, base_ref = rng.choice([(N - 2, n_sym - 2), (2 - N, 2 - n_sym)])
        u, u_ref = q * base ** j, sp.Rational(q) * base_ref ** j
        return a / u, a_ref / u_ref
    b, b_ref = _random_tree(rng, depth - 1)
    if op == "+":
        return a + b, a_ref + b_ref
    if op == "-":
        return a - b, a_ref - b_ref
    return a * b, a_ref * b_ref


def _n2_power_of_denominator(expr) -> int:
    """k with cancel(expr) = P/(q (n-2)^k); fails on any other denominator."""
    _, den = sp.fraction(sp.cancel(expr))
    poly = sp.Poly(den, n_sym, C_sym, beta_sym)
    k = poly.degree(n_sym)
    assert sp.expand(den - poly.LC() * (n_sym - 2) ** k) == 0, den
    return k


def test_random_trees_match_sympy_cancel():
    rng = random.Random(20261018)
    for _ in range(300):
        got, ref = _random_tree(rng, 4)
        got = coerce(got)  # a tree of plain numbers stays a plain number
        assert same(got, ref), (got, ref)
        # canonical: no factor n - 2 is left in both numerator and denominator
        assert got.k == _n2_power_of_denominator(ref), (got, sp.cancel(ref))


def test_equal_values_are_equal_elements_with_equal_hashes():
    rng = random.Random(11)
    for _ in range(200):
        a, _ = _random_tree(rng, 3)
        b, _ = _random_tree(rng, 3)
        c, _ = _random_tree(rng, 2)
        pairs = [
            ((a + b) * c, a * c + b * c),
            (a - b, -(b - a)),
            ((a * b) / (N - 2), a * (b / (N - 2))),
            (a * (N - 2) / (N - 2), a),
            (a ** 2, a * a),
        ]
        for x, y in pairs:
            x, y = coerce(x), coerce(y)
            assert x == y and hash(x) == hash(y) and x.key == y.key and str(x) == str(y)


@pytest.mark.parametrize("x,y", [
    ((N - 2) / (N - 2), 1),
    (2 / (2 - N), -2 / (N - 2)),
    (ALPHA - 1, 2 / (N - 2)),
    (N * N - 4, (N - 2) * (N + 2)),
    (((N - 2) ** 2 * C) / (N - 2) ** 3, C / (N - 2)),
    (N - N, 0),
    (Fraction(1, 2) * BETA * 2, BETA),
])
def test_canonical_equality_and_hash(x, y):
    assert x == y and hash(x) == hash(y)
    assert coerce(x).key == coerce(y).key


def test_constants_compare_and_hash_like_numbers():
    assert coerce(3) == 3 and hash(coerce(3)) == hash(3)
    assert coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(coerce(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert N != 2 and N != C and not (N == "n")
    assert not coerce(0) and N


def test_canonical_denominator():
    assert ALPHA.k == 1 and ((N - 2) * ALPHA).k == 0
    assert (1 / (N - 2) ** 3).k == 3
    # P(2, C, beta) != 0 whenever k > 0
    assert (C * (N - 2) / (N - 2) ** 2).k == 1


def test_total_order_key_is_deterministic():
    xs = [ALPHA, N, 2 * ALPHA - 1, coerce(0), coerce(-1), BETA - 2, C ** 2, ALPHA - 2]
    keys = sorted(x.key for x in xs)
    assert keys == sorted(x.key for x in reversed(xs))
    assert len(set(keys)) == len(xs)


def test_printing():
    assert str(ALPHA) == "n/(n - 2)"
    assert str(ALPHA - 2) == "(-n + 4)/(n - 2)"
    assert str(2 * N / (2 - N) ** 2) == "2*n/(n - 2)**2"
    assert str(BETA * (BETA - 1)) == "beta**2 - beta"
    assert str(Fraction(-3, 2) * N * C ** 2 + 1) == "-3/2*n*C**2 + 1"
    assert str(coerce(0)) == "0"


@pytest.mark.parametrize("divisor", [N - 1, C, BETA, N, N * (N - 2), 0, coerce(0)])
def test_division_only_by_units(divisor):
    with pytest.raises(TensorError):
        N / divisor
    with pytest.raises(TensorError):
        1 / coerce(divisor)


@pytest.mark.parametrize("foreign", [
    0.5, 1.0, True, False, 1j, sp.Symbol("n"), sp.Integer(1), "n", None])
def test_foreign_operands_are_refused(foreign):
    with pytest.raises(TensorError):
        coerce(foreign)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(TensorError):
            op(N, foreign)
        with pytest.raises(TensorError):
            op(foreign, N)


@pytest.mark.parametrize("e", [-1, 0.5, 2.0, True, Fraction(1, 2), N])
def test_only_non_negative_integer_powers(e):
    with pytest.raises(TensorError):
        N ** e


def test_elements_are_immutable():
    with pytest.raises(AttributeError):
        N.k = 1
    assert N ** 0 == 1 and to_sympy(N ** 3) == n_sym ** 3
