"""Exact tensor engine: canonicalization, reduction, identity catalogue."""

import json
import random
import subprocess
import sys
import time

from fractions import Fraction

import pytest
import sympy as sp

from harnacklab.symbolic import (
    ALPHA, BETA, N,
    TensorError, TensorExpr,
    commute_and_reduce, dg, gpow, gradG_pairing, hessian_shifted, kron, laplacian,
    IDENTITIES, normalize, ric, riem, verify_all, verify_identity,
)
from harnacklab.symbolic.engine import Term, _derivative
from harnacklab.symbolic.terms import _rename
from harnacklab.symbolic.ring import Coeff, coerce

from sympy_ref import to_sympy, n as n_sym


def is_zero(expr) -> bool:
    return len(normalize(expr).terms) == 0


def exprs_equal(a, b) -> bool:
    return is_zero(a - b)


# -- normalize ----------------------------------------------------------------


def test_first_pair_antisymmetry():
    assert is_zero(riem("i", "j", "k", "l") + riem("j", "i", "k", "l"))
    assert is_zero(riem("i", "j", "k", "l") + riem("i", "j", "l", "k"))
    assert is_zero(riem("i", "j", "k", "l") - riem("k", "l", "i", "j"))


def test_hessian_symmetry():
    assert is_zero(dg("i", "j") - dg("j", "i"))


def test_dummy_renaming_invariance():
    a = dg("k") * dg("k") * gpow(-1)
    b = dg("m") * dg("m") * gpow(-1)
    na, nb = normalize(a), normalize(b)
    assert [(t.factors, t.gexp) for t in na.terms] == \
           [(t.factors, t.gexp) for t in nb.terms]


def test_riemann_internal_trace_is_ricci():
    assert exprs_equal(
        commute_and_reduce(riem("i", "k", "j", "k")), ric("i", "j"))
    assert exprs_equal(
        commute_and_reduce(riem("k", "i", "j", "k")), -1 * ric("i", "j"))


def test_kron_contraction():
    assert exprs_equal(kron("i", "k") * dg("k"), dg("i"))
    # full trace contributes the dimension
    out = normalize(kron("k", "k"))
    assert len(out.terms) == 1 and sp.cancel(to_sympy(out.terms[0].coeff) - n_sym) == 0


def test_index_multiplicity_gate():
    bad = Term(coerce(1), coerce(0),
               (("dg", ("i",)), ("dg", ("i",)), ("dg", ("i",))))
    with pytest.raises(TensorError):
        bad.validate()
    with pytest.raises(TensorError):
        dg("i", "j", "k", "l", "m")


def test_product_contracts_shared_free_indices():
    # dummies are internal to each operand: the product of two copies of
    # dg(i) contracts once, and a further dg(i) stays free
    prod = dg("i") * dg("i") * dg("i")
    assert prod.free_indices() == {"i"}


def test_free_index_consistency_gate():
    bad = dg("i") + dg("j")
    with pytest.raises(TensorError):
        bad.free_indices()


# -- commute_and_reduce -------------------------------------------------------


def test_harmonicity_kills_traces():
    assert is_zero(commute_and_reduce(dg("k", "k")))
    assert is_zero(commute_and_reduce(dg("k", "k", "i")))
    assert is_zero(commute_and_reduce(dg("k", "k", "i", "j")))


def test_gradient_of_laplacian_string():
    # string with the trace in outer positions reduces to Ric grad G
    assert exprs_equal(
        commute_and_reduce(dg("i", "k", "k")),
        commute_and_reduce(ric("i", "k") * dg("k")))


def test_third_derivative_commutator():
    lhs = commute_and_reduce(dg("i", "j", "k") - dg("i", "k", "j"))
    rhs = commute_and_reduce(riem("j", "k", "l", "i") * dg("l"))
    assert exprs_equal(lhs, rhs)


def test_derivative_string_cap():
    with pytest.raises(TensorError):
        laplacian(dg("i", "j", "k"))


# -- the Leibniz rule ---------------------------------------------------------


def _random_product(rng: random.Random):
    """A seeded product of gradients dg(i) and kron times a G power."""
    expr = gpow(rng.choice([0, -1, 1, ALPHA, BETA])) * rng.randint(1, 3)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.75:
            expr = expr * dg(rng.choice(_POOL[:4]))
        else:
            expr = expr * kron(*rng.sample(_POOL[:4], 2))
    return expr


def _random_pairs(seed, count):
    """(A, B, A B) on seeded products whose index multiplicities allow A B.

    The factors are gradients: with longer strings the reduced forms of the
    two sides can differ by the normal form's gaps (the xfails below)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            a, b = _random_product(rng), _random_product(rng)
            out.append((a, b, a * b))
        except TensorError:
            continue
    return out


def test_laplacian_of_a_product_is_leibniz():
    # Delta(AB) = Delta(A) B + A Delta(B) + 2 <grad A, grad B>
    for a, b, ab in _random_pairs(31, 40):
        cross = _derivative(a, "u") * _derivative(b, "u")
        rhs = laplacian(a) * b + a * laplacian(b) + 2 * commute_and_reduce(cross)
        assert is_zero(commute_and_reduce(laplacian(ab) - rhs)), (a, b)


def test_gradient_pairing_of_a_product_is_leibniz():
    # <grad G, grad(AB)> = <grad G, grad A> B + A <grad G, grad B>
    for a, b, ab in _random_pairs(37, 40):
        rhs = gradG_pairing(a) * b + a * gradG_pairing(b)
        assert is_zero(commute_and_reduce(gradG_pairing(ab) - rhs)), (a, b)


def _third_commutator(i, j, k):
    return dg(i, j, k) - dg(i, k, j) - riem(j, k, "m", i) * dg("m")


def test_a_term_that_is_its_own_negative_reduces_to_zero():
    # Riem antisymmetric in the slots that two gradients fill symmetrically:
    # the canonical key is reached with both signs
    zero = dg("a") * dg("b") * riem("a", "b", "c", "j") * dg("c")
    assert is_zero(normalize(zero)) and is_zero(commute_and_reduce(zero))
    # Ricci, symmetric in the same slots, keeps its term
    assert not is_zero(normalize(dg("a") * dg("b") * ric("a", "b") * dg("j")))


@pytest.mark.xfail(strict=True, reason="the normal form is not unique in general")
@pytest.mark.parametrize("zero", [
    # a commutator identity times two strings of length 3 and 2: the
    # reduction sorts each string under the names it meets, and the
    # canonical renaming leaves two sorted forms that differ by curvature
    pytest.param(lambda: _third_commutator("i", "j", "k") * dg("i", "j", "l")
                 * dg("k", "p"), id="two-long-strings"),
])
def test_zero_expressions_reduce_to_zero(zero):
    assert is_zero(commute_and_reduce(zero()))


@pytest.mark.parametrize("op,long_dg,curvature", [
    (laplacian, dg("i", "j", "k"), ric("l", "m")),
    (laplacian, dg("i", "j", "k"), riem("l", "m", "p", "q")),
    (gradG_pairing, dg("i", "j", "k", "l"), ric("m", "p")),
    (gradG_pairing, dg("i", "j", "k", "l"), riem("m", "p", "q", "r")),
])
def test_first_factor_outside_the_fragment_names_the_error(op, long_dg, curvature):
    cap = "derivative string length cap exceeded"
    outside = "curvature factors is outside the fragment"
    for expr, message in ((long_dg * curvature, cap), (curvature * long_dg, outside),
                          (kron("a", "b") * curvature * long_dg, outside),
                          (long_dg + curvature, cap), (curvature + long_dg, outside)):
        with pytest.raises(TensorError, match=message):
            op(expr)


def test_too_many_dummies_names_the_count_and_the_limit():
    # the pairing's u and the curvature terms of the string swaps take this
    # product of four dummies past the brute-force renaming's limit
    expr = dg("l", "a") * dg("a", "k") * dg("l", "k", "b") * dg("b")
    with pytest.raises(TensorError, match=r"brute-force renaming: a term has 7, "
                                          r"the limit is 6$"):
        gradG_pairing(expr)


# -- laplacian ----------------------------------------------------------------


def test_power_rule_exact():
    got = laplacian(gpow(BETA))
    want = commute_and_reduce(BETA * (BETA - 1) * gpow(BETA - 2) * dg("k") * dg("k"))
    assert exprs_equal(got, want)
    # all coefficients are exact ring elements, never floats
    for t in got.terms:
        assert isinstance(t.coeff, Coeff) and isinstance(t.gexp, Coeff)
        assert not to_sympy(t.coeff).atoms(sp.Float)


def test_laplacian_of_gradient_square():
    got = laplacian(dg("i") * dg("j"))
    want = commute_and_reduce(
        ric("i", "k") * dg("j") * dg("k") + ric("j", "k") * dg("i") * dg("k")
        + 2 * dg("i", "k") * dg("j", "k"))
    assert exprs_equal(got, want)


def test_laplacian_of_hessian():
    got = laplacian(dg("i", "j"))
    want = commute_and_reduce(
        ric("j", "k") * dg("i", "k") + ric("i", "k") * dg("j", "k")
        - 2 * riem("i", "k", "j", "l") * dg("k", "l"))
    assert exprs_equal(got, want)


def test_alpha_power_coefficient():
    got = laplacian(gpow(ALPHA))
    assert len(got.terms) == 1
    t = got.terms[0]
    assert sp.cancel(to_sympy(t.coeff) - 2 * n_sym / (2 - n_sym) ** 2) == 0
    assert sp.cancel(to_sympy(t.gexp) - (n_sym / (n_sym - 2) - 2)) == 0


# -- identity catalogue -------------------------------------------------------


ZERO_NAMES = [n for n in IDENTITIES if n != "lap_of_harnack.literal"]


@pytest.mark.parametrize("name", ZERO_NAMES)
def test_identity_reduces_to_zero(name):
    res = verify_identity(name)
    assert res.zero, f"{name}: residual {res.residual}"


def test_literal_reading_is_malformed():
    res = verify_identity("lap_of_harnack.literal")
    assert not res.zero and res.ok
    assert "free" in res.note


def test_unknown_identity_name():
    with pytest.raises(TensorError):
        verify_identity("nonsense")


def test_catalogue_runtime_budget():
    t0 = time.time()
    for name in IDENTITIES:
        verify_identity(name)
    assert time.time() - t0 < 30.0


# -- property tests -----------------------------------------------------------


_POOL = ["i", "j", "k", "l", "m", "p"]


def _random_term(rng: random.Random):
    """A random well-formed product of small factors (retry until valid)."""
    while True:
        nfac = rng.randint(1, 3)
        factors = []
        for _ in range(nfac):
            kind = rng.choice(["dg", "dg", "riem", "ric", "kron"])
            if kind == "dg":
                k = rng.randint(1, 3)
                factors.append(("dg", tuple(rng.choice(_POOL) for _ in range(k))))
            elif kind == "riem":
                factors.append(("riem", tuple(rng.choice(_POOL) for _ in range(4))))
            elif kind == "ric":
                factors.append(("ric", tuple(rng.choice(_POOL) for _ in range(2))))
            else:
                factors.append(("kron", tuple(rng.choice(_POOL) for _ in range(2))))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff == 0:
            coeff = Fraction(1)
        gexp = rng.choice([0, -1, 1, ALPHA])
        term = Term(coerce(coeff), coerce(gexp), tuple(factors))
        try:
            term.validate()
        except TensorError:
            continue
        counts = term.index_census()
        if all(v <= 2 for v in counts.values()):
            return term


def test_normalize_idempotent_on_random_expressions():
    rng = random.Random(20240817)
    for _ in range(1000):
        expr = TensorExpr([_random_term(rng) for _ in range(rng.randint(1, 3))])
        try:
            once = normalize(expr)
        except TensorError:
            continue  # mixed free-index terms are fine for idempotence only
        twice = normalize(once)
        assert [(t.factors, sp.cancel(to_sympy(t.coeff)), sp.cancel(to_sympy(t.gexp)))
                for t in once.terms] \
            == [(t.factors, sp.cancel(to_sympy(t.coeff)), sp.cancel(to_sympy(t.gexp)))
                for t in twice.terms]


def test_reduction_confluence_under_presentation_changes():
    # reduction result must not depend on term order or dummy naming
    rng = random.Random(7)
    for _ in range(60):
        terms = [_random_term(rng) for _ in range(rng.randint(1, 3))]
        expr = TensorExpr(terms)
        try:
            ref = commute_and_reduce(expr)
        except TensorError:
            continue
        shuffled = list(terms)
        rng.shuffle(shuffled)
        renamed = []
        for t in shuffled:
            dummies = [k for k, v in t.index_census().items() if v == 2]
            mapping = {d: f"q{idx}_{rng.randint(0, 999)}"
                       for idx, d in enumerate(dummies)}
            renamed.append(_rename(t, mapping))
        other = commute_and_reduce(TensorExpr(renamed))
        assert exprs_equal(ref, other)


def test_reduction_respects_subexpression_splitting():
    # reduce(a + b) == reduce(reduce(a) + reduce(b)) on catalogue-sized input
    a = laplacian(dg("i") * dg("j"))
    b = -2 * dg("i", "k") * dg("j", "k")
    whole = commute_and_reduce((dg("i") * dg("j") * gpow(0)) + b)
    parts = commute_and_reduce(commute_and_reduce(dg("i") * dg("j")) +
                               commute_and_reduce(b))
    assert exprs_equal(whole, parts)
    assert exprs_equal(a + b, commute_and_reduce(a) + b)


# -- exact coefficients -------------------------------------------------------


def test_foreign_symbols_are_refused():
    # a symbol that prints like n is still not the ring's n, and floats and
    # bools are not exact: every entry point refuses them
    assert TensorExpr.single(N, 0, []).terms[0].coeff == N
    assert normalize(gpow(N) * dg("i")).terms[0].gexp == N
    for foreign in (sp.Symbol("n"), sp.Symbol("n", positive=True), sp.Integer(2),
                    0.5, True):
        with pytest.raises(TensorError):
            TensorExpr.single(foreign, 0, [])
        with pytest.raises(TensorError):
            gpow(foreign)
        with pytest.raises(TensorError):
            dg("i") * foreign
        with pytest.raises(TensorError):
            foreign * dg("i")
        with pytest.raises(TensorError):
            N + foreign


_COLD = """
import json, sys
from harnacklab.symbolic import hessian_shifted, laplacian, verify_identity
if sys.argv[1] == "-":
    print(json.dumps(repr(laplacian(hessian_shifted("i", "j")))))
else:
    r = verify_identity(sys.argv[1])
    print(json.dumps([r.zero, r.ok, r.note, repr(r.residual)]))
"""


def _cold(args):
    """stdout JSON of each argument run alone in a fresh interpreter, a
    few interpreters at a time."""
    out = []
    for k in range(0, len(args), 4):
        procs = [subprocess.Popen([sys.executable, "-c", _COLD, a],
                                  stdout=subprocess.PIPE, text=True)
                 for a in args[k:k + 4]]
        for p in procs:
            stdout, _ = p.communicate(timeout=120)
            assert p.returncode == 0
            out.append(json.loads(stdout))
    return out


def test_warm_caches_give_the_cold_results():
    def fields(r):
        return [r.zero, r.ok, r.note, repr(r.residual)]

    first = [fields(r) for r in verify_all()]
    second = [fields(r) for r in verify_all()]
    assert first == second
    names = list(IDENTITIES)
    *cold, cold_lap = _cold(names + ["-"])
    assert dict(zip(names, cold)) == dict(zip(names, second))
    # a non-zero reduced form, whose coefficients and term order show
    assert cold_lap == repr(laplacian(hessian_shifted("i", "j")))
    assert "ric(_0,j)" in cold_lap
