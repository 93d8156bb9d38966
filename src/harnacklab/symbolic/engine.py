"""The rewrite system of the exact tensor engine.

The term algebra and its reduction loop (`Term`, `TensorExpr`, the factor
constructors, `normalize` and `_reduce`) live in `terms`; this module gives
their names too, so the engine's public names are all here.
`commute_and_reduce` is that one loop with `_dg_reduction_step` as its
rewrite.

The rewrite rules are exactly the commutator identities for a normal
frame with parallel Ricci curvature, the harmonicity of G, and the
contracted second Bianchi identity; reduction sorts every derivative
string while emitting the curvature correction terms.  Every rewrite is
an identity, so equal reduced forms prove two expressions equal.  The
converse can fail for a product of two long derivative strings, which can
keep a non-zero reduced form; a term that is its own negative under a
renaming of dummies reduces to zero.

`laplacian` and `gradG_pairing` are one covariant derivative,
`_derivative` (the Leibniz rule over dg strings, kron and the G power),
applied twice or contracted with grad G, then reduced.

`terms` is imported before `ring`.  The symbolic command compiles the
package from source, and `terms` is the largest module it compiles:
compiled first, while the fewest objects are live, it sets a lower peak
RSS than it does compiled after `ring` has run.
"""

from __future__ import annotations

# terms first: see the module docstring
from .terms import (
    Term, TensorExpr,
    _fresh_name, _reduce,
    dg, gpow, kron, normalize, ric, riem,
)
from .ring import ALPHA, BETA, C, N, TensorError

__all__ = [
    "N", "C", "BETA", "ALPHA",
    "Term", "TensorExpr", "TensorError",
    "dg", "riem", "ric", "kron", "gpow",
    "normalize", "commute_and_reduce", "laplacian", "gradG_pairing",
]


# -- rewrite system -----------------------------------------------------------


def _swap_dg(term: Term, fpos: int, p: int):
    """Swap positions (p, p+1) of the dg factor at fpos, emitting the
    curvature corrections dictated by the commutator identities."""
    kind, idx = term.factors[fpos]
    L = len(idx)
    rest = term.factors[:fpos] + term.factors[fpos + 1:]
    swapped = idx[:p] + (idx[p + 1], idx[p]) + idx[p + 2:]
    base = Term(term.coeff, term.gexp, rest + (("dg", swapped),))
    if p == 0:
        return [base]  # symmetric innermost pair
    m = _fresh_name()
    if p == 1 and L == 3:
        a, b, c = idx
        corr = Term(
            term.coeff, term.gexp,
            rest + (("riem", (b, c, m, a)), ("dg", (m,))),
        )
        return [base, corr]
    if p == 1 and L == 4:
        a, b, c, d2 = idx
        corr1 = Term(
            term.coeff, term.gexp,
            rest + (("driem", (d2, b, c, m, a)), ("dg", (m,))),
        )
        corr2 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (b, c, m, a)), ("dg", (m, d2))),
        )
        return [base, corr1, corr2]
    if p == 2 and L == 4:
        a, b, c, d2 = idx
        corr1 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (c, d2, m, b)), ("dg", tuple(sorted((a, m))))),
        )
        corr2 = Term(
            term.coeff, term.gexp,
            rest + (("riem", (c, d2, m, a)), ("dg", tuple(sorted((b, m))))),
        )
        return [base, corr1, corr2]
    raise TensorError(f"unsupported swap at position {p} in string of length {L}")


def _dg_reduction_step(term: Term):
    """One rewrite step on the first non-canonical dg factor, or None."""
    for fpos, (kind, idx) in enumerate(term.factors):
        if kind != "dg" or len(idx) < 2:
            continue
        internal = [x for x in set(idx) if idx.count(x) == 2]
        if internal:
            d0 = sorted(internal)[0]
            p1, p2 = [p for p, x in enumerate(idx) if x == d0][:2]
            if (p1, p2) == (0, 1):
                return []  # derivative of Delta G: harmonicity kills the term
            # bubble the trace pair toward the innermost slots, second
            # occurrence first so the pair travels adjacently
            if p2 > p1 + 1:
                return _swap_dg(term, fpos, p2 - 1)
            return _swap_dg(term, fpos, p1 - 1)
        # no internal trace: sort ascending
        for p in range(len(idx) - 1):
            if idx[p + 1] < idx[p]:
                return _swap_dg(term, fpos, p)
    # dric vanishes under the parallel-Ricci hypothesis
    for fpos, (kind, idx) in enumerate(term.factors):
        if kind == "dric":
            return []
    return None


def commute_and_reduce(expr: TensorExpr) -> TensorExpr:
    """Rewrite to the canonical fragment: sorted derivative strings, traces
    annihilated by harmonicity, dric killed by parallel Ricci, contracted
    driem eliminated through the second Bianchi identity."""
    return _reduce(expr, _dg_reduction_step)


def _in_fragment(expr: TensorExpr, longest: int, message: str) -> None:
    """Refuse what the derivative rule cannot take, term by term and factor
    by factor: a curvature factor (with `message`), or a dg string longer
    than `longest`, so that every string it makes stays within length 4."""
    for term in expr.terms:
        for kind, idx in term.factors:
            if kind == "kron":
                continue
            if kind != "dg":
                raise TensorError(message)
            if len(idx) > longest:
                raise TensorError("derivative string length cap exceeded")


def _derivative(expr: TensorExpr, u: str) -> TensorExpr:
    """grad_u of products of dg and kron factors times a power of G, by the
    Leibniz rule, unreduced: each dg string in turn gets the outer index u,
    kron is parallel, and G^e gives e G^(e-1) dg(u)."""
    out = []
    for term in expr.terms:
        items, e = term.factors, term.gexp
        for a, (kind, idx) in enumerate(items):
            if kind == "dg":
                out.append(Term(term.coeff, e,
                                items[:a] + items[a + 1:] + (("dg", idx + (u,)),)))
        if e != 0:
            out.append(Term(term.coeff * e, e - 1, items + (("dg", (u,)),)))
    return TensorExpr(out)


def gradG_pairing(expr: TensorExpr) -> TensorExpr:
    """g(grad G, grad expr) = grad_u expr * G_u, reduced: one `_derivative`
    with a fresh u, contracted against the gradient of G.  Takes products
    of kron and dg strings up to length 3 times a power of G."""
    _in_fragment(expr, 3, "gradient pairing of curvature factors is outside the fragment")
    u = _fresh_name()
    return commute_and_reduce(_derivative(expr, u) * dg(u))


def laplacian(expr: TensorExpr) -> TensorExpr:
    """Formal Laplacian grad_u grad_u expr, reduced: `_derivative` twice
    with one fresh u, so the Leibniz rule gives the cross terms and the
    G-power terms.  Takes products of kron and dg strings up to length 2
    times a power of G."""
    _in_fragment(expr, 2, "Laplacian of curvature factors is outside the fragment")
    u = _fresh_name()
    return commute_and_reduce(_derivative(_derivative(expr, u), u))
