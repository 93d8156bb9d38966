"""Catalogue of tensor identities verified by exact reduction.

Each entry states an identity op(inner) = rhs by its parts: an operator
(None, or the engine's `laplacian` or `gradG_pairing`), the inner field
and a builder of the right side, which can each be read without the
rewrite engine.  `verify_identity` alone forms op(inner) - rhs (inner - rhs
where op is None) and reduces it; an identity is verified when the reduced
difference has no terms.  All identities are stated in an orthonormal
normal frame, for a positive harmonic G on a manifold with parallel Ricci
curvature, with free indices i, j and exact coefficients in n (dimension)
and C.

The quadratic-gradient curvature term of the Hessian evolution identity
admits two index readings; the catalogue verifies the gradient-slot
contraction Riem(k,i,l,j) G_k G_l (which reduces to zero) and records
the literal spelling, whose repeated free indices make its right side
structurally malformed, as a non-zero entry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .engine import (
    ALPHA, BETA, C, N,
    TensorError, TensorExpr,
    commute_and_reduce, dg, gpow, gradG_pairing, kron, laplacian, ric, riem,
)

__all__ = [
    "IDENTITIES", "IdentityResult", "verify_identity",
    "verify_all", "B", "htilde", "hessian_shifted",
]


# -- building blocks ----------------------------------------------------------


def B(i, j) -> TensorExpr:
    """B_ij = G_i G_j / G, the normalized gradient square tensor."""
    return dg(i) * dg(j) * gpow(-1)


def hessian_shifted(i, j) -> TensorExpr:
    """Hess_G plus the gradient correction: G_ij + n/(2-n) B_ij."""
    return dg(i, j) + (N / (2 - N)) * B(i, j)


def htilde(i, j) -> TensorExpr:
    """The shifted Harnack tensor G_ij + n/(2-n) B_ij + (n-2)/2 C G^a g_ij."""
    return hessian_shifted(i, j) + _metric_shift(i, j)


def _metric_shift(i, j) -> TensorExpr:
    return ((N - 2) / 2 * C) * gpow(ALPHA) * kron(i, j)


def _grad_sq() -> TensorExpr:
    return dg("k") * dg("k")


def _sym_product(a: Callable, b: Callable, i, j) -> TensorExpr:
    """(AB + BA)_ij for symmetric 2-tensor builders a, b."""
    return a(i, "k") * b("k", j) + b(i, "k") * a("k", j)


# -- right sides --------------------------------------------------------------


def _axiom2():
    return dg("i", "k", "j") + riem("j", "k", "l", "i") * dg("l")


def _axiom3():
    # Delta f_i - (Delta f)_i = R_ik f_k, instantiated on f = G
    return dg("k", "k", "i") + ric("i", "k") * dg("k")


def _axiom4():
    return (
        dg("i", "j", "l", "k")
        + riem("k", "l", "m", "j") * dg("i", "m")
        + riem("k", "l", "m", "i") * dg("j", "m")
    )


def _axiom5():
    # Delta G_ij - (Delta G)_ij: misc.1's curvature terms, as Delta G = 0
    return dg("k", "k", "i", "j") + _misc_1()


def _misc_1():
    return (
        ric("j", "k") * dg("i", "k") + ric("i", "k") * dg("j", "k")
        - 2 * riem("i", "k", "j", "l") * dg("k", "l")
    )


def _misc_2():
    return (
        ric("i", "k") * dg("j") * dg("k") + ric("j", "k") * dg("i") * dg("k")
        + 2 * dg("i", "k") * dg("j", "k")
    )


def _misc_3():
    return dg("i") * dg("k") * dg("j", "k") + dg("j") * dg("k") * dg("i", "k")


def _misc_4():
    return (
        ric("i", "k") * dg("j") * dg("k") * gpow(-1)
        + ric("j", "k") * dg("i") * dg("k") * gpow(-1)
        + 2 * dg("i", "k") * dg("j", "k") * gpow(-1)
        + 2 * _grad_sq() * dg("i") * dg("j") * gpow(-3)
        - 2 * dg("k") * dg("i") * dg("j", "k") * gpow(-2)
        - 2 * dg("k") * dg("j") * dg("i", "k") * gpow(-2)
    )


def _misc_5():
    return (2 * N / (2 - N) ** 2) * gpow(ALPHA - 2) * _grad_sq()


def _power_rule():
    return BETA * (BETA - 1) * gpow(BETA - 2) * _grad_sq()


def _b_squared():
    return _grad_sq() * gpow(-1) * B("i", "j")


def _curvature_contracted_htilde():
    """R_ik Ht_jk + R_jk Ht_ik - 2 R_ikjl Ht_kl."""
    return (
        ric("i", "k") * htilde("j", "k") + ric("j", "k") * htilde("i", "k")
        - 2 * riem("i", "k", "j", "l") * htilde("k", "l")
    )


def _gradient_slot_term():
    """-2n/(n-2) Riem(k,i,l,j) G_k G_l / G, the gradient-slot reading."""
    return (-2 * N / (N - 2)) * riem("k", "i", "l", "j") * dg("k") * dg("l") * gpow(-1)


def _lap_of_harnack():
    M = lambda a, b: (2 / (2 - N)) * B(a, b) + _metric_shift(a, b)
    return (
        _curvature_contracted_htilde()
        + _gradient_slot_term()
        - (2 * N / (N - 2)) * gpow(-1) * (htilde("i", "k") * htilde("k", "j"))
        - (N * (N - 2) / 2 * C**2) * gpow(2 * ALPHA - 1) * kron("i", "j")
        + (4 * N / (N - 2)) * (
            C * gpow(ALPHA - 1) * B("i", "j")
            - (2 / (N - 2) ** 2) * _grad_sq() * gpow(-2) * B("i", "j")
        )
        + (2 * N / (N - 2)) * gpow(-1) * _sym_product(htilde, M, "i", "j")
    )


def _lap_step1():
    sq = lambda a, b: dg(a, b) - B(a, b)
    square = sq("i", "k") * sq("k", "j")
    return (
        ric("i", "k") * hessian_shifted("j", "k")
        + ric("j", "k") * hessian_shifted("i", "k")
        - 2 * riem("i", "k", "j", "l") * dg("k", "l")
        + (2 * N / (2 - N)) * gpow(-1) * square
    )


def _lap_step2():
    br = lambda a, b: (
        htilde(a, b) - (N / (2 - N)) * B(a, b) - _metric_shift(a, b) - B(a, b)
    )
    square = br("i", "k") * br("k", "j")
    return (
        ric("i", "k") * (htilde("j", "k") - _metric_shift("j", "k"))
        + ric("j", "k") * (htilde("i", "k") - _metric_shift("i", "k"))
        - 2 * riem("i", "k", "j", "l") * htilde("k", "l")
        - 2 * riem("i", "k", "j", "l") * (
            -(N / (2 - N)) * dg("k") * dg("l") * gpow(-1)
            - _metric_shift("k", "l")
        )
        + (2 * N / (2 - N)) * gpow(-1) * square
    )


def _lap_step3():
    br = lambda a, b: htilde(a, b) - (2 / (2 - N)) * B(a, b) - _metric_shift(a, b)
    square = br("i", "k") * br("k", "j")
    return (
        _curvature_contracted_htilde()
        + _gradient_slot_term()
        - (2 * N / (N - 2)) * gpow(-1) * square
    )


def _lap_literal():
    """Literal index spelling: repeats the free indices inside the
    contraction, so the free-index sets of the terms disagree."""
    literal = (-2 * N / (N - 2)) * riem("i", "k", "j", "l") * dg("i") * dg("j") * gpow(-1)
    rhs = (
        _curvature_contracted_htilde()
        + literal
        - (2 * N / (N - 2)) * gpow(-1) * (htilde("i", "k") * htilde("k", "j"))
    )
    rhs.free_indices()  # raises: i, j are saturated inside the literal term
    return rhs


class _Entry(NamedTuple):
    op: Optional[Callable[[TensorExpr], TensorExpr]]  # None, laplacian or gradG_pairing
    inner: TensorExpr
    rhs: Callable[[], TensorExpr]
    expect_zero: bool
    note: str


#: the field whose Laplacian the maximum-principle argument reads
_HARNACK = hessian_shifted("i", "j")

IDENTITIES = {
    "commutator.axiom1": _Entry(None, dg("i", "j"), lambda: dg("j", "i"), True,
                                "hessian symmetry"),
    "commutator.axiom2": _Entry(None, dg("i", "j", "k"), _axiom2, True,
                                "third-derivative commutator"),
    "commutator.axiom3": _Entry(None, dg("i", "k", "k"), _axiom3, True,
                                "gradient laplacian commutator"),
    "commutator.axiom4": _Entry(None, dg("i", "j", "k", "l"), _axiom4, True,
                                "fourth-derivative commutator"),
    "commutator.axiom5": _Entry(None, dg("i", "j", "k", "k"), _axiom5, True,
                                "hessian laplacian commutator"),
    "misc.1": _Entry(laplacian, dg("i", "j"), _misc_1, True, "laplacian of Hess G"),
    "misc.2": _Entry(laplacian, dg("i") * dg("j"), _misc_2, True,
                     "laplacian of grad G tensor square"),
    "misc.3": _Entry(gradG_pairing, dg("i") * dg("j"), _misc_3, True,
                     "gradient pairing with grad G tensor square"),
    "misc.4": _Entry(laplacian, B("i", "j"), _misc_4, True, "laplacian of B"),
    "misc.5": _Entry(laplacian, gpow(ALPHA), _misc_5, True, "laplacian of G^alpha"),
    "power_rule": _Entry(laplacian, gpow(BETA), _power_rule, True, "laplacian of G^beta"),
    "b_squared": _Entry(None, B("i", "k") * B("k", "j"), _b_squared, True,
                        "B squared is |grad G|^2/G times B"),
    "lap_of_harnack": _Entry(laplacian, _HARNACK, _lap_of_harnack, True,
                             "evolution identity, gradient-slot contraction"),
    "lap_of_harnack.step1": _Entry(laplacian, _HARNACK, _lap_step1, True,
                                   "expansion in G derivatives"),
    "lap_of_harnack.step2": _Entry(laplacian, _HARNACK, _lap_step2, True,
                                   "substitution of the shifted tensor"),
    "lap_of_harnack.step3": _Entry(laplacian, _HARNACK, _lap_step3, True,
                                   "rearranged square term"),
    "lap_of_harnack.literal": _Entry(laplacian, _HARNACK, _lap_literal, False,
                                     "literal index spelling (structurally malformed)"),
}


class IdentityResult(NamedTuple):
    name: str
    zero: bool
    residual: Optional[TensorExpr]
    expect_zero: bool
    note: str

    @property
    def ok(self) -> bool:
        return self.zero == self.expect_zero


def verify_identity(name: str) -> IdentityResult:
    """Reduce op(inner) - rhs of the named identity to canonical form; the
    right side first, so a malformed one refuses before the operator runs."""
    try:
        entry = IDENTITIES[name]
    except KeyError:
        raise TensorError(f"unknown identity {name!r}") from None
    try:
        rhs = entry.rhs()
        lhs = entry.inner if entry.op is None else entry.op(entry.inner)
        residual = commute_and_reduce(lhs - rhs)
    except TensorError as exc:
        return IdentityResult(
            name=name, zero=False, residual=None,
            expect_zero=entry.expect_zero, note=f"{entry.note}: {exc}",
        )
    zero = len(residual.terms) == 0
    return IdentityResult(
        name=name, zero=zero, residual=None if zero else residual,
        expect_zero=entry.expect_zero, note=entry.note,
    )


def verify_all() -> list:
    return [verify_identity(name) for name in IDENTITIES]
