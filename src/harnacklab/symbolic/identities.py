"""Catalogue of tensor identities verified by exact reduction.

Each entry builds LHS - RHS with the constructors from `engine`; an
identity is verified when the reduced difference has no terms.  All identities
are stated in an orthonormal normal frame, for a positive harmonic G on
a manifold with parallel Ricci curvature, with free indices i, j and
exact coefficients in n (dimension) and C.

The quadratic-gradient curvature term of the Hessian evolution identity
admits two index readings; the catalogue verifies the gradient-slot
contraction Riem(k,i,l,j) G_k G_l (which reduces to zero) and records
the literal spelling, whose repeated free indices make it structurally
malformed, as a non-zero entry.
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


# -- identity builders (each returns LHS - RHS) -------------------------------


def _commutator_axiom1():
    return dg("i", "j") - dg("j", "i")


def _commutator_axiom2():
    return dg("i", "j", "k") - dg("i", "k", "j") - riem("j", "k", "l", "i") * dg("l")


def _commutator_axiom3():
    # Delta f_i - (Delta f)_i = R_ik f_k, instantiated on f = G
    return dg("i", "k", "k") - dg("k", "k", "i") - ric("i", "k") * dg("k")


def _commutator_axiom4():
    return (
        dg("i", "j", "k", "l") - dg("i", "j", "l", "k")
        - riem("k", "l", "m", "j") * dg("i", "m")
        - riem("k", "l", "m", "i") * dg("j", "m")
    )


def _commutator_axiom5():
    return (
        dg("i", "j", "k", "k") - dg("k", "k", "i", "j")
        - ric("j", "k") * dg("i", "k") - ric("i", "k") * dg("j", "k")
        + 2 * riem("i", "k", "j", "l") * dg("k", "l")
    )


def _misc_1():
    rhs = (
        ric("j", "k") * dg("i", "k") + ric("i", "k") * dg("j", "k")
        - 2 * riem("i", "k", "j", "l") * dg("k", "l")
    )
    return laplacian(dg("i", "j")) - rhs


def _misc_2():
    rhs = (
        ric("i", "k") * dg("j") * dg("k") + ric("j", "k") * dg("i") * dg("k")
        + 2 * dg("i", "k") * dg("j", "k")
    )
    return laplacian(dg("i") * dg("j")) - rhs


def _misc_3():
    rhs = dg("i") * dg("k") * dg("j", "k") + dg("j") * dg("k") * dg("i", "k")
    return gradG_pairing(dg("i") * dg("j")) - rhs


def _misc_4():
    rhs = (
        ric("i", "k") * dg("j") * dg("k") * gpow(-1)
        + ric("j", "k") * dg("i") * dg("k") * gpow(-1)
        + 2 * dg("i", "k") * dg("j", "k") * gpow(-1)
        + 2 * _grad_sq() * dg("i") * dg("j") * gpow(-3)
        - 2 * dg("k") * dg("i") * dg("j", "k") * gpow(-2)
        - 2 * dg("k") * dg("j") * dg("i", "k") * gpow(-2)
    )
    return laplacian(B("i", "j")) - rhs


def _misc_5():
    rhs = (2 * N / (2 - N) ** 2) * gpow(ALPHA - 2) * _grad_sq()
    return laplacian(gpow(ALPHA)) - rhs


def _power_rule():
    rhs = BETA * (BETA - 1) * gpow(BETA - 2) * _grad_sq()
    return laplacian(gpow(BETA)) - rhs


def _b_squared():
    lhs = B("i", "k") * B("k", "j")
    rhs = _grad_sq() * gpow(-1) * B("i", "j")
    return lhs - rhs


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
    lhs = laplacian(hessian_shifted("i", "j"))
    M = lambda a, b: (2 / (2 - N)) * B(a, b) + _metric_shift(a, b)
    rhs = (
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
    return lhs - rhs


def _lap_step1():
    lhs = laplacian(hessian_shifted("i", "j"))
    sq = lambda a, b: dg(a, b) - B(a, b)
    square = sq("i", "k") * sq("k", "j")
    rhs = (
        ric("i", "k") * hessian_shifted("j", "k")
        + ric("j", "k") * hessian_shifted("i", "k")
        - 2 * riem("i", "k", "j", "l") * dg("k", "l")
        + (2 * N / (2 - N)) * gpow(-1) * square
    )
    return lhs - rhs


def _lap_step2():
    lhs = laplacian(hessian_shifted("i", "j"))
    br = lambda a, b: (
        htilde(a, b) - (N / (2 - N)) * B(a, b) - _metric_shift(a, b) - B(a, b)
    )
    square = br("i", "k") * br("k", "j")
    rhs = (
        ric("i", "k") * (htilde("j", "k") - _metric_shift("j", "k"))
        + ric("j", "k") * (htilde("i", "k") - _metric_shift("i", "k"))
        - 2 * riem("i", "k", "j", "l") * htilde("k", "l")
        - 2 * riem("i", "k", "j", "l") * (
            -(N / (2 - N)) * dg("k") * dg("l") * gpow(-1)
            - _metric_shift("k", "l")
        )
        + (2 * N / (2 - N)) * gpow(-1) * square
    )
    return lhs - rhs


def _lap_step3():
    lhs = laplacian(hessian_shifted("i", "j"))
    br = lambda a, b: htilde(a, b) - (2 / (2 - N)) * B(a, b) - _metric_shift(a, b)
    square = br("i", "k") * br("k", "j")
    rhs = (
        _curvature_contracted_htilde()
        + _gradient_slot_term()
        - (2 * N / (N - 2)) * gpow(-1) * square
    )
    return lhs - rhs


def _lap_literal():
    """Literal index spelling: repeats the free indices inside the
    contraction, so the free-index sets of the terms disagree."""
    lhs = laplacian(hessian_shifted("i", "j"))
    literal = (-2 * N / (N - 2)) * riem("i", "k", "j", "l") * dg("i") * dg("j") * gpow(-1)
    rhs = (
        _curvature_contracted_htilde()
        + literal
        - (2 * N / (N - 2)) * gpow(-1) * (htilde("i", "k") * htilde("k", "j"))
    )
    diff = lhs - rhs
    diff.free_indices()  # raises: i, j are saturated inside the literal term
    return diff


class _Entry(NamedTuple):
    builder: Callable[[], TensorExpr]
    expect_zero: bool
    note: str = ""


IDENTITIES = {
    "commutator.axiom1": _Entry(_commutator_axiom1, True, "hessian symmetry"),
    "commutator.axiom2": _Entry(_commutator_axiom2, True, "third-derivative commutator"),
    "commutator.axiom3": _Entry(_commutator_axiom3, True, "gradient laplacian commutator"),
    "commutator.axiom4": _Entry(_commutator_axiom4, True, "fourth-derivative commutator"),
    "commutator.axiom5": _Entry(_commutator_axiom5, True, "hessian laplacian commutator"),
    "misc.1": _Entry(_misc_1, True, "laplacian of Hess G"),
    "misc.2": _Entry(_misc_2, True, "laplacian of grad G tensor square"),
    "misc.3": _Entry(_misc_3, True, "gradient pairing with grad G tensor square"),
    "misc.4": _Entry(_misc_4, True, "laplacian of B"),
    "misc.5": _Entry(_misc_5, True, "laplacian of G^alpha"),
    "power_rule": _Entry(_power_rule, True, "laplacian of G^beta"),
    "b_squared": _Entry(_b_squared, True, "B squared is |grad G|^2/G times B"),
    "lap_of_harnack": _Entry(
        _lap_of_harnack, True, "evolution identity, gradient-slot contraction"),
    "lap_of_harnack.step1": _Entry(_lap_step1, True, "expansion in G derivatives"),
    "lap_of_harnack.step2": _Entry(_lap_step2, True, "substitution of the shifted tensor"),
    "lap_of_harnack.step3": _Entry(_lap_step3, True, "rearranged square term"),
    "lap_of_harnack.literal": _Entry(
        _lap_literal, False, "literal index spelling (structurally malformed)"),
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
    """Reduce LHS - RHS of the named identity to canonical form."""
    try:
        entry = IDENTITIES[name]
    except KeyError:
        raise TensorError(f"unknown identity {name!r}") from None
    try:
        residual = commute_and_reduce(entry.builder())
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
