"""Exact abstract-index tensor calculus and the identity catalogue."""

from .engine import (
    ALPHA, BETA, C, N,
    TensorError, TensorExpr, Term,
    commute_and_reduce, dg, gpow, gradG_pairing, kron,
    laplacian, normalize, ric, riem,
)
from .identities import (
    IDENTITIES, IdentityResult, B, hessian_shifted, htilde,
    verify_all, verify_identity,
)

__all__ = [
    "ALPHA", "BETA", "C", "N",
    "TensorError", "TensorExpr", "Term",
    "commute_and_reduce", "dg", "gpow", "gradG_pairing",
    "kron", "laplacian", "normalize", "ric", "riem",
    "IDENTITIES", "IdentityResult", "B", "hessian_shifted", "htilde",
    "verify_all", "verify_identity",
]
