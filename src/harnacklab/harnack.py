"""Verifier for the matrix bound Hess b^2 <= C g and its proof machinery.

The curvature-corrected Hessian quantity under test is

    Htilde = Hess_G + (n/(2-n)) * (grad G tensor grad G)/G
             + ((n-2)/2) * C * G^alpha * g,      alpha = n/(n-2).

With b^2 = G^{2/(2-n)} it is exactly ((n-2)/2) G^alpha (C g - Hess b^2), so
its eigenvalues are ((n-2)/2) G^alpha (C - mu) for the eigenvalues mu of
Hess b^2.  On a rotationally symmetric model it is diagonal in the radial
frame, so its eigenvalues are two explicit radial curves and the whole
story can be audited pointwise; one kernel, `_htilde`, reads them off G
and the (mu_rad, mu_tan) pair the Green kernel gives, at every radius.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import NamedTuple, Optional

from . import INEQ_TOL, is_exploratory, quadrature
from .models import ModelError, curvature_at, hypothesis_report
from .green import RadialGreenProfile, hess_b2_eigs, in_float_range

__all__ = [
    "TermAudit",
    "HarnackReport",
    "verify_theorem",
    "minimal_C",
    "audit_proof_terms",
]

#: default tolerance on identity residuals
IDENT_TOL = 1e-9


def _htilde(n: int, C: float, G, mu_rad, mu_tan):
    """Eigenvalues (h_rad, h_tan) of Htilde from G and the eigenvalues
    (mu_rad, mu_tan) of Hess b^2: h = ((n-2)/2) G^alpha (C - mu).

    ((n-2)/2) G^alpha is taken as G * s, s = ((n-2)/2) G^{2/(n-2)}: a
    G^alpha past the float range would raise, while a product past it is
    inf, which a report refuses only where it prints it.
    """
    s = 0.5 * (n - 2) * G ** (2.0 / (n - 2))
    return G * (s * (C - mu_rad)), G * (s * (C - mu_tan))


class HarnackReport(NamedTuple):
    model_id: str
    n: int
    C: float
    passed: bool
    exploratory: bool
    worst_margin: float
    minimal_C: float
    violations: list
    hypothesis_flags: dict
    boundary_diagnostics: dict
    D: Optional[float] = None
    D_premise_holds: Optional[bool] = None

    def payload(self) -> dict:
        payload = {
            "model": self.model_id,
            "n": self.n,
            "C": self.C,
            "pass": self.passed,
            "exploratory": self.exploratory,
            "worst_margin": self.worst_margin,
            "minimal_C": self.minimal_C,
            "violations": self.violations,
            "hypothesis_flags": self.hypothesis_flags,
            "boundary_diagnostics": self.boundary_diagnostics,
        }
        if self.D is not None:
            # the bound D and whether Hess b^2 <= D g holds, on the refined sup
            payload["D"] = self.D
            payload["D_premise_holds"] = self.D_premise_holds
        return payload


def _sup_mu(profile: RadialGreenProfile):
    """(mu, sup): mu = max(mu_rad, mu_tan) on the grid, and its sup over the
    range, the grid's largest value sharpened by a local 1D search."""
    grid = profile.grid
    mu = array("d", map(max, profile.mu_rad, profile.mu_tan))
    idx = mu.index(max(mu))

    def neg_mu(r):
        return -max(hess_b2_eigs(profile, r))

    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    _, fun = quadrature.brent_min(neg_mu, lo, hi, xatol=1e-10 * (hi - lo) + 1e-14)
    return mu, max(-fun, -neg_mu(grid[idx]))


def minimal_C(profile: RadialGreenProfile) -> float:
    """Sup over the profile's range of the largest eigenvalue of Hess b^2."""
    return _sup_mu(profile)[1]


def verify_theorem(
    profile: RadialGreenProfile,
    C: float,
    tol: float = INEQ_TOL,
    D: Optional[float] = None,
) -> HarnackReport:
    """Check Hess b^2 <= C g over the profile's grid and report margins.

    A run is hypothesis-faithful only when C >= 10 and the model meets
    the curvature/volume assumptions over the grid's range; otherwise the
    verdict is labeled exploratory (never silently mixed with clean passes).
    """
    model, grid, n = profile.model, profile.grid, profile.model.n
    flags = hypothesis_report(model, grid[0], grid[-1]).flags()

    mu, min_C = _sup_mu(profile)
    worst_margin = C - min_C
    passed = worst_margin >= -tol

    viol_idx = (i for i, m in enumerate(mu) if m > C + tol)
    violations = [
        {"r": grid[i], "mu_rad": profile.mu_rad[i], "mu_tan": profile.mu_tan[i]}
        for i in islice(viol_idx, 32)
    ]

    # Hess b^2 <= D g on the range; Lambda - ((n-2)/2)(C-D) G^alpha is
    # ((n-2)/2) G^alpha (D - mu), so the premise is the whole content of
    # Htilde's lower bound
    premise = None if D is None else min_C <= D + tol

    return HarnackReport(
        model_id=model.profile.name,
        n=n,
        C=float(C),
        passed=passed,
        exploratory=is_exploratory(C, flags),
        worst_margin=worst_margin,
        minimal_C=min_C,
        violations=violations,
        hypothesis_flags=flags,
        boundary_diagnostics={"mu_max_at_r_min": mu[0], "mu_max_at_r_max": mu[-1]},
        D=None if D is None else float(D),
        D_premise_holds=premise,
    )


# ---------------------------------------------------------------------------
# proof-term audit


class TermAudit(NamedTuple):
    """Signed slack of every estimate in the pointwise Laplacian bound.

    Each group value is (term as evaluated) minus (its claimed upper
    bound), so nonpositive means the corresponding step of the argument
    holds at this point:

    group_curv1   2 R_mkmk (Lambda - lambda_k), claimed <= 0
                  (relies on nonneg_sectional_along_gradG)
    group_curv2   -(2n/(n-2)) R(grad G, V, grad G, V)/G, claimed <= 0
                  (relies on nonneg_sectional_along_gradG)
    group_Hsq     -(2n/((n-2)G)) (Htilde^2)_VV, claimed <= 0 (relies on none)
    group_Csq     slack of the C^2 block against -(n(n-2)/2)C(C-8)G^{2a-1}
                  (relies on nonneg_ricci, through the gradient estimate)
    group_mixed   slack of the anticommutator block against its bound
                  (relies on nonneg_ricci)
    final_bound   -(n(n-2)/2) C (C-10) G^{2 alpha - 1}

    lap_assembled sums the raw (unslacked) terms plus the (n-2)C/2 *
    Delta G^alpha contribution; on parallel-Ricci models (parallel_ricci)
    it must match the finite-difference Laplacian of the eigenvalue curve
    (lap_fd).

    group_scales holds, per group, the sum of the absolute values of the
    terms it is made of: the size of its rounding, so a group may be
    gated relative to it.

    hypothesis_flags is the model's hypothesis_report(...).flags() on the
    profile's range, the dict verify prints: true where a hypothesis holds.
    max_principle_case is Lambda < 0, the only case the sign claims past
    group_Hsq speak to; where it is false they were not exercised.
    """

    r: float
    C: float
    direction: str
    group_curv1: float
    group_curv2: float
    group_Hsq: float
    group_Csq: float
    group_mixed: float
    final_bound: float
    group_Csq_bound: float      # -(n(n-2)/2) C (C-8) G^{2a-1}
    group_mixed_bound: float    # (n-2)(C-4) G^alpha * htilde
    lap_assembled: float        # raw term sum + (n-2)C/2 * Delta G^alpha
    lap_fd: float               # finite differences of the eigenvalue curve
    group_scales: dict
    hypothesis_flags: dict
    max_principle_case: bool


def _lap_radial_curve(profile: RadialGreenProfile, func, r: float, u0: float) -> float:
    """Laplacian at r of a radial scalar curve func, whose value at r is u0,
    by central differences + Richardson: func is evaluated once at each of
    r +- h and r +- h/2.

    Valid for Htilde(V,V) with V the radial or a fixed tangential frame
    direction, which stay eigendirections along the radial line.
    """
    p = profile.model.profile
    f, fp = p.f(r), p.fp(r)

    def lap(h):  # u'' + (n-1)(f'/f) u'
        u_plus, u_minus = func(r + h), func(r - h)
        up = (u_plus - u_minus) / (2 * h)
        upp = (u_plus - 2 * u0 + u_minus) / (h * h)
        return upp + (profile.model.n - 1) * fp / f * up

    h = 1e-4 * r
    l1, l2 = lap(h), lap(h / 2)
    return (4 * l2 - l1) / 3.0


def audit_proof_terms(profile: RadialGreenProfile, r: float, C: float) -> TermAudit:
    """Evaluate every term group of the pointwise estimate at radius r, on
    the profile's model.

    Works in the radial eigenframe where Htilde is diagonal; V is the
    eigendirection attaining the lowest eigenvalue (radial when the two
    coincide).
    """
    model = profile.model
    n = model.n
    G, Gp, _, _, _, _, mu_rad, mu_tan = profile.row_at(r)
    # the terms divide by G^2 and carry G'^2, so those must stay in range too
    if not (G * G > 0 and in_float_range((G * G, Gp * Gp))):
        raise ModelError(f"G^2 or G'^2 leaves the float range at n={n}, r={r:g}; "
                         "lower n or choose another r")
    h_rad, h_tan = _htilde(n, C, G, mu_rad, mu_tan)
    galpha = G ** (n / (n - 2.0))
    lam = min(h_rad, h_tan)
    radial_min = h_rad <= h_tan + IDENT_TOL * max(1.0, abs(h_rad), abs(h_tan))
    direction = "radial" if radial_min else "tangential"

    curv = curvature_at(model, r)
    k_rad, k_tan = curv.k_rad, curv.k_tan

    # each group is a sum of signed terms, kept apart for the group's scale
    # group 1: 2 R_mkmk (Lambda - lambda_k), m = index of V
    if direction == "radial":
        g1_terms = (2.0 * (n - 1) * k_rad * lam, -2.0 * (n - 1) * k_rad * h_tan)
        b_vv = Gp * Gp / G
        sec_vv = 0.0  # R(grad G, V, grad G, V) = 0 for radial V
    else:
        g1_terms = (2.0 * k_rad * lam, -2.0 * k_rad * h_rad,
                    2.0 * (n - 2) * k_tan * lam, -2.0 * (n - 2) * k_tan * h_tan)
        b_vv = 0.0
        sec_vv = Gp * Gp * k_rad
    g1 = sum(g1_terms)

    g2 = -(2.0 * n / (n - 2)) * sec_vv / G
    g3 = -(2.0 * n / ((n - 2) * G)) * lam * lam

    two_am1 = G ** ((n + 2.0) / (n - 2.0))       # G^{2 alpha - 1}
    galpham1 = galpha / G
    t4_terms = (
        -0.5 * n * (n - 2) * C * C * two_am1,
        (4.0 * n / (n - 2)) * C * galpham1 * b_vv,
        -(8.0 * n / (n - 2) ** 3) * Gp * Gp / (G * G) * b_vv,
    )
    t4 = sum(t4_terms)
    g4_bound = -0.5 * n * (n - 2) * C * (C - 8.0) * two_am1
    g4_terms = t4_terms + (-g4_bound,)
    g4 = sum(g4_terms)

    # group 5 bracket: [Htilde M + M Htilde]_VV with
    # M = (2/(2-n)) B + ((n-2)/2) C G^alpha g; diagonal frame, so 2*lam*M_VV
    m_vv = 2.0 / (2.0 - n) * b_vv + 0.5 * (n - 2) * C * galpha
    t5_bracket = 2.0 * lam * m_vv
    g5_bound = (n - 2) * (C - 4.0) * galpha * lam
    # minus the gradient-estimate remainder completing the bracket bound,
    # (4/((n-2)G)) ((n-2)^2 G^{n/(n-2)+1} - |G'|^2) lam
    g5_terms = (t5_bracket, -g5_bound,
                -4.0 * (n - 2) * galpha * lam,
                4.0 / ((n - 2) * G) * Gp * Gp * lam)
    g5 = sum(g5_terms)
    t5 = (2.0 * n / ((n - 2) * G)) * t5_bracket

    final_bound = -0.5 * n * (n - 2) * C * (C - 10.0) * two_am1

    # assembled Laplacian of htilde: raw terms + (n-2)C/2 * Delta G^alpha
    lap_galpha = (2.0 * n / (n - 2) ** 2) * G ** (n / (n - 2.0) - 2.0) * Gp * Gp
    assembled = g1 + g2 + g3 + t4 + t5 + 0.5 * (n - 2) * C * lap_galpha

    which = 0 if direction == "radial" else 1

    def curve(s):
        G, *_, mu_rad, mu_tan = profile.row_at(s)
        return _htilde(n, C, G, mu_rad, mu_tan)[which]

    lap_fd = _lap_radial_curve(profile, curve, r, (h_rad, h_tan)[which])

    return TermAudit(
        r=float(r),
        C=float(C),
        direction=direction,
        group_curv1=g1,
        group_curv2=g2,
        group_Hsq=g3,
        group_Csq=g4,
        group_mixed=g5,
        final_bound=final_bound,
        group_Csq_bound=g4_bound,
        group_mixed_bound=g5_bound,
        lap_assembled=assembled,
        lap_fd=lap_fd,
        group_scales={name: sum(map(abs, terms)) for name, terms in (
            ("group_curv1", g1_terms), ("group_curv2", (g2,)), ("group_Hsq", (g3,)),
            ("group_Csq", g4_terms), ("group_mixed", g5_terms))},
        hypothesis_flags=hypothesis_report(model, profile.grid[0], profile.grid[-1]).flags(),
        max_principle_case=lam < 0.0,
    )
