"""The Green profile's per-radius path as it was before one kernel per piece
filled the columns, a test-only reference for ``harnacklab.green``.

G on a piece from G at its top (`piece_G`: the closed form, or a Gauss
integral of the piece as a `Poly`), then (G', G'') from (f, f') by
`green_derivs`, the powers of G by `power_jet`, and the Hess b^2
eigenvalues by `b2_hessian`, each radius on its own and every power taken
by `_pow`.  `reference_rows` walks a profile's grid this way; the package's
columns and pointwise calls must equal it bit for bit.  `power_jet` also
gives `check_power_laplacian`, the power rule Delta(G^beta) =
beta (beta-1) G^{beta-2} |grad G|^2 at one radius.  `htilde_q` gives the
eigenvalues of the Harnack quantity Htilde from the Hessian of G (q1, q2,
f and f'), independently of the package's closed form in Hess b^2, and
`consistency_hess_vs_H` checks the Hess b^2 eigenvalues against it at
C = 2.  The functions take floats or numpy arrays alike.
"""

import bisect
import math

from harnacklab import quadrature
from harnacklab.green import GREEN_RTOL, hess_b2_eigs
from harnacklab.models import ModelError, Poly


def _pow(x, y):
    """x ** y, inf where it overflows or x = 0 < -y."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        return math.inf


def piece_G(n, pc, G_hi, r):
    """G at a radius r inside the piece pc, from G_hi = G(pc.hi)."""
    a = pc.slope
    if a is not None:
        G = G_hi + _pow(a, 1 - n) * (_pow(r - pc.x0, 2 - n) - _pow(pc.hi - pc.x0, 2 - n))
    else:
        F, x0 = Poly(pc.coef), pc.x0
        val, _, missed = quadrature.gauss_legendre(lambda t: _pow(F(t - x0), 1 - n),
                                                   r, pc.hi, rtol=GREEN_RTOL)
        if missed and math.isfinite(val):
            raise ModelError(f"Green quadrature missed its gate {GREEN_RTOL:g} on "
                             f"[{r:.17g}, {pc.hi:.17g}] at n={n}")
        G = G_hi + (n - 2) * val
    return G if math.isfinite(G) else math.inf


def green_derivs(n, x, fp, a=1.0):
    """(G', G'') where f = a x and f' = fp, at the same radii (a = 1 and
    x = f in general, the slope a and x = r - x0 where f = a (r - x0)
    exactly)."""
    return (-(n - 2) * _pow(a, 1 - n) * _pow(x, 1 - n),
            (n - 2) * (n - 1) * _pow(a, -n) * _pow(x, -n) * fp)


def kernel(model, pc, r_top):
    """derivs(r) = (G', G'', f, f') at the radii r <= r_top of the piece pc,
    f and f' from the profile's piece at pc.lo."""
    n, p = model.n, model.profile
    fpc = p.piece_at(pc.lo)
    if r_top > fpc.hi:
        p.f(r_top)  # raises: f stops at a table's top
    a, x0 = fpc.slope, fpc.x0
    row = fpc.coef[::-1]
    drow = [k * c for k, c in enumerate(fpc.coef)][:0:-1]

    def derivs(r):
        t = r - x0
        f = fp = 0.0
        for c in row:
            f = f * t + c
        for c in drow:
            fp = fp * t + c
        Gp, Gpp = green_derivs(n, f, fp) if a is None else green_derivs(n, t, fp, a)
        return Gp, Gpp, f, fp

    return derivs


def power_jet(G, q1, q2, beta):
    """(u, u', u'') of u = G^beta, from q1 = G'/G and q2 = G''/G."""
    u = _pow(G, beta)
    return u, beta * u * q1, beta * u * ((beta - 1) * q1 * q1 + q2)


def b2_hessian(n, G, q1, q2, f, fp):
    """(b^2, b^2', mu_rad, mu_tan) for b^2 = G^{2/(2-n)}."""
    b2, b2p, b2pp = power_jet(G, q1, q2, 2.0 / (2 - n))
    return b2, b2p, b2pp, b2p * fp / f


def reference_G_hi(profile):
    """G at each of the profile's pieces' upper ends, worked top down."""
    n, pieces = profile.model.n, profile.pieces
    G_hi = [0.0]
    for pc in reversed(pieces[1:]):
        G_hi.append(piece_G(n, pc, G_hi[-1], pc.lo))
    return tuple(reversed(G_hi))


def reference_rows(profile):
    """(r, G, G', G'', b, b^2, b^2', |grad b|, mu_rad, mu_tan, f, f') at each
    grid radius, each radius on its own."""
    n, grid = profile.model.n, profile.grid
    rows = []
    for pc, g_hi in zip(profile.pieces, reference_G_hi(profile)):
        radii = grid[bisect.bisect_left(grid, pc.lo):bisect.bisect_left(grid, pc.hi)]
        if not radii:
            continue
        derivs = kernel(profile.model, pc, radii[-1])
        for r in radii:
            g = piece_G(n, pc, g_hi, r)
            Gp, Gpp, f, fp = derivs(r)
            q1, q2 = (Gp / g, Gpp / g) if g else (math.inf, math.inf)
            b, bp, _ = power_jet(g, q1, q2, 1.0 / (2 - n))
            b2, b2p, mu_rad, mu_tan = b2_hessian(n, g, q1, q2, f, fp)
            rows.append((r, g, Gp, Gpp, b, b2, b2p, abs(bp), mu_rad, mu_tan, f, fp))
    return rows


def htilde_q(n, C, G, q1, q2, f, fp):
    """Eigenvalues (h_rad, h_tan) of Htilde = Hess G + (n/(2-n)) dG dG/G
    + ((n-2)/2) C G^alpha g from G, q1 = G'/G, q2 = G''/G, f and f'.

    Each is G times a sum that stays finite wherever G does: the shift
    ((n-2)/2) C G^alpha is G * s with s = ((n-2)/2) C G^{2/(n-2)}.
    """
    s = 0.5 * (n - 2) * C * G ** (2.0 / (n - 2))
    return G * (q2 + n / (2.0 - n) * q1 * q1 + s), G * (q1 * fp / f + s)


def check_power_laplacian(profile, r, beta):
    """| Delta(G^beta) - beta(beta-1) G^{beta-2} |grad G|^2 | at radius r."""
    grid = profile.grid
    if not (grid[0] <= r <= grid[-1]):
        raise ModelError(f"r={r} outside profile grid range")
    G, Gp, Gpp = profile.row_at(r)[:3]
    p = profile.model.profile
    f, fp = p.f(r), p.fp(r)
    q1 = Gp / G
    u, up, upp = power_jet(G, q1, Gpp / G, beta)
    # the Laplacian of a radial function, u'' + (n-1)(f'/f) u'
    lhs = upp + (profile.model.n - 1) * fp / f * up
    rhs = beta * (beta - 1) * u * q1 * q1
    return abs(lhs - rhs)


def consistency_hess_vs_H(profile, r):
    """Residual of the eigenvalue-level identity

        mu = -(2/(n-2)) * G^{-alpha} * h_H + 2

    where h_H are the eigenvalues of H = Htilde at C = 2 (shift (n-2) G^alpha):
    mu from the b^2 chain rule, h_H from the Hessian of G (`htilde_q`), both
    from G, G', G''.
    """
    n, p = profile.model.n, profile.model.profile
    G, Gp, Gpp = profile.row_at(r)[:3]
    galpha = G ** (n / (n - 2.0))
    hH_rad, hH_tan = htilde_q(n, 2.0, G, Gp / G, Gpp / G, p.f(r), p.fp(r))
    mu_rad, mu_tan = hess_b2_eigs(profile, r)
    pred_rad = -(2.0 / (n - 2)) * hH_rad / galpha + 2.0
    pred_tan = -(2.0 / (n - 2)) * hH_tan / galpha + 2.0
    return max(abs(mu_rad - pred_rad), abs(mu_tan - pred_tan))
