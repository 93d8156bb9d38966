"""Closed forms of a model that no command evaluates, a test-only reference
for ``harnacklab.models`` and the FD chart oracle.

`preset_id` spells a preset's model id from its parameters;
`offset_end_profiles` gives one profile with an affine end off the origin
by two routes, the end closed from its apex and the same line integrated;
`third_derivative` gives f''' of a warping profile, by Horner's rule on the
piece that holds r, as the profile gives f, f' and f''; `ricci_gradient_norm`
gives |grad Ric| in closed form, the value the oracle's
``check_parallel_ricci`` differences.
"""

import math

from harnacklab.models import Piece, Poly, WarpingProfile, curvature_at


def preset_id(name, *params):
    """The model id of a preset and its parameters, a None one left out:
    ``preset_id("cone", 0.5, None)`` is ``"cone:0.5"``."""
    return ":".join([name, *(repr(p) for p in params if p is not None)])

def offset_end_profiles():
    """f = r on [0, 1], then f = (r + 1)/2 from 1 on, twice: with the end
    one affine piece, the cone of slope 1/2 with its apex at -1, and with the
    same line written on [1, 50] as a Gauss piece (x0 = lo) under that end."""
    core = Piece(0.0, 1.0, 0.0, (0.0, 1.0))
    return (WarpingProfile("offset-end", [core, Piece(1.0, math.inf, -1.0, (0.0, 0.5))]),
            WarpingProfile("offset-end-gauss", [core, Piece(1.0, 50.0, 1.0, (1.0, 0.5)),
                                                Piece(50.0, math.inf, -1.0, (0.0, 0.5))]))


def third_derivative(profile):
    """f''' of the profile as a function of r, refusing the radii f refuses."""

    def fppp(r):
        profile.f(r)  # raises where f is undefined
        r = float(r)
        pc = profile.piece_at(r)
        return Poly(pc.coef).deriv(3)(r - pc.x0)

    return fppp


def ricci_gradient_norm(model, r):
    """|grad Ric| at radius r, the Frobenius norm in an orthonormal frame.

    With Hess r = (f'/f)(g - dr^2), the only nonzero frame components of
    grad Ric are (grad_r Ric)_rr = ric_rad', (grad_r Ric)_aa = ric_tan' and
    (grad_a Ric)_ar = (grad_a Ric)_ra = (f'/f)(ric_rad - ric_tan), so

        |grad Ric|^2 = ric_rad'^2 + (n-1) ric_tan'^2
                       + 2 (n-1) (f'/f)^2 (ric_rad - ric_tan)^2.
    """
    s = curvature_at(model, r)
    p, n = model.profile, model.n
    f, fp, fpp, fppp = p.f(r), p.fp(r), p.fpp(r), third_derivative(p)(r)
    dk_rad = (fpp * fp / f - fppp) / f
    dk_tan = -2.0 * fp * (fpp * f + 1.0 - fp * fp) / f**3
    d_rad = (n - 1) * dk_rad
    d_tan = dk_rad + (n - 2) * dk_tan
    mixed = fp / f * (s.ric_rad - s.ric_tan)
    return math.sqrt(d_rad**2 + (n - 1) * (d_tan**2 + 2.0 * mixed**2))
