"""Geodesics on a 2-plane slice of a rotationally symmetric model.

By rotational symmetry a minimal geodesic between two points lies in the
totally geodesic surface dr^2 + f(r)^2 dphi^2 spanned by their
directions, so shooting reduces to 2D.  Along any geodesic the Clairaut
quantity a = f^2 phi' is conserved; with unit speed,

    r'^2 = 1 - a^2 / f(r)^2,

which also gives closed quadrature formulas for the angle swept and the
arclength as functions of a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, optimize

from .models import ModelManifold
from .green import RadialGreenProfile

__all__ = [
    "SlicePoint",
    "GeodesicPath",
    "GeodesicTriple",
    "shoot_geodesic",
    "distance",
    "corollary_check",
]

R_FLOOR = 1e-4


class GeodesicError(ValueError):
    pass


@dataclass(frozen=True)
class SlicePoint:
    r: float
    phi: float

    def __post_init__(self):
        if self.r <= 0:
            raise GeodesicError("slice points need r > 0")


@dataclass(frozen=True)
class GeodesicPath:
    s: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    truncated: bool
    unit_speed_defect: float


@dataclass(frozen=True)
class GeodesicTriple:
    y: SlicePoint
    z: SlicePoint
    lam: float
    w: SlicePoint
    d_yz: float
    b2_w: float
    rhs: float
    slack: float
    through_tip_region: bool
    quad_misses: int  # sweep quadratures of the y-z minimizer that missed tol


def _rhs(model: ModelManifold):
    prof = model.profile

    def fun(s, state):
        r, phi, rp, php = state
        f, fp = prof.f(r), prof.fp(r)
        return [rp, php, f * fp * php * php, -2.0 * fp / f * rp * php]

    return fun


def shoot_geodesic(
    model: ModelManifold,
    start: SlicePoint,
    angle: float,
    length: float,
    r_floor: float = R_FLOOR,
    n_samples: int = 200,
) -> GeodesicPath:
    """Integrate the unit-speed geodesic leaving `start` at `angle`.

    angle = 0 is outward radial, pi/2 purely tangential.
    """
    if length <= 0:
        raise GeodesicError("length must be positive")
    prof = model.profile
    f0 = prof.f(start.r)
    state0 = [start.r, start.phi, math.cos(angle), math.sin(angle) / f0]

    hit = lambda s, y: y[0] - r_floor
    hit.terminal = True
    hit.direction = -1

    sol = integrate.solve_ivp(
        _rhs(model),
        (0.0, length),
        state0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
        events=hit,
    )
    if not sol.success:
        raise GeodesicError(f"geodesic integration failed: {sol.message}")
    truncated = sol.status == 1
    s_end = sol.t[-1]
    s = np.linspace(0.0, s_end, n_samples)
    vals = sol.sol(s)
    r, phi, rp, php = vals
    speed = rp**2 + prof.f(np.maximum(r, r_floor)) ** 2 * php**2
    defect = float(np.max(np.abs(speed - 1.0)))
    return GeodesicPath(s=s, r=r, phi=phi, truncated=truncated,
                        unit_speed_defect=defect)


# -- distance by Clairaut quadrature ------------------------------------------


def _quad_counted(fun, lo, hi):
    """(value, 1 if quad missed its tolerance else 0).

    full_output makes quad return its message instead of warning; the
    value is the same best-available estimate either way.
    """
    out = integrate.quad(fun, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-11,
                         full_output=1)
    return out[0], int(len(out) > 3)


def _sweep_monotone(model, a, r1, r2, length=False):
    """(angle swept, or arclength if `length`, quad misses) along a
    radially monotone arc from r1 to r2, r1 < r2."""
    prof = model.profile

    def integrand(r):
        f = prof.f(r)
        root = math.sqrt(max(f * f - a * a, 0.0))
        return f / root if length else a / (f * root)

    # near the turning limit a -> f(r1) the endpoint integrand sharpens and
    # quad may report roundoff; the miss is counted, not raised
    return _quad_counted(integrand, r1, r2)


def _sweep_from_turn(model, r_t, r_hi, length=False):
    """(angle swept, or arclength if `length`, quad misses) of the branch
    climbing from the turning radius r_t to r_hi.

    Substitutes r = r_t + u^2 to remove the inverse-square-root endpoint
    singularity at the turning point.
    """
    prof = model.profile
    a = prof.f(r_t)

    def integrand(u):
        # f(r)^2 - a^2 = u^2 * q(u) * (f + a) with q = (f(r) - a)/u^2,
        # evaluated by Taylor expansion near u = 0 to dodge cancellation
        r = r_t + u * u
        f = prof.f(r)
        if u * u < 1e-7 * max(r_t, 1e-3):
            q = prof.fp(r_t) + 0.5 * prof.fpp(r_t) * u * u
        else:
            q = (f - a) / (u * u)
        root = math.sqrt(max(q * (f + a), 1e-300))
        return 2.0 * f / root if length else 2.0 * a / (f * root)

    return _quad_counted(integrand, 0.0, math.sqrt(r_hi - r_t))


@dataclass(frozen=True)
class _Minimizer:
    length: float
    a: float            # Clairaut constant
    branch: str         # radial | monotone | turning | tip
    quad_misses: int = 0  # over every sweep the root-find evaluated


def _solve_minimizer(model: ModelManifold, y: SlicePoint, z: SlicePoint) -> _Minimizer:
    """Bisection on the Clairaut constant against the required swept angle."""
    dphi = abs(math.remainder(z.phi - y.phi, 2.0 * math.pi))
    r1, r2 = min(y.r, z.r), max(y.r, z.r)
    if dphi < 1e-14:
        return _Minimizer(length=r2 - r1, a=0.0, branch="radial")

    prof = model.profile
    fp_min = prof.fp_min(R_FLOOR, r2)
    if not fp_min > 0.0:
        # the branch logic below needs f increasing on every radius a
        # sweep can reach: a = f(r_t) is then monotone in r_t, and the
        # integrands have no zero of f^2 - a^2 inside their range
        raise GeodesicError(
            f"Clairaut sweeps need f' > 0 on [{R_FLOOR:g}, {r2:.17g}], "
            f"but min f' = {fp_min:.17g} there")

    f1 = prof.f(r1)
    misses = 0

    def sweep(fun, *args, length=False):
        nonlocal misses
        val, m = fun(model, *args, length=length)
        misses += m
        return val

    def angle_turn(r_t):
        return sweep(_sweep_from_turn, r_t, r1) + sweep(_sweep_from_turn, r_t, r2)

    # the root-finds see only the swept angle; the length quadrature runs
    # once, at the accepted root
    ang_star = angle_turn(r1)  # limiting arc that turns exactly at r1

    if dphi <= ang_star:
        a = optimize.brentq(
            lambda a: sweep(_sweep_monotone, a, r1, r2) - dphi, 0.0, f1 * (1 - 1e-13),
            xtol=1e-14, rtol=8.9e-16, maxiter=200,
        )
        length = sweep(_sweep_monotone, a, r1, r2, length=True)
        return _Minimizer(length=float(length), a=float(a), branch="monotone",
                          quad_misses=misses)

    if angle_turn(R_FLOOR) < dphi:
        # even grazing the tip region does not sweep enough angle:
        # the minimizer runs through the tip
        return _Minimizer(length=r1 + r2, a=0.0, branch="tip", quad_misses=misses)

    r_t = optimize.brentq(
        lambda rt: angle_turn(rt) - dphi, R_FLOOR, r1 * (1 - 1e-13),
        xtol=1e-15, rtol=8.9e-16, maxiter=200,
    )
    l1 = sweep(_sweep_from_turn, r_t, r1, length=True)
    l2 = sweep(_sweep_from_turn, r_t, r2, length=True)
    return _Minimizer(
        length=float(l1 + l2), a=float(prof.f(r_t)), branch="turning",
        quad_misses=misses,
    )


def distance(model: ModelManifold, y: SlicePoint, z: SlicePoint) -> float:
    """Length of the minimizing slice geodesic between y and z."""
    return _solve_minimizer(model, y, z).length


def _point_along(model, y: SlicePoint, z: SlicePoint, s_target: float,
                 mini: _Minimizer) -> SlicePoint:
    """The point at arclength s_target from y along the minimizer to z."""
    if s_target <= 0:
        return y
    if s_target >= mini.length:
        return z
    if mini.branch == "tip":
        # polygonal through-tip path; callers see the flag and treat the
        # numbers as indicative only
        if s_target <= y.r:
            return SlicePoint(r=max(y.r - s_target, R_FLOOR), phi=y.phi)
        return SlicePoint(r=s_target - y.r, phi=z.phi)

    sgn_phi = 1.0 if math.remainder(z.phi - y.phi, 2.0 * math.pi) >= 0 else -1.0
    fy = model.profile.f(y.r)
    sin_t = min(mini.a / fy, 1.0)
    cos_t = math.sqrt(max(1.0 - sin_t * sin_t, 0.0))
    if mini.branch == "turning" or y.r > z.r:
        cos_t = -cos_t  # leave y inward
    angle = math.atan2(sgn_phi * sin_t, cos_t)
    path = shoot_geodesic(model, y, angle, s_target, n_samples=2)
    return SlicePoint(r=float(path.r[-1]), phi=float(path.phi[-1]))


def corollary_check(
    model: ModelManifold,
    profile: RadialGreenProfile,
    y: SlicePoint,
    z: SlicePoint,
    C: float,
    lambdas: Sequence[float],
) -> list:
    """Interpolation bound along the minimizing geodesic: for each lambda,

        b(w)^2 >= (1-lam) b(y)^2 + lam b(z)^2 - (C/2) lam(1-lam) d(y,z)^2

    with w at arclength lam * d(y,z) from y.  Returns one triple per
    lambda with the measured slack.
    """
    mini = _solve_minimizer(model, y, z)
    d_yz = mini.length
    through_tip = mini.branch == "tip"
    b2y = profile.b2_at(y.r)
    b2z = profile.b2_at(z.r)
    out = []
    for lam in lambdas:
        if not (0.0 <= lam <= 1.0):
            raise GeodesicError("lambda must lie in [0, 1]")
        w = _point_along(model, y, z, lam * d_yz, mini)
        b2w = profile.b2_at(w.r)
        rhs = (1 - lam) * b2y + lam * b2z - 0.5 * C * lam * (1 - lam) * d_yz**2
        out.append(
            GeodesicTriple(
                y=y, z=z, lam=float(lam), w=w, d_yz=float(d_yz),
                b2_w=float(b2w), rhs=float(rhs), slack=float(b2w - rhs),
                through_tip_region=bool(through_tip),
                quad_misses=mini.quad_misses,
            )
        )
    return out
