"""Geodesics on a 2-plane slice of a rotationally symmetric model.

By rotational symmetry a minimal geodesic between two points lies in the
totally geodesic surface dr^2 + f(r)^2 dphi^2 spanned by their
directions, so shooting reduces to 2D.  Along any geodesic the Clairaut
quantity a = f^2 phi' is conserved; with unit speed,

    r'^2 = 1 - a^2 / f(r)^2,

which also gives closed quadrature formulas for the angle swept and the
arclength as functions of a.  The distance comes from these: each sweep
runs Gauss-Legendre panels (`quadrature.gauss_legendre`) between the
knots of f, after a substitution r = r_0 + u^2 at the lower end that
removes the inverse square root of a turning point, and Brent's root
finder fixes the Clairaut constant (or the turning radius) from the angle
alone.  The point at a given arclength is found by shooting: a
Dormand-Prince 5(4) integration of the geodesic equations in plain
floats.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import quadrature
from .models import ModelError, ModelManifold
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


#: tolerances of the Dormand-Prince shot, on every state component
DP_RTOL = DP_ATOL = 1e-13


def _geodesic_rhs(prof):
    """(r', phi', r'', phi'') of a slice geodesic, on a state sequence."""

    def rhs(y):
        r, _, rp, php = y
        f, fp = prof.f(r), prof.fp(r)
        return (rp, php, f * fp * php * php, -2.0 * fp / f * rp * php)

    return rhs


def _dp_step(rhs, y, k1, h):
    """One Dormand-Prince 5(4) step of size h from y with slope k1:
    (y_new, slope at y_new, RMS of the 5th-minus-4th-order difference
    relative to DP_ATOL + DP_RTOL |y|).  The last stage is the slope at
    y_new, so the next step starts from it."""
    k2 = rhs([y0 + h * (a / 5) for y0, a in zip(y, k1)])
    k3 = rhs([y0 + h * (3 / 40 * a + 9 / 40 * b) for y0, a, b in zip(y, k1, k2)])
    k4 = rhs([y0 + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
              for y0, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs([y0 + h * (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c
                        - 212 / 729 * d)
              for y0, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs([y0 + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                        + 49 / 176 * d - 5103 / 18656 * e)
              for y0, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [y0 + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                       - 2187 / 6784 * e + 11 / 84 * f)
             for y0, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(y_new)
    norm = sum(
        (h * (71 / 57600 * a - 71 / 16695 * c + 71 / 1920 * d - 17253 / 339200 * e
              + 22 / 525 * f - 1 / 40 * g)
         / (DP_ATOL + DP_RTOL * max(abs(y0), abs(y1)))) ** 2
        for y0, y1, a, c, d, e, f, g in zip(y, y_new, k1, k3, k4, k5, k6, k7))
    return y_new, k7, math.sqrt(norm / len(y))


def _crossing(rhs, y, k, step, level):
    """Length t in [0, step] of the step from y that ends at r = level."""
    return quadrature.brent_root(lambda t: _dp_step(rhs, y, k, t)[0][0] - level,
                                 0.0, step, xtol=1e-15, rtol=8.9e-16)


def _knot_crossed(knots, r0, r1):
    """The first knot strictly between r0 and r1 on the way from r0, or None."""
    if r1 > r0:
        i = bisect.bisect_right(knots, r0)
        return knots[i] if i < len(knots) and knots[i] < r1 else None
    i = bisect.bisect_left(knots, r0)
    return knots[i - 1] if i > 0 and knots[i - 1] > r1 else None


def _dormand_prince(rhs, y0, s_out, r_floor, knots):
    """(states at the increasing arclengths s_out, s_hit): s_out[0] = 0.

    A step is cut short to land on the next of s_out, or on r = knot when
    it would cross a knot of f, where the derivatives of f jump and the
    5th-order error would not hold across.  When r falls below r_floor
    during a step, integration stops there and s_hit is where r =
    r_floor, with the states reached so far; otherwise s_hit is None.
    """
    y, k, s = y0, rhs(y0), 0.0
    h = min(0.05 * y0[0], s_out[-1])
    out = [y0]
    landed = None  # the knot just landed on, which roundoff may seem to cross
    for target in s_out[1:]:
        while s < target:
            landing = h >= target - s
            step = target - s if landing else h
            try:
                y_new, k_new, err = _dp_step(rhs, y, k, step)
            except ModelError:  # a stage left r > 0, where f is defined
                err = math.inf
            if math.isnan(err):
                raise GeodesicError("geodesic integration failed: non-finite state")
            factor = min(10.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 10.0
            if err > 1.0:  # rejected: retry shorter
                h = step * factor
                if h <= 1e-14 * max(1.0, s):
                    raise GeodesicError("geodesic integration failed: step underflow")
                continue
            if y[0] >= r_floor > y_new[0]:
                return out, s + _crossing(rhs, y, k, step, r_floor)
            knot = _knot_crossed(knots, y[0], y_new[0])
            # a step from a knot just landed on may seem to cross it again
            landed = None if knot == landed else knot
            if landed is not None:
                step, landing = _crossing(rhs, y, k, step, knot), False
                y_new, k_new, _ = _dp_step(rhs, y, k, step)
            elif not landing:  # a step cut short to land leaves h as it was
                h = step * factor
            s = target if landing else s + step
            y, k = y_new, k_new
        out.append(y)
    return out, None


def shoot_geodesic(
    model: ModelManifold,
    start: SlicePoint,
    angle: float,
    length: float,
    r_floor: float = R_FLOOR,
    n_samples: int = 200,
) -> GeodesicPath:
    """Integrate the unit-speed geodesic leaving `start` at `angle`.

    angle = 0 is outward radial, pi/2 purely tangential.  The path is
    sampled at n_samples equally spaced arclengths; if r falls to r_floor
    first, it is truncated there and sampled up to that point.
    """
    if length <= 0:
        raise GeodesicError("length must be positive")
    prof = model.profile
    f0 = prof.f(start.r)
    y0 = (start.r, start.phi, math.cos(angle), math.sin(angle) / f0)
    rhs = _geodesic_rhs(prof)
    knots = prof.knots.tolist()
    states, s_hit = _dormand_prince(
        rhs, y0, np.linspace(0.0, length, n_samples).tolist(), r_floor, knots)
    truncated = s_hit is not None
    if truncated:
        states, _ = _dormand_prince(
            rhs, y0, np.linspace(0.0, s_hit, n_samples).tolist(), -math.inf, knots)
    r, phi, rp, php = np.array(states).T
    speed = rp**2 + prof.f(np.maximum(r, r_floor)) ** 2 * php**2
    defect = float(np.max(np.abs(speed - 1.0)))
    return GeodesicPath(s=np.linspace(0.0, s_hit if truncated else length, n_samples),
                        r=r, phi=phi, truncated=truncated, unit_speed_defect=defect)


# -- distance by Clairaut quadrature ------------------------------------------


def _sweep(integrand, prof, r_lo, r_hi):
    """(int_{r_lo}^{r_hi} of the integrand in u, where r = r_lo + u^2, 1 if
    its Gauss estimate missed the gate else 0).  The u range is cut where
    r meets a knot of f, and the integrand maps an array of u to values."""
    k = prof.knots
    u = np.sqrt(np.concatenate([[r_lo], k[(k > r_lo) & (k < r_hi)], [r_hi]]) - r_lo)
    val, _, missed = quadrature.gauss_legendre(integrand, u[:-1], u[1:],
                                               rtol=1e-11, atol=1e-13)
    return float(np.sum(val)), int(np.any(missed))


def _taylor_q(prof, r0):
    """q(u, f) = (f(r0 + u^2) - f(r0)) / u^2, by Taylor expansion near
    u = 0 to dodge the cancellation of the difference."""
    f0, fp0, fpp0 = prof.f(r0), prof.fp(r0), prof.fpp(r0)
    small = 1e-7 * max(r0, 1e-3)

    def q(u, f):
        u2 = u * u
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(u2 < small, fp0 + 0.5 * fpp0 * u2, (f - f0) / u2)

    return q


def _sweep_monotone(model, a, r1, r2, length=False):
    """(angle swept, or arclength if `length`, quad misses) along a
    radially monotone arc from r1 to r2, r1 < r2."""
    prof = model.profile
    f1 = prof.f(r1)
    d = (f1 - a) * (f1 + a)
    q_taylor = _taylor_q(prof, r1)

    def integrand(u):
        # dr = 2u du and f^2 - a^2 = u^2 q(u) (f + f1) + (f1^2 - a^2), free
        # of cancellation; near the turning limit a -> f1 the integrand
        # sharpens at u = 0 and the panels there are halved
        f = prof.f(r1 + u * u)
        root = np.sqrt(np.maximum(u * u * q_taylor(u, f) * (f + f1) + d, 0.0))
        return 2.0 * u * (f / root if length else a / (f * root))

    return _sweep(integrand, prof, r1, r2)


def _sweep_from_turn(model, r_t, r_hi, length=False):
    """(angle swept, or arclength if `length`, quad misses) of the branch
    climbing from the turning radius r_t to r_hi.

    The substitution r = r_t + u^2 removes the inverse-square-root
    endpoint singularity at the turning point.
    """
    prof = model.profile
    a = prof.f(r_t)
    q_taylor = _taylor_q(prof, r_t)

    def integrand(u):
        # f(r)^2 - a^2 = u^2 * q(u) * (f + a)
        f = prof.f(r_t + u * u)
        root = np.sqrt(np.maximum(q_taylor(u, f) * (f + a), 1e-300))
        return 2.0 * f / root if length else 2.0 * a / (f * root)

    return _sweep(integrand, prof, r_t, r_hi)


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
        a = quadrature.brent_root(
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

    r_t = quadrature.brent_root(
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
