"""Geodesics on a 2-plane slice of a rotationally symmetric model.

By rotational symmetry a minimal geodesic between two points lies in the
totally geodesic surface dr^2 + f(r)^2 dphi^2 spanned by their
directions, so shooting reduces to 2D.  Along any geodesic the Clairaut
quantity a = f^2 phi' is conserved; with unit speed,

    r'^2 = 1 - a^2 / f(r)^2,

which also gives closed quadrature formulas for the angle swept and the
arclength as functions of a.  The distance comes from these sweeps, summed
over the pieces of f: where f = m r both are closed (the unrolled wedge of
a cone), in plain floats; elsewhere they run Gauss-Legendre panels
(`quadrature.gauss_legendre`) after a substitution r = r_0 + u^2 at the
lower end that removes the inverse square root of a turning point.
Brent's root finder fixes the Clairaut constant (or the turning radius)
from the angle alone.  The point at a given arclength is found by
inverting the arclength sweep on the branch that holds it (exactly where
f = m r, by Brent's method on a Gauss length sweep elsewhere) and taking
phi from the angle sweep.  Shooting, a Dormand-Prince 5(4) integration of
the geodesic equations in plain floats, is the second route: the
corollary shoots once per report and records the gap.  The stepper, its
tolerances and its knot and level crossings are `quadrature`'s
(`quadrature.dp_step`); the adaptive loop here cuts steps at the
profile's knots and at the radius floor.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

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


class SlicePoint:
    __slots__ = ("r", "phi")

    def __init__(self, r: float, phi: float):
        if r <= 0:
            raise GeodesicError("slice points need r > 0")
        self.r, self.phi = r, phi


class GeodesicPath(NamedTuple):
    """The shot sampled at the arclengths s: tuples of floats."""

    s: tuple
    r: tuple
    phi: tuple
    truncated: bool
    unit_speed_defect: float


class GeodesicTriple(NamedTuple):
    y: SlicePoint
    z: SlicePoint
    lam: float
    w: SlicePoint
    d_yz: float
    b2_w: float
    rhs: float
    slack: float
    through_tip_region: bool
    branch: str       # of the y-z minimizer: radial | monotone | turning | tip
    quad_misses: int  # sweep quadratures of the y-z minimizer and its points that missed tol
    shot_gap: Optional[float] = None  # largest gap between shot and inversion, if shot


def _geodesic_rhs(prof):
    """(r', phi', r'', phi'') of a slice geodesic, on a state sequence."""

    def rhs(y):
        r, _, rp, php = y
        f, fp = prof.f(r), prof.fp(r)
        return (rp, php, f * fp * php * php, -2.0 * fp / f * rp * php)

    return rhs


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
                y_new, k_new, err = quadrature.dp_step(rhs, y, k, step)
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
                return out, s + quadrature.dp_crossing(rhs, y, k, step, r_floor)
            knot = quadrature.knot_crossed(knots, y[0], y_new[0])
            # a step from a knot just landed on may seem to cross it again
            landed = None if knot == landed else knot
            if landed is not None:
                step, landing = quadrature.dp_crossing(rhs, y, k, step, knot), False
                y_new, k_new, _ = quadrature.dp_step(rhs, y, k, step)
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
    at: Optional[Sequence[float]] = None,
) -> GeodesicPath:
    """Integrate the unit-speed geodesic leaving `start` at `angle`.

    angle = 0 is outward radial, pi/2 purely tangential.  The path is
    sampled at arclength 0 and at the increasing arclengths `at` in (0,
    length], or by default at n_samples equally spaced arclengths; if r
    falls to r_floor first, it is truncated there and sampled at n_samples
    equally spaced arclengths up to that point.
    """
    if length <= 0:
        raise GeodesicError("length must be positive")
    prof = model.profile
    f0 = prof.f(start.r)
    y0 = (start.r, start.phi, math.cos(angle), math.sin(angle) / f0)
    rhs = _geodesic_rhs(prof)
    knots = prof.knots
    s = _linspace(length, n_samples) if at is None else (0.0, *map(float, at))
    states, s_hit = _dormand_prince(rhs, y0, s, r_floor, knots)
    truncated = s_hit is not None
    if truncated:
        s = _linspace(s_hit, n_samples)
        states, _ = _dormand_prince(rhs, y0, s, -math.inf, knots)
    r, phi, rp, php = zip(*states)
    defect = max(abs(a * a + prof.f(max(x, r_floor)) ** 2 * b * b - 1.0)
                 for x, a, b in zip(r, rp, php))
    return GeodesicPath(s=s, r=r, phi=phi, truncated=truncated, unit_speed_defect=defect)


def _linspace(stop: float, num: int) -> tuple:
    """num >= 2 arclengths from 0 to stop, evenly spaced, both ends exact,
    as numpy's linspace lays them."""
    step = stop / (num - 1)
    return (*(i * step for i in range(num - 1)), float(stop))


# -- distance by Clairaut quadrature ------------------------------------------


class _Arc:
    """A radially monotone arc of the slice geodesic with Clairaut constant
    k, climbing from its inner radius `base`: the turning radius (where
    f(base) = k) or the inner end point of a monotone minimizer.

    Its sweeps integrate dphi/dr = k / (f sqrt(f^2 - k^2)) or ds/dr =
    f / sqrt(f^2 - k^2) piece by piece.  Where f = m r, with D(r) = f^2 -
    k^2, the angle is [atan2(sqrt D, k)] / m and the arclength [sqrt D] / m;
    D is taken as D(base) + m^2 (r - base)(r + base) on the piece holding
    base, so it carries no cancellation at the turning radius.  Other pieces
    run Gauss panels in u, r = base + u^2.  `misses` counts the sweeps whose
    Gauss estimate missed its gate.
    """

    def __init__(self, prof, k, base, turning):
        self.prof, self.k, self.base, self.turning = prof, k, base, turning
        self.misses = 0
        self.f0 = f0 = prof.f(base)
        self.d0 = 0.0 if turning else (f0 - k) * (f0 + k)  # D(base)

    def _root(self, pc, m, r):
        """sqrt(D(r)) on the linear piece pc, f = m r."""
        if pc.lo <= self.base:
            d = self.d0 + m * m * (r - self.base) * (r + self.base)
        else:
            d = (m * r - self.k) * (m * r + self.k)
        return math.sqrt(max(d, 0.0))

    def _integrand(self, length):
        """The sweep's integrand on Gauss nodes u, r = base + u^2."""
        prof, k, base, f0, d0 = self.prof, self.k, self.base, self.f0, self.d0
        q_taylor = _taylor_q(prof, base)
        if self.turning:
            def integrand(u):
                # f(r)^2 - k^2 = u^2 * q(u) * (f + k)
                f = prof.f(base + u * u)
                root = math.sqrt(max(q_taylor(u, f) * (f + k), 1e-300))
                return 2.0 * f / root if length else 2.0 * k / (f * root)
        else:
            def integrand(u):
                # dr = 2u du and f^2 - k^2 = u^2 q(u) (f + f0) + D(base), free
                # of cancellation; near the turning limit k -> f0 the
                # integrand sharpens at u = 0 and the panels there are halved
                f = prof.f(base + u * u)
                root = math.sqrt(max(u * u * q_taylor(u, f) * (f + f0) + d0, 0.0))
                return 2.0 * u * (f / root if length else k / (f * root))
        return integrand

    def _parts(self, r_lo, r_hi):
        """(piece, lo, hi) for each piece of f meeting [r_lo, r_hi]."""
        for pc in self.prof.pieces:
            if pc.lo >= r_hi:
                break
            lo, hi = max(pc.lo, r_lo), min(pc.hi, r_hi)
            if lo < hi:
                yield pc, lo, hi

    def sweep(self, r_lo, r_hi, length=False):
        """Angle swept, or arclength if `length`, over [r_lo, r_hi], base <=
        r_lo <= r_hi."""
        k, total, curved, missed, integrand = self.k, 0.0, [], False, None
        for pc, lo, hi in self._parts(r_lo, r_hi):
            m = pc.slope
            if m is None:
                integrand = integrand or self._integrand(length)
                val, _, miss = quadrature.gauss_legendre(
                    integrand, math.sqrt(lo - self.base), math.sqrt(hi - self.base),
                    rtol=1e-11, atol=1e-13)
                curved.append(val)
                missed |= miss
                continue
            p, q = self._root(pc, m, lo), self._root(pc, m, hi)
            # the length (q - p) / m without cancellation, as q^2 - p^2 =
            # m^2 (hi^2 - lo^2), and the difference of the two atan2 in one
            ds = m * (hi - lo) * (hi + lo) / (p + q)
            total += ds if length else math.atan2(k * m * ds, k * k + p * q) / m
        self.misses += missed
        return total + sum(curved)

    def invert(self, s, r_end):
        """(r in [base, r_end] at arclength s from base, the angle swept from
        base to r).

        On a piece where f = m r, sqrt D(r) = sqrt D(lo) + m s' with s' the
        arclength left at the piece's start lo, so r^2 = lo^2 + s' (2 sqrt
        D(lo) / m + s'), and the angle comes from sqrt D(r) as it stands, not
        from r; on another piece Brent's root finder solves the piece's
        length sweep for r.
        """
        k, done, angle = self.k, 0.0, 0.0
        for pc, lo, hi in self._parts(self.base, r_end):
            part = self.sweep(lo, hi, length=True)
            rest = s - done
            if rest > part and hi < r_end:
                done, angle = done + part, angle + self.sweep(lo, hi)
                continue
            m = pc.slope
            if rest >= part:
                r = hi
            elif m is not None:
                p = self._root(pc, m, lo)
                r = min(math.sqrt(lo * lo + rest * (2.0 * p / m + rest)), hi)
                return r, angle + math.atan2(k * m * rest, k * k + p * (p + m * rest)) / m
            else:
                r = quadrature.brent_root(lambda r: self.sweep(lo, r, length=True) - rest,
                                          lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
            return r, angle + self.sweep(lo, r)
        return r_end, angle


def _taylor_q(prof, r0):
    """q(u, f) = (f(r0 + u^2) - f(r0)) / u^2, by Taylor expansion near
    u = 0 to dodge the cancellation of the difference."""
    f0, fp0, fpp0 = prof.f(r0), prof.fp(r0), prof.fpp(r0)
    small = 1e-7 * max(r0, 1e-3)

    def q(u, f):
        u2 = u * u
        return fp0 + 0.5 * fpp0 * u2 if u2 < small else (f - f0) / u2

    return q


class _Minimizer(NamedTuple):
    length: float
    branch: str         # radial | monotone | turning | tip
    # monotone and turning: the arc, with the Clairaut constant k, from the
    # inner radius `base` (the turning radius, or min(y.r, z.r))
    arc: Optional[_Arc] = None
    leg_y: float = 0.0  # arclength from y to the arc's base
    search_misses: int = 0  # Gauss misses of the root-find's trial arcs

    @property
    def quad_misses(self) -> int:
        """Gauss misses of the root-find and of every sweep on the arc so far."""
        return self.search_misses + (self.arc.misses if self.arc else 0)


def _solve_minimizer(model: ModelManifold, y: SlicePoint, z: SlicePoint) -> _Minimizer:
    """Bisection on the Clairaut constant against the required swept angle."""
    dphi = abs(math.remainder(z.phi - y.phi, 2.0 * math.pi))
    r1, r2 = min(y.r, z.r), max(y.r, z.r)
    if dphi < 1e-14:
        return _Minimizer(length=r2 - r1, branch="radial")

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

    def angle(arc, *ends):
        """The angle `arc` sweeps from its inner radius to each end, summed."""
        nonlocal misses
        total = sum(arc.sweep(arc.base, r) for r in ends)
        misses += arc.misses
        return total

    def turn(r_t):
        return _Arc(prof, prof.f(r_t), r_t, turning=True)

    # the root-finds see only the swept angle; the length quadrature runs
    # once, on the arc of the accepted root
    ang_star = angle(turn(r1), r1, r2)  # limiting arc that turns exactly at r1

    if dphi <= ang_star:
        a = quadrature.brent_root(
            lambda a: angle(_Arc(prof, a, r1, turning=False), r2) - dphi,
            0.0, f1 * (1 - 1e-13), xtol=1e-14, rtol=8.9e-16, maxiter=200,
        )
        arc = _Arc(prof, a, r1, turning=False)
        length = arc.sweep(r1, r2, length=True)
        return _Minimizer(length=float(length), branch="monotone", arc=arc,
                          leg_y=float(length) if y.r > z.r else 0.0, search_misses=misses)

    if angle(turn(R_FLOOR), r1, r2) < dphi:
        # even grazing the tip region does not sweep enough angle:
        # the minimizer runs through the tip
        return _Minimizer(length=r1 + r2, branch="tip", search_misses=misses)

    r_t = quadrature.brent_root(
        lambda rt: angle(turn(rt), r1, r2) - dphi, R_FLOOR, r1 * (1 - 1e-13),
        xtol=1e-15, rtol=8.9e-16, maxiter=200,
    )
    arc = turn(r_t)
    l1 = arc.sweep(r_t, r1, length=True)
    l2 = arc.sweep(r_t, r2, length=True)
    return _Minimizer(length=float(l1 + l2), branch="turning", arc=arc,
                      leg_y=float(l1 if y.r <= z.r else l2), search_misses=misses)


def distance(model: ModelManifold, y: SlicePoint, z: SlicePoint) -> float:
    """Length of the minimizing slice geodesic between y and z."""
    return _solve_minimizer(model, y, z).length


def _points_along(y: SlicePoint, z: SlicePoint, mini: _Minimizer, s_targets) -> list:
    """The points at the arclengths s_targets from y along the minimizer to z.

    A monotone minimizer is one arc from its inner end point; a turning one
    runs from y in to the turning radius and out to z.  Each arclength is
    inverted on the part of the arc that holds it, and phi is y's plus the
    angle swept from y, found from the angles swept from the inner radius;
    the one from the inner radius to y is swept once for all points.
    """
    arc, leg = mini.arc, mini.leg_y
    dphi = math.remainder(z.phi - y.phi, 2.0 * math.pi)
    to_y = None
    out = []
    for s in s_targets:
        if s <= 0:
            w = y
        elif s >= mini.length:
            w = z
        elif mini.branch == "radial":
            w = SlicePoint(r=y.r + math.copysign(s, z.r - y.r), phi=y.phi)
        elif mini.branch == "tip":
            # polygonal through-tip path; callers see the flag and treat the
            # numbers as indicative only
            w = (SlicePoint(r=max(y.r - s, R_FLOOR), phi=y.phi) if s <= y.r
                 else SlicePoint(r=s - y.r, phi=z.phi))
        else:
            if to_y is None:
                to_y = arc.sweep(arc.base, y.r)
            if s <= leg:  # between y and the inner radius
                r, to_w = arc.invert(leg - s, y.r)
                swept = to_y - to_w
            else:
                r, to_w = arc.invert(s - leg, z.r)
                swept = to_y + to_w
            w = SlicePoint(r=r, phi=y.phi + math.copysign(swept, dphi))
        out.append(w)
    return out


def _departure(model, y: SlicePoint, z: SlicePoint, mini: _Minimizer) -> float:
    """The angle at which a monotone or turning minimizer leaves y, as
    `shoot_geodesic` takes it: sin = a / f(y.r) by Clairaut, inward when
    the minimizer first runs in to its inner radius."""
    sin_t = min(mini.arc.k / model.profile.f(y.r), 1.0)
    cos_t = math.sqrt(max(1.0 - sin_t * sin_t, 0.0))
    if mini.leg_y > 0.0:
        cos_t = -cos_t
    sgn = 1.0 if math.remainder(z.phi - y.phi, 2.0 * math.pi) >= 0 else -1.0
    return math.atan2(sgn * sin_t, cos_t)


def _shot_gap(model, y: SlicePoint, z: SlicePoint, mini: _Minimizer, inner) -> float:
    """Largest |dr| or |dphi| between the points of `inner`, pairs (arclength
    from y, point) by increasing arclength, and one shot leaving y along
    the minimizer."""
    s = [s for s, _ in inner]
    path = shoot_geodesic(model, y, _departure(model, y, z, mini), s[-1],
                          r_floor=0.5 * mini.arc.base, at=s)
    if path.truncated:
        raise GeodesicError("the check shot fell below half the minimizer's inner radius")
    return max(max(abs(r - w.r), abs(phi - w.phi))
               for r, phi, (_, w) in zip(path.r[1:], path.phi[1:], inner))


def corollary_check(
    model: ModelManifold,
    profile: RadialGreenProfile,
    y: SlicePoint,
    z: SlicePoint,
    C: float,
    lambdas: Sequence[float],
    shoot: bool = False,
) -> list:
    """Interpolation bound along the minimizing geodesic: for each lambda,

        b(w)^2 >= (1-lam) b(y)^2 + lam b(z)^2 - (C/2) lam(1-lam) d(y,z)^2

    with w at arclength lam * d(y,z) from y.  Returns one triple per
    lambda with the measured slack.  With `shoot`, a monotone or turning
    minimizer is also shot once from y through its interior points, and
    each triple carries the largest gap between shot and inversion.
    """
    if not all(0.0 <= lam <= 1.0 for lam in lambdas):
        raise GeodesicError("lambda must lie in [0, 1]")
    mini = _solve_minimizer(model, y, z)
    d_yz = mini.length
    points = _points_along(y, z, mini, [lam * d_yz for lam in lambdas])
    shot_gap = None
    inner = sorted(((lam * d_yz, w) for lam, w in zip(lambdas, points) if 0.0 < lam < 1.0),
                   key=lambda sw: sw[0])
    if shoot and inner and mini.branch in ("monotone", "turning"):
        shot_gap = _shot_gap(model, y, z, mini, inner)
    b2y = profile.b2_at(y.r)
    b2z = profile.b2_at(z.r)
    out = []
    for lam, w in zip(lambdas, points):
        b2w = profile.b2_at(w.r)
        rhs = (1 - lam) * b2y + lam * b2z - 0.5 * C * lam * (1 - lam) * d_yz**2
        out.append(
            GeodesicTriple(
                y=y, z=z, lam=float(lam), w=w, d_yz=float(d_yz),
                b2_w=float(b2w), rhs=float(rhs), slack=float(b2w - rhs),
                through_tip_region=mini.branch == "tip", branch=mini.branch,
                quad_misses=mini.quad_misses, shot_gap=shot_gap,
            )
        )
    return out
