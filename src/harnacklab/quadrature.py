"""Numeric core in plain floats: Gauss-Legendre panels, Brent's two methods
and a Dormand-Prince stepper.

`gauss_legendre` integrates one interval on panels with the k- and
2k-point Gauss rules.  The 2k-point value is kept and |Q_2k - Q_k| is its
error estimate; panels are halved, level by level, until the integral
meets its gate or reaches a cap: MAX_LEVELS halvings or MAX_PANELS panels
a level, which bound each integral on its own.

`brent_root` is Brent's bracketing root finder and `brent_min` his
bounded minimizer (Brent, *Algorithms for Minimization without
Derivatives*, 1973, chapters 4 and 5).  `geomspace` lays out the radial
grids.

`dp_step` is one Dormand-Prince 5(4) step with its error norm against
DP_ATOL + DP_RTOL |y|.  The adaptive loop that takes these steps,
`geodesics._dormand_prince`, shoots the slice geodesics: it sizes the
steps, and cuts one short to end on a knot of the profile.
"""

from __future__ import annotations

import math

__all__ = ["gauss_legendre", "brent_root", "brent_min", "geomspace", "dp_step",
           "QuadratureError"]

#: nodes of the k-point rule
GAUSS_K = 12
#: (node, weight) of the k- and 2k-point rules on [0, 1], the positive half
#: of each (both are symmetric about 0): mpmath's 12- and 24-point Gauss-
#: Legendre rules at 50 digits, correctly rounded to floats
_HALF_K = (
    (0.1252334085114689, 0.24914704581340277),
    (0.3678314989981802, 0.2334925365383548),
    (0.5873179542866175, 0.20316742672306592),
    (0.7699026741943047, 0.16007832854334622),
    (0.9041172563704749, 0.10693932599531843),
    (0.9815606342467192, 0.04717533638651183),
)
_HALF_2K = (
    (0.06405689286260563, 0.12793819534675216),
    (0.1911188674736163, 0.1258374563468283),
    (0.3150426796961634, 0.12167047292780339),
    (0.4337935076260451, 0.1155056680537256),
    (0.5454214713888396, 0.10744427011596563),
    (0.6480936519369755, 0.09761865210411388),
    (0.7401241915785544, 0.08619016153195327),
    (0.820001985973903, 0.0733464814110803),
    (0.8864155270044011, 0.05929858491543678),
    (0.9382745520027328, 0.04427743881741981),
    (0.9747285559713095, 0.028531388628933663),
    (0.9951872199970213, 0.0123412297999872),
)


def _rule(half):
    """(nodes, weights) of a symmetric rule on [-1, 1], ascending."""
    pairs = [(-x, w) for x, w in reversed(half)] + list(half)
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


_X1, _W1 = _rule(_HALF_K)
_X2, _W2 = _rule(_HALF_2K)
#: halvings of an integral's range before a miss is declared
MAX_LEVELS = 50
#: the most panels one level of an integral may hold; past it the miss stands
MAX_PANELS = 8192


class QuadratureError(ValueError):
    """A bracket without a sign change, or a non-finite function value."""


def _panel(fun, lo, hi):
    """(Q_k, Q_2k) of fun on [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    q1 = q2 = 0.0
    for x, w in zip(_X1, _W1):
        q1 += w * fun(mid + half * x)
    for x, w in zip(_X2, _W2):
        q2 += w * fun(mid + half * x)
    return half * q1, half * q2


def _sums(quads):
    """(sum of Q_2k, sum of |Q_2k - Q_k|) over quads (lo, hi, Q_k, Q_2k), in order."""
    q_sum = e_sum = 0.0
    for _, _, q1, q2 in quads:
        q_sum += q2
        e_sum += abs(q2 - q1)
    return q_sum, e_sum


def gauss_legendre(fun, a: float, b: float, rtol: float, atol: float = 0.0):
    """(value, error estimate, missed) of int_a^b fun, a <= b.  `fun` maps
    a node to the integrand's value there.

    The integral is done when the sum of its panels' |Q_2k - Q_k| is within
    its gate max(rtol |Q|, atol), Q its current value.  Until then a panel
    is kept when its own estimate is within rtol of its value or within
    its width's share of the gate, and halved otherwise.  With panels left
    after MAX_LEVELS halvings, or when the next level would hold more than
    MAX_PANELS panels, the integral is flagged as missed; so is one whose
    value or estimate is not finite, which stops at the level where it is
    found, as no halving makes it finite.
    """
    width = b - a if b > a else 1.0
    value = err = 0.0
    missed = False
    panels = [(a, b)]
    for level in range(MAX_LEVELS + 1):
        quads = [(lo, hi, *_panel(fun, lo, hi)) for lo, hi in panels]
        q_sum, e_sum = _sums(quads)
        gate = max(rtol * abs(value + q_sum), atol)
        # a sum that is not finite stays so: it stops here, as a miss
        done = err + e_sum <= gate or not math.isfinite(q_sum + e_sum)
        ok, halve = [], []
        for quad in quads:
            lo, hi, q1, q2 = quad
            if done or abs(q2 - q1) <= max(rtol * abs(q2), gate * ((hi - lo) / width)):
                ok.append(quad)
            else:
                halve.append(quad)
        last = level == MAX_LEVELS or 2 * len(halve) > MAX_PANELS
        if last:
            missed = bool(halve)
            ok += halve
        q_sum, e_sum = _sums(ok)
        value, err = value + q_sum, err + e_sum
        if last or not halve:
            break
        panels = [(lo, 0.5 * (lo + hi)) for lo, hi, _, _ in halve]
        panels += [(0.5 * (lo + hi), hi) for lo, hi, _, _ in halve]
    return value, err, missed or not math.isfinite(value + err)


def brent_root(fun, a: float, b: float, xtol: float, rtol: float,
               maxiter: int = 100) -> float:
    """A root of fun in [a, b], where fun(a) and fun(b) differ in sign.

    Stops when the bracket is narrower than xtol + rtol |x| or fun(x) = 0;
    past maxiter iterations it raises.  Each step is the secant or inverse
    quadratic interpolation when that shrinks the bracket fast enough,
    else a bisection.
    """
    x_pre, x_cur = float(a), float(b)
    f_pre, f_cur = fun(x_pre), fun(x_cur)
    if not (math.isfinite(f_pre) and math.isfinite(f_cur)):
        raise QuadratureError("brent_root: non-finite value at a bracket end")
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if math.copysign(1.0, f_pre) == math.copysign(1.0, f_cur):
        raise QuadratureError("brent_root: fun(a) and fun(b) have one sign")
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_pre != 0.0 and math.copysign(1.0, f_pre) != math.copysign(1.0, f_cur):
            # x_blk is the end of the bracket opposite x_cur
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        step = s_bis
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, step = s_cur, s_try
            else:
                s_pre = s_bis
        else:
            s_pre = s_bis
        s_cur = step
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = fun(x_cur)
        if not math.isfinite(f_cur):
            raise QuadratureError(f"brent_root: non-finite value at x = {x_cur!r}")
    raise QuadratureError(f"brent_root: no convergence in {maxiter} iterations")


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def brent_min(fun, lo: float, hi: float, xatol: float, maxiter: int = 500):
    """(x, fun(x)) at a local minimum of fun on [lo, hi].

    Golden-section steps, replaced by a parabola through the three best
    points whenever it falls inside the bracket and moves less than half
    the step before last.  Stops when x is within 2 (sqrt(eps) |x| +
    xatol/3) of the midpoint of the bracket, or after maxiter evaluations.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)  # best, second best, previous w
    fx = fw = fv = fun(x)
    d = e = 0.0  # last step and the one before
    calls = 1
    while calls < maxiter:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_old, e = e, d
            if abs(p) < abs(0.5 * q * e_old) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        u = x + (math.copysign(max(abs(d), tol1), d) if d != 0.0 else tol1)
        fu = fun(u)
        calls += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def geomspace(start: float, stop: float, num: int) -> tuple:
    """num >= 1 points from start to stop (both > 0), evenly spaced in log
    scale, as numpy's geomspace lays them: 10 to the power of the evenly
    spaced log10s, with both ends exact."""
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (num - 1) if num > 1 else 0.0
    inner = [10.0 ** (i * step + lo) for i in range(1, num - 1)]
    return (float(start), *inner, float(stop)) if num > 1 else (float(start),)


# -- the Dormand-Prince stepper -----------------------------------------------

#: tolerances of the Dormand-Prince shot, on every state component
DP_RTOL = DP_ATOL = 1e-13


def dp_step(rhs, y, k1, h):
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
