"""Numeric core in numpy: Gauss-Legendre panels and Brent's two methods.

`gauss_legendre` integrates on panels with the k- and 2k-point Gauss
rules.  The 2k-point value is kept and |Q_2k - Q_k| is its error
estimate; panels are halved, level by level, until each integral meets
its gate or a fixed cap is reached.  The integrand is evaluated on whole
arrays of nodes, so many independent integrals (one per grid point, one
per knot interval) cost one numpy call per level.

`brent_root` is Brent's bracketing root finder and `brent_min` his
bounded minimizer (Brent, *Algorithms for Minimization without
Derivatives*, 1973, chapters 4 and 5).  Both run in plain floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gauss_legendre", "brent_root", "brent_min", "QuadratureError"]

#: nodes of the k-point rule
GAUSS_K = 12
_X1, _W1 = np.polynomial.legendre.leggauss(GAUSS_K)
_X2, _W2 = np.polynomial.legendre.leggauss(2 * GAUSS_K)
#: nodes of both rules on [-1, 1], and their weights as two columns
_NODES = np.concatenate([_X1, _X2])
_WEIGHTS = np.zeros((3 * GAUSS_K, 2))
_WEIGHTS[:GAUSS_K, 0], _WEIGHTS[GAUSS_K:, 1] = _W1, _W2
#: halvings of one integral's range before a miss is declared
MAX_LEVELS = 50
#: the most panels one level may hold; past it the misses stand
MAX_PANELS = 8192


class QuadratureError(ValueError):
    """A bracket without a sign change, or a non-finite function value."""


def gauss_legendre(fun, a, b, rtol: float, atol: float = 0.0):
    """(value, error estimate, missed) of int_a^b fun for each pair a <= b.

    `a` and `b` are floats or arrays of one shape; the results have that
    shape (floats and a bool for float input).  `fun` maps an array of
    nodes to the array of integrand values.

    An integral is done when the sum of its panels' |Q_2k - Q_k| is within
    its gate max(rtol |Q|, atol), Q its current value.  Until then a panel
    is kept when its own estimate is within rtol of its value or within
    its width's share of the gate, and halved otherwise.  An integral
    with panels left after MAX_LEVELS halvings, or when the next level
    would hold more than MAX_PANELS panels, is flagged as missed.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    shape = a.shape
    lo, hi = a.ravel(), b.ravel()
    size = lo.size
    owner = np.arange(size)
    width = np.where(hi > lo, hi - lo, 1.0)
    value, err = np.zeros(size), np.zeros(size)
    missed = np.zeros(size, dtype=bool)
    for level in range(MAX_LEVELS + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        q = half[:, None] * (fun(mid[:, None] + half[:, None] * _NODES) @ _WEIGHTS)
        q1, q2 = q[:, 0], q[:, 1]
        e = np.abs(q2 - q1)
        # each integral's current value, error estimate and gate
        gate = np.maximum(rtol * np.abs(value + np.bincount(owner, q2, size)), atol)
        done = err + np.bincount(owner, e, size) <= gate
        share = (2.0 * half) / width[owner]
        ok = done[owner] | (e <= np.maximum(rtol * np.abs(q2), gate[owner] * share))
        last = level == MAX_LEVELS or 2 * np.count_nonzero(~ok) > MAX_PANELS
        if last:
            missed[owner[~ok]] = True
            ok[:] = True
        value += np.bincount(owner[ok], q2[ok], size)
        err += np.bincount(owner[ok], e[ok], size)
        if last or ok.all():
            break
        bad = ~ok
        lo, mid, hi, owner = lo[bad], mid[bad], hi[bad], owner[bad]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.concatenate([owner, owner])
    if not shape:
        return float(value[0]), float(err[0]), bool(missed[0])
    return value.reshape(shape), err.reshape(shape), missed.reshape(shape)


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
