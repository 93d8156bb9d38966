"""Gauss-Legendre panels in numpy, a test-only reference for
``harnacklab.quadrature.gauss_legendre``.

The same 12/24-point panels, gates, level cap, panel cap and miss flag,
with every panel of a level evaluated in one array call and the sums per
integral taken by ``bincount``: the form the package ran in before its
numeric core moved to plain floats.  `fun` maps an array of nodes to the
array of integrand values.  The nodes and weights come from mpmath's
50-digit rules (`mpmath_rule`).
"""

import numpy as np
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre

from harnacklab.quadrature import GAUSS_K, MAX_LEVELS, MAX_PANELS


def mpmath_rule(k):
    """(nodes, weights) of the k-point Gauss-Legendre rule, k = 12 or 24,
    computed by mpmath at 50 digits and rounded to floats, nodes ascending."""
    with mp.workdps(50):
        degree = {12: 3, 24: 4}[k]
        rule = sorted(GaussLegendre(mp).calc_nodes(degree, mp.prec))
        return [float(x) for x, _ in rule], [float(w) for _, w in rule]


_X1, _W1 = map(np.array, mpmath_rule(GAUSS_K))
_X2, _W2 = map(np.array, mpmath_rule(2 * GAUSS_K))
_NODES = np.concatenate([_X1, _X2])
_WEIGHTS = np.zeros((3 * GAUSS_K, 2))
_WEIGHTS[:GAUSS_K, 0], _WEIGHTS[GAUSS_K:, 1] = _W1, _W2


def gauss_legendre(fun, a, b, rtol, atol=0.0):
    """(value, error estimate, missed) of int_a^b fun for each pair a <= b,
    floats or arrays of one shape."""
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
