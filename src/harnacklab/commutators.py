"""The commutator oracle on a coordinate chart, in plain Python floats.

Test functions carry exact first and second partials, propagated in
order-2 Taylor jets (``Jet``) over floats, so the only finite differencing
is in the covariant corrections; residuals of the commutator identities
then scale as O(h^2).  The differenced geometry is `fdgeom`'s, and the
charts and the per-point memo are `fdcheck`'s, which gives this module's
public names too; nothing here uses the symbolic engine's library.

Beside the oracle, this module holds the presets of the ``oracle``
command in one table, ``CHARTS``: each preset's dimensions, chart, probe
point and test function, and whether its Ricci curvature is parallel, where
identity 5 holds; ``oracle_preset`` looks one up.  A check of parallel
Ricci needs none of it, so a numeric command never compiles it; the
``oracle`` command imports it before `fdcheck`, so that this module, the
largest it compiles, compiles while the fewest objects are live.

A test function keeps nothing between calls.  Each `check_lemma31` call
memoizes the metric, the Christoffels, the jets and the covariant
derivatives of its probe's stencil points in one `_CovariantStack`, and
drops it on return.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable

from .fdcheck import (DEFAULT_H, CoordinateChart, _ChristoffelMemo, _diag, _per_point,
                      _to_frame, max_residual, orthonormal_frame, warped_chart,
                      warped_probe_point)
from .fdgeom import ChartError, _central, _covariant, _entries, _point, _riemann_flat

__all__ = ["Jet", "check_lemma31", "MAX_CHART_DIM", "CHARTS", "oracle_preset"]


# -- test functions -----------------------------------------------------------


class Jet:
    """Order-2 Taylor jet of a scalar at a point: value v, gradient g and
    Hessian h (flat, h[i d + j]) in the chart coordinates, as tuples.

    Sums, products and exp/sin/cos propagate exactly by the product and
    chain rules, so a test function built from them carries exact first
    and second partials.  Jets are immutable.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: tuple, h: tuple):
        self.v, self.g, self.h = v, g, h

    @staticmethod
    def coordinate(x, i: int) -> "Jet":
        """The jet of the i-th coordinate function at the point x."""
        d = len(x)
        return Jet(float(x[i]), (0.0,) * i + (1.0,) + (0.0,) * (d - i - 1), (0.0,) * (d * d))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, tuple(map(operator.add, self.g, other.g)),
                       tuple(map(operator.add, self.h, other.h)))
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, tuple(map(operator.neg, self.g)), tuple(map(operator.neg, self.h)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, v, g, og = self.v, other.v, self.g, other.g
            gg = [a * b for a in g for b in og]  # g og^T
            gg_t = [b * a for b in og for a in g]  # og g^T
            return Jet(u * v,
                       tuple([u * b + v * a for a, b in zip(g, og)]),
                       tuple([u * p + v * q + s + t
                              for p, q, s, t in zip(other.h, self.h, gg, gg_t)]))
        c = itertools.repeat(other)
        return Jet(self.v * other, tuple(map(operator.mul, self.g, c)),
                   tuple(map(operator.mul, self.h, c)))

    __rmul__ = __mul__

    def _chain(self, f0: float, f1: float, f2: float) -> "Jet":
        """phi(self), given phi, phi' and phi'' at self.v."""
        g = self.g
        gg = [a * b for a in g for b in g]
        return Jet(f0, tuple([f1 * a for a in g]),
                   tuple([f1 * p + f2 * q for p, q in zip(self.h, gg)]))

    def exp(self) -> "Jet":
        e = math.exp(self.v)
        return self._chain(e, e, e)

    def sin(self) -> "Jet":
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self) -> "Jet":
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(c, -s, -c)


# -- preset charts ------------------------------------------------------------

#: largest dimension of a preset chart: one commutator probe costs about
#: d^4 float operations, and its per-point memo, dropped when the probe
#: returns, holds about d^5 entries
MAX_CHART_DIM = 12


def _flat(n: int) -> CoordinateChart:
    eye = _diag((1.0,) * n)
    return CoordinateChart("euclidean", n, lambda x: eye)


#: each preset of the ``oracle`` command: (the dimensions n it takes, its
#: chart, probe point and test function, the last a function of the
#: coordinate jets, and whether its Ricci curvature is parallel).  The probe
#: point keeps away from coordinate degeneracies.  Identity 5 of
#: `check_lemma31` drops the grad Ric terms, so it holds only where Ricci is
#: parallel; the cone of aperture 0.5 is the one preset where it is not.
CHARTS = {
    # x0^2 x1 alone would be differenced exactly: the cosine gives every n
    # an O(h^2) error to show
    "euclidean": (
        range(2, MAX_CHART_DIM + 1), _flat,
        lambda n: tuple(0.1 + 0.2 * i for i in range(n)),
        lambda x: x[0] * x[0] * x[1] + (-x[1]).exp() * x[2 % len(x)].cos(),
        True),
    # the unit round 2-sphere
    "round_sphere": (
        (2,), lambda n: CoordinateChart(
            "round_sphere", 2, lambda x: _diag((1.0, math.sin(x[0]) ** 2))),
        lambda n: (1.1, 0.7),
        lambda x: x[0].cos() + x[0].sin() * x[1].cos(),
        True),
    # the unit round 2-sphere times a flat plane: symmetric
    "s2xr2": (
        (4,), lambda n: CoordinateChart(
            "s2xr2", 4, lambda x: _diag((1.0, math.sin(x[0]) ** 2, 1.0, 1.0))),
        lambda n: (1.1, 0.7, 0.3, -0.4),
        lambda x: (x[0].cos() * (-0.25 * x[2] * x[2]).exp()
                   + x[0].sin() * x[1].cos() + x[3] * x[2]),
        True),
    # the warped chart of the cone f = r / 2, at r = 1
    "cone": (
        range(3, MAX_CHART_DIM + 1),
        lambda n: warped_chart("warped[cone:0.5]", n, lambda r: 0.5 * r),
        lambda n: warped_probe_point(n, 1.0),
        lambda x: (-x[0]).exp() * x[1].cos(),
        False),
}


def oracle_preset(name: str, n: int | None = None) -> tuple:
    """(chart, test function, probe point, how many identities are gated) of
    the preset `name` in dimension n, by default its one dimension or 4; the
    test function maps the coordinate jets at a point to its jet there."""
    dims, chart, point, func, parallel_ricci = CHARTS[name]
    if n is None:
        n = dims[0] if len(dims) == 1 else 4
    if n not in dims:
        want = (f"{dims[0]}, got n={n}" if len(dims) == 1
                else f"{dims[0]} <= n <= {dims[-1]}, got {n}")
        raise ChartError(f"chart {name} has dimension {want}")
    return chart(n), func, point(n), 4 if parallel_ricci else 3


# -- covariant derivatives of a test function ---------------------------------


class _CovariantStack(_ChristoffelMemo):
    """Nested covariant derivatives of f on a chart, all FD with step h,
    memoized per point with the metric, the Christoffels and f's jets; the
    tensors are flat and the Christoffels are their nonzero terms."""

    def __init__(self, chart: CoordinateChart, f: Callable[[list], Jet], h: float):
        super().__init__(chart, h)
        self.f = f

    @_per_point
    def jet(self, x):
        """f's jet at x, from the jets of the chart's coordinates there."""
        return self.f([Jet.coordinate(x, i) for i in range(self.dim)])

    @_per_point
    def hess(self, x):
        """(grad^2 f)_{ij} in coordinates."""
        jet, d = self.jet(x), self.dim
        rows = [jet.h[k * d:(k + 1) * d] for k in range(d)]  # d_k (d f)
        return _covariant(rows, jet.g, self.gamma(x), 1)

    @_per_point
    def third(self, x):
        """(grad^3 f)_{ijk} = grad_k (grad^2 f)_{ij} in coordinates."""
        return _covariant(_central(self.hess, x, self.h), self.hess(x),
                          self.gamma(x), 2)

    def fourth(self, x):
        """(grad^4 f)_{ijkl} in coordinates."""
        return _covariant(_central(self.third, x, self.h), self.third(x),
                          self.gamma(x), 3)

    def laplacian(self, x) -> float:
        hess, d = self.hess(x), self.dim
        s = 0.0
        for i, j, a in self._ginv_entries(x):
            s += a * hess[i * d + j]
        return s

    def hess_scalar(self, func, x):
        """Covariant Hessian of a numerically-defined scalar field."""
        d, h = self.dim, self.h
        f0 = func(x)

        def at(*steps):  # x moved by s along axis k, for each (k, s)
            y = list(x)
            for k, s in steps:
                y[k] += s
            return func(tuple(y))

        hess = [[0.0] * d for _ in range(d)]
        for i in range(d):
            hess[i][i] = (at((i, h)) - 2 * f0 + at((i, -h))) / (h * h)
            for j in range(i + 1, d):
                hess[i][j] = hess[j][i] = (
                    at((i, h), (j, h))
                    - at((i, h), (j, -h))
                    - at((i, -h), (j, h))
                    + at((i, -h), (j, -h))
                ) / (4 * h * h)
        return _covariant(hess, _central(func, x, h), self.gamma(x), 1)


def _ricci_of(R: tuple, d: int) -> tuple:
    """Ric_ab = sum_c R_acbc, flat."""
    return tuple([sum([R[((a * d + c) * d + b) * d + c] for c in range(d)])
                  for a in range(d) for b in range(d)])


def _max_abs(values) -> float:
    return max_residual(abs(v) for v in values)


def _swap_last(T, d: int) -> list:
    """A flat tensor with its last two indices exchanged."""
    return [v for b in range(0, len(T), d * d) for k in range(d) for v in T[b + k:b + d * d:d]]


def _trace_last(T, d: int) -> list:
    """sum_k T_{..kk}, flat."""
    return [sum(T[b:b + d * d:d + 1]) for b in range(0, len(T), d * d)]


def check_lemma31(chart: CoordinateChart, f: Callable[[list], Jet], x,
                  h: float = DEFAULT_H) -> tuple:
    """Residuals (max abs component, NaN if any component is NaN) of
    commutator identities 2-5, in that order, for the test function f of
    the coordinate jets.  Identity 1, the symmetry of the Hessian, holds
    bit for bit: the Hessian is `_covariant` of the jet's exact, symmetric
    second partials with symmetric Christoffels."""
    x = _point(x)
    d = chart.dim
    stack = _CovariantStack(chart, f, h)
    E = orthonormal_frame(stack, x)
    R = _to_frame(_riemann_flat(stack, x), E, 4)
    ric = _ricci_of(R, d)
    R_terms = _entries(R, d, 4)

    # flat in the frame: T2[i d + j], T3[(i d + j) d + k], and so on
    f1 = _to_frame(stack.jet(x).g, E, 1)
    T2 = _to_frame(stack.hess(x), E, 2)
    T3 = _to_frame(stack.third(x), E, 3)
    T4 = _to_frame(stack.fourth(x), E, 4)
    ric_rows = [ric[p:p + d] for p in range(0, d * d, d)]
    T2_rows = [T2[p:p + d] for p in range(0, d * d, d)]

    # 2. f_ijk - f_ikj = R_{jkli} f_l
    rhs2 = [0.0] * d ** 3
    for j, k, l, i, v in R_terms:
        rhs2[(i * d + j) * d + k] += v * f1[l]
    r2 = _max_abs(a - b - c for a, b, c in zip(T3, _swap_last(T3, d), rhs2))

    # 3. Delta f_i - (Delta f)_i = R_ik f_k
    dlap = _to_frame(_central(stack.laplacian, x, h), E, 1)
    ric_f1 = [sum([a * b for a, b in zip(row, f1)]) for row in ric_rows]
    r3 = _max_abs(a - b - c for a, b, c in zip(_trace_last(T3, d), dlap, ric_f1))

    # 4. f_ijkl - f_ijlk = R_{klmj} f_im + R_{klmi} f_jm
    first, second = [0.0] * d ** 4, [0.0] * d ** 4
    for k, l, m, a, v in R_terms:
        for b in range(d):
            first[((b * d + a) * d + k) * d + l] += v * T2[b * d + m]
            second[((a * d + b) * d + k) * d + l] += v * T2[b * d + m]
    r4 = _max_abs(a - b - (c + e) for a, b, c, e in zip(T4, _swap_last(T4, d), first, second))

    # 5. Delta f_ij - (Delta f)_ij = R_jk f_ik + R_ik f_jk - 2 R_ikjl f_kl,
    # the second term the transpose of the first
    hess_lap = _to_frame(stack.hess_scalar(stack.laplacian, x), E, 2)
    ric_T2 = [sum([a * b for a, b in zip(r, t)]) for t in T2_rows for r in ric_rows]
    curv = [0.0] * d * d
    for i, k, j, l, v in R_terms:
        curv[i * d + j] += v * T2[k * d + l]
    r5 = _max_abs(a - b - ((c + e) - 2.0 * g) for a, b, c, e, g in zip(
        _trace_last(T4, d), hess_lap, ric_T2, _swap_last(ric_T2, d), curv))

    return (r2, r3, r4, r5)

