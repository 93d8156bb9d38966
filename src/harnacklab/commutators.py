"""The commutator oracle on a coordinate chart, in plain Python floats.

Test functions carry exact first and second partials, propagated in
order-2 Taylor jets (``Jet``) over floats, so the only finite differencing
is in the covariant corrections; residuals of the commutator identities
then scale as O(h^2).  The differenced geometry and the per-point memo
are `fdcheck`'s, which gives this module's public names too; nothing here
uses the symbolic engine's library.

Beside the oracle, this module holds what only the ``oracle`` command and
the tests use of the chart geometry: the preset charts (``euclidean_chart``,
``round_sphere``, ``s2xr2``, ``cone_chart``, ``chart_by_name``) with their
probe points, and the curvature as nested tuples indexed ``T[i][j]...``
(``christoffels``, ``riemann_coord``, ``riemann``, ``ricci``).  A check of
parallel Ricci needs none of it, so a numeric command never compiles it.

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

from .fdcheck import (DEFAULT_H, ChartError, CoordinateChart, _central, _christoffel_terms,
                      _ChristoffelMemo, _covariant, _diag, _entries, _gamma_flat, _nest,
                      _per_point, _point, _riemann_flat, _to_frame, _warped, max_residual,
                      orthonormal_frame, warped_probe_point)

__all__ = ["Jet", "TestFunction", "default_test_function", "check_lemma31",
           "hessian_scalar", "MAX_CHART_DIM", "euclidean_chart", "round_sphere", "s2xr2",
           "cone_chart", "chart_by_name", "default_probe_point", "christoffels",
           "riemann_coord", "riemann", "ricci"]

#: largest dimension of a preset chart: one commutator probe costs about
#: d^4 float operations, and its per-point memo, dropped when the probe
#: returns, holds about d^5 entries
MAX_CHART_DIM = 12


# -- preset charts ------------------------------------------------------------


def euclidean_chart(n: int) -> CoordinateChart:
    if int(n) != n or not 2 <= n <= MAX_CHART_DIM:
        raise ChartError(f"euclidean chart needs an integer 2 <= n <= {MAX_CHART_DIM}, got {n}")
    eye = _diag((1.0,) * int(n))
    return CoordinateChart("euclidean", int(n), lambda x: eye)


def round_sphere(radius: float = 1.0) -> CoordinateChart:
    R2 = radius * radius

    def metric(x):
        theta = x[0]
        return _diag((R2, R2 * math.sin(theta) ** 2))

    return CoordinateChart("round_sphere", 2, metric)


def s2xr2() -> CoordinateChart:
    """Unit round 2-sphere times a flat plane; symmetric, parallel Ricci."""

    def metric(x):
        theta = x[0]
        return _diag((1.0, math.sin(theta) ** 2, 1.0, 1.0))

    return CoordinateChart("s2xr2", 4, metric)


def cone_chart(c: float, n: int) -> CoordinateChart:
    """Warped chart of the cone f = c r, 0 < c <= 1, 3 <= n <= MAX_CHART_DIM."""
    if not (0.0 < c <= 1.0) or int(n) != n or not 3 <= n <= MAX_CHART_DIM:
        raise ChartError(f"cone chart needs 0 < c <= 1 and an integer 3 <= n <= "
                         f"{MAX_CHART_DIM}, got c={c:g}, n={n}")
    return _warped(f"warped[cone:{c:g}]", int(n), lambda r: c * r)


def chart_by_name(name: str, **kw) -> CoordinateChart:
    if name == "euclidean":
        return euclidean_chart(int(kw.get("n", 4)))
    if name == "round_sphere":
        return round_sphere(float(kw.get("radius", 1.0)))
    if name == "s2xr2":
        return s2xr2()
    if name == "cone":
        return cone_chart(float(kw.get("c", 0.5)), int(kw.get("n", 4)))
    raise ChartError(f"unknown chart {name!r}")


def default_probe_point(chart: CoordinateChart) -> tuple:
    """A probe away from coordinate degeneracies of each preset."""
    if chart.name == "euclidean":
        return tuple(0.1 + 0.2 * i for i in range(chart.dim))
    if chart.name == "round_sphere":
        return (1.1, 0.7)
    if chart.name == "s2xr2":
        return (1.1, 0.7, 0.3, -0.4)
    # warped charts: r = 1, angles in the safe band
    return warped_probe_point(chart.dim, 1.0)


# -- curvature as nested tuples -----------------------------------------------


def christoffels(chart: CoordinateChart, x, h: float = DEFAULT_H) -> tuple:
    """Gamma[k][i][j] = Gamma^k_ij with O(h^2) error."""
    terms = _christoffel_terms(_ChristoffelMemo(chart, h), x, h)
    return _nest(_gamma_flat(terms, chart.dim), chart.dim, 3)


def riemann_coord(chart: CoordinateChart, x, h: float = DEFAULT_H,
                  gamma=None) -> tuple:
    """R[i][j][k][l] with all indices down (gamma as in _riemann_flat)."""
    return _nest(_riemann_flat(chart, _point(x), h, gamma), chart.dim, 4)


def _ricci_of(R: tuple, d: int) -> tuple:
    """Ric_ab = sum_c R_acbc, flat."""
    return tuple([sum([R[((a * d + c) * d + b) * d + c] for c in range(d)])
                  for a in range(d) for b in range(d)])


def _riemann_frame(chart: CoordinateChart, x: tuple, h: float, gamma=None) -> tuple:
    """R_abcd in an orthonormal frame, flat (gamma as in _riemann_flat)."""
    return _to_frame(_riemann_flat(chart, x, h, gamma), orthonormal_frame(chart, x), 4)


def riemann(chart: CoordinateChart, x, h: float = DEFAULT_H, gamma=None) -> tuple:
    """Curvature components in an orthonormal frame (gamma as in _riemann_flat)."""
    return _nest(_riemann_frame(chart, _point(x), h, gamma), chart.dim, 4)


def ricci(chart: CoordinateChart, x, h: float = DEFAULT_H) -> tuple:
    """Ric_ab = sum_c R(e_a, e_c, e_b, e_c) in an orthonormal frame."""
    return _nest(_ricci_of(_riemann_frame(chart, _point(x), h), chart.dim), chart.dim, 2)


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


class TestFunction:
    """Scalar function with exact partial derivatives up to 2nd order.

    ``func`` maps the list of the ``dim`` coordinate jets at a point to the
    function's jet there; each call evaluates it afresh.
    """

    __slots__ = ("func", "dim")

    def __init__(self, func: Callable[[list], Jet], dim: int):
        self.func = func
        self.dim = dim

    def jet(self, x) -> Jet:
        x = _point(x)
        return self.func([Jet.coordinate(x, i) for i in range(self.dim)])

    def d1(self, x) -> tuple:
        return self.jet(x).g

    def d2(self, x) -> tuple:
        """The Hessian as a tuple of rows."""
        return _nest(self.jet(x).h, self.dim, 2)


def default_test_function(chart: CoordinateChart) -> TestFunction:
    if chart.name == "round_sphere":
        def func(x):
            return x[0].cos() + x[0].sin() * x[1].cos()
    elif chart.name == "s2xr2":
        def func(x):
            return (x[0].cos() * (-0.25 * x[2] * x[2]).exp()
                    + x[0].sin() * x[1].cos() + x[3] * x[2])
    elif chart.name == "euclidean" and chart.dim <= 2:
        def func(x):
            return x[0] * x[0] * x[1]
    elif chart.name == "euclidean":
        def func(x):
            return x[0] * x[0] * x[1] + (-x[1]).exp() * x[2].cos()
    elif chart.dim >= 2:  # warped charts
        def func(x):
            return (-x[0]).exp() * x[1].cos()
    else:
        def func(x):
            return (-x[0]).exp()
    return TestFunction(func, chart.dim)


# -- covariant derivatives of a test function ---------------------------------


class _CovariantStack(_ChristoffelMemo):
    """Nested covariant derivatives of f on a chart, all FD with step h,
    memoized per point with the metric, the Christoffels and f's jets; the
    tensors are flat and the Christoffels are their nonzero terms.
    `hess_scalar` needs no f."""

    def __init__(self, chart: CoordinateChart, f, h: float):
        super().__init__(chart, h)
        self.f = f

    @_per_point
    def jet(self, x):
        return self.f.jet(x)

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


def _max_abs(values) -> float:
    return max_residual(abs(v) for v in values)


def _swap_last(T, d: int) -> list:
    """A flat tensor with its last two indices exchanged."""
    return [v for b in range(0, len(T), d * d) for k in range(d) for v in T[b + k:b + d * d:d]]


def _trace_last(T, d: int) -> list:
    """sum_k T_{..kk}, flat."""
    return [sum(T[b:b + d * d:d + 1]) for b in range(0, len(T), d * d)]


def check_lemma31(chart: CoordinateChart, f: TestFunction, x,
                  h: float = DEFAULT_H) -> tuple:
    """Residuals (max abs component, NaN if any component is NaN) of the
    five commutator identities."""
    x = _point(x)
    d = chart.dim
    stack = _CovariantStack(chart, f, h)
    E = orthonormal_frame(stack, x)
    R = _to_frame(_riemann_flat(stack, x, h, stack.gamma), E, 4)
    ric = _ricci_of(R, d)
    R_terms = _entries(R, d, 4)

    # flat in the frame: T2[i d + j], T3[(i d + j) d + k], and so on
    f1 = _to_frame(stack.jet(x).g, E, 1)
    T2 = _to_frame(stack.hess(x), E, 2)
    T3 = _to_frame(stack.third(x), E, 3)
    T4 = _to_frame(stack.fourth(x), E, 4)
    ric_rows = [ric[p:p + d] for p in range(0, d * d, d)]
    T2_rows = [T2[p:p + d] for p in range(0, d * d, d)]

    # 1. symmetry of the Hessian
    r1 = _max_abs(a - b for a, b in zip(T2, _swap_last(T2, d)))

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

    return (r1, r2, r3, r4, r5)


def hessian_scalar(chart: CoordinateChart, func, x, h: float = DEFAULT_H) -> tuple:
    """Covariant Hessian (orthonormal frame) of a scalar given numerically."""
    x = _point(x)
    stack = _CovariantStack(chart, None, h)
    hess = stack.hess_scalar(func, x)
    return _nest(_to_frame(hess, orthonormal_frame(stack, x), 2), chart.dim, 2)
