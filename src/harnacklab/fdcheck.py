"""Finite-difference coordinate-chart oracle, in plain Python floats.

The geometry is differenced from metric components alone, so it is
independent of the closed-form curvature and of the symbolic engine, and
can arbitrate both; `harnacklab.fdgeom` gives the curvature sign
convention.

This module holds what `check_parallel_ricci` runs, which every
euclidean verdict does: charts, warped charts (`warped_chart`), the inverse
metric, the orthonormal frame, the per-point memo and the check.  The
differencing it calls (the central differences, the Christoffels, the
covariant derivative, the curvature and the coordinate Ricci tensor)
lives in `harnacklab.fdgeom`.  ``models.hypothesis_report`` imports this
module only after the verdict engines are compiled, so each of the two
stays at most 2048 parser tokens: a late compile of that size fits in the
memory the earlier compiles freed, and a larger one raises the command's
peak.  The commutator oracle of the ``oracle`` command
(``Jet``, ``check_lemma31``, whose test function is a function of the
coordinate jets) and the table of its
presets (``CHARTS``, each preset's dimensions, chart, probe point, test
function and whether its Ricci is parallel, looked up by
``oracle_preset``) live in `harnacklab.commutators`.  Its
``check_lemma31``, which the ``oracle`` command calls, is reached through
this module as well: `commutators` is imported on its first use, so a
check of parallel Ricci compiles only the geometry.  Nothing here uses the symbolic engine's library.

No array library is loaded: the tensors have at most d^4 entries.  Points
are tuples of floats, and a tensor is one row-major tuple of floats.
The contractions skip the zero entries of the metric, its
inverse, the Christoffels, the curvature and the frame, which keeps the
diagonal charts cheap and leaves a generic metric exact.  A NaN entry is
never skipped, so it reaches the residuals.

Charts and test functions keep nothing between calls.  The only cache is
the per-point memo of one probe (`_ChristoffelMemo`): the metric, the
inverse metric, the Christoffels and, in the commutator oracle, the test
function's jets and covariant derivatives at each stencil point.  Each
`check_parallel_ricci` or `check_lemma31` call builds its own and drops
it on return, so memory does not grow with the number of probes.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

from .fdgeom import (ChartError, _central, _christoffel_terms, _covariant, _entries, _point,
                     _ricci_coord)

__all__ = [
    "CoordinateChart",
    "warped_chart",
    "warped_probe_point",
    "orthonormal_frame",
    "check_parallel_ricci",
    "max_residual",
]

DEFAULT_H = 1e-3


def max_residual(values) -> float:
    """The largest of some residuals, 0.0 for none and NaN if any is NaN.

    Python's ``max`` keeps a NaN only when it comes first, so a NaN probe
    could otherwise pass a gate.
    """
    out = 0.0
    for v in values:
        if v != v:
            return math.nan
        if v > out:
            out = v
    return out


# -- tensors: flat row-major tuples -------------------------------------------


def _diag(values) -> list:
    d = len(values)
    return [[0.0] * i + [v] + [0.0] * (d - i - 1) for i, v in enumerate(values)]


def _inverse(a, d: int, x) -> tuple:
    """Gauss-Jordan inverse of a flat d x d matrix, flat, with partial
    pivoting; zero entries off a pivot cost nothing, so a diagonal matrix
    costs O(d^2)."""
    rows = [list(a[i * d:(i + 1) * d]) + e for i, e in enumerate(_diag((1.0,) * d))]
    for c in range(d):
        p = max(range(c, d), key=lambda r: abs(rows[r][c]))
        if rows[p][c] == 0.0:
            raise ChartError(f"metric singular at {list(x)}")
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        pivot = rows[c] = [v / piv for v in rows[c]]
        for r, row in enumerate(rows):
            m = row[c]
            if m and r != c:
                rows[r] = [u - m * v for u, v in zip(row, pivot)]
    return tuple([v for row in rows for v in row[d:]])


class CoordinateChart:
    """A metric given by its component matrix as a function of the point
    (a tuple of floats); any d x d nested sequence of numbers will do.

    A chart keeps nothing: each call evaluates the metric afresh.  The
    checks memoize per point for the length of one probe
    (`_ChristoffelMemo`), and the geometry reads the chart through it."""

    __slots__ = ("name", "dim", "metric")

    def __init__(self, name: str, dim: int, metric: Callable[[tuple], object]):
        self.name, self.dim, self.metric = name, dim, metric

    def _flat_g(self, x) -> tuple:
        """g_ij at x as one row-major tuple, checked."""
        m, d = self.metric(_point(x)), self.dim
        try:
            square = len(m) == d and all(len(row) == d for row in m)
        except TypeError:
            square = False
        if not square:
            raise ChartError("metric callable returned a wrong shape")
        return tuple(map(float, itertools.chain.from_iterable(m)))


# -- warped charts -----------------------------------------------------------


def warped_chart(name: str, n: int, f) -> CoordinateChart:
    """Chart (r, theta_1, ..., theta_{n-1}) for dr^2 + f(r)^2 g_{S^{n-1}}."""

    def metric(x):
        r = x[0]
        f2 = f(r) ** 2
        diag = [1.0, f2]
        s = 1.0
        for a in range(1, n - 1):
            s *= math.sin(x[a]) ** 2
            diag.append(f2 * s)
        return _diag(diag)

    return CoordinateChart(name, n, metric)


def warped_probe_point(n: int, r: float) -> tuple:
    """(r, then n - 1 angles spaced evenly over [1, 1.6] as numpy's linspace
    spaces them)."""
    if n == 2:
        return (float(r), 1.0)
    step = (1.6 - 1.0) / (n - 2)
    return (float(r),) + tuple(i * step + 1.0 for i in range(n - 2)) + (1.6,)


# -- the orthonormal frame ---------------------------------------------------


def _inner(g: tuple, u, v) -> float:
    """u @ g @ v for a flat g, skipping the zero components of u."""
    d = len(u)
    w = [0.0] * d
    for i, ui in enumerate(u):
        if ui:
            for j, gij in enumerate(g[i * d:(i + 1) * d]):
                w[j] += ui * gij
    return sum([a * b for a, b in zip(w, v)])


def orthonormal_frame(memo: "_ChristoffelMemo", x: tuple) -> tuple:
    """E[i][a] = i-th coordinate component of the a-th Gram-Schmidt frame
    vector, from the metric memoized by `memo`."""
    g = memo._flat_g(x)
    d = memo.dim
    frame = []
    for a in range(d):
        v = [0.0] * a + [1.0] + [0.0] * (d - a - 1)
        for e in frame:
            c = _inner(g, e, v)
            v = [vi - c * ei for vi, ei in zip(v, e)]
        norm2 = _inner(g, v, v)
        if norm2 <= 0:
            raise ChartError("metric not positive-definite at probe point")
        norm = math.sqrt(norm2)
        frame.append([vi / norm for vi in v])
    return tuple(zip(*frame))


def _to_frame(T, E, rank: int) -> tuple:
    """A flat rank-r tensor in the frame E: each index contracted with
    E[i][a], the zero frame components skipped.  Each step contracts the
    leading axis and appends the frame axis, so r steps restore the
    order."""
    d = len(E)
    columns = [[(i, row[a]) for i, row in enumerate(E) if row[a]] for a in range(d)]
    for _ in range(rank):
        rest = len(T) // d
        rows = [T[i * rest:(i + 1) * rest] for i in range(d)]
        parts = []
        for (i0, e0), *more in columns:
            acc = [e0 * t for t in rows[i0]]
            for i, e in more:
                acc = [s + e * t for s, t in zip(acc, rows[i])]
            parts.append(acc)
        T = [v for vals in zip(*parts) for v in vals]
    return tuple(T)


# -- the per-point memo and the check ------------------------------------------


def _per_point(method):
    """Memoize a method per point: the nested differences visit each point
    many times.  The results are tuples, so every caller may share them."""

    @functools.wraps(method)
    def cached(self, x):
        key = (method.__name__, x)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = method(self, x)
        return out

    return cached


class _ChristoffelMemo:
    """The metric, the inverse metric and the Christoffels (step h) of a
    chart, memoized per point; points are tuples of floats of the chart's
    dimension.  Every geometry function, here and in `fdgeom`, takes it,
    and reads the chart's `dim`, the step `h` and the metric (`_flat_g`)
    from it.

    This is the one per-point cache of the oracle.  A check builds one per
    probe and drops it when it returns: the stencils of two probes share
    no point, so what a probe memoizes is never read again.  The
    commutator oracle's covariant derivatives extend it, sharing its memo.
    """

    def __init__(self, chart: CoordinateChart, h: float):
        self.chart = chart
        self.dim = chart.dim
        self.h = h
        self._memo = {}

    @_per_point
    def _flat_g(self, x):
        return self.chart._flat_g(x)

    @_per_point
    def _ginv_entries(self, x):
        """(k, l, g^kl) of the nonzero entries of the inverse metric at x."""
        d = self.dim
        return _entries(_inverse(self._flat_g(x), d, x), d, 2)

    @_per_point
    def gamma(self, x):
        """(m, k, i, Gamma^m_ki) for the nonzero Christoffels."""
        return _christoffel_terms(self, x)


def check_parallel_ricci(chart: CoordinateChart, x, h: float = DEFAULT_H) -> float:
    """Frobenius norm of grad Ric in an orthonormal frame.

    The stencils of the Ricci tensors at x +- h e_k overlap, so the
    metric and the Christoffels are memoized per point for this call
    (`_ChristoffelMemo`).
    """
    x = _point(x)
    memo = _ChristoffelMemo(chart, h)
    ric0 = _ricci_coord(memo, x)
    dric = _central(lambda y: _ricci_coord(memo, y), x, h)
    # (grad Ric)_{ijk} = d_k Ric_ij - Gamma^m_ki Ric_mj - Gamma^m_kj Ric_im
    cov = _covariant(dric, ric0, memo.gamma(x), 2)
    return math.hypot(*_to_frame(cov, orthonormal_frame(memo, x), 3))


# -- the commutator oracle, on demand ------------------------------------------


def __getattr__(name: str):
    """The commutator oracle's `check_lemma31`, its module imported on the
    first use: the `oracle` command calls it here, so a wrapper set on it
    here (the benchmark's tracer sets one) sees every call."""
    if name != "check_lemma31":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import commutators

    value = globals()[name] = commutators.check_lemma31
    return value
