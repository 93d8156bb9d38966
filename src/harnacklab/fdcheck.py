"""Finite-difference coordinate-chart oracle, in plain Python floats.

Everything geometric here is differenced from metric components alone,
so it is independent of the closed-form curvature and of the symbolic
engine, and can arbitrate both.  The curvature sign convention is

    R(X,Y,Z,W) = g(grad_Y grad_X Z - grad_X grad_Y Z + grad_{[X,Y]} Z, W),

pinned by the round sphere having sectional curvature +1.

This module holds what `check_parallel_ricci` runs, which every
euclidean verdict does: charts, warped charts of a model, the central
differences, the Christoffels, the curvature, the orthonormal frame and
the per-point memo.  Everything else lives in `harnacklab.commutators`:
the commutator oracle (``Jet``, ``TestFunction``, ``default_test_function``,
``check_lemma31``, ``hessian_scalar``), the preset charts of the ``oracle``
command (``euclidean_chart``, ``round_sphere``, ``s2xr2``, ``cone_chart``,
``chart_by_name``, ``default_probe_point``) and the curvature as nested
tuples (``christoffels``, ``riemann_coord``, ``riemann``, ``ricci``).
Those names are reached through this module as well: `commutators` is
imported on the first use of one, so a check of parallel Ricci compiles
only the geometry, and each module stays under the parser's 4096-token
step.  Nothing here uses the symbolic engine's library.

No array library is loaded: the tensors have at most d^4 entries.  Points
are tuples of floats, and inside, a tensor is one row-major tuple of
floats (`commutators` gives the nested tuples indexed ``T[i][j]...``).
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

__all__ = [
    "CoordinateChart",
    "warped_chart",
    "warped_probe_point",
    "orthonormal_frame",
    "check_parallel_ricci",
    "max_residual",
]

DEFAULT_H = 1e-3


class ChartError(ValueError):
    pass


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


# -- tensors: nested tuples outside, flat row-major tuples inside --------------


def _point(x) -> tuple:
    return tuple(map(float, x))


def _flat(T) -> list:
    """The entries of a nested tuple in row-major order."""
    while T and isinstance(T[0], tuple):
        T = [v for row in T for v in row]
    return list(T)


def _nest(flat, d: int, rank: int) -> tuple:
    """The nested tuple of a flat rank-r tensor with every axis of length d."""
    out = tuple(flat)
    for _ in range(rank - 1):
        out = tuple([out[i:i + d] for i in range(0, len(out), d)])
    return out


def _entries(flat, d: int, rank: int) -> list:
    """(i_1, ..., i_r, value) of every nonzero entry of a flat tensor, in
    row-major order; NaN counts as nonzero."""
    out = []
    for p in itertools.compress(range(len(flat)), flat):
        idx, q = [flat[p]], p
        for _ in range(rank):
            q, i = divmod(q, d)
            idx.append(i)
        out.append(tuple(reversed(idx)))
    return out


def _diag(values) -> list:
    d = len(values)
    return [[0.0] * i + [v] + [0.0] * (d - i - 1) for i, v in enumerate(values)]


def _inverse(a, x) -> tuple:
    """Gauss-Jordan inverse with partial pivoting; zero entries off a pivot
    cost nothing, so a diagonal matrix costs O(d^2)."""
    d = len(a)
    rows = [list(row) + e for row, e in zip(a, _diag((1.0,) * d))]
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
    return tuple(tuple(row[d:]) for row in rows)


class CoordinateChart:
    """A metric given by its component matrix as a function of the point
    (a tuple of floats); any d x d nested sequence of numbers will do.

    A chart keeps nothing: each call evaluates the metric afresh.  The
    checks memoize per point for the length of one probe
    (`_ChristoffelMemo`), and stand the memo in for the chart."""

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

    def g(self, x) -> tuple:
        return _nest(self._flat_g(x), self.dim, 2)

    def ginv(self, x) -> tuple:
        return _inverse(self.g(x), x)


# -- warped charts -----------------------------------------------------------


def _warped(name: str, n: int, f) -> CoordinateChart:
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


def warped_chart(model) -> CoordinateChart:
    """Warped chart of a model manifold; reads only its .n, .profile.f and
    .describe()."""
    return _warped(f"warped[{model.describe()}]", model.n, model.profile.f)


def warped_probe_point(n: int, r: float) -> tuple:
    """(r, then n - 1 angles spaced evenly over [1, 1.6] as numpy's linspace
    spaces them)."""
    if n == 2:
        return (float(r), 1.0)
    step = (1.6 - 1.0) / (n - 2)
    return (float(r),) + tuple(i * step + 1.0 for i in range(n - 2)) + (1.6,)


# -- finite-difference geometry ----------------------------------------------


def _central(F, x: tuple, h: float) -> tuple:
    """out[k] = (F(x + h e_k) - F(x - h e_k)) / 2h over the axes k, for F
    giving a float or a flat tensor.

    Refuses an h that leaves a coordinate of x where it is: every
    difference would then be 0 and check nothing.
    """
    if any(v + h == v or v - h == v for v in x):
        raise ChartError(f"the finite-difference step h={h!r} does not move the "
                         f"point {list(x)}: x + h or x - h rounds back to x")
    two_h = 2 * h
    out = []
    for k, v in enumerate(x):
        plus = F(x[:k] + (v + h,) + x[k + 1:])
        minus = F(x[:k] + (v - h,) + x[k + 1:])
        if isinstance(plus, (tuple, list)):
            # entries zero at both points difference to zero
            positions = range(len(plus))
            diff = [0.0] * len(plus)
            for p in {*itertools.compress(positions, plus),
                      *itertools.compress(positions, minus)}:
                diff[p] = (plus[p] - minus[p]) / two_h
            out.append(tuple(diff))
        else:
            out.append((plus - minus) / two_h)
    return tuple(out)


def _christoffel_terms(memo: "_ChristoffelMemo", x, h: float) -> tuple:
    """(k, i, j, Gamma^k_ij) for the nonzero Christoffels, in row-major
    order, with O(h^2) error, from the metric memoized by `memo`."""
    if h <= 0:
        raise ChartError("step h must be positive")
    x = _point(x)
    d = memo.dim
    dg = _central(memo._flat_g, x, h)  # dg[k][i * d + j] = d_k g_ij
    # Gamma^k_ij = 1/2 g^{kl} v_lij, v_lij = (d_i g_jl + d_j g_il) - d_l g_ij,
    # keyed (l d + i) d + j: a nonzero d_k g_ab is the first term of v at
    # (l, i, j) = (b, k, a), the second at (b, a, k) and the third at (k, a, b)
    d2 = d * d
    ab, c = {}, {}
    for k, row in enumerate(dg):
        for p in itertools.compress(range(d2), row):  # p = a d + b
            a, b = divmod(p, d)
            for q in ((b * d + k) * d + a, (b * d + a) * d + k):
                ab[q] = ab.get(q, 0.0) + row[p]
            c[k * d2 + p] = row[p]
    columns = [[] for _ in range(d)]
    for k, l, w in memo._ginv_entries(x):
        columns[l].append((k, w))
    sums = {}
    for q in sorted(ab.keys() | c.keys()):  # ascending l for each (i, j)
        l, ij = divmod(q, d2)
        v = ab.get(q, 0.0) - c.get(q, 0.0)
        for k, w in columns[l]:
            p = k * d2 + ij
            sums[p] = sums.get(p, 0.0) + w * v
    terms = []
    for p in sorted(sums):
        k, ij = divmod(p, d2)
        terms.append((k, *divmod(ij, d), 0.5 * sums[p]))
    return tuple(terms)


def _gamma_flat(terms, d: int) -> list:
    """The flat Gamma[(k d + i) d + j] of its nonzero terms."""
    out = [0.0] * d ** 3
    for k, i, j, v in terms:
        out[(k * d + i) * d + j] = v
    return out


def _covariant(dT, T, terms, rank: int) -> tuple:
    """grad T, flat, for a covariant rank-r tensor T (flat) given its
    partials dT[k] = d_k T (flat) and the nonzero Christoffels as terms
    (m, k, i, Gamma^m_ki):

        (grad T)_{i_1..i_r k} = d_k T_{i_1..i_r} - sum_s Gamma^m_{k i_s} T_{..m..},

    with m in slot s; each slot's sum is formed before it is subtracted.
    """
    d, size = len(dT), len(T)
    out = [v for vals in zip(*dT) for v in vals]
    for slot in range(rank):
        stride = d ** (rank - 1 - slot)
        # at[i]: the flat indices of T whose index in this slot is i
        at = [[lo + r for lo in range(i * stride, size, d * stride) for r in range(stride)]
              for i in range(d)]
        corr = [0.0] * (size * d)
        for m, k, i, v in terms:
            shift = (m - i) * stride
            for idx in at[i]:
                corr[idx * d + k] += v * T[idx + shift]
        out = [a - b for a, b in zip(out, corr)]
    return tuple(out)


def _riemann_flat(chart: CoordinateChart, x: tuple, h: float, gamma=None) -> tuple:
    """R_ijkl, flat, in the pinned sign convention; gamma(point), if given,
    gives the Christoffel terms at a point, and otherwise a
    `_ChristoffelMemo` for this call gives them and the metric."""
    if gamma is None:
        chart = _ChristoffelMemo(chart, h)
        gamma = chart.gamma
    d = chart.dim
    rng = range(d)
    dgamma = _central(lambda y: _gamma_flat(gamma(y), d), x, h)  # dgamma[l] = d_l Gamma
    terms = gamma(x)
    # A^m_ijk = Gamma^p_ik Gamma^m_jp, the sum over p ascending
    by_upper = [[] for _ in rng]
    for p, i, k, v in terms:
        by_upper[p].append((i, k, v))
    A = [0.0] * d ** 4
    for m, j, p, v in terms:
        for i, k, w in by_upper[p]:
            A[((m * d + i) * d + j) * d + k] += w * v
    g_rows = [[] for _ in rng]
    for m, l, a in _entries(chart._flat_g(x), d, 2):
        g_rows[m].append((l, a))
    # R^m_ijk = d_j Gamma^m_ik - d_i Gamma^m_jk
    #           + Gamma^p_ik Gamma^m_jp - Gamma^p_jk Gamma^m_ip,
    # lowered as R_ijkl = R^m_ijk g_ml
    R = [0.0] * d ** 4
    for m in rng:
        if not g_rows[m]:
            continue
        for i in rng:
            dgi, mi = dgamma[i], (m * d + i) * d
            for j in rng:
                dgj, mj = dgamma[j], (m * d + j) * d
                mij, mji = (mi + j) * d, (mj + i) * d
                up = [dgj[mi + k] - dgi[mj + k] + (A[mij + k] - A[mji + k]) for k in rng]
                base = (i * d + j) * d * d
                for l, a in g_rows[m]:
                    for k, u in enumerate(up):
                        R[base + k * d + l] += u * a
    return tuple(R)


def _inner(g: tuple, u, v) -> float:
    """u @ g @ v for a flat g, skipping the zero components of u."""
    d = len(u)
    w = [0.0] * d
    for i, ui in enumerate(u):
        if ui:
            for j, gij in enumerate(g[i * d:(i + 1) * d]):
                w[j] += ui * gij
    return sum([a * b for a, b in zip(w, v)])


def orthonormal_frame(chart: CoordinateChart, x) -> tuple:
    """E[i][a] = i-th coordinate component of the a-th Gram-Schmidt frame
    vector."""
    g = chart._flat_g(x)
    d = chart.dim
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


def _ricci_coord(memo: "_ChristoffelMemo", x: tuple) -> tuple:
    """Ricci with coordinate (lower) indices, flat, for covariant
    differentiation."""
    R = _riemann_flat(memo, x, memo.h, memo.gamma)
    d = memo.dim
    ginv = memo._ginv_entries(x)
    # Ric_ij = g^{kl} R_{i k j l}
    out = []
    for i in range(d):
        for j in range(d):
            s = 0.0
            for k, l, a in ginv:
                s += a * R[((i * d + k) * d + j) * d + l]
            out.append(s)
    return tuple(out)


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
    dimension.  It offers the chart's `dim` and `_flat_g`, and
    `_ginv_entries`, so the geometry takes it where it takes a chart.

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
        return _entries(_flat(_inverse(_nest(self._flat_g(x), d, 2), x)), d, 2)

    @_per_point
    def gamma(self, x):
        """(m, k, i, Gamma^m_ki) for the nonzero Christoffels."""
        return _christoffel_terms(self, x, self.h)


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

#: the names of `harnacklab.commutators` that this module gives too; the
#: `oracle` command calls them here, so a wrapper set on one of them here
#: (the benchmark's tracer sets one on `check_lemma31`) sees every call
_COMMUTATOR_NAMES = frozenset(
    {"Jet", "TestFunction", "default_test_function", "check_lemma31", "hessian_scalar",
     "MAX_CHART_DIM", "euclidean_chart", "round_sphere", "s2xr2", "cone_chart",
     "chart_by_name", "default_probe_point", "christoffels", "riemann_coord", "riemann",
     "ricci"})


def __getattr__(name: str):
    """One of the commutator oracle's names: its module is imported on the
    first use of one, and the name is kept here from then on."""
    if name not in _COMMUTATOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import commutators

    value = globals()[name] = getattr(commutators, name)
    return value
