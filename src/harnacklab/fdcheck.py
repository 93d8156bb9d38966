"""Finite-difference coordinate-chart oracle.

Everything geometric here is differenced from metric components alone,
so it is independent of the closed-form curvature and of the symbolic
engine, and can arbitrate both.  The curvature sign convention is

    R(X,Y,Z,W) = g(grad_Y grad_X Z - grad_X grad_Y Z + grad_{[X,Y]} Z, W),

pinned by the round sphere having sectional curvature +1.

Test functions carry exact first and second partials, propagated in
order-2 Taylor jets (``Jet``) over floats, so the only finite differencing
is in the covariant corrections; residuals of the commutator identities
then scale as O(h^2).  Nothing here uses the symbolic engine's library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CoordinateChart",
    "Jet",
    "TestFunction",
    "euclidean_chart",
    "round_sphere",
    "s2xr2",
    "cone_chart",
    "warped_chart",
    "chart_by_name",
    "warped_probe_point",
    "default_probe_point",
    "christoffels",
    "riemann",
    "ricci",
    "orthonormal_frame",
    "check_lemma31",
    "check_parallel_ricci",
    "hessian_scalar",
]

DEFAULT_H = 1e-3


class ChartError(ValueError):
    pass


@dataclass
class CoordinateChart:
    """A metric given by its component matrix as a function of the point."""

    name: str
    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    parallel_ricci_expected: bool = False
    _cache: dict = field(default_factory=dict, repr=False)

    def g(self, x) -> np.ndarray:
        key = tuple(np.asarray(x, float))
        out = self._cache.get(key)
        if out is None:
            out = np.asarray(self.metric(np.asarray(x, float)), dtype=float)
            if out.shape != (self.dim, self.dim):
                raise ChartError("metric callable returned a wrong shape")
            self._cache[key] = out
        return out

    def ginv(self, x) -> np.ndarray:
        g = self.g(x)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError as exc:
            raise ChartError(f"metric singular at {x}") from exc


# -- presets ----------------------------------------------------------------


def euclidean_chart(n: int) -> CoordinateChart:
    if int(n) != n or n < 2:
        raise ChartError("euclidean chart needs an integer n >= 2")
    eye = np.eye(int(n))
    return CoordinateChart("euclidean", int(n), lambda x: eye,
                           parallel_ricci_expected=True)


def round_sphere(radius: float = 1.0) -> CoordinateChart:
    R2 = radius * radius

    def metric(x):
        theta = x[0]
        return np.diag([R2, R2 * math.sin(theta) ** 2])

    return CoordinateChart("round_sphere", 2, metric,
                           parallel_ricci_expected=True)


def s2xr2() -> CoordinateChart:
    """Unit round 2-sphere times a flat plane; symmetric, parallel Ricci."""

    def metric(x):
        theta = x[0]
        return np.diag([1.0, math.sin(theta) ** 2, 1.0, 1.0])

    return CoordinateChart("s2xr2", 4, metric, parallel_ricci_expected=True)


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
        return np.diag(diag)

    return CoordinateChart(name, n, metric)


def warped_chart(model) -> CoordinateChart:
    """Warped chart of a model manifold; reads only its .n, .profile.f and
    .describe()."""
    return _warped(f"warped[{model.describe()}]", model.n, model.profile.f)


def cone_chart(c: float, n: int) -> CoordinateChart:
    """Warped chart of the cone f = c r, 0 < c <= 1, n >= 3."""
    if not (0.0 < c <= 1.0) or int(n) != n or n < 3:
        raise ChartError("cone chart needs 0 < c <= 1 and an integer n >= 3")
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


def default_probe_point(chart: CoordinateChart) -> np.ndarray:
    """A probe away from coordinate degeneracies of each preset."""
    if chart.name == "euclidean":
        return 0.1 + 0.2 * np.arange(chart.dim)
    if chart.name == "round_sphere":
        return np.array([1.1, 0.7])
    if chart.name == "s2xr2":
        return np.array([1.1, 0.7, 0.3, -0.4])
    # warped charts: r = 1, angles in the safe band
    return warped_probe_point(chart.dim, 1.0)


def warped_probe_point(n: int, r: float) -> np.ndarray:
    point = np.empty(n)
    point[0] = r
    point[1:] = np.linspace(1.0, 1.6, n - 1)
    return point


# -- finite-difference geometry ----------------------------------------------


def _central(F, x: np.ndarray, h: float) -> np.ndarray:
    """out[k] = (F(x + h e_k) - F(x - h e_k)) / 2h over the axes k.

    Refuses an h that leaves a coordinate of x where it is: every
    difference would then be 0 and check nothing.
    """
    if any(v + h == v or v - h == v for v in x.tolist()):
        raise ChartError(f"the finite-difference step h={h!r} does not move the "
                         f"point {x.tolist()}: x + h or x - h rounds back to x")
    d = len(x)
    out = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        out.append((F(x + e) - F(x - e)) / (2 * h))
    return np.array(out)


def christoffels(chart: CoordinateChart, x, h: float = DEFAULT_H) -> np.ndarray:
    """Gamma[k, i, j] = Gamma^k_ij with O(h^2) error."""
    if h <= 0:
        raise ChartError("step h must be positive")
    ginv = chart.ginv(x)
    dg = _central(chart.g, np.asarray(x, float), h)  # dg[k, i, j] = d_k g_ij
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    d = chart.dim
    gamma = np.empty((d, d, d))
    for i in range(d):
        for j in range(d):
            v = dg[i, j, :] + dg[j, i, :] - dg[:, i, j]
            gamma[:, i, j] = 0.5 * ginv @ v
    return gamma


def riemann_coord(chart: CoordinateChart, x, h: float = DEFAULT_H,
                  gamma=None) -> np.ndarray:
    """R[i, j, k, l] with all indices down, in the pinned sign convention;
    gamma(point), if given, stands in for christoffels(chart, point, h)."""
    x = np.asarray(x, float)
    if gamma is None:
        gamma = functools.partial(christoffels, chart, h=h)
    dgamma = _central(gamma, x, h)  # dGamma[l, k, i, j] = d_l Gamma^k_ij
    gamma0 = gamma(x)
    # R^m_{ijk} = d_j Gamma^m_ik - d_i Gamma^m_jk
    #             + Gamma^p_ik Gamma^m_jp - Gamma^p_jk Gamma^m_ip
    prod = np.einsum("pik,mjp->mijk", gamma0, gamma0) - np.einsum(
        "pjk,mip->mijk", gamma0, gamma0
    )
    up = (
        np.einsum("jmik->mijk", dgamma)
        - np.einsum("imjk->mijk", dgamma)
        + prod
    )
    g = chart.g(x)
    return np.einsum("mijk,ml->ijkl", up, g)


def orthonormal_frame(chart: CoordinateChart, x) -> np.ndarray:
    """E[:, a] = coordinate components of the a-th Gram-Schmidt frame vector."""
    g = chart.g(x)
    d = chart.dim
    E = np.eye(d)
    for a in range(d):
        v = E[:, a]
        for b in range(a):
            v = v - (E[:, b] @ g @ v) * E[:, b]
        norm = math.sqrt(v @ g @ v)
        if norm <= 0:
            raise ChartError("metric not positive-definite at probe point")
        E[:, a] = v / norm
    return E


def _to_frame(T: np.ndarray, E: np.ndarray) -> np.ndarray:
    for axis in range(T.ndim):
        T = np.tensordot(T, E, axes=([0], [0]))
    return T


def riemann(chart: CoordinateChart, x, h: float = DEFAULT_H, gamma=None) -> np.ndarray:
    """Curvature components in an orthonormal frame (gamma as in riemann_coord)."""
    return _to_frame(riemann_coord(chart, x, h, gamma), orthonormal_frame(chart, x))


def ricci(chart: CoordinateChart, x, h: float = DEFAULT_H) -> np.ndarray:
    """Ric_ab = sum_c R(e_a, e_c, e_b, e_c) in an orthonormal frame."""
    R = riemann(chart, x, h)
    return np.einsum("acbc->ab", R)


def _ricci_coord(chart: CoordinateChart, x, h: float, gamma=None) -> np.ndarray:
    """Ricci with coordinate (lower) indices, for covariant differentiation
    (gamma as in riemann_coord)."""
    Rc = riemann_coord(chart, x, h, gamma)
    ginv = chart.ginv(x)
    # Ric_ij = g^{kl} R_{i k j l}
    return np.einsum("kl,ikjl->ij", ginv, Rc)


def check_parallel_ricci(chart: CoordinateChart, x, h: float = DEFAULT_H) -> float:
    """Frobenius norm of grad Ric in an orthonormal frame.

    The stencils of the Ricci tensors at x +- h e_k overlap, so the
    Christoffels are memoized per point, as in _CovariantStack.
    """
    x = np.asarray(x, float)
    gamma_at = _CovariantStack(chart, None, h).gamma
    gamma = gamma_at(x)
    ric0 = _ricci_coord(chart, x, h, gamma_at)
    dric = _central(lambda y: _ricci_coord(chart, y, h, gamma_at), x, h)
    # (grad Ric)_{ijk} = d_k Ric_ij - Gamma^m_ki Ric_mj - Gamma^m_kj Ric_im
    cov = (
        np.einsum("kij->ijk", dric)
        - np.einsum("mki,mj->ijk", gamma, ric0)
        - np.einsum("mkj,im->ijk", gamma, ric0)
    )
    covf = _to_frame(cov, orthonormal_frame(chart, x))
    return float(np.sqrt(np.sum(covf * covf)))


# -- test functions -----------------------------------------------------------


class Jet:
    """Order-2 Taylor jet of a scalar at a point: value v, gradient g and
    Hessian h in the chart coordinates.

    Sums, products and exp/sin/cos propagate exactly by the product and
    chain rules, so a test function built from them carries exact first
    and second partials.  Jets are never modified in place.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray):
        self.v, self.g, self.h = v, g, h

    @staticmethod
    def coordinate(x, i: int) -> "Jet":
        """The jet of the i-th coordinate function at the point x."""
        d = len(x)
        g = np.zeros(d)
        g[i] = 1.0
        return Jet(float(x[i]), g, np.zeros((d, d)))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.g + other.g, self.h + other.h)
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            gg = np.outer(self.g, other.g)
            return Jet(self.v * other.v,
                       self.v * other.g + other.v * self.g,
                       self.v * other.h + other.v * self.h + gg + gg.T)
        return Jet(self.v * other, self.g * other, self.h * other)

    __rmul__ = __mul__

    def _chain(self, f0: float, f1: float, f2: float) -> "Jet":
        """phi(self), given phi, phi' and phi'' at self.v."""
        return Jet(f0, f1 * self.g, f1 * self.h + f2 * np.outer(self.g, self.g))

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
    function's jet there; each point's jet is computed once.
    """

    def __init__(self, func: Callable[[list], Jet], dim: int):
        self.func = func
        self.dim = dim
        self._jets = {}

    def jet(self, x) -> Jet:
        key = tuple(np.asarray(x, float))
        out = self._jets.get(key)
        if out is None:
            out = self.func([Jet.coordinate(key, i) for i in range(self.dim)])
            # shared by every caller at this point
            out.g.setflags(write=False)
            out.h.setflags(write=False)
            self._jets[key] = out
        return out

    def d1(self, x) -> np.ndarray:
        return self.jet(x).g

    def d2(self, x) -> np.ndarray:
        return self.jet(x).h


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


def _per_point(method):
    """Memoize a stack method per point, keyed on the coordinates' bytes:
    the nested differences visit each point many times.  The arrays are
    shared by every caller, so they are read-only."""

    @functools.wraps(method)
    def cached(self, x):
        key = (method.__name__, x.tobytes())
        out = self._memo.get(key)
        if out is None:
            out = method(self, x)
            out.setflags(write=False)
            self._memo[key] = out
        return out

    return cached


class _CovariantStack:
    """Nested covariant derivatives of f on a chart, all FD with step h;
    points are float arrays of the chart's dimension.  With f = None only
    the memoized Christoffels are of use."""

    def __init__(self, chart: CoordinateChart, f, h: float):
        self.chart = chart
        self.f = f
        self.h = h
        self.d = chart.dim
        self._memo = {}

    @_per_point
    def gamma(self, x):
        return christoffels(self.chart, x, self.h)

    @_per_point
    def hess(self, x):
        """(grad^2 f)_{ij} in coordinates."""
        return self.f.d2(x) - np.einsum("mij,m->ij", self.gamma(x), self.f.d1(x))

    @_per_point
    def third(self, x):
        """(grad^3 f)_{ijk} = grad_k (grad^2 f)_{ij} in coordinates."""
        dT2 = _central(self.hess, x, self.h)
        gamma = self.gamma(x)
        T2 = self.hess(x)
        return (
            np.einsum("kij->ijk", dT2)
            - np.einsum("mki,mj->ijk", gamma, T2)
            - np.einsum("mkj,im->ijk", gamma, T2)
        )

    def fourth(self, x):
        """(grad^4 f)_{ijkl} in coordinates."""
        dT3 = _central(self.third, x, self.h)
        gamma = self.gamma(x)
        T3 = self.third(x)
        out = np.einsum("lijk->ijkl", dT3)
        out -= np.einsum("mli,mjk->ijkl", gamma, T3)
        out -= np.einsum("mlj,imk->ijkl", gamma, T3)
        out -= np.einsum("mlk,ijm->ijkl", gamma, T3)
        return out

    def laplacian(self, x) -> float:
        return float(np.einsum("ij,ij->", self.chart.ginv(x), self.hess(x)))

    def hess_scalar(self, func, x):
        """Covariant Hessian of a numerically-defined scalar field."""
        d, h = self.d, self.h
        f0 = func(x)
        hess = np.empty((d, d))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            hess[i, i] = (func(x + ei) - 2 * f0 + func(x - ei)) / (h * h)
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                hess[i, j] = hess[j, i] = (
                    func(x + ei + ej)
                    - func(x + ei - ej)
                    - func(x - ei + ej)
                    + func(x - ei - ej)
                ) / (4 * h * h)
        grad = _central(func, x, h)
        return hess - np.einsum("mij,m->ij", self.gamma(x), grad)


def check_lemma31(chart: CoordinateChart, f: TestFunction, x,
                  h: float = DEFAULT_H) -> np.ndarray:
    """Residuals (max abs component) of the five commutator identities."""
    x = np.asarray(x, float)
    stack = _CovariantStack(chart, f, h)
    E = orthonormal_frame(chart, x)
    R = riemann(chart, x, h, stack.gamma)
    ric = np.einsum("acbc->ab", R)

    f1 = _to_frame(f.d1(x), E)
    T2 = _to_frame(stack.hess(x), E)
    T3 = _to_frame(stack.third(x), E)
    T4 = _to_frame(stack.fourth(x), E)

    # 1. symmetry of the Hessian
    r1 = np.max(np.abs(T2 - T2.T))

    # 2. f_ijk - f_ikj = R_{jkli} f_l
    rhs2 = np.einsum("jkli,l->ijk", R, f1)
    r2 = np.max(np.abs(T3 - T3.transpose(0, 2, 1) - rhs2))

    # 3. Delta f_i - (Delta f)_i = R_ik f_k
    lap_i = np.einsum("ikk->i", T3)
    dlap = _to_frame(_central(stack.laplacian, x, h), E)
    r3 = np.max(np.abs(lap_i - dlap - ric @ f1))

    # 4. f_ijkl - f_ijlk = R_{klmj} f_im + R_{klmi} f_jm
    rhs4 = np.einsum("klmj,im->ijkl", R, T2) + np.einsum("klmi,jm->ijkl", R, T2)
    r4 = np.max(np.abs(T4 - T4.transpose(0, 1, 3, 2) - rhs4))

    # 5. Delta f_ij - (Delta f)_ij = R_jk f_ik + R_ik f_jk - 2 R_ikjl f_kl
    lap_ij = np.einsum("ijkk->ij", T4)
    hess_lap = _to_frame(stack.hess_scalar(stack.laplacian, x), E)
    rhs5 = (
        np.einsum("jk,ik->ij", ric, T2)
        + np.einsum("ik,jk->ij", ric, T2)
        - 2.0 * np.einsum("ikjl,kl->ij", R, T2)
    )
    r5 = np.max(np.abs(lap_ij - hess_lap - rhs5))

    return np.array([r1, r2, r3, r4, r5])


def hessian_scalar(chart: CoordinateChart, func, x, h: float = DEFAULT_H):
    """Covariant Hessian (orthonormal frame) of a scalar given numerically."""
    x = np.asarray(x, float)
    stack = _CovariantStack(chart, None, h)
    hess = stack.hess_scalar(func, x)
    return _to_frame(hess, orthonormal_frame(chart, x))
