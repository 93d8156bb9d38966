"""The finite-difference chart oracle in numpy einsum form, a test-only
reference for ``harnacklab.fdgeom``, ``harnacklab.fdcheck`` and
``harnacklab.commutators``.

The same central differences, Christoffels, curvature, Gram-Schmidt frame
and covariant stack, on dense arrays: every contraction is an einsum over
all entries, zero or not, so it checks the sparse plain-float contractions
of the package on metrics of any shape.  It reads a chart only through
its metric callable ``chart.metric`` and a test function, a function of
the coordinate jets (``commutators.Jet``), only through the partials of
the jet it gives (`jet_of`).
"""

import functools
import math

import numpy as np

from harnacklab.commutators import Jet


def _g(chart, x):
    return np.asarray(chart.metric(tuple(map(float, x))), float)


def jet_of(f, x):
    """The jet at x of the test function f of the coordinate jets."""
    x = tuple(map(float, x))
    return f([Jet.coordinate(x, i) for i in range(len(x))])


def _partials(f, x):
    """(gradient, Hessian) of the test function f at x, from its jet."""
    jet = jet_of(f, x)
    return np.asarray(jet.g), np.reshape(jet.h, (len(jet.g),) * 2)


def _ginv(chart, x):
    return np.linalg.inv(_g(chart, x))


def central(F, x, h):
    """out[k] = (F(x + h e_k) - F(x - h e_k)) / 2h over the axes k."""
    out = []
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        out.append((F(x + e) - F(x - e)) / (2 * h))
    return np.array(out)


def christoffels(chart, x, h):
    """Gamma[k, i, j] = Gamma^k_ij."""
    x = np.asarray(x, float)
    ginv = _ginv(chart, x)
    dg = central(lambda y: _g(chart, y), x, h)  # dg[k, i, j] = d_k g_ij
    d = chart.dim
    gamma = np.empty((d, d, d))
    for i in range(d):
        for j in range(d):
            v = dg[i, j, :] + dg[j, i, :] - dg[:, i, j]
            gamma[:, i, j] = 0.5 * ginv @ v
    return gamma


def riemann_coord(chart, x, h, gamma=None):
    """R[i, j, k, l], all indices down."""
    x = np.asarray(x, float)
    if gamma is None:
        gamma = functools.partial(christoffels, chart, h=h)
    dgamma = central(gamma, x, h)  # dgamma[l, k, i, j] = d_l Gamma^k_ij
    gamma0 = gamma(x)
    prod = (np.einsum("pik,mjp->mijk", gamma0, gamma0)
            - np.einsum("pjk,mip->mijk", gamma0, gamma0))
    up = np.einsum("jmik->mijk", dgamma) - np.einsum("imjk->mijk", dgamma) + prod
    return np.einsum("mijk,ml->ijkl", up, _g(chart, x))


def orthonormal_frame(chart, x):
    """E[:, a] = coordinate components of the a-th Gram-Schmidt vector."""
    g = _g(chart, x)
    d = chart.dim
    E = np.eye(d)
    for a in range(d):
        v = E[:, a]
        for b in range(a):
            v = v - (E[:, b] @ g @ v) * E[:, b]
        E[:, a] = v / math.sqrt(v @ g @ v)
    return E


def to_frame(T, E):
    for _ in range(T.ndim):
        T = np.tensordot(T, E, axes=([0], [0]))
    return T


def riemann(chart, x, h, gamma=None):
    return to_frame(riemann_coord(chart, x, h, gamma), orthonormal_frame(chart, x))


def ricci(chart, x, h):
    return np.einsum("acbc->ab", riemann(chart, x, h))


def _ricci_coord(chart, x, h, gamma=None):
    return np.einsum("kl,ikjl->ij", _ginv(chart, x), riemann_coord(chart, x, h, gamma))


class _Stack:
    """Nested covariant derivatives of f, memoized per point."""

    def __init__(self, chart, f, h):
        self.chart, self.f, self.h = chart, f, h
        self._memo = {}

    def _cached(self, name, x, compute):
        key = (name, x.tobytes())
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def gamma(self, x):
        return self._cached("gamma", x, lambda: christoffels(self.chart, x, self.h))

    def hess(self, x):
        def compute():
            d1, d2 = _partials(self.f, x)
            return d2 - np.einsum("mij,m->ij", self.gamma(x), d1)
        return self._cached("hess", x, compute)

    def third(self, x):
        def compute():
            dT2, gamma, T2 = central(self.hess, x, self.h), self.gamma(x), self.hess(x)
            return (np.einsum("kij->ijk", dT2) - np.einsum("mki,mj->ijk", gamma, T2)
                    - np.einsum("mkj,im->ijk", gamma, T2))
        return self._cached("third", x, compute)

    def fourth(self, x):
        dT3, gamma, T3 = central(self.third, x, self.h), self.gamma(x), self.third(x)
        out = np.einsum("lijk->ijkl", dT3)
        out -= np.einsum("mli,mjk->ijkl", gamma, T3)
        out -= np.einsum("mlj,imk->ijkl", gamma, T3)
        out -= np.einsum("mlk,ijm->ijkl", gamma, T3)
        return out

    def laplacian(self, x):
        return float(np.einsum("ij,ij->", _ginv(self.chart, x), self.hess(x)))

    def hess_scalar(self, func, x):
        d, h = self.chart.dim, self.h
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
                    func(x + ei + ej) - func(x + ei - ej)
                    - func(x - ei + ej) + func(x - ei - ej)) / (4 * h * h)
        return hess - np.einsum("mij,m->ij", self.gamma(x), central(func, x, h))


def check_parallel_ricci(chart, x, h):
    x = np.asarray(x, float)
    stack = _Stack(chart, None, h)
    gamma = stack.gamma(x)
    ric0 = _ricci_coord(chart, x, h, stack.gamma)
    dric = central(lambda y: _ricci_coord(chart, y, h, stack.gamma), x, h)
    cov = (np.einsum("kij->ijk", dric) - np.einsum("mki,mj->ijk", gamma, ric0)
           - np.einsum("mkj,im->ijk", gamma, ric0))
    covf = to_frame(cov, orthonormal_frame(chart, x))
    return float(np.sqrt(np.sum(covf * covf)))


def check_lemma31(chart, f, x, h):
    """Residuals (max abs component) of the five commutator identities."""
    x = np.asarray(x, float)
    stack = _Stack(chart, f, h)
    E = orthonormal_frame(chart, x)
    R = riemann(chart, x, h, stack.gamma)
    ric = np.einsum("acbc->ab", R)
    f1 = to_frame(_partials(f, x)[0], E)
    T2 = to_frame(stack.hess(x), E)
    T3 = to_frame(stack.third(x), E)
    T4 = to_frame(stack.fourth(x), E)
    r1 = np.max(np.abs(T2 - T2.T))
    r2 = np.max(np.abs(T3 - T3.transpose(0, 2, 1) - np.einsum("jkli,l->ijk", R, f1)))
    dlap = to_frame(central(stack.laplacian, x, h), E)
    r3 = np.max(np.abs(np.einsum("ikk->i", T3) - dlap - ric @ f1))
    rhs4 = np.einsum("klmj,im->ijkl", R, T2) + np.einsum("klmi,jm->ijkl", R, T2)
    r4 = np.max(np.abs(T4 - T4.transpose(0, 1, 3, 2) - rhs4))
    hess_lap = to_frame(stack.hess_scalar(stack.laplacian, x), E)
    rhs5 = (np.einsum("jk,ik->ij", ric, T2) + np.einsum("ik,jk->ij", ric, T2)
            - 2.0 * np.einsum("ikjl,kl->ij", R, T2))
    r5 = np.max(np.abs(np.einsum("ijkk->ij", T4) - hess_lap - rhs5))
    return np.array([r1, r2, r3, r4, r5])
