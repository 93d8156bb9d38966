"""Finite-difference geometry of a coordinate chart, in plain Python floats.

Everything here is differenced from metric components alone, so it is
independent of the closed-form curvature and of the symbolic engine, and
can arbitrate both.  The curvature sign convention is

    R(X,Y,Z,W) = g(grad_Y grad_X Z - grad_X grad_Y Z + grad_{[X,Y]} Z, W),

pinned by the round sphere having sectional curvature +1.

This module holds the differencing: the flat-tensor helpers, the central
differences, the Christoffels, the covariant derivative, the curvature
and the coordinate Ricci tensor.  Each geometry function reads the chart
through a per-point memo, `harnacklab.fdcheck._ChristoffelMemo`, which
gives the chart's ``dim``, the step ``h``, the metric (``_flat_g``), the
inverse metric's entries (``_ginv_entries``) and the Christoffels
(``gamma``).  The charts, the memo, the frame and the checks live in
`harnacklab.fdcheck`, which a euclidean verdict imports after the
verdict engines.  The oracle is split between the two modules so that
each stays at most 2048 parser tokens, and that late compile does not
raise a numeric command's peak memory.

A tensor is one row-major tuple of floats.  The contractions skip the
zero entries of the metric, its inverse, the Christoffels and the
curvature, which keeps the diagonal charts cheap and leaves a generic
metric exact.  A NaN entry is never skipped, so it reaches the residuals.
"""

from __future__ import annotations

import itertools


class ChartError(ValueError):
    pass


# -- tensors: flat row-major tuples -------------------------------------------


def _point(x) -> tuple:
    return tuple(map(float, x))


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
            out.append(tuple([(p - m) / two_h for p, m in zip(plus, minus)]))
        else:
            out.append((plus - minus) / two_h)
    return tuple(out)


def _christoffel_terms(memo: "_ChristoffelMemo", x: tuple) -> tuple:
    """(k, i, j, Gamma^k_ij) for the nonzero Christoffels, in row-major
    order, with O(h^2) error in the memo's step h, from the metric
    memoized by `memo`."""
    h, d = memo.h, memo.dim
    if h <= 0:
        raise ChartError("step h must be positive")
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


def _riemann_flat(memo: "_ChristoffelMemo", x: tuple) -> tuple:
    """R_ijkl, flat, in the pinned sign convention, from the metric and the
    Christoffels memoized by `memo`."""
    d, gamma = memo.dim, memo.gamma
    rng = range(d)
    dgamma = _central(lambda y: _gamma_flat(gamma(y), d), x, memo.h)  # d_l Gamma
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
    for m, l, a in _entries(memo._flat_g(x), d, 2):
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


def _ricci_coord(memo: "_ChristoffelMemo", x: tuple) -> tuple:
    """Ricci with coordinate (lower) indices, flat, for covariant
    differentiation."""
    R = _riemann_flat(memo, x)
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
