"""Custom warping profiles: a sampled (r, f) table and its cubic spline.

`read_table` reads the table of a ``custom:<path>`` model id from a CSV
file, and `not_a_knot_rows` gives the spline pieces through it.  Only a
custom profile loads this module (and with it `csv`): a preset model
never reads or splines a table.
"""

from __future__ import annotations

import csv
import math

from . import ModelError

__all__ = ["read_table", "not_a_knot_rows"]


def read_table(path: str):
    """(r, f) of a CSV table whose header names the columns r and f (others
    are ignored, as are blank lines); a cell that is missing or not a
    finite number is refused with its line and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if any(map(str.strip, row))]
    if not rows:
        raise ModelError(f"custom table {path} is empty")
    names = [name.strip() for name in rows[0][1]]
    columns = {}
    for name in ("r", "f"):
        if name not in names:
            raise ModelError(f"custom table {path}: its header names no column {name!r}")
        columns[name] = names.index(name)
    table = {"r": [], "f": []}
    for line, row in rows[1:]:
        for name, j in columns.items():
            cell = row[j].strip() if j < len(row) else ""
            try:
                x = float(cell)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise ModelError(f"custom table {path}: line {line}, column {name}: "
                                 f"{cell!r} is not a finite number")
            table[name].append(x)
    return table["r"], table["f"]


def not_a_knot_rows(x, y):
    """Ascending coefficients, in t = r - x[i], of the cubic spline through
    (x, y) on each [x[i], x[i+1]], for >= 4 strictly increasing x, with a
    third derivative continuous at x[1] and x[-2] (not-a-knot ends).

    The knot slopes s solve a tridiagonal system; row i is
    (y_i, s_i, (m_i - s_i)/dx_i - u_i, u_i/dx_i) with m_i the secant slope
    and u_i = (s_i + s_{i+1} - 2 m_i)/dx_i.
    """
    dx = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / h for a, b, h in zip(y, y[1:], dx)]
    # the tridiagonal system for the slopes s: sub, diag, super, rhs
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = dx[1:] + [d1]
    diag = [dx[1]] + [2.0 * (a + b) for a, b in zip(dx, dx[1:])] + [dx[-2]]
    sup = [d0] + dx[:-1]
    rhs = ([((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0]
           + [3.0 * (h1 * m0 + h0 * m1) for h0, h1, m0, m1 in zip(dx, dx[1:], m, m[1:])]
           + [(dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1])
    s = _solve_tridiagonal(sub, diag, sup, rhs)
    rows = []
    for yi, s0, s1, mi, h in zip(y, s, s[1:], m, dx):
        u = (s0 + s1 - 2.0 * mi) / h
        rows.append((yi, s0, (mi - s0) / h - u, u / h))
    return rows


def _solve_tridiagonal(sub, diag, sup, rhs):
    """x with diag[i] x[i] + sup[i] x[i+1] + sub[i-1] x[i-1] = rhs[i]:
    elimination without pivoting, stable on the spline system (every
    pivot after the first exceeds its row's off-diagonal entry)."""
    n = len(diag)
    d, b = diag[:], rhs[:]
    for i in range(1, n):
        w = sub[i - 1] / d[i - 1]
        d[i] -= w * sup[i - 1]
        b[i] -= w * b[i - 1]
    x = [0.0] * n
    x[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (b[i] - sup[i] * x[i + 1]) / d[i]
    return x
