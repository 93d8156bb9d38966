"""Sampled warping profiles written from a formula, for the custom-table tests."""

import numpy as np


def concave_table(size=400, c=0.2):
    """(r, f) on r in [1e-3, 1e3], geometric, of a concave profile: f = r
    below 1/2, f' = 1 + (c - 1) w(2r - 1) on [1/2, 1] with w the quintic
    smoothstep, and affine with slope c after 1."""
    r = np.geomspace(1e-3, 1e3, size)
    t = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    # int_0^t w = t^4 (5/2 - 3t + t^2), and dr = dt / 2
    blend = 0.5 + 0.5 * (t + (c - 1.0) * t**4 * (2.5 - 3.0 * t + t**2))
    f = np.where(r < 0.5, r, blend + c * np.maximum(r - 1.0, 0.0))
    return r, f


def line_table(size=400, slope=1.0):
    """(r, slope * r) on r in [1e-3, 1e3], geometric: flat space at slope 1,
    the cone of aperture `slope` otherwise."""
    r = np.geomspace(1e-3, 1e3, size)
    return r, slope * r


def cylinder_table(size=400):
    """(r, 1) on r in [1e-3, 1e3], geometric: the cylinder R x S^{n-1}."""
    r = np.geomspace(1e-3, 1e3, size)
    return r, np.ones_like(r)


def bump_table(size=4000):
    """(r, f) on r in [1e-3, 1e3], geometric, of f = r + 0.3 * 14 W((r - 34)/14)
    with W(t) = int_0^t 64 s^3 (1 - s)^3 ds on [0, 1], constant outside: flat
    but for a bump of f' up to 1.3 on [34, 48]."""
    r = np.geomspace(1e-3, 1e3, size)
    t = np.clip((r - 34.0) / 14.0, 0.0, 1.0)
    w = 64.0 * t**4 * (1.0 / 4.0 - 3.0 * t / 5.0 + t**2 / 2.0 - t**3 / 7.0)
    return r, r + 0.3 * 14.0 * w


def late_bump_table(size=2000):
    """(r, f) on r in [1e-3, 1e3], geometric, of f = r + 100 sin^4(pi t),
    t = (r - 300)/200 clipped to [0, 1]: flat below 300 and above 500, so f
    meets the line f(top)/top r again well below the top."""
    r = np.geomspace(1e-3, 1e3, size)
    t = np.clip((r - 300.0) / 200.0, 0.0, 1.0)
    return r, r + 100.0 * np.sin(np.pi * t) ** 4


def write_csv(path, table):
    """The table as a custom-profile CSV (header r,f) at path."""
    r, f = table
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(r.tolist(), f.tolist()))
    path.write_text("r,f\n" + rows)
    return path
