"""Numerical and symbolic verification lab for the Green-function matrix
Harnack inequality on rotationally symmetric model manifolds.

The package root holds the names the command line needs before it loads
an engine, so that importing ``harnacklab.cli`` loads no numeric module.
"""

__version__ = "0.1.0"

#: default tolerance on inequality margins (one decade above quadrature error)
INEQ_TOL = 1e-8

#: least C of the theorem's range
THEOREM_C = 10

#: most radii a profile grid may hold: each costs about 10 us of plain-float
#: kernel, so a run stays bounded in grid size
MAX_GRID_SIZE = 65536


def is_exploratory(C: float, flags: dict) -> bool:
    """A verdict is hypothesis-faithful only when C is in the theorem's range
    and every hypothesis flag holds; otherwise it is exploratory."""
    return bool(C < THEOREM_C or not all(flags.values()))


class ModelError(ValueError):
    """Invalid model parameters or evaluation outside the admissible range."""
