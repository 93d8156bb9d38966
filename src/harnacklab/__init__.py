"""Numerical and symbolic verification lab for the Green-function matrix
Harnack inequality on rotationally symmetric model manifolds.

The package root holds the names the command line needs before it loads
an engine, so that importing ``harnacklab.cli`` loads neither numpy nor
any numeric module.
"""

__version__ = "0.1.0"

#: default tolerance on inequality margins (one decade above quadrature error)
INEQ_TOL = 1e-8


class ModelError(ValueError):
    """Invalid model parameters or evaluation outside the admissible range."""
