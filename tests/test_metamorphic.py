"""Metamorphic verdicts: the same answer under an exact symmetry of the problem.

Scaling a model by lam (f(r) -> lam f(r / lam), r0 -> lam r0) and its window
with it is an isometry up to the constant lam^2 on the metric: Hess b^2
relative to g, and so minimal_C, is the same, and so is the sign of every
curvature margin.  The grid is geometric, so the scaled grid is the grid
times lam, up to rounding.
"""

import pytest

from harnacklab.green import compute_profile, default_grid
from harnacklab.harnack import minimal_C
from harnacklab.models import hypothesis_report, model_from_id

#: the presets, each spelled with its r0 (the scale of the model) as {r0}
MODELS = ["euclidean", "cone:0.5", "smoothed-cone:0.8:{r0}", "smoothed-cone:0.5:{r0}"]
SCALES = [1e-3, 0.1, 10.0, 1e3]


def answers(model_id, n, lam):
    """(minimal_C, hypothesis flags) of the model scaled by lam, r0 = lam,
    on the commands' default window [1e-2, 1e2] times lam."""
    model = model_from_id(model_id.format(r0=repr(lam)), n)
    r_min, r_max = 1e-2 * lam, 1e2 * lam
    profile = compute_profile(model, default_grid(r_min, r_max, 512))
    return minimal_C(profile), hypothesis_report(model, r_min, r_max).flags()


@pytest.mark.parametrize("lam", SCALES)
@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("model_id", MODELS)
def test_scaling_the_model_and_its_window_keeps_every_answer(model_id, n, lam):
    C, flags = answers(model_id, n, 1.0)
    C_lam, flags_lam = answers(model_id, n, lam)
    assert C_lam == pytest.approx(C, rel=1e-13, abs=0.0)
    assert flags_lam == flags
