"""Child interpreters started by the tests import the harnacklab under test.

``pythonpath = ["src"]`` in pyproject.toml puts the source tree on the
path of the test process only; the CLI tests that run ``python -m
harnacklab.cli`` in a subprocess get the same directory through
PYTHONPATH, so a clean checkout needs neither an install nor a variable.
"""

import os
from pathlib import Path

import harnacklab

_ROOT = str(Path(harnacklab.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_ROOT, os.environ.get("PYTHONPATH")) if p)
