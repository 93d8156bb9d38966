"""Failure accounting and reference answers for one CLI command.

A command *failed* when it timed out, printed a traceback, exited with a
code outside {0, 1, 3}, printed a report that is not JSON, or exited
with a code that disagrees with the verdict in its own report.

A report is *wrong* when it disagrees with a reference answer.  Only
closed forms and the acceptance gate's own checks serve as references,
with the tolerances of ``tests/test_acceptance.py``:

* ``min-c`` on euclidean is 2 (test_01);
* ``min-c`` on ``cone:<c>`` is 2 c^(2(n-1)/(n-2)) (test_03);
* ``verify`` on euclidean with C >= 10 is a clean "pass";
* ``corollary`` on euclidean at C = 2 is an equality, |worst_slack| small
  (test_07);
* ``symbolic`` reports every identity ok, with the zero count the
  catalogue expects (test_04);
* ``oracle`` passes its own residual gate (test_05).

Every other report is only checked for being a well-formed verdict.
"""

from __future__ import annotations

import json
from typing import Optional

#: tolerances copied unchanged from tests/test_acceptance.py
MIN_C_ABS_TOL = 1e-6          # test_01, test_03
COROLLARY_SLACK_TOL = 1e-6    # test_07

ALLOWED_EXIT = (0, 1, 3)
VERDICT_EXIT = {"pass": 0, "fail": 1, "exploratory": 3}


def options(argv) -> dict:
    """``--flag value`` pairs of an argv (flags without a value map to '')."""
    out = {}
    for k, a in enumerate(argv):
        if a.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else ""
            out[a[2:]] = "" if nxt.startswith("--") else nxt
    return out


def failure(rc: Optional[int], stdout: str, stderr: str) -> Optional[str]:
    """Why a finished command counts as failed, or None.  rc None = timeout."""
    if rc is None:
        return "timeout"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if rc not in ALLOWED_EXIT:
        return f"exit code {rc}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "unparseable JSON"
    expected = VERDICT_EXIT.get(report.get("verdict") if isinstance(report, dict) else None)
    if expected != rc:
        return f"exit code {rc} disagrees with the report's verdict"
    return None


def wrong(argv, report: dict, catalogue: dict) -> Optional[str]:
    """Why a well-formed report disagrees with its reference, or None.

    ``catalogue`` maps each identity name to whether it should reduce to 0.
    """
    cmd, opt = argv[0], options(argv)
    model = opt.get("model", "euclidean")
    n = int(opt.get("n", "4"))
    if report.get("command") != cmd:
        return f"report is for command {report.get('command')!r}"
    if cmd == "min-c" and (model == "euclidean" or model.startswith("cone:")):
        c = 1.0 if model == "euclidean" else float(model.split(":")[1])
        expect = 2.0 * c ** (2.0 * (n - 1) / (n - 2))
        got = report["minimal_C"]
        if not abs(got - expect) <= MIN_C_ABS_TOL:
            return f"minimal_C {got!r}, closed form {expect!r}"
    if cmd == "verify" and model == "euclidean" and float(opt.get("C", "10")) >= 10:
        if report["verdict"] != "pass":
            return f"verdict {report['verdict']!r}, expected 'pass'"
    if cmd == "corollary" and model == "euclidean" and float(opt["C"]) == 2.0:
        slack = report["worst_slack"]
        if not abs(slack) <= COROLLARY_SLACK_TOL:
            return f"worst_slack {slack!r} at the equality case C = 2"
    if cmd == "symbolic":
        rows = report["identities"]
        names = [opt["name"]] if "name" in opt else list(catalogue)
        if [r["name"] for r in rows] != names:
            return "identity list differs from the catalogue"
        bad = [r["name"] for r in rows
               if not r["ok"] or r["zero"] != catalogue[r["name"]]]
        if bad:
            return f"identities not ok: {bad}"
        expect = sum(catalogue[name] for name in names)
        if report["zero_count"] != expect:
            return f"zero_count {report['zero_count']}, catalogue expects {expect}"
    if cmd == "oracle" and report["verdict"] != "pass":
        return f"oracle residual {report['worst_residual']!r} above its gate"
    return None


class Ledger:
    """Judges commands in order; a repeated argv must print the same bytes.

    ``catalogue`` maps each identity name to whether it should reduce to 0.
    """

    def __init__(self, catalogue: dict):
        self.catalogue = catalogue
        self.first = {}

    def judge(self, argv, rc, stdout: str, stderr: str):
        """(failure reason or None, wrong-result reason or None)."""
        why = failure(rc, stdout, stderr)
        if why is not None:
            return why, None
        try:
            bad = wrong(argv, json.loads(stdout), self.catalogue)
        except (KeyError, TypeError, ValueError) as exc:
            bad = f"report lacks a field the reference needs: {exc!r}"
        first = self.first.setdefault(tuple(argv), stdout)
        if bad is None and stdout != first:
            bad = "repeated argv printed different bytes"
        return None, bad
