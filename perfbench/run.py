"""harnacklab benchmark: time to verdict per CLI command, checked answers.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  The code under test is the checkout's
own ``src/`` (``PYTHONPATH=<checkout>/src``); nothing is installed, and the
only ``--output-dir`` passed is a scratch directory inside the checkout
that is removed at exit.

``--trace 0`` (end to end): one client in a closed loop runs the
workload's cycle of CLI commands as subprocesses, whole cycles at a time,
until ``--seconds`` have passed, and times each command, interpreter
start and import included.  ``--trace 1`` (per layer): ``tracer.py`` runs
one cycle in-process with every layer's public functions wrapped in
spans, and once more untraced, for the tracing overhead; it also runs the
workload's known-defect probes and lists what they show.

The last line of stdout is the result JSON; the line before it holds the
details (pinned code, per-command walls, tail share and sample count,
failing argv, wrong results, probe outcomes, integration-warning counts).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: a command slower than this counts as failed; failed commands are
#: charged this much in every latency figure
CMD_TIMEOUT_S = 30.0
#: no command starts after this much of the run has passed (runs must end
#: within 180 s)
DEADLINE_S = 150.0

_QUAD_WARNING = re.compile(r"^(.*?):\d+: IntegrationWarning:", re.M)

# Prints where the package was imported from and the identity catalogue,
# the reference for ``symbolic`` reports.
_PIN = ("import json, harnacklab, harnacklab.cli\n"
        "from harnacklab.symbolic.identities import IDENTITIES\n"
        "print(json.dumps({'file': harnacklab.__file__, 'catalogue': "
        "{k: e.expect_zero for k, e in IDENTITIES.items()}}))\n")


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under SCRATCH, removed with SCRATCH (if empty) at exit."""
    SCRATCH.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it


class Run:
    """One benchmark run: environment, deadline and scratch directory."""

    def __init__(self, scratch: str):
        self.t0 = time.perf_counter()
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def python(self, args, timeout=CMD_TIMEOUT_S):
        """Run the interpreter on args: (wall s, returncode or None, out, err)."""
        t0 = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *args], capture_output=True,
                               text=True, env=self.env, cwd=ROOT,
                               timeout=min(timeout, max(self.left(), 1.0)))
        except subprocess.TimeoutExpired as exc:
            return time.perf_counter() - t0, None, "", str(exc)
        return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr

    def cli(self, argv):
        return self.python(["-m", "harnacklab.cli",
                            *workloads.fill(argv, self.scratch)])

    def pin(self) -> dict:
        """Import the package once (untimed) and check it is the checkout's."""
        _, rc, out, err = self.python(["-c", _PIN])
        if rc != 0:
            raise SystemExit(f"cannot import harnacklab from {SRC}:\n{err}")
        pinned = json.loads(out)
        if not Path(pinned["file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"harnacklab imported from {pinned['file']}, not {SRC}")
        return pinned


def tail(values):
    """(value, share, samples): the mean of the slowest quarter of the
    commands (at least three).  A run holds too few commands for a high
    percentile to rest on more than one or two of them; the mean of the
    slowest quarter is a tail figure that rests on several."""
    xs = sorted(values, reverse=True)
    k = max(3, -(-len(xs) // 4))
    if len(xs) < k:
        raise SystemExit(f"only {len(xs)} commands ran; the tail needs {k}")
    return statistics.fmean(xs[:k]), k / len(xs), len(xs)


def quad_warnings(stderr: str) -> Counter:
    return Counter(Path(f).stem for f in _QUAD_WARNING.findall(stderr))


def bare_import(run: Run) -> float:
    """Wall time of a fresh interpreter that imports harnacklab.cli and exits."""
    wall, rc, _, err = run.python(["-c", "import harnacklab.cli"])
    if rc != 0:
        raise SystemExit(f"importing harnacklab.cli failed:\n{err}")
    return wall


def timed(run: Run, args, pinned):
    """End-to-end metrics from whole cycles of subprocess commands."""
    cycle, _ = workloads.build(args.workload, args.seed)
    ledger = check.Ledger(pinned["catalogue"])
    walls, failures, wrongs, quad = [], [], [], Counter()
    # Set-up is sampled at the start of every half cycle and once at the
    # end, not in a burst before the loop: the machine's speed drifts over
    # tens of seconds, and samples spread over the run see the same drift
    # as the command times.  Their time is taken out of the loop's.
    setups = []
    correct_verdicts = cycles = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 - sum(setups) < args.seconds and run.left() > 0:
        for i, argv in enumerate(cycle):
            if i in (0, len(cycle) // 2):
                setups.append(bare_import(run))
            if run.left() <= 0:
                break
            wall, rc, out, err = run.cli(argv)
            failed, wrong = ledger.judge(argv, rc, out, err)
            quad.update(quad_warnings(err))
            if failed:
                walls.append(CMD_TIMEOUT_S)
                failures.append({"argv": argv, "why": failed,
                                 "stderr_tail": err.strip().splitlines()[-3:]})
                continue
            walls.append(wall)
            if wrong:
                wrongs.append({"argv": argv, "why": wrong})
            else:
                correct_verdicts += 1
        cycles += 1
    setups.append(bare_import(run))
    loop_s = time.perf_counter() - t0 - sum(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    tail_s, share, samples = tail(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_wall_p50_s": statistics.median(walls),
        "cmd_wall_tail_s": tail_s,
        "verdicts_per_s": correct_verdicts / loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "setup_samples_s": setups,
        "cycles": cycles,
        "loop_s": loop_s,
        "tail_share": share,
        "tail_samples": samples,
        "walls_s": walls,
        "failures": failures,
        "wrong_results": wrongs,
        "integration_warnings": dict(quad),
    }
    result = {
        "correct": not failures and not wrongs,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": metrics,
    }
    return detail, result


def traced(run: Run, args, pinned):
    """Per-layer metrics from one traced and one untraced in-process cycle."""
    children = {}
    for mode in (1, 0):
        _, rc, out, err = run.python(
            [str(ROOT / "perfbench" / "tracer.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", run.scratch, "--traced", str(mode)],
            timeout=DEADLINE_S)
        if rc != 0:
            raise SystemExit(f"traced run (traced={mode}) failed:\n{err}")
        children[mode] = json.loads(out.splitlines()[-1])
    tr, plain = children[1], children[0]
    if tr["harnacklab_file"] != pinned["file"]:
        raise SystemExit("traced run imported another harnacklab")

    cmds = tr["commands"]
    bad = [c for c in cmds if c["failed"] or c["wrong"]]
    metrics = dict(tr["metrics"])
    metrics["trace.overhead_frac"] = tr["loop_s"] / plain["loop_s"] - 1.0
    metrics["failed_ops_frac"] = sum(bool(c["failed"]) for c in cmds) / len(cmds)
    metrics["wrong_results"] = sum(bool(c["wrong"]) for c in cmds)

    in_cycle = [c for ch in (tr, plain) for c in ch["commands"] if not c["probe"]]
    failed = [c for c in in_cycle if c["failed"]]
    detail = {
        "traced_loop_s": tr["loop_s"],
        "untraced_loop_s": plain["loop_s"],
        "failures_and_wrong_results": bad,
        "integration_warnings": tr["integration_warnings"],
    }
    result = {
        "correct": not any(c["failed"] or c["wrong"] for c in in_cycle),
        "attempted": len(in_cycle),
        "failed": len(failed),
        "metrics": metrics,
    }
    return detail, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "harnacklab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no harnacklab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    with scratch_dir("run-") as scratch:
        run = Run(scratch)
        pinned = run.pin()
        if args.trace:
            detail, result = traced(run, args, pinned)
        else:
            detail, result = timed(run, args, pinned)
    differ = set(units) ^ set(result["metrics"])
    if differ:
        raise SystemExit(f"metrics and BENCHMARK.json differ: {sorted(differ)}")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": unit}
                         for k, unit in units.items()}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "harnacklab_file": pinned["file"], **detail}
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
