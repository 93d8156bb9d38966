"""Seeded workloads: each is one cycle of CLI argv lists.

A cycle fixes the *shape* of the work (command, model family, dimension,
grid size, triple and probe counts) slot by slot, so runs with different
seeds do the same amount of work.  The seed chooses everything else: cone
apertures, smoothing radii, Harnack constants, audit radii, triple and
probe-point seeds, identity names and the order of the slots.  One fixed
slot runs twice per cycle, so its two reports must be byte-identical.

Each workload also has known-defect probes: argv lists on which the
program is known to crash or to give a wrong verdict.  They are kept out
of the timed cycle, so the timed run's ``failed``/``correct`` fields
describe the program where it works, and are run in the traced run and
reported on their own, so the defects stay visible until fixed.

The token ``{out}`` in an argv stands for a scratch directory that the
runner creates inside the checkout; it is the only ``--output-dir`` ever
passed.
"""

from __future__ import annotations

import random

WORKLOADS = ("verdict-grid", "corollary-triples", "identities")

OUT = "{out}"

APERTURES = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# smoothed cones with c >= 0.75 have a monotone profile; c = 0.5 crashes
# the corollary's Clairaut sweep and lives in the probes instead
SMOOTH_APERTURES = (0.75, 0.8, 0.85, 0.9)
SMOOTH_RADII = (0.5, 1.0, 1.5, 2.0)
HARNACK_C = (10, 12, 15, 20)
AUDIT_R = (0.5, 0.8, 1.0, 2.0, 3.0)

#: the identity catalogue of harnacklab.symbolic, frozen here so that a
#: change to the catalogue cannot change which identities a seed picks
IDENTITY_NAMES = (
    "commutator.axiom1", "commutator.axiom2", "commutator.axiom3",
    "commutator.axiom4", "commutator.axiom5",
    "misc.1", "misc.2", "misc.3", "misc.4", "misc.5",
    "power_rule", "b_squared", "lap_of_harnack",
    "lap_of_harnack.step1", "lap_of_harnack.step2", "lap_of_harnack.step3",
    "lap_of_harnack.literal",
)
#: (chart, probe count) of the commutator-oracle slots, on fixed-dimension
#: charts where the oracle passes; the seed picks the probe points
ORACLE_SLOTS = (("euclidean", 4), ("round_sphere", 3), ("round_sphere", 5),
                ("s2xr2", 2), ("s2xr2", 6))


def _num(x) -> str:
    return format(x, "g")


def _model(rng: random.Random, family: str) -> str:
    if family == "euclidean":
        return "euclidean"
    if family == "cone":
        return f"cone:{_num(rng.choice(APERTURES))}"
    c, r0 = rng.choice(SMOOTH_APERTURES), rng.choice(SMOOTH_RADII)
    return f"smoothed-cone:{_num(c)}:{_num(r0)}"


def _verdict_grid(rng: random.Random):
    # (command, family, n, grid size); euclidean verify stays at n <= 8,
    # because n = 9, 10 is a known defect (see the probes)
    slots = [
        ("verify", "euclidean", 4, 512),
        ("verify", "cone", 7, 4096),
        ("verify", "smoothed-cone", 5, 512),
        ("min-c", "euclidean", 10, 4096),
        ("min-c", "cone", 3, 512),
        ("min-c", "smoothed-cone", 8, 4096),
        ("audit", "euclidean", 10, 512),
        ("audit", "cone", 6, 512),
        ("audit", "smoothed-cone", 9, 512),
        ("export-profile", "euclidean", 6, 4096),
        ("export-profile", "smoothed-cone", 3, 512),
    ]
    cycle = []
    for cmd, family, n, grid in slots:
        argv = [cmd, "--model", _model(rng, family), "--n", str(n),
                "--grid-size", str(grid)]
        if cmd in ("verify", "audit"):
            argv += ["--C", _num(rng.choice(HARNACK_C))]
        if cmd == "audit":
            argv += ["--r", _num(rng.choice(AUDIT_R))]
        if cmd == "export-profile":
            argv += ["--output-dir", OUT]
        cycle.append(argv)
    repeat = cycle[4]  # the cheap closed-form min-c on a cone
    rng.shuffle(cycle)
    cycle.append(list(repeat))
    probes = [["verify", "--model", "euclidean", "--n", str(n), "--C",
               _num(rng.choice(HARNACK_C))] for n in (9, 10)]
    return cycle, probes


def _corollary(rng: random.Random, family: str, n: int, triples: int):
    C = "2" if family == "euclidean" else _num(rng.choice(HARNACK_C))
    return ["corollary", "--model", _model(rng, family), "--n", str(n),
            "--C", C, "--triples", str(triples),
            "--seed", str(rng.randrange(1_000_000))]


def _corollary_triples(rng: random.Random):
    slots = [
        ("euclidean", 3, 6), ("euclidean", 4, 6), ("euclidean", 6, 6),
        ("euclidean", 10, 6),
        ("cone", 3, 6), ("cone", 4, 4), ("cone", 5, 6), ("cone", 7, 6),
        ("cone", 9, 6),
        ("smoothed-cone", 4, 3), ("smoothed-cone", 6, 3),
    ]
    cycle = [_corollary(rng, *slot) for slot in slots]
    repeat = cycle[1]  # euclidean n = 4, the equality case
    rng.shuffle(cycle)
    cycle.append(list(repeat))
    probes = [["corollary", "--model", "smoothed-cone:0.5:1", "--n", "4",
               "--C", "10", "--triples", "20",
               "--seed", str(rng.randrange(1_000_000))]]
    return cycle, probes


def _identities(rng: random.Random):
    cycle = [["symbolic", "verify-all"]]
    cycle += [["symbolic", "verify", "--name", name]
              for name in rng.sample(IDENTITY_NAMES, 7)]
    cycle += [["oracle", "commutators", "--chart", chart, "--probes", str(k),
               "--seed", str(rng.randrange(1_000_000))] for chart, k in ORACLE_SLOTS]
    repeat = cycle[-4]  # round_sphere, 3 probes
    rng.shuffle(cycle)
    cycle.append(list(repeat))
    return cycle, []


_GENERATORS = {
    "verdict-grid": _verdict_grid,
    "corollary-triples": _corollary_triples,
    "identities": _identities,
}


def build(workload: str, seed: int):
    """(cycle, probes) for a workload: lists of argv lists, seed-determined."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def fill(argv, out_dir: str):
    """The argv with the scratch-directory token replaced."""
    return [out_dir if a == OUT else a for a in argv]
