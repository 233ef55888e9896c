"""Seeded workload inputs.

Every workload runs a fixed corpus whose reference verdicts are stored under
``refs/`` (see ``reference.py`` for why they are stored); the ``--seed``
sets the order in which the corpus is sent, and on ``serve`` also which
earlier checks the reads repeat.  The same seed always gives the same
inputs.

A run repeats its timed region in ``ROUNDS`` identical rounds, each from a
fresh engine, freshly parsed histories or a fresh server, so no round
inherits another's caches; each timed unit keeps its median or best time
over them (``workloads.combine`` says which).  On the 2-CPU host these
figures come from, the speed drifts: the same fixed work measured once a
second for 40 s ranged from 0.59 s to 1.16 s, in stretches of 10-20 s, and
CPU time tracked wall time, so the drift is the processor slowing, not the
process waiting.  Each unit's time is therefore divided by the host
slowdown measured just around it (``common.local_slowdown``).

The corpora are fixed rather than drawn per seed because input costs are
heavy-tailed: a few histories or sessions cost tens of times the median,
so a per-seed draw lets the seed decide the figures.  Measured over five
seeds with per-seed draws, the quartile spread of ``checks_per_s`` was
22% on ``sweep`` and that of ``append_p50_ms`` 40-700%; draws stratified
by cost, simulated over the measured input costs, still left ``sweep``
throughput near 7%.  Warm-up inputs lie
outside the corpora and are never timed.
"""

from __future__ import annotations

import random

#: Identical rounds per run; each timed unit keeps its median or best time.
ROUNDS = 3

#: Worker processes of the ``sweep`` engine (and of its set-up probe): the
#: 2 CPUs of the host the figures come from.
JOBS = 2

# -- sweep: the catalog plus seeded 3 procs x 4 ops draws over x, y ---------------

SWEEP_SHAPE = {"procs": 3, "ops_per_proc": 4, "locations": ("x", "y")}
#: Histories per ``engine.run`` call: one sweep request.
SWEEP_BATCH = 4
#: ``SweepSpec.seed`` of batch ``j`` is ``SWEEP_SEED_BASE + j``; the first
#: ``SWEEP_BATCHES`` are timed, the next ``SWEEP_WARMUP_BATCHES`` warm up.
SWEEP_SEED_BASE = 1000
SWEEP_BATCHES = 80
SWEEP_WARMUP_BATCHES = 2
#: Session replays (the ``check --stream`` path) over the same shape.
SWEEP_SESSION_SEED = 2000
SWEEP_SESSIONS = 16

# -- heavy: two strata over x, y, z ---------------------------------------------

HEAVY_STRATA = {"4x5": (4, 5), "3x8": (3, 8)}
HEAVY_LOCATIONS = ("x", "y", "z")
HEAVY_SEED = 12345
#: Session replays on ``heavy``: the first sessions of the serve corpus.
HEAVY_SESSIONS = 6

# -- serve: fresh 3x3 checks over x, y and 3x6 session replays ----------------------

SERVE_FRESH_SHAPE = {"procs": 3, "ops_per_proc": 3, "locations": ("x", "y")}
SERVE_SESSION_SHAPE = {"procs": 3, "ops_per_proc": 6, "locations": ("x", "y")}
SERVE_FRESH_SEED = 777
SERVE_SESSION_SEED = 778
SERVE_FRESH = 600
SERVE_SESSIONS = 24


def rng(tag: str, seed: int) -> random.Random:
    """The generator for one use (``tag``) of a run's ``--seed``."""
    return random.Random(f"{tag}:{seed}")


def shuffled(items: list, tag: str, seed: int) -> list:
    """A seeded permutation of ``items``."""
    out = list(items)
    rng(tag, seed).shuffle(out)
    return out


def sweep_plan(seed: int) -> tuple[list[int], list[int]]:
    """(warm-up batch seeds, timed batch seeds in seeded order)."""
    timed = [SWEEP_SEED_BASE + j for j in range(SWEEP_BATCHES)]
    warmup = [SWEEP_SEED_BASE + SWEEP_BATCHES + j for j in range(SWEEP_WARMUP_BATCHES)]
    return warmup, shuffled(timed, "sweep", seed)


def heavy_plan(seed: int, strata: dict[str, list]) -> list:
    """Every entry of the heavy corpus, in seeded order."""
    entries = [e for name in sorted(strata) for e in strata[name]]
    return shuffled(entries, "heavy", seed)


def session_lines(text: str) -> list[str]:
    """A history's op lines in append order: processors round-robin."""
    rows = []
    for row in text.split(" | "):
        proc, _, ops = row.partition(": ")
        rows.append([f"{proc}: {op}" for op in ops.split()])
    out = []
    for i in range(max(len(r) for r in rows)):
        out.extend(r[i] for r in rows if i < len(r))
    return out


def prefix_text(lines: list[str]) -> str:
    """The one-line history that the op lines ``lines`` build, in order."""
    rows: dict[str, list[str]] = {}
    for line in lines:
        proc, _, op = line.partition(": ")
        rows.setdefault(proc, []).append(op)
    return " | ".join(f"{p}: {' '.join(ops)}" for p, ops in rows.items())
