"""Seeded task pools for the three benchmark workloads.

A pool is a whole number of rounds.  Each round holds every slot of the
workload's schedule once, in seeded order, so every run that completes a
round has seen the same mix of task kinds and the seed only moves the
weights inside each kind.  The program sees only the generated problem
files and the argv of each task.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import checks
import oracle

ROUNDS = 12  # rounds per pool; a tiny pool has one

# pattern-table: (torus rank, base variables, fiber variables).  Rank 5 is
# left out: in probes 2 of 60 random rank-5 4+4 tables ran past 2 s and one
# rank-5 table with 4-5 + 4-5 variables took 169 s.  Rank 4 with 5+5
# variables is left out for the same reason (1 of 300 past 2 s).  The four
# rank-3 5+5 slots (992 patterns each) are the slowest fifth of a round, so
# p90 is the median of that class, which varies least from seed to seed.
PATTERN_SLOTS = (
    (2, 4, 4), (2, 4, 4), (2, 4, 5), (2, 4, 5), (2, 5, 4), (2, 5, 4),
    (3, 4, 4), (3, 4, 4), (3, 4, 4), (3, 4, 5), (3, 5, 4),
    (3, 5, 5), (3, 5, 5), (3, 5, 5), (3, 5, 5),
    (4, 4, 4), (4, 4, 4), (4, 4, 4), (4, 4, 4), (4, 5, 4),
)

# invariant-ring: (subcommand, syzygy degree, torus rank, degree bound,
# inclusive band of minimal generator counts); None leaves the value to the
# seed (rank 1 or 2, degree 8-10).  Relation cost grows with C(G + s, s), so
# each slot pins what its cost depends on.  In cost order the slots are: 35%
# cheap, 30% rank-2 degree-10 enumerations (cv 0.03, holding p50), 15%
# mid-size relations and 20% relations over 15-16 generators at s = 4
# (holding p90).
INVARIANT_SLOTS = (
    *[("invariants", None, 2, 8, (5, 24))] * 3,
    *[("quotient", 3, None, None, (5, 12))] * 2,
    *[("relations", 3, None, None, (5, 8))] * 2,
    *[("invariants", None, 2, 10, (5, 24))] * 6,
    *[("relations", 3, None, None, (13, 18))] * 2,
    ("relations", 4, None, None, (9, 12)),
    *[("relations", 4, 1, None, (15, 16))] * 4,
)

# chain-sweep: n of `conic --n n --sweep`; n <= 3 is the program's cap.  The
# n = 2 slots hold p50 and the n = 3 slots p90.
CHAIN_SLOTS = (1,) * 3 + (2,) * 8 + (3,) * 9


@dataclass
class Task:
    index: int
    kind: str
    argv: list[str]
    problem: dict | None = None
    expect: dict = field(default_factory=dict)


def _weights(rng, rank, count):
    return [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(count)]


def _problem(rank, base, fiber):
    return {
        "torus_rank": rank,
        "base_vars": {f"x{i}": w for i, w in enumerate(base)},
        "fiber_vars": {f"u{j}": w for j, w in enumerate(fiber)},
    }


def _pattern_task(rng, slot, path):
    rank, nb, nf = slot
    problem = _problem(rank, _weights(rng, rank, nb), _weights(rng, rank, nf))
    argv = ["patterns", "--problem", str(path), "--format", "json"]
    return f"rank{rank} {nb}+{nf}", argv, problem, {}


def _invariant_task(rng, slot, path):
    command, syzygy, rank, degree, (low, high) = slot
    while True:
        # Rank-2 weights almost never give 13 or more generators.
        r = rank or (1 if low >= 13 else rng.choice((1, 2)))
        d = degree or rng.randint(8, 10)
        nf = rng.randint(2, 4)
        base, fiber = _weights(rng, r, 6 - nf), _weights(rng, r, nf)
        monomials = oracle.invariant_exponents(base + fiber, d)
        generators = oracle.minimal_exponents(monomials)
        if low <= len(generators) <= high:
            break
    argv = [command, "--problem", str(path), "--format", "json", "--max-degree", str(d)]
    if syzygy is not None:
        argv += ["--syzygy-degree", str(syzygy)]
    expect = {"monomials": monomials, "generators": generators, "fiber_count": nf}
    kind = f"{command} G={low}-{high}" + (f" s={syzygy}" if syzygy else "")
    return kind, argv, _problem(r, base, fiber), expect


def _chain_task(rng, n, path):
    if n == 1:
        twists = []
    elif n == 2:
        twists = [rng.randint(2, 1000)]
    else:
        second = rng.randint(2, 999)
        twists = [rng.randint(second + 1, 1000), second]
    argv = ["conic", "--n", str(n), "--sweep", "--twists", ",".join(map(str, twists)),
            "--format", "json"]
    return f"n={n}", argv, None, {"n": n, "twists": twists}


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    make: object  # (rng, slot, problem path) -> (kind, argv, problem, expect)
    trace_rounds: int  # rounds of the pool replayed by the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pattern-table", PATTERN_SLOTS, _pattern_task, 2),
        Workload("invariant-ring", INVARIANT_SLOTS, _invariant_task, 3),
        Workload("chain-sweep", CHAIN_SLOTS, _chain_task, 3),
    )
}


def build_pool(workload: Workload, seed: int, workdir: Path, rounds: int = ROUNDS) -> list[Task]:
    """Generate the pool for a seed and write its problem files into workdir."""
    rng = random.Random(f"{workload.name}/{seed}")
    tasks = []
    for _ in range(rounds):
        order = list(workload.slots)
        rng.shuffle(order)
        for slot in order:
            index = len(tasks)
            path = workdir / f"problem-{index:04d}.json"
            kind, argv, problem, expect = workload.make(rng, slot, path)
            if problem is not None:
                path.write_text(checks.problem_text(problem))
            tasks.append(Task(index, kind, argv, problem, expect))
    return tasks
