"""Stability verdicts, pattern tables, and stabilizer orders.

Both settings the package covers ask the relative Hilbert-Mumford question:
a point is unstable iff some subgroup lambda has weight < 0, and not stable
iff some nonzero lambda has weight <= 0.  In both, the weight is linear on
each of finitely many polyhedral pieces of lambda-space, so
`verdict_over_pieces` answers the question once for any list of pieces
(weak rows >= 0, strict rows >= 1):

  * unstable    iff  some piece has an integral point
                     (that point is a destabilizing subgroup, weight < 0);
  * not stable  iff  some piece, with its strict rows relaxed to >= 0, is a
                     cone containing a nonzero integral point (weight <= 0).

A support pattern is one piece: with B the weights of the nonzero base
coordinates and F the shifted weights of the nonzero fiber coordinates, the
rows are {B >= 0, F >= 1}.  A chain configuration has one piece per sign
orthant (see `degeneration.classify_config`).

A nonzero subgroup acting trivially on every declared variable still blocks
stability: it witnesses a positive-dimensional stabilizer.

Across a pattern table the verdicts are monotone in the support, since each
added coordinate adds one row: stable is closed under taking larger
supports (the cone only shrinks, so it stays {0}), and unstable under
taking smaller ones (a larger support's system {B >= 0, F >= 1} only gains
rows, so if a support's system is infeasible, every larger one's is too).  `classify_patterns` uses both rules to skip
solves whose outcome a smaller support already fixed; see there why every
witness stays the one `classify_pattern` returns.

Every verdict's witness is re-verified by an independent weight computation
before it is returned; a mismatch raises InternalInvariantError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .cones import IntVec, cone_has_nonzero, make_cone_problem, solve_cone
from .errors import InputError, InternalInvariantError
from .model import GitProblem, OnePS, PointSample, SupportPattern, support
from .mu import MuValue, mu_from_pattern
from .snf import lattice_rank_and_index


class StabilityStatus(enum.Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class Verdict:
    status: StabilityStatus
    witness: OnePS | None = None
    witness_mu: MuValue | None = None

    def __post_init__(self) -> None:
        if self.status is StabilityStatus.STABLE:
            ok = self.witness is None and self.witness_mu is None
        elif self.status is StabilityStatus.UNSTABLE:
            ok = self.witness is not None and self.witness_mu is not None and self.witness_mu < 0
        else:
            ok = (
                self.witness is not None
                and any(self.witness)
                and self.witness_mu is not None
                and not self.witness_mu.is_infinite
                and self.witness_mu.value == 0
            )
        if not ok:
            raise InternalInvariantError(f"inconsistent verdict {self}")


@dataclass(frozen=True)
class PatternTable:
    rows: tuple[tuple[SupportPattern, Verdict], ...]
    warnings: tuple[str, ...] = ()


Piece = tuple[Sequence[IntVec], Sequence[IntVec]]


def verdict_over_pieces(
    pieces: Iterable[Piece],
    dim: int,
    weight: Callable[[OnePS], MuValue],
    *,
    not_unstable: bool = False,
    memo: dict | None = None,
) -> Verdict:
    """Verdict for a weight that is linear on each piece (weak, strict).

    A piece is the cone where its weak rows are >= 0; on it the weight is
    < 0 exactly where every strict row is >= 1 and <= 0 exactly where every
    strict row is >= 0, so every piece has at least one strict row.

    The first pass solves {weak >= 0, strict >= 1} on each piece in order;
    the first integral point found destabilizes.  Only then does a second
    pass look for a nonzero point of {weak >= 0, strict >= 0}, walking the
    pieces the first pass already built, so pieces may be generated lazily
    and an unstable point never pays for the pieces after its witness.
    Each witness's weight is recomputed by `weight`, and the Verdict
    constructor rejects it unless it is < 0 (unstable) or finite and 0
    (strictly semistable).

    With ``not_unstable`` the caller already knows that no piece has an
    integral point, so the first pass is skipped and only the second runs.

    Every answer is kept in ``memo`` under its row set: a first-pass result
    under (frozenset(weak), frozenset(strict)) and a second-pass one under
    frozenset(weak + strict).  `solve_cone` and `cone_has_nonzero` answer as
    functions of the row set alone, so a remembered answer, witness
    included, is the one a fresh solve would give, and a caller may share
    one dict across calls (`degeneration.sweep_equivalence` shares one per
    sweep); without one, each call keeps its own.  `weight` still re-checks
    every witness.
    """
    if memo is None:
        memo = {}
    seen = []
    for weak, strict in pieces:
        seen.append((weak, strict))
        if not_unstable:
            continue
        key = (frozenset(map(tuple, weak)), frozenset(map(tuple, strict)))
        destab = memo.get(key)
        if destab is None:
            destab = memo[key] = solve_cone(make_cone_problem(weak, strict, dim))
        if destab.feasible:
            return Verdict(StabilityStatus.UNSTABLE, destab.witness, weight(destab.witness))
    for weak, strict in seen:
        rows = list(weak) + list(strict)
        key = frozenset(map(tuple, rows))
        if key in memo:
            blocker = memo[key]
        else:
            blocker = memo[key] = cone_has_nonzero(rows, dim)
        if blocker is not None:
            return Verdict(StabilityStatus.STRICTLY_SEMISTABLE, blocker, weight(blocker))
    return Verdict(StabilityStatus.STABLE)


def classify_pattern(problem: GitProblem, pattern: SupportPattern) -> Verdict:
    """Verdict for every point realizing the given support pattern."""
    return _pattern_verdict(problem, pattern)


def _pattern_verdict(
    problem: GitProblem, pattern: SupportPattern, not_unstable: bool = False
) -> Verdict:
    base_rows = [problem.base_weight(n) for n in sorted(pattern.base)]
    fiber_rows = [problem.shifted_fiber_weight(n) for n in sorted(pattern.fiber)]
    return verdict_over_pieces(
        [(base_rows, fiber_rows)],
        problem.torus_rank,
        lambda lam: mu_from_pattern(problem, pattern, lam),
        not_unstable=not_unstable,
    )


def classify(problem: GitProblem, point: PointSample) -> Verdict:
    """Stable / strictly semistable / unstable, with a witness when not stable."""
    return classify_pattern(problem, support(point))


def classify_patterns(problem: GitProblem, max_vars: int = 16) -> PatternTable:
    """Verdicts for every support pattern of the problem.

    Patterns pair an arbitrary subset of the base variables with a nonempty
    subset of the fiber variables.  When an ideal is present its verdicts are
    pattern-level only; whether a pattern is realized on the vanishing locus
    is not checked.

    The loops run base size outer, fiber size inner, so every proper
    subpattern is classified before the patterns containing it.  The
    supports solved stable and solved strictly semistable are kept as
    bitmasks over `problem.var_names`, and a pattern containing one of them
    skips solves whose outcome is already fixed:

      * containing a stable support, it is stable with no solve (its cone
        lies in one that is {0}, and a stable verdict has no witness);
      * containing a strictly semistable one, it is not unstable, so only
        the second pass runs; the first pass would have found nothing, so
        its witness is the one `classify_pattern` returns.

    Any other pattern goes to `classify_pattern`.  Rows and witnesses are
    therefore exactly those of classifying every pattern on its own.
    """
    names = problem.var_names
    if len(names) > max_vars:
        raise InputError(
            f"{len(names)} variables exceed the pattern enumeration cap {max_vars}"
        )
    bit = {name: 1 << i for i, name in enumerate(names)}
    stable: list[int] = []
    semistable: list[int] = []
    rows = []
    base_names = problem.base_names
    fiber_names = problem.fiber_names
    for bsize in range(len(base_names) + 1):
        for bsub in combinations(base_names, bsize):
            for fsize in range(1, len(fiber_names) + 1):
                for fsub in combinations(fiber_names, fsize):
                    pattern = SupportPattern(frozenset(bsub), frozenset(fsub))
                    mask = sum(bit[n] for n in bsub + fsub)
                    if any(m & mask == m for m in stable):
                        rows.append((pattern, Verdict(StabilityStatus.STABLE)))
                        continue
                    if any(m & mask == m for m in semistable):
                        verdict = _pattern_verdict(problem, pattern, not_unstable=True)
                    else:
                        verdict = classify_pattern(problem, pattern)
                    rows.append((pattern, verdict))
                    if verdict.status is StabilityStatus.STABLE:
                        stable.append(mask)
                    elif verdict.status is StabilityStatus.STRICTLY_SEMISTABLE:
                        semistable.append(mask)
    warnings = ()
    if problem.ideal:
        warnings = ("pattern-level — ideal realizability not checked",)
    return PatternTable(tuple(rows), warnings)


def stabilizer_order(problem: GitProblem, point: PointSample) -> int | None:
    """Order of the torus stabilizer of the projective point, or None if infinite.

    The stabilizer is cut out by the character lattice spanned by the weights
    of the nonzero base coordinates together with the pairwise differences of
    the nonzero fiber weights (fiber coordinates matter up to common scalar).
    Its order is the lattice index, the product of the echelon pivots.
    """
    pattern = support(point)
    rows: list[tuple[int, ...]] = [problem.base_weight(n) for n in sorted(pattern.base)]
    fiber = sorted(pattern.fiber, key=problem.fiber_names.index)
    anchor = problem.shifted_fiber_weight(fiber[0])
    for name in fiber[1:]:
        weight = problem.shifted_fiber_weight(name)
        rows.append(tuple(a - b for a, b in zip(weight, anchor)))
    rows = [r for r in rows if any(r)]
    _, index = lattice_rank_and_index(rows, problem.torus_rank)
    return index
