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
rows are {B >= 0, F >= 1}.  Chain configurations need no cone at all (see
`degeneration`).

A nonzero subgroup acting trivially on every declared variable still blocks
stability: it witnesses a positive-dimensional stabilizer.

Across a pattern table the verdicts are monotone in the support, since each
added coordinate adds one row: stable is closed under taking larger
supports (the cone only shrinks, so it stays {0}), and unstable under
taking smaller ones (a larger support's system {B >= 0, F >= 1} only gains
rows, so if a support's system is infeasible, every larger one's is too).
Beyond that, one subgroup certifies every support whose rows it satisfies.
`classify_patterns` uses all three facts to skip solves whose outcome a
smaller support already fixed, so a row's witness may be a checked lambda
found for a smaller support: it can differ from the one `classify_pattern`,
and so `classify` on a point of that support, returns.

Every verdict's witness is re-verified by an independent weight computation
before it is returned; a mismatch raises InternalInvariantError.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import combinations

from .cones import IntVec, cone_has_nonzero, make_cone_problem, solve_cone
from .errors import InputError, InternalInvariantError
from .model import GitProblem, OnePS, PointSample, SupportPattern, support
from .mu import mu_from_pattern
from .snf import lattice_rank_and_index


class StabilityStatus(enum.Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly-semistable"
    UNSTABLE = "unstable"


class Verdict(namedtuple("Verdict", "status witness witness_mu")):
    status: StabilityStatus
    witness: OnePS | None
    witness_mu: int | None
    __slots__ = ()

    def __new__(cls, status, witness=None, witness_mu=None) -> Verdict:
        self = tuple.__new__(cls, (status, witness, witness_mu))
        if status is StabilityStatus.STABLE:
            ok = witness is None and witness_mu is None
        elif status is StabilityStatus.UNSTABLE:
            ok = witness is not None and witness_mu is not None and witness_mu < 0
        else:
            ok = witness is not None and any(witness) and witness_mu == 0
        if not ok:
            raise InternalInvariantError(f"inconsistent verdict {self}")
        return self


class PatternTable(namedtuple("PatternTable", "rows warnings", defaults=((),))):
    rows: tuple[tuple[SupportPattern, Verdict], ...]
    warnings: tuple[str, ...]
    __slots__ = ()


Piece = tuple[Sequence[IntVec], Sequence[IntVec]]


def verdict_over_pieces(
    pieces: Iterable[Piece],
    dim: int,
    weight: Callable[[OnePS], int | None],
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
    Each witness's weight is recomputed by `weight` (None when infinite),
    and the Verdict constructor rejects it unless it is < 0 (unstable) or 0
    (strictly semistable).
    """
    seen = []
    for weak, strict in pieces:
        seen.append((weak, strict))
        destab = solve_cone(make_cone_problem(weak, strict, dim))
        if destab.feasible:
            return Verdict(StabilityStatus.UNSTABLE, destab.witness, weight(destab.witness))
    for weak, strict in seen:
        blocker = cone_has_nonzero(list(weak) + list(strict), dim)
        if blocker is not None:
            return Verdict(StabilityStatus.STRICTLY_SEMISTABLE, blocker, weight(blocker))
    return Verdict(StabilityStatus.STABLE)


def classify_pattern(problem: GitProblem, pattern: SupportPattern) -> Verdict:
    """Verdict for every point realizing the given support pattern: one
    piece, rows {B >= 0, F >= 1}, through `verdict_over_pieces`."""
    base_rows = [problem.base_weight(n) for n in sorted(pattern.base)]
    fiber_rows = [problem.shifted_fiber_weight(n) for n in sorted(pattern.fiber)]
    return verdict_over_pieces(
        [(base_rows, fiber_rows)],
        problem.torus_rank,
        lambda lam: mu_from_pattern(problem, pattern, lam),
    )


def classify(problem: GitProblem, point: PointSample) -> Verdict:
    """Stable / strictly semistable / unstable, with a witness when not stable.

    The witness is `classify_pattern`'s for the point's support; that
    support's row in `classify_patterns` has the same status but may carry
    another checked witness.
    """
    return classify_pattern(problem, support(point))


def classify_patterns(problem: GitProblem, max_vars: int = 16) -> PatternTable:
    """Verdicts for every support pattern of the problem.

    Patterns pair an arbitrary subset of the base variables with a nonempty
    subset of the fiber variables.  When an ideal is present its verdicts are
    pattern-level only; whether a pattern is realized on the vanishing locus
    is not checked.

    The loops run base size outer, fiber size inner, so every proper
    subpattern is classified before the patterns containing it.  Supports
    are bitmasks over `problem.var_names`.  Each base and each fiber subset
    is built once, as its frozenset and mask, and shared by every row that
    has it; the rows that inherit stability share one stable verdict.  The
    call keeps the supports solved stable and solved strictly semistable,
    and the witness of every solved non-stable support with the mask of the
    variables whose rows it satisfies: base rows >= 0, and fiber rows >= 1
    for an unstable witness or >= 0 for a strictly semistable one.  A
    pattern is then decided by the first rule that applies:

      * containing a stable support, it is stable with no solve (its cone
        lies in one that is {0}, and a stable verdict has no witness);
      * containing a strictly semistable support, it is not unstable, and
        the first strictly semistable witness whose mask contains it is a
        nonzero lambda of weight 0 on it;
      * otherwise the first unstable witness whose mask contains it
        destabilizes it;
      * a pattern no witness covers is solved on its own by
        `classify_pattern`.  One containing a strictly semistable support
        has all of that support's rows {B >= 0, F >= 1}, which have no
        integral point, so only the second pass can find its witness.

    A reused witness still goes through `mu_from_pattern` and the `Verdict`
    checks.  The statuses are those of classifying every pattern on its
    own; a witness may be another checked lambda than `classify_pattern`
    gives for that pattern.  Nothing is kept past the call.
    """
    names = problem.var_names
    if len(names) > max_vars:
        raise InputError(
            f"{len(names)} variables exceed the pattern enumeration cap {max_vars}"
        )
    bit = {name: 1 << i for i, name in enumerate(names)}
    base_names = problem.base_names
    fiber_names = problem.fiber_names
    base_rows = [(bit[n], problem.base_weight(n)) for n in base_names]
    fiber_rows = [(bit[n], problem.shifted_fiber_weight(n)) for n in fiber_names]

    def satisfied(lam: OnePS, fiber_floor: int) -> int:
        """Mask of the variables whose row lam satisfies: base rows >= 0,
        fiber rows >= fiber_floor."""
        mask = 0
        for b, w in base_rows:
            if sum(x * y for x, y in zip(w, lam)) >= 0:
                mask |= b
        for b, w in fiber_rows:
            if sum(x * y for x, y in zip(w, lam)) >= fiber_floor:
                mask |= b
        return mask

    def subsets(pool: Sequence[str], smallest: int) -> list[tuple[frozenset[str], int]]:
        """(names, mask) of every subset of `pool` with at least `smallest`
        names, in `combinations` order by size."""
        return [
            (frozenset(sub), sum(bit[n] for n in sub))
            for size in range(smallest, len(pool) + 1)
            for sub in combinations(pool, size)
        ]

    fiber_subsets = subsets(fiber_names, 1)
    inherited = Verdict(StabilityStatus.STABLE)
    stable: list[int] = []
    semistable: list[int] = []
    # (mask, lambda) of every solved unstable and strictly semistable support.
    destabilizers: list[tuple[int, OnePS]] = []
    blockers: list[tuple[int, OnePS]] = []
    rows = []
    for base_set, base_mask in subsets(base_names, 0):
        for fiber_set, fiber_mask in fiber_subsets:
            pattern = SupportPattern(base_set, fiber_set)
            mask = base_mask | fiber_mask
            if any(m & mask == m for m in stable):
                rows.append((pattern, inherited))
                continue
            contains_semistable = any(m & mask == m for m in semistable)
            certificates = blockers if contains_semistable else destabilizers
            lam = next((lam for m, lam in certificates if mask & m == mask), None)
            if lam is not None:
                status = (
                    StabilityStatus.STRICTLY_SEMISTABLE
                    if contains_semistable
                    else StabilityStatus.UNSTABLE
                )
                verdict = Verdict(status, lam, mu_from_pattern(problem, pattern, lam))
                rows.append((pattern, verdict))
                continue
            verdict = classify_pattern(problem, pattern)
            rows.append((pattern, verdict))
            lam = verdict.witness
            if verdict.status is StabilityStatus.STABLE:
                stable.append(mask)
            elif verdict.status is StabilityStatus.UNSTABLE:
                destabilizers.append((satisfied(lam, 1), lam))
            else:
                semistable.append(mask)
                blockers.append((satisfied(lam, 0), lam))
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
