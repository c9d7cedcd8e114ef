"""Stability verdicts, pattern tables, and stabilizer orders.

A point is unstable iff some subgroup lambda has weight < 0, and not stable
iff some nonzero lambda has weight <= 0 (the relative Hilbert-Mumford
criterion).  The weight depends on the point only through its support
pattern.  With B the weights of the nonzero base coordinates and F the
shifted weights of the nonzero fiber coordinates, it is finite exactly where
B >= 0, and there it is minus the least row of F, so each support is
answered by one system of rows and its relaxation:

  * unstable    iff  {B >= 0, F >= 1} has an integral point
                     (that point is a destabilizing subgroup, weight < 0);
  * not stable  iff  {B >= 0, F >= 0} is a cone containing a nonzero
                     integral point (weight <= 0, and 0 when the first
                     system has no point).

Chain configurations need no cone at all (see `degeneration`).

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
from itertools import combinations

from .cones import cone_has_nonzero, make_cone_problem, solve_cone
from .errors import InputError, InternalInvariantError
from .model import GitProblem, OnePS, PointSample, SupportPattern, support
from .mu import mu_from_pattern, pairings, weight_of_pairings
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


def classify_pattern(problem: GitProblem, pattern: SupportPattern) -> Verdict:
    """Verdict for every point realizing the given support pattern: first
    {B >= 0, F >= 1}, whose integral point destabilizes, then, if it has
    none, a nonzero point of {B >= 0, F >= 0}, which has weight 0."""
    base_rows = [problem.base_weight(n) for n in sorted(pattern.base)]
    fiber_rows = [problem.shifted_fiber_weight(n) for n in sorted(pattern.fiber)]
    dim = problem.torus_rank
    status = StabilityStatus.UNSTABLE
    lam = solve_cone(make_cone_problem(base_rows, fiber_rows, dim)).witness
    if lam is None:
        status = StabilityStatus.STRICTLY_SEMISTABLE
        lam = cone_has_nonzero(base_rows + fiber_rows, dim)
        if lam is None:
            return Verdict(StabilityStatus.STABLE)
    return Verdict(status, lam, mu_from_pattern(problem, pattern, lam))


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
    subpattern is classified before the patterns containing it.  Each base
    and fiber subset is built once, as its frozenset, its bitmask over
    `problem.var_names` and its variable indices.  The call keeps the
    supports solved stable and solved strictly semistable, and a certificate
    for every solved non-stable support: the witness's `pairings` with every
    declared variable, computed once, and the mask of the variables whose
    rows they satisfy (base rows >= 0; fiber rows >= 1 for an unstable
    witness, >= 0 for a strictly semistable one).  A pattern is then
    decided by the first rule that applies:

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
        integral point, so only the second solve can find its witness.

    A reused witness is re-checked on the row's own support: its weight is
    `weight_of_pairings` over the row's entries of its pairings, and the
    `Verdict` constructor rejects it unless it is < 0 (unstable) or 0
    (strictly semistable).  Stable rows share one `Verdict`, and each
    witness one per distinct weight, so the table holds one `Verdict` object
    per distinct verdict.  The statuses are those of classifying every
    pattern on its own; a witness may be another checked lambda than
    `classify_pattern` gives.  Nothing is kept past the call.
    """
    names = problem.var_names
    if len(names) > max_vars:
        raise InputError(
            f"{len(names)} variables exceed the pattern enumeration cap {max_vars}"
        )
    base_count = len(problem.base_names)

    def satisfied(pairs: list[int], fiber_floor: int) -> int:
        """Mask of the variables whose row the pairings satisfy: base rows
        >= 0, fiber rows >= fiber_floor."""
        floors = [0] * base_count + [fiber_floor] * (len(names) - base_count)
        return sum(1 << i for i, (p, f) in enumerate(zip(pairs, floors)) if p >= f)

    def subsets(pool: range, smallest: int) -> list[tuple[frozenset[str], int, tuple[int, ...]]]:
        """(names, mask, indices) of every subset of the variable indices
        `pool` with at least `smallest` members, in `combinations` order."""
        return [
            (frozenset(names[i] for i in sub), sum(1 << i for i in sub), sub)
            for size in range(smallest, len(pool) + 1)
            for sub in combinations(pool, size)
        ]

    fiber_subsets = subsets(range(base_count, len(names)), 1)
    inherited = Verdict(StabilityStatus.STABLE)
    stable: list[int] = []
    semistable: list[int] = []
    # (mask, solved verdict, pairings, Verdict by weight) of every solved
    # unstable and strictly semistable support.  One weight dict per witness,
    # since supports solved apart may return the same strictly semistable one.
    destabilizers: list[tuple[int, Verdict, list[int], dict[int, Verdict]]] = []
    blockers: list[tuple[int, Verdict, list[int], dict[int, Verdict]]] = []
    by_witness: dict[tuple[StabilityStatus, OnePS], dict[int, Verdict]] = {}
    rows = []
    for base_set, base_mask, base_indices in subsets(range(base_count), 0):
        for fiber_set, fiber_mask, fiber_indices in fiber_subsets:
            pattern = SupportPattern(base_set, fiber_set)
            mask = base_mask | fiber_mask
            if any(m & mask == m for m in stable):
                rows.append((pattern, inherited))
                continue
            certificates = blockers if any(m & mask == m for m in semistable) else destabilizers
            cert = next((c for c in certificates if mask & c[0] == mask), None)
            if cert is not None:
                _, solved, pairs, by_weight = cert
                weight = weight_of_pairings(
                    map(pairs.__getitem__, base_indices), map(pairs.__getitem__, fiber_indices)
                )
                verdict = by_weight.get(weight)
                if verdict is None:
                    verdict = by_weight[weight] = Verdict(solved.status, solved.witness, weight)
                rows.append((pattern, verdict))
                continue
            verdict = classify_pattern(problem, pattern)
            if verdict.status is StabilityStatus.STABLE:
                rows.append((pattern, inherited))
                stable.append(mask)
                continue
            by_weight = by_witness.setdefault(verdict[:2], {})
            verdict = by_weight.setdefault(verdict.witness_mu, verdict)
            rows.append((pattern, verdict))
            pairs = pairings(problem, verdict.witness)
            if verdict.status is StabilityStatus.UNSTABLE:
                destabilizers.append((satisfied(pairs, 1), verdict, pairs, by_weight))
            else:
                semistable.append(mask)
                blockers.append((satisfied(pairs, 0), verdict, pairs, by_weight))
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
