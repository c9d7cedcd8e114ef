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

The first system is one `cones.ConeProblem` for `solve_cone`, and the
second asks `cone_has_nonzero` of the same rows, both at the torus rank.
One private `_solve` asks them, for a support given as positions in
`var_names`: `classify_pattern` resolves a pattern's names once, through
`GitProblem.support_indices`, and `classify_patterns` passes each row's
own position tuples.  A support's rows follow declaration order; the cone
answers depend only on the set of rows.
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
and so `classify` on a point of that support, returns.  It holds sets of
rows as the bits of one int, so each solve settles every row it decides
(the rows containing a stable support, or inside a witness's covered
variables) with a few AND operations.  The next solve is the lowest row
still undecided: covered sets are down-closed and every subpattern comes
first, so it is the row a row-by-row walk would solve next.  A row
containing a support solved strictly semistable is not unstable, so if it
is solved, only its second system is asked.  A table is the product of the
base subsets and the nonempty fiber subsets, and `PatternTable` keeps it in
that form: the two subset lists, each subset a tuple of names in declared
order, and one verdict per row, with a `SupportPattern` built only for a
row read through `PatternTable.rows`.

Every verdict's witness is re-verified by an independent weight computation
before it is returned: `weight_of_pairings` over the witness's `pairings`,
computed once per solve and reused for every row the witness settles.  A
mismatch raises InternalInvariantError.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import combinations

from .cones import ConeProblem, cone_has_nonzero, solve_cone
from .errors import InputError, InternalInvariantError, ZeroSectionError
from .model import GitProblem, OnePS, PointSample, SupportPattern, support
from .mu import pairings, weight_of_pairings
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


class _Certificate(namedtuple("_Certificate", "inside verdict base_pairs pairs by_fiber")):
    """A non-stable support's solved witness, as `classify_patterns` reuses it."""

    inside: int  # the rows inside its covered set
    verdict: Verdict  # the solved row's verdict
    base_pairs: list[int]  # its pairings with the covered base variables
    pairs: list[int]  # its pairings with every variable, from `pairings`
    by_fiber: dict[int, Verdict]  # the verdict of each fiber subset's rows
    __slots__ = ()


class PatternTable(namedtuple("PatternTable", "bases fibers verdicts warnings")):
    """Verdicts for the product of the base subsets and the nonempty fiber
    subsets: row `b * len(fibers) + f` is the support `(bases[b],
    fibers[f])`, and `verdicts` holds one verdict per row.  Each subset is
    a tuple of names in declared order."""

    bases: tuple[tuple[str, ...], ...]
    fibers: tuple[tuple[str, ...], ...]
    verdicts: tuple[Verdict, ...]
    warnings: tuple[str, ...]
    __slots__ = ()

    def __new__(cls, bases, fibers, verdicts, warnings=()) -> PatternTable:
        bases, fibers, verdicts = tuple(bases), tuple(fibers), tuple(verdicts)
        if not all(fibers):
            raise ZeroSectionError("pattern table has an empty fiber subset")
        if len(verdicts) != len(bases) * len(fibers):
            raise InputError(
                f"{len(verdicts)} verdicts for {len(bases)} base subsets "
                f"times {len(fibers)} fiber subsets"
            )
        return tuple.__new__(cls, (bases, fibers, verdicts, tuple(warnings)))

    @property
    def rows(self) -> tuple[tuple[SupportPattern, Verdict], ...]:
        """(pattern, verdict) per row, base subset outer, fiber subset inner."""
        fibers = list(map(frozenset, self.fibers))
        patterns = [SupportPattern(frozenset(b), f) for b in self.bases for f in fibers]
        return tuple(zip(patterns, self.verdicts))


def _solve(
    problem: GitProblem, base: tuple[int, ...], fiber: tuple[int, ...], first: bool = True
) -> tuple[Verdict, list[int] | None]:
    """The verdict of the support whose base and fiber variables sit at
    the positions `base` and `fiber` of `var_names`, and its witness's
    `pairings` (None when stable).  With `first`, {B >= 0, F >= 1} is asked
    first, and an integral point of it destabilizes; if it has none, or
    without `first`, a nonzero point of {B >= 0, F >= 0} has weight 0, and
    with none the support is stable.  The weight is `weight_of_pairings`
    over the witness's pairings with the support, and the `Verdict`
    constructor checks it."""
    weights = problem.weights
    base_rows = [weights[i] for i in base]
    fiber_rows = [weights[i] for i in fiber]
    status = StabilityStatus.UNSTABLE
    lam = None
    if first:
        lam = solve_cone(ConeProblem(base_rows, fiber_rows, problem.torus_rank)).witness
    if lam is None:
        status = StabilityStatus.STRICTLY_SEMISTABLE
        lam = cone_has_nonzero(base_rows + fiber_rows, problem.torus_rank)
        if lam is None:
            return Verdict(StabilityStatus.STABLE), None
    pairs = pairings(problem, lam)
    weight = weight_of_pairings(map(pairs.__getitem__, base), map(pairs.__getitem__, fiber))
    return Verdict(status, lam, weight), pairs


def classify_pattern(problem: GitProblem, pattern: SupportPattern) -> Verdict:
    """Verdict for every point realizing the given support pattern: first
    {B >= 0, F >= 1}, whose integral point destabilizes, then, if it has
    none, a nonzero point of {B >= 0, F >= 0}, which has weight 0."""
    return _solve(problem, *problem.support_indices(pattern))[0]


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

    The rows run base size outer, fiber size inner, each in `combinations`
    order, so every proper subpattern comes before the patterns containing
    it.  The table keeps that product form: its `bases` and `fibers` in
    that order, and `verdicts[b * F + f]` for base subset `b` and fiber
    subset `f`, F fiber subsets.  A set of rows is one int, with row
    `b * F + f` as its bit; the rows holding a
    variable are one such set, built once per call, so "the rows containing
    a support" and "the rows inside a witness's covered variables" are each
    an AND of those sets and their complements.

    The next solve is the lowest undecided row, by `_solve` over the row's
    own position tuples (a marked row, below, by its second system alone),
    and each solve settles every undecided row it decides at once:

      * solved stable, it makes every row containing it stable (their cones
        lie in its cone, which is {0}; stable verdicts have no witness);
      * solved unstable, its witness destabilizes every row inside its
        covered set: the variables whose rows the witness satisfies, base
        pairings >= 0 and fiber pairings >= 1;
      * solved strictly semistable, it marks every row containing it as not
        unstable, and its witness joins the blockers, whose covered sets
        take fiber pairings >= 0.  Each blocker, in solve order, then takes
        the marked undecided rows inside its covered set, where its weight
        is 0.  A marked row no blocker covers is solved; it has all of a
        semistable support's rows {B >= 0, F >= 1}, which have no point, so
        it skips the first system and asks only the second, as
        `classify_pattern` does once the first has none.

    Covered sets are down-closed and subpatterns come first, so the lowest
    undecided row is the one a row-by-row walk would solve next, and every
    row gets the verdict that walk gives it: stable if it contains a
    support solved stable, else the first covering blocker's if it contains
    a strictly semistable support, else the first covering destabilizer's.
    The rules cannot collide, since each premise is true of the row: a row
    inside a destabilizer's covered set is unstable, so it contains no
    support solved stable or strictly semistable.  A support solved stable
    must lie in no covered set, since every covering witness shows it is not
    stable; otherwise the call raises InternalInvariantError.

    A reused witness is re-checked with `weight_of_pairings`, over the
    pairings its solve computed, once per fiber subset it takes rows of:
    over its covered base pairings, all >= 0, and
    that fiber subset's pairings; a row's base pairings are a subset of
    the covered ones, so this is each row's own weight.  The `Verdict`
    constructor rejects it unless it is < 0 (unstable) or 0 (strictly
    semistable).  Stable rows share one `Verdict`, and every other verdict
    is interned in one dict keyed by its value, so the table holds one
    `Verdict` object per distinct verdict.  The statuses are those of
    classifying every pattern on its own; a witness may be another checked
    lambda than `classify_pattern` gives.  Nothing is kept past the call.
    """
    names = problem.var_names
    if max_vars < 1:
        raise InputError(f"pattern enumeration cap must be >= 1, got {max_vars}")
    if len(names) > max_vars:
        raise InputError(
            f"{len(names)} variables exceed the pattern enumeration cap {max_vars}"
        )
    base_count = len(problem.base_names)

    def subsets(pool: range, smallest: int) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
        """(names, indices) of every subset of the variable indices `pool`
        with at least `smallest` members, in `combinations` order, names in
        declared order."""
        return [
            (tuple(names[i] for i in sub), sub)
            for size in range(smallest, len(pool) + 1)
            for sub in combinations(pool, size)
        ]

    base_subsets = subsets(range(base_count), 0)
    fiber_subsets = subsets(range(base_count, len(names)), 1)
    width = len(fiber_subsets)
    inherited = Verdict(StabilityStatus.STABLE)
    verdicts = [inherited] * (len(base_subsets) * width)
    # Each distinct non-stable verdict, keyed by its value: its witness and
    # weight, which fix its status (< 0 unstable, 0 strictly semistable).
    # So equal verdicts are one object.
    interned: dict[tuple[OnePS, int], Verdict] = {}
    # holding[i]: the rows whose support has variable i, as a spread set of
    # base subsets (bit b * width for subset b) times a set of fiber subsets
    # (bits below width), so the product has no carries.
    every_base = sum(1 << b * width for b in range(len(base_subsets)))
    every_fiber = (1 << width) - 1
    spread = [0] * len(names)
    for b, (_, sub) in enumerate(base_subsets):
        for i in sub:
            spread[i] |= 1 << b * width
    for f, (_, sub) in enumerate(fiber_subsets):
        for i in sub:
            spread[i] |= 1 << f
    holding = [s * every_fiber for s in spread[:base_count]]
    holding += [every_base * s for s in spread[base_count:]]
    everything = (1 << len(verdicts)) - 1

    def rows_with(present: tuple[int, ...], absent: list[int]) -> int:
        """Rows whose support holds every variable of `present` and none of
        `absent`."""
        found = everything
        for i in present:
            found &= holding[i]
        for i in absent:
            found &= ~holding[i]
        return found

    def settle(taken: int, cert: _Certificate) -> None:
        """Give each row of `taken` the certificate's witness, with the
        weight of the row's fiber subset."""
        text = bin(taken)[:1:-1]
        row = text.find("1")
        while row >= 0:
            f = row % width
            verdict = cert.by_fiber.get(f)
            if verdict is None:
                weight = weight_of_pairings(
                    cert.base_pairs, map(cert.pairs.__getitem__, fiber_subsets[f][1])
                )
                key = (cert.verdict.witness, weight)
                verdict = interned.get(key)
                if verdict is None:
                    verdict = interned[key] = Verdict(cert.verdict.status, *key)
                cert.by_fiber[f] = verdict
            verdicts[row] = verdict
            row = text.find("1", row + 1)

    undecided = everything
    covered = 0  # rows inside some certificate's covered set
    marked = 0  # rows containing a support solved strictly semistable
    blockers: list[_Certificate] = []
    while undecided:
        row = (undecided & -undecided).bit_length() - 1
        undecided ^= 1 << row
        b, f = divmod(row, width)
        (base_names, base), (fiber_names, fiber) = base_subsets[b], fiber_subsets[f]
        verdict, pairs = _solve(problem, base, fiber, first=not marked >> row & 1)
        if verdict.status is StabilityStatus.STABLE:
            if covered >> row & 1:
                raise InternalInvariantError(
                    f"support {base_names} + {fiber_names} solved stable lies inside "
                    "a witness's covered set"
                )
            undecided &= ~rows_with(base + fiber, [])
            continue
        verdict = verdicts[row] = interned.setdefault(verdict[1:], verdict)
        unstable = verdict.status is StabilityStatus.UNSTABLE
        fiber_floor = 1 if unstable else 0
        inside = rows_with(
            (),
            [i for i, p in enumerate(pairs) if p < (0 if i < base_count else fiber_floor)],
        )
        covered |= inside
        base_pairs = [p for p in pairs[:base_count] if p >= 0]
        cert = _Certificate(inside, verdict, base_pairs, pairs, {})
        if unstable:
            taken = undecided & inside
            settle(taken, cert)
            undecided ^= taken
            continue
        marked |= rows_with(base + fiber, [])
        blockers.append(cert)
        for blocker in blockers:
            taken = undecided & marked & blocker.inside
            settle(taken, blocker)
            undecided ^= taken
    warnings = ()
    if problem.ideal:
        warnings = ("pattern-level — ideal realizability not checked",)
    return PatternTable(
        [b for b, _ in base_subsets], [f for f, _ in fiber_subsets], verdicts, warnings
    )


def stabilizer_order(problem: GitProblem, point: PointSample) -> int | None:
    """Order of the torus stabilizer of the projective point, or None if infinite.

    The stabilizer is cut out by the character lattice spanned by the weights
    of the nonzero base coordinates together with the pairwise differences of
    the nonzero fiber weights (fiber coordinates matter up to common scalar).
    Its order is the lattice index, the product of the echelon pivots.
    """
    base, fiber = problem.support_indices(support(point))
    weights = problem.weights
    anchor = weights[fiber[0]]
    rows = [weights[i] for i in base]
    rows += [tuple(a - b for a, b in zip(weights[i], anchor)) for i in fiber[1:]]
    rows = [r for r in rows if any(r)]
    _, index = lattice_rank_and_index(rows, problem.torus_rank)
    return index
