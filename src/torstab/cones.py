"""Exact feasibility of integral linear inequality systems, with witnesses.

Constraints come in two kinds: weak rows ``<lam, w> >= 0`` and strict rows
``<lam, w> >= 1``.  A system is stated one way, as `ConeProblem(nonneg_rows,
strict_rows, dim)`, with its dimension given, never inferred from the rows;
`cone_has_nonzero(rows, dim)` takes weak rows alone the same way.  Both row
sets are integral and the solution set is invariant under scaling ``lam``
by a positive integer, so the ``>= 1`` encoding is equivalent to strict
positivity and every rational solution scales to an integral one.

The solver is one simplex on the dual problem, in integers only.  With W
the rows and b the right-hand sides (0 weak, 1 strict), {W lam >= b} has a
point exactly when max b.y over the cone {W^T y = 0, y >= 0} is 0 (Farkas);
otherwise the maximum is unbounded along a ray y >= 0 with b.y > 0 and
sum y_i W_i = 0.  Every basic solution of that problem is y = 0, so the
simplex only pivots, and Bland's rule (the first improving column enters,
the leaving row is the one whose basic column comes first) stops it
(Bland, Math. Oper. Res. 2, 1977).  It stops at an optimum, whose
objective row holds D * lam in the identity block of the tableau
[W^T | sum W | I], or at an improving column with no positive entry, which
gives the ray.  D is the tableau's one denominator: every entry is an
integer over it, and each pivot divides exactly by the previous one
(Bareiss, Math. Comp. 22, 1968).

`decide_cone` answers both of a support's questions on that one tableau.
Gauss-Jordan first pivots each coordinate's row on its first nonzero
column of W^T; a row it leaves zero is a vector of the kernel of W, read
off the row's identity block.  Then it returns a point of {W lam >= b}
when there is one; else a nonzero point of the closed cone {W lam >= 0}:
the kernel vector when W has rank below dim, and otherwise a point of
{W lam >= 0, (sum W).lam >= 1}, since on a full-rank W a nonzero lam of
the cone has some row > 0.  Every answer is checked by substitution before
it is returned: a witness against its rows, an infeasibility by its ray.
So a slip in the exact-division arithmetic raises InternalInvariantError
instead of passing as a verdict.  A witness is the primitive integral
vector of its ray.

Rows are sorted and deduplicated first, the weak copy of a strict row
dropped, so every answer, witness included, is a function of the row set
alone: a support's witness does not depend on how its rows are listed,
which the witness reuse of `classify.classify_patterns` relies on.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import mul

from .errors import DimensionMismatchError, InputError, InternalInvariantError

IntVec = tuple[int, ...]


class ConeProblem(namedtuple("ConeProblem", "nonneg_rows strict_rows dim")):
    """A conjunction of weak (>= 0) and strict (>= 1) integral constraints."""

    nonneg_rows: tuple[IntVec, ...]
    strict_rows: tuple[IntVec, ...]
    dim: int
    __slots__ = ()

    def __new__(cls, nonneg_rows, strict_rows, dim) -> ConeProblem:
        # Rows may arrive as lists; tuples keep the problem hashable, which
        # the solver relies on when it deduplicates rows.
        nonneg_rows = tuple(map(tuple, nonneg_rows))
        strict_rows = tuple(map(tuple, strict_rows))
        if dim < 0:
            raise InputError(f"dimension must be nonnegative, got {dim}")
        for row in nonneg_rows + strict_rows:
            if len(row) != dim:
                raise DimensionMismatchError(
                    f"row {row} has length {len(row)}, expected {dim}"
                )
        return tuple.__new__(cls, (nonneg_rows, strict_rows, dim))


class FeasibilityResult(namedtuple("FeasibilityResult", "feasible witness")):
    """Outcome of a feasibility question; a witness is present iff feasible."""

    feasible: bool
    witness: IntVec | None
    __slots__ = ()

    def __new__(cls, feasible, witness) -> FeasibilityResult:
        if feasible != (witness is not None):
            raise InternalInvariantError("feasible flag and witness disagree")
        return tuple.__new__(cls, (feasible, witness))


def _verify(witness: IntVec, weak, strict=(), nonzero: bool = False) -> IntVec:
    for row in weak:
        if sum(map(mul, row, witness)) < 0:
            raise InternalInvariantError(f"witness {witness} violates weak row {row}")
    for row in strict:
        if sum(map(mul, row, witness)) < 1:
            raise InternalInvariantError(f"witness {witness} violates strict row {row}")
    if nonzero and not any(witness):
        raise InternalInvariantError("the cone witness is the origin")
    return witness


def _check_ray(coords: list[IntVec], costs: list[int], ray: list[int]) -> None:
    """Raise unless y = `ray` proves {<lam, column> >= cost} infeasible:
    y >= 0, costs.y > 0 and sum y_i column_i = 0, where coords[k] holds
    coordinate k of every column."""
    if min(ray) < 0 or sum(map(mul, costs, ray)) <= 0:
        raise InternalInvariantError(f"ray {ray} is not a nonnegative improving ray")
    if any(sum(map(mul, ray, coord)) for coord in coords):
        raise InternalInvariantError(f"ray {ray} does not balance its columns")


def _primitive(vector: list[int]) -> IntVec:
    g = gcd(*vector)
    return tuple(v // g for v in vector) if g > 1 else tuple(vector)


def _pivot(tableau: list[list[int]], r: int, s: int, den: int) -> int:
    """Pivot every row but r on the positive entry (r, s), dividing exactly
    by the old denominator `den`, and return the new one, that entry."""
    top = tableau[r]
    p = top[s]
    for i, row in enumerate(tableau):
        f = row[s]
        if f:
            if i != r:
                tableau[i] = [(p * a - f * c) // den for a, c in zip(row, top)]
        elif p != den:
            tableau[i] = [p * a // den for a in row]
    return p


def decide_cone(problem: ConeProblem, first: bool = True) -> tuple[bool, IntVec | None]:
    """Answer a support's two questions on one tableau.

    With `first`, return (True, lam) for an integral point lam of the
    system.  Otherwise, or when it has none, return (False, lam) for a
    nonzero integral point of the closed cone where every row, weak or
    strict, is >= 0, or (False, None) when that cone is the origin.
    """
    dim = problem.dim
    strict = sorted(set(problem.strict_rows))
    weak = sorted(set(problem.nonneg_rows).difference(strict))
    rows = strict + weak
    n = len(rows)
    # coords[k]: coordinate k of every row, then of their sum.
    coords = [(*c, sum(c)) for c in zip(*rows)] or [(0,)] * dim
    tableau = [[*c, *(0,) * k, 1, *(0,) * (dim - 1 - k)] for k, c in enumerate(coords)]
    basis: list[int] = []
    den = 1
    kernel = None
    r = 0
    while r < len(tableau):
        row = tableau[r]
        s = next(filter(row.__getitem__, range(n)), None)
        if s is None:
            kernel = kernel or row[n + 1 :]
            del tableau[r]
            continue
        if row[s] < 0:
            tableau[r] = [-a for a in row]
        den = _pivot(tableau, r, s, den)
        basis.append(s)
        r += 1

    def maximize(costs: list[int]) -> IntVec | None:
        """Bland's simplex for max costs.y over the first len(costs) columns,
        from the current basis: the optimum's lam, or None once the ray it
        ends on is checked."""
        nonlocal den
        m = len(costs)
        objective = [-den * c for c in costs] + [0] * (n + 1 + dim - m)
        for row, j in zip(tableau, basis):
            if costs[j]:
                objective = [a + b for a, b in zip(objective, row)]
        while True:
            s = next((j for j in range(m) if objective[j] < 0), None)
            if s is None:
                return _primitive(objective[n + 1 :])
            leaving = [i for i, row in enumerate(tableau) if row[s] > 0]
            if not leaving:
                ray = [0] * m
                ray[s] = den
                for row, j in zip(tableau, basis):
                    ray[j] = -row[s]
                _check_ray(coords, costs, ray)
                return None
            r = min(leaving, key=basis.__getitem__)
            tableau.append(objective)
            den = _pivot(tableau, r, s, den)
            objective = tableau.pop()
            basis[r] = s

    if first:
        lam = maximize([1] * len(strict) + [0] * len(weak))
        if lam is not None:
            return True, _verify(lam, problem.nonneg_rows, problem.strict_rows)
    if kernel is None:
        lam = maximize([0] * n + [1])
        if lam is None:
            return False, None
    else:
        lam = _primitive(kernel)
    return False, _verify(lam, rows, nonzero=True)


def solve_cone(problem: ConeProblem) -> FeasibilityResult:
    """Decide the system exactly; on success return an integral witness,
    which satisfies every weak row with ``>= 0`` and every strict row with
    ``>= 1``.  Infeasibility is proved by a checked ray of the dual."""
    feasible, lam = decide_cone(problem)
    return FeasibilityResult(feasible, lam if feasible else None)


def cone_has_nonzero(rows: list[IntVec] | tuple[IntVec, ...], dim: int) -> IntVec | None:
    """Find a nonzero integral point of the closed cone ``{all rows >= 0}``,
    or None when the cone is the origin alone."""
    return decide_cone(ConeProblem(rows, (), dim), first=False)[1]
