"""Exact feasibility of integral linear inequality systems, with witnesses.

Constraints come in two kinds: weak rows ``<lam, w> >= 0`` and strict rows
``<lam, w> >= 1``.  A system is stated one way, as `ConeProblem(nonneg_rows,
strict_rows, dim)`, with its dimension given, never inferred from the rows;
`cone_has_nonzero(rows, dim)` takes weak rows alone the same way.  Both row
sets are integral and the solution set is invariant under scaling ``lam``
by a positive integer, so the ``>= 1`` encoding is equivalent to strict
positivity and every rational solution scales to an integral one.

The solver is Fourier-Motzkin elimination, in integers only.  Eliminating a
variable combines each positive-coefficient row with each negative-coefficient
one using positive integer multipliers, so every derived row stays integral
and no rounding can occur.  A stage that holds an all-zero row with a
positive right-hand side proves the system infeasible, and the elimination
stops there.  Otherwise back-substitution through the saved stages produces
an explicit witness: the values are integer numerators over one positive
common denominator, bounds are compared by cross-multiplication, and the
witness is the primitive integral vector of the resulting ray.  It is
re-checked by substitution before it is returned.

A stage combines every positive row with every negative one, so the row
count can grow doubly exponentially with the rank.  A stage that would form
more than `MAX_STAGE_PAIRS` combinations is refused with an InputError
instead of running for minutes or exhausting memory; a system already shown
infeasible at an earlier stage never reaches it.

Every answer, witness and refusal included, is a function of the row set
alone: each stage, the input included, drops repeated rows, a contradiction
is found by membership, and back-substitution takes bounds by value.  So the
order and repetition of the input rows never matter: a support's witness
does not depend on how its rows are listed, which the witness reuse of
`classify.classify_patterns` relies on.
`cone_has_nonzero` needs no solve: each stage of one elimination of the
homogeneous rows is a projection of the cone, and the first stage over
x_0..x_j whose rows all have s*c_j >= 0 starts a witness (0, ..., 0, s);
coordinates pinned to 0 by a pair of unit rows are left out of it.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import mul

from .errors import DimensionMismatchError, InputError, InternalInvariantError

IntVec = tuple[int, ...]

# (coefficients, right-hand side), meaning sum(c*x) >= rhs.
_Row = tuple[IntVec, int]

MAX_STAGE_PAIRS = 10**6


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


def _normalize_row(coeffs: list[int], rhs: int) -> _Row | None:
    """Divide a derived row by the gcd of its coefficients.

    Derived right-hand sides are always >= 0, so ceil-dividing the rhs keeps
    exactly the integral solutions (row values at integral points are
    integers).  Trivially true rows are dropped; an all-zero row with a
    positive rhs is kept, as ``0 >= 1``, as an infeasibility certificate.
    """
    g = gcd(*coeffs)
    if g == 0:
        return None if rhs <= 0 else (tuple(coeffs), 1)
    if g > 1:
        coeffs = [c // g for c in coeffs]
        rhs = -((-rhs) // g)
    return tuple(coeffs), rhs


def _eliminate(rows: list[_Row], j: int) -> list[_Row]:
    """Fourier-Motzkin step removing variable j from the system."""
    zero: list[_Row] = []
    pos: list[_Row] = []
    neg: list[_Row] = []
    for coeffs, rhs in rows:
        c = coeffs[j]
        if c == 0:
            zero.append((coeffs[:j] + coeffs[j + 1 :], rhs))
        elif c > 0:
            pos.append((coeffs, rhs))
        else:
            neg.append((coeffs, rhs))
    if len(pos) * len(neg) > MAX_STAGE_PAIRS:
        raise InputError(
            f"eliminating coordinate {j} of {len(rows)} rows would combine "
            f"{len(pos)} x {len(neg)} row pairs, over the cap of {MAX_STAGE_PAIRS}"
        )
    out = zero
    for pc, prhs in pos:
        for nc, nrhs in neg:
            a, b = pc[j], -nc[j]
            combined = [b * pc[i] + a * nc[i] for i in range(len(pc)) if i != j]
            norm = _normalize_row(combined, b * prhs + a * nrhs)
            if norm is not None:
                out.append(norm)
    # Deduplicate; FM can blow up quadratically per stage otherwise.
    return list(dict.fromkeys(out))


def _contradicts(rows: list[_Row], dim: int) -> bool:
    """True if a stage whose rows have `dim` coefficients holds ``0 >= 1``.

    That is the only form a contradiction takes: a strict input row has
    rhs 1, `_normalize_row` writes every derived one so, and a row whose
    eliminated coefficient is 0 passes on with only that coefficient dropped.
    """
    return ((0,) * dim, 1) in rows


def _verify(problem: ConeProblem, witness: IntVec) -> None:
    for row in problem.nonneg_rows:
        if sum(a * b for a, b in zip(row, witness)) < 0:
            raise InternalInvariantError(f"witness {witness} violates weak row {row}")
    for row in problem.strict_rows:
        if sum(a * b for a, b in zip(row, witness)) < 1:
            raise InternalInvariantError(f"witness {witness} violates strict row {row}")


def _stages(rows: list[_Row], r: int, last: int) -> list[list[_Row]]:
    """Eliminate x_{r-1} down to x_last and return every stage, the input first.

    Stage k constrains x_0..x_{r-1-k}.  Elimination stops early at the first
    stage that holds ``0 >= 1``, which is then the last one returned.
    """
    stages = [rows]
    try:
        for j in range(r - 1, last - 1, -1):
            if _contradicts(rows, j + 1):
                break
            rows = _eliminate(rows, j)
            stages.append(rows)
    except InputError as exc:
        raise InputError(
            f"rank-{r} cone system of {len(stages[0])} rows is too large for "
            f"Fourier-Motzkin elimination: {exc}"
        ) from None
    return stages


def _back_substitute(stages: list[list[_Row]], nums: list[int], r: int) -> IntVec:
    """Extend the integral values `nums` of x_0.. to all r variables.

    Stage r-1-j constrains variables 0..j.  Value i is nums[i] / den with
    den > 0, and a bound on variable j is p / (q * den) with q > 0, so two
    bounds compare by one cross-multiplication.  Each variable takes its
    largest lower bound; otherwise the smaller of its upper bound and 0;
    otherwise 0.  The result is the primitive integral vector of the ray.
    """
    den = 1
    for j in range(len(nums), r):
        lower: tuple[int, int] | None = None
        upper: tuple[int, int] | None = None
        for coeffs, rhs in stages[r - 1 - j]:
            c = coeffs[j]
            if c == 0:
                continue
            # map stops at the end of nums, so only variables 0..j-1 enter.
            s = rhs * den - sum(map(mul, coeffs, nums))
            if c > 0:
                if lower is None or s * lower[1] > lower[0] * c:
                    lower = (s, c)
            elif upper is None or s * upper[1] > upper[0] * c:
                # -s / -c < upper, with -c > 0, cross-multiplied.
                upper = (-s, -c)
        if lower is not None and upper is not None and lower[0] * upper[1] > upper[0] * lower[1]:
            raise InternalInvariantError("empty interval during back-substitution")
        if lower is not None:
            p, q = lower
        elif upper is not None and upper[0] < 0:
            p, q = upper
        else:
            p, q = 0, 1
        g = gcd(p, q)
        if g < q:
            q //= g
            nums = [n * q for n in nums]
            den *= q
        nums.append(p // g)

    # g divides every pairing, so strict rows keep >= 1 after division.
    g = gcd(*nums)
    return tuple(n // g for n in nums) if g > 1 else tuple(nums)


def solve_cone(problem: ConeProblem) -> FeasibilityResult:
    """Decide the system exactly; on success return an integral witness.

    The witness satisfies every weak row with ``>= 0`` and every strict row
    with ``>= 1``, verified by substitution; `_back_substitute` picks it.
    Infeasibility is a proof: some elimination stage contains a
    contradictory constant row, and elimination stops at the first one.
    """
    r = problem.dim
    # Repeated rows are dropped here as every later stage drops them, so the
    # stage sizes, and with them the MAX_STAGE_PAIRS check, depend only on
    # the row set.
    rows: list[_Row] = list(
        dict.fromkeys([(w, 0) for w in problem.nonneg_rows] + [(w, 1) for w in problem.strict_rows])
    )
    stages = _stages(rows, r, 0)
    if _contradicts(stages[-1], r + 1 - len(stages)):
        return FeasibilityResult(False, None)
    result = _back_substitute(stages, [], r)
    _verify(problem, result)
    return FeasibilityResult(True, result)


def cone_has_nonzero(rows: list[IntVec] | tuple[IntVec, ...], dim: int) -> IntVec | None:
    """Find a nonzero integral point of the closed cone ``{all rows >= 0}``.

    Returns None when the cone is the origin alone.  Eliminating x_{dim-1}
    down to x_1 gives every projection at once: the stage over x_0..x_j is
    exactly the projection, since a right-hand side of 0 is never rounded.
    The cone holds a point with x_0..x_{j-1} = 0 and s*x_j > 0 iff every row
    of that stage has s*c_j >= 0.  The first such (j, s), j ascending and
    s = +1 first, is back-substituted from (0, ..., 0, s); that is the
    witness `solve_cone` gives for {rows, s*x_j >= 1}, since every point of
    the cone has x_0..x_{j-1} = 0.  A coordinate with both unit rows ±x_i
    is 0 on the cone; it is left out of the elimination, which keeps every
    stage exact, and put back as 0.  The answer depends only on the row set.
    """
    problem = ConeProblem(rows, (), dim)
    rows = problem.nonneg_rows
    units = {(w.index(sum(w)), sum(w)) for w in rows if sum(map(abs, w)) == 1}
    free = [i for i in range(dim) if (i, 1) not in units or (i, -1) not in units]
    r = len(free)
    # Homogeneous rows never contradict, so every stage is there.
    stages = _stages(list(dict.fromkeys((tuple(w[i] for i in free), 0) for w in rows)), r, 1)
    for j in range(r):
        coeffs = [c[j] for c, _ in stages[r - 1 - j]]
        for s in (1, -1):
            if all(s * c >= 0 for c in coeffs):
                point = dict(zip(free, _back_substitute(stages, [0] * j + [s], r)))
                witness = tuple(point.get(i, 0) for i in range(dim))
                _verify(problem, witness)
                if not any(witness):
                    raise InternalInvariantError("the cone witness is the origin")
                return witness
    return None
