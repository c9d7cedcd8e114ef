"""Exact feasibility of integral linear inequality systems, with witnesses.

Constraints come in two kinds: weak rows ``<lam, w> >= 0`` and strict rows
``<lam, w> >= 1``.  Both row sets are integral and the solution set is
invariant under scaling ``lam`` by a positive integer, so the ``>= 1``
encoding is equivalent to strict positivity and every rational solution
scales to an integral one.

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
order and repetition of the input rows never matter, which lets a caller
remember answers under row sets (see `classify.verdict_over_pieces`).
`cone_has_nonzero` settles a cone that lies in a closed orthant with one
solve when it holds only the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .errors import DimensionMismatchError, InputError, InternalInvariantError

IntVec = tuple[int, ...]

# (coefficients, right-hand side), meaning sum(c*x) >= rhs.
_Row = tuple[IntVec, int]

MAX_STAGE_PAIRS = 10**6


@dataclass(frozen=True)
class ConeProblem:
    """A conjunction of weak (>= 0) and strict (>= 1) integral constraints."""

    nonneg_rows: tuple[IntVec, ...]
    strict_rows: tuple[IntVec, ...]
    dim: int

    def __post_init__(self) -> None:
        # Rows may arrive as lists; tuples keep the problem hashable, which
        # the solver relies on when it deduplicates rows.
        object.__setattr__(self, "nonneg_rows", tuple(map(tuple, self.nonneg_rows)))
        object.__setattr__(self, "strict_rows", tuple(map(tuple, self.strict_rows)))
        if self.dim < 0:
            raise InputError(f"dimension must be nonnegative, got {self.dim}")
        for row in self.nonneg_rows + self.strict_rows:
            if len(row) != self.dim:
                raise DimensionMismatchError(
                    f"row {row} has length {len(row)}, expected {self.dim}"
                )


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility question; a witness is present iff feasible."""

    feasible: bool
    witness: IntVec | None

    def __post_init__(self) -> None:
        if self.feasible != (self.witness is not None):
            raise InternalInvariantError("feasible flag and witness disagree")


def make_cone_problem(
    nonneg_rows: list[IntVec] | tuple[IntVec, ...],
    strict_rows: list[IntVec] | tuple[IntVec, ...],
    dim: int | None = None,
) -> ConeProblem:
    """Build a ConeProblem, inferring the dimension from the rows if possible."""
    rows = list(nonneg_rows) + list(strict_rows)
    if dim is None:
        if not rows:
            raise InputError("cannot infer dimension of an empty constraint system")
        dim = len(rows[0])
    return ConeProblem(nonneg_rows, strict_rows, dim)


def _normalize_row(coeffs: list[int], rhs: int) -> _Row | None:
    """Divide a derived row by the gcd of its coefficients.

    Derived right-hand sides are always >= 0, so ceil-dividing the rhs keeps
    exactly the integral solutions (row values at integral points are
    integers).  Trivially true rows are dropped; an all-zero row with a
    positive rhs is kept, as ``0 >= 1``, as an infeasibility certificate.
    """
    g = 0
    for c in coeffs:
        g = gcd(g, c)
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


def solve_cone(problem: ConeProblem) -> FeasibilityResult:
    """Decide the system exactly; on success return an integral witness.

    The witness satisfies every weak row with ``>= 0`` and every strict row
    with ``>= 1``, verified by substitution; it is the primitive integral
    vector of the ray that back-substitution picks (the largest lower bound
    on each variable, otherwise the smaller of its upper bound and 0,
    otherwise 0).  Infeasibility is a proof: some elimination stage contains
    a contradictory constant row, and elimination stops at the first one.
    """
    r = problem.dim
    # Repeated rows are dropped here as every later stage drops them, so the
    # stage sizes, and with them the MAX_STAGE_PAIRS check, depend only on
    # the row set.
    rows: list[_Row] = list(
        dict.fromkeys([(w, 0) for w in problem.nonneg_rows] + [(w, 1) for w in problem.strict_rows])
    )

    stages: list[list[_Row]] = [rows]
    try:
        for j in range(r - 1, -1, -1):
            if _contradicts(rows, j + 1):
                return FeasibilityResult(False, None)
            rows = _eliminate(rows, j)
            stages.append(rows)
    except InputError as exc:
        raise InputError(
            f"rank-{r} cone system of {len(stages[0])} rows is too large for "
            f"Fourier-Motzkin elimination: {exc}"
        ) from None
    if _contradicts(rows, 0):
        return FeasibilityResult(False, None)

    # Back-substitute: stage r-1-j constrains variables 0..j.  Value i is
    # nums[i] / den with den > 0, and a bound on variable j is p / (q * den)
    # with q > 0, so two bounds compare by one cross-multiplication.
    nums: list[int] = []
    den = 1
    for j in range(r):
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
        # The largest lower bound; otherwise min(upper bound, 0); otherwise 0.
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

    # The primitive vector of the ray through nums / den; g divides every
    # pairing, so strict rows keep >= 1 after division.
    g = gcd(*nums)
    result = tuple(n // g for n in nums) if g > 1 else tuple(nums)
    _verify(problem, result)
    return FeasibilityResult(True, result)


def cone_has_nonzero(
    rows: list[IntVec] | tuple[IntVec, ...], dim: int | None = None
) -> IntVec | None:
    """Find a nonzero integral point of the closed cone ``{all rows >= 0}``.

    Returns None when the cone is the origin alone.  The search forces each
    coordinate in turn to be >= 1 or <= -1; since the cone is scaling
    invariant, it contains a nonzero point iff one of the 2*dim restricted
    systems is feasible, and the witness is the one the first feasible
    system's solve returns.  A system whose forced coordinate contradicts a
    row outright (``sign*x_i >= 1`` against the row ``-sign*x_i >= 0``) is
    skipped without a solve.

    When the rows hold a sign row ``s_i*x_i >= 0`` for every coordinate, the
    cone lies in a closed orthant, and it holds a nonzero point iff the one
    system {rows, ``sum s_i*x_i >= 1``} is feasible.  That system is solved
    first whenever more than one axis system would be, so a cone that is the
    origin alone costs one solve instead of up to dim; when it is feasible
    the axis systems still pick the witness.  Every orthant piece of a chain
    configuration is such a cone.  Like `solve_cone`, the answer depends
    only on the set of rows.
    """
    rows = [tuple(r) for r in rows]
    if dim is None:
        if not rows:
            raise InputError("cannot infer dimension of an empty row set")
        dim = len(rows[0])
    # Checks every row against dim even when no axis system reaches a solve.
    make_cone_problem(rows, [], dim)
    row_set = set(rows)
    axes = []  # the forced row of each axis system that needs a solve
    orthant = []  # the sign row found for each coordinate that has one
    for i in range(dim):
        plus = tuple(1 if k == i else 0 for k in range(dim))
        minus = tuple(-a for a in plus)
        if plus in row_set:
            orthant.append(plus)
        elif minus in row_set:
            orthant.append(minus)
        if minus not in row_set:
            axes.append(plus)
        if plus not in row_set:
            axes.append(minus)
    if len(axes) > 1 and len(orthant) == dim:
        inward = tuple(map(sum, zip(*orthant)))
        if not solve_cone(make_cone_problem(rows, [inward], dim)).feasible:
            return None
    for axis in axes:
        result = solve_cone(make_cone_problem(rows, [axis], dim))
        if result.feasible:
            return result.witness
    return None
