"""Exact feasibility of integral linear inequality systems, with witnesses.

Constraints come in two kinds: weak rows ``<lam, w> >= 0`` and strict rows
``<lam, w> >= 1``.  Both row sets are integral and the solution set is
invariant under scaling ``lam`` by a positive integer, so the ``>= 1``
encoding is equivalent to strict positivity and every rational solution
scales to an integral one.

The solver is Fourier-Motzkin elimination.  Eliminating a variable combines
each positive-coefficient row with each negative-coefficient one using
positive integer multipliers, so every derived row stays integral and no
rounding can occur.  Back-substitution through the saved elimination stages
produces an explicit witness, which is re-checked by substitution before it
is returned.

A stage combines every positive row with every negative one, so the row
count can grow doubly exponentially with the rank.  A stage that would form
more than `MAX_STAGE_PAIRS` combinations is refused with an InputError
instead of running for minutes or exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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
    return ConeProblem(tuple(map(tuple, nonneg_rows)), tuple(map(tuple, strict_rows)), dim)


def _normalize_row(coeffs: list[int], rhs: int) -> _Row | None:
    """Divide a derived row by the gcd of its coefficients.

    Derived right-hand sides are always >= 0, so ceil-dividing the rhs keeps
    exactly the integral solutions (row values at integral points are
    integers).  Trivially true rows are dropped; an all-zero row with a
    positive rhs is kept as an infeasibility certificate.
    """
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if g == 0:
        return None if rhs <= 0 else (tuple(coeffs), rhs)
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


def _pick_value(lower: Fraction | None, upper: Fraction | None) -> Fraction:
    if lower is not None:
        return lower
    if upper is not None:
        return min(upper, Fraction(0))
    return Fraction(0)


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
    with ``>= 1``, verified by substitution.  Infeasibility is a proof: the
    eliminated system contains a contradictory constant row.
    """
    r = problem.dim
    rows: list[_Row] = [(w, 0) for w in problem.nonneg_rows]
    rows += [(w, 1) for w in problem.strict_rows]

    stages: list[list[_Row]] = [rows]
    try:
        for j in range(r - 1, -1, -1):
            rows = _eliminate(rows, j)
            stages.append(rows)
    except InputError as exc:
        raise InputError(
            f"rank-{r} cone system of {len(stages[0])} rows is too large for "
            f"Fourier-Motzkin elimination: {exc}"
        ) from None

    if any(rhs > 0 for _, rhs in stages[-1]):
        return FeasibilityResult(False, None)

    # Back-substitute: stage r-1-j constrains variables 0..j.
    values: list[Fraction] = []
    for j in range(r):
        lower: Fraction | None = None
        upper: Fraction | None = None
        for coeffs, rhs in stages[r - 1 - j]:
            c = coeffs[j]
            if c == 0:
                continue
            bound = Fraction(rhs - sum(coeffs[i] * values[i] for i in range(j)), c)
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None and upper is not None and lower > upper:
            raise InternalInvariantError("empty interval during back-substitution")
        values.append(_pick_value(lower, upper))

    scale = lcm(*(v.denominator for v in values)) if values else 1
    witness = [int(v * scale) for v in values]
    g = 0
    for w in witness:
        g = gcd(g, w)
    if g > 1:
        # g divides every pairing, so strict rows keep >= 1 after division.
        witness = [w // g for w in witness]
    result = tuple(witness)
    _verify(problem, result)
    return FeasibilityResult(True, result)


def cone_has_nonzero(
    rows: list[IntVec] | tuple[IntVec, ...], dim: int | None = None
) -> IntVec | None:
    """Find a nonzero integral point of the closed cone ``{all rows >= 0}``.

    Returns None when the cone is the origin alone.  The search forces each
    coordinate in turn to be >= 1 or <= -1; since the cone is scaling
    invariant, it contains a nonzero point iff one of the 2*dim restricted
    systems is feasible.
    """
    rows = [tuple(r) for r in rows]
    if dim is None:
        if not rows:
            raise InputError("cannot infer dimension of an empty row set")
        dim = len(rows[0])
    for i in range(dim):
        for sign in (1, -1):
            axis = tuple(sign if k == i else 0 for k in range(dim))
            result = solve_cone(make_cone_problem(rows, [axis], dim))
            if result.feasible:
                return result.witness
    return None
