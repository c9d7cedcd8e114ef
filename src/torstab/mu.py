"""Hilbert-Mumford weight of a one-parameter subgroup at a point.

Convention: a coordinate of weight w scales by t^w under lambda(t), and the
weight of lambda at a point is minus the minimal lambda-degree over the
nonvanishing coordinates of a lift: a plain int.  The weight is infinite,
returned as None, exactly when the base limit fails, i.e. some nonzero base
coordinate has negative lambda-degree, so the flow leaves the affine base as
t -> 0.

Because the action is diagonal, the weight depends on the point only through
the pairings <lambda, w_v> of its support variables.  `pairings` is the one
place lambda meets the weights, and `weight_of_pairings` the one rule over
them: `mu_from_pattern` reads a support's pairings by their positions in
`var_names` (`GitProblem.support_indices`), and `classify` reads each
witness's pairings, computed once, for every support it is checked on.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from operator import mul

from .model import GitProblem, OnePS, PointSample, SupportPattern, support


def pairings(problem: GitProblem, lam: OnePS) -> list[int]:
    """<lambda, w_v> for every declared variable, indexed like
    `problem.var_names`: base weights, then shifted fiber weights."""
    lam = problem.check_lambda(lam)
    return [sum(map(mul, lam, w)) for w in problem.weights]


def weight_of_pairings(base: Iterable[int], fiber: Iterable[int]) -> int | None:
    """Weight from lambda's pairings with a support's base and fiber
    variables: None when some base pairing is < 0, else -min(fiber)."""
    if min(base, default=0) < 0:
        return None
    return -min(fiber)


def mu_from_pattern(problem: GitProblem, pattern: SupportPattern, lam: OnePS) -> int | None:
    """Weight of lambda against any point realizing the given support
    pattern, or None when it is infinite (the base limit fails)."""
    pairs = pairings(problem, lam)
    base, fiber = problem.support_indices(pattern)
    return weight_of_pairings(map(pairs.__getitem__, base), map(pairs.__getitem__, fiber))


def mu(problem: GitProblem, point: PointSample, lam: OnePS) -> int | None:
    """Weight of lambda at a point; None (infinite) iff the base limit fails."""
    return mu_from_pattern(problem, support(point), lam)


def limit_point(problem: GitProblem, point: PointSample, lam: OnePS) -> PointSample | None:
    """Specialization of the point under lambda(t) as t -> 0.

    Absent exactly when `mu` is infinite (None).  Base coordinates of positive
    degree specialize to zero and degree-zero ones survive; fiber coordinates
    survive exactly on the support variables attaining the minimal degree.
    The result is a fixed point of lambda, with the same weight.
    """
    pairs = pairings(problem, lam)
    weight = mu(problem, point, lam)
    if weight is None:
        return None
    at = problem.positions

    def kept(values, degree):
        return tuple(
            (n, v if v != 0 and pairs[at[n]] == degree else Fraction(0)) for n, v in values
        )

    return PointSample(kept(point.base_values, 0), kept(point.fiber_values, -weight))
