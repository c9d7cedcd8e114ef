"""Hilbert-Mumford weight of a one-parameter subgroup at a point.

Convention: a coordinate of weight w scales by t^w under lambda(t), and the
weight of lambda at a point is minus the minimal lambda-degree over the
nonvanishing coordinates of a lift: a plain int.  The weight is infinite,
returned as None, exactly when the base limit fails, i.e. some nonzero base
coordinate has negative lambda-degree, so the flow leaves the affine base as
t -> 0.

Because the action is diagonal, the weight depends on the point only through
its support pattern; `mu_from_pattern` is the shared core.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .model import GitProblem, OnePS, PointSample, SupportPattern, support


def _dot(lam: OnePS, weight: tuple[int, ...]) -> int:
    return sum(map(mul, lam, weight))


def mu_from_pattern(problem: GitProblem, pattern: SupportPattern, lam: OnePS) -> int | None:
    """Weight of lambda against any point realizing the given support
    pattern, or None when it is infinite (the base limit fails)."""
    lam = problem.check_lambda(lam)
    for name in pattern.base:
        if _dot(lam, problem.base_weight(name)) < 0:
            return None
    degrees = [_dot(lam, problem.shifted_fiber_weight(name)) for name in pattern.fiber]
    return -min(degrees)


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
    lam = problem.check_lambda(lam)
    weight = mu_from_pattern(problem, support(point), lam)
    if weight is None:
        return None
    minimal = -weight
    base_values = tuple(
        (n, v if v != 0 and _dot(lam, problem.base_weight(n)) == 0 else Fraction(0))
        for n, v in point.base_values
    )
    fiber_values = tuple(
        (
            n,
            v
            if v != 0 and _dot(lam, problem.shifted_fiber_weight(n)) == minimal
            else Fraction(0),
        )
        for n, v in point.fiber_values
    )
    return PointSample(base_values, fiber_values)
