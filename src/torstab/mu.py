"""Hilbert-Mumford weight of a one-parameter subgroup at a point.

Convention: a coordinate of weight w scales by t^w under lambda(t), and the
weight of lambda at a point is minus the minimal lambda-degree over the
nonvanishing coordinates of a lift.  The value is infinite exactly when the
base limit fails, i.e. some nonzero base coordinate has negative
lambda-degree, so the flow leaves the affine base as t -> 0.

Because the action is diagonal, the weight depends on the point only through
its support pattern; `mu_from_pattern` is the shared core.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import InputError
from .model import GitProblem, OnePS, PointSample, SupportPattern, support


class MuValue(namedtuple("MuValue", "value", defaults=(None,))):
    """An integer weight or the infinite marker (no limit point)."""

    value: int | None
    __slots__ = ()

    @classmethod
    def finite(cls, value: int) -> "MuValue":
        return cls(int(value))

    @classmethod
    def infinite(cls) -> "MuValue":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def scaled(self, m: int) -> "MuValue":
        """Value under lambda -> m*lambda for a positive integer m."""
        if m < 1:
            raise InputError(f"scale factor must be >= 1, got {m}")
        if self.is_infinite:
            return self
        return MuValue(self.value * m)

    def __lt__(self, other: int) -> bool:
        return not self.is_infinite and self.value < other

    def __le__(self, other: int) -> bool:
        return not self.is_infinite and self.value <= other

    def __gt__(self, other: int) -> bool:
        return self.is_infinite or self.value > other

    def __ge__(self, other: int) -> bool:
        return self.is_infinite or self.value >= other

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.value)


def _dot(lam: OnePS, weight: tuple[int, ...]) -> int:
    return sum(map(mul, lam, weight))


def mu_from_pattern(problem: GitProblem, pattern: SupportPattern, lam: OnePS) -> MuValue:
    """Weight of lambda against any point realizing the given support pattern."""
    lam = problem.check_lambda(lam)
    for name in pattern.base:
        if _dot(lam, problem.base_weight(name)) < 0:
            return MuValue.infinite()
    degrees = [_dot(lam, problem.shifted_fiber_weight(name)) for name in pattern.fiber]
    return MuValue.finite(-min(degrees))


def mu(problem: GitProblem, point: PointSample, lam: OnePS) -> MuValue:
    """Weight of lambda at a point; infinite iff the base limit fails."""
    return mu_from_pattern(problem, support(point), lam)


def limit_point(problem: GitProblem, point: PointSample, lam: OnePS) -> PointSample | None:
    """Specialization of the point under lambda(t) as t -> 0.

    Absent exactly when `mu` is infinite.  Base coordinates of positive
    degree specialize to zero and degree-zero ones survive; fiber coordinates
    survive exactly on the support variables attaining the minimal degree.
    The result is a fixed point of lambda, with the same weight.
    """
    lam = problem.check_lambda(lam)
    weight = mu_from_pattern(problem, support(point), lam)
    if weight.is_infinite:
        return None
    minimal = -weight.value
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
