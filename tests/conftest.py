"""Shared fixtures and independent oracles.

The brute-force classifiers here re-decide stability by scanning integral
subgroups in a box, interpreting the weight thresholds directly.  They share
no code path with the cone-based classifiers they validate.  `mu_oracle`
re-computes the subgroup weight by enumerating lifted monomials up to a
degree bound instead of trusting the pure-generator argument of `torstab.mu`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from torstab import (
    GitProblem,
    MuValue,
    PointSample,
    StabilityStatus,
    SupportPattern,
    conic_bundle_problem,
    degenerating_conic_problem,
    king_theta1_problem,
    mu_from_pattern,
    support,
)
from torstab.degeneration import ChainConfiguration, WeightTable, mu_config
from torstab.errors import InputError


@pytest.fixture
def conic() -> GitProblem:
    return conic_bundle_problem()


@pytest.fixture
def king() -> GitProblem:
    return king_theta1_problem()


@pytest.fixture
def conic_surface() -> GitProblem:
    return degenerating_conic_problem()


def point(problem: GitProblem, **values) -> PointSample:
    return PointSample.for_problem(problem, values)


def box(rank: int, bound: int):
    return product(range(-bound, bound + 1), repeat=rank)


def _pairing(lam, weight) -> int:
    return sum(a * b for a, b in zip(lam, weight))


def mu_oracle(
    problem: GitProblem, point: PointSample, lam: tuple[int, ...], degree_bound: int
) -> MuValue:
    """Enumeration oracle for `mu`.

    Enumerates lifted monomials a*g, with a a base monomial of total degree
    at most degree_bound and g a fiber generator, evaluates each at the lifted
    point, and takes minus the minimal lambda-degree over the nonvanishing
    ones.  A nonzero base coordinate of negative degree makes the degrees
    unbounded below (a^N * g drops without limit), matching the infinite case.
    """
    if degree_bound < 0:
        raise InputError(f"degree bound must be nonnegative, got {degree_bound}")
    lam = problem.check_lambda(lam)
    support(point)  # zero-section validation
    values = point.as_dict()

    base = list(problem.base_vars)
    for name, weight in base:
        if values[name] != 0 and _pairing(lam, weight) < 0:
            return MuValue.infinite()

    best: int | None = None
    fiber_degrees = [
        (_pairing(lam, problem.shifted_fiber_weight(name)), values[name])
        for name in problem.fiber_names
    ]
    for size in range(degree_bound + 1):
        for combo in combinations_with_replacement(range(len(base)), size):
            coeff = Fraction(1)
            degree = 0
            for idx in combo:
                name, weight = base[idx]
                coeff *= values[name]
                degree += _pairing(lam, weight)
            if coeff == 0:
                continue
            for fdeg, fval in fiber_degrees:
                if fval == 0:
                    continue
                total = degree + fdeg
                if best is None or total < best:
                    best = total
    assert best is not None, "support() guarantees a nonvanishing fiber generator"
    return MuValue.finite(-best)


def brute_force_status(
    problem: GitProblem, pattern: SupportPattern, bound: int = 5
) -> StabilityStatus:
    """Theorem-threshold scan over the subgroup box [-bound, bound]^r."""
    stable = True
    for lam in box(problem.torus_rank, bound):
        if not any(lam):
            continue
        value = mu_from_pattern(problem, pattern, lam)
        if value < 0:
            return StabilityStatus.UNSTABLE
        if value <= 0:
            stable = False
    return StabilityStatus.STABLE if stable else StabilityStatus.STRICTLY_SEMISTABLE


def random_problem(rng: random.Random) -> GitProblem:
    rank = rng.randint(1, 3)
    nvars = rng.randint(2, 6)
    nfiber = rng.randint(1, nvars - 1) if nvars > 1 else 1
    names = [f"w{i}" for i in range(nvars)]

    def weight():
        return tuple(rng.randint(-3, 3) for _ in range(rank))

    base = tuple((n, weight()) for n in names[: nvars - nfiber])
    fiber = tuple((n, weight()) for n in names[nvars - nfiber :])
    return GitProblem(torus_rank=rank, base_vars=base, fiber_vars=fiber)


_VALUES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 7)]


def random_point(rng: random.Random, problem: GitProblem) -> PointSample:
    names = problem.var_names
    fiber_names = problem.fiber_names
    anchored = rng.choice(fiber_names)  # keep the lift off the zero section
    values = {}
    for name in names:
        if name == anchored or rng.random() < 0.5:
            values[name] = rng.choice(_VALUES)
        else:
            values[name] = Fraction(0)
    return PointSample.for_problem(problem, values)


def brute_force_config_status(
    table: WeightTable, config: ChainConfiguration, bound: int = 5
) -> StabilityStatus:
    """Box scan for chain configurations, skipping subgroups without a base
    limit (those have infinite weight and cannot destabilize)."""
    stratum = config.stratum
    n = stratum.n
    stable = True
    for lam in box(n, bound):
        if not any(lam):
            continue
        padded = (0,) + lam + (0,)
        if any(
            padded[i] - padded[i - 1] < 0
            for i in range(1, n + 2)
            if i not in stratum.vanishing
        ):
            continue
        value = mu_config(table, config, lam)
        if value < 0:
            return StabilityStatus.UNSTABLE
        if value <= 0:
            stable = False
    return StabilityStatus.STABLE if stable else StabilityStatus.STRICTLY_SEMISTABLE


def decay_profile(magnitude: Fraction, degree: int, steps: int = 20) -> list[Fraction]:
    """|c| * t^degree along t = 1/2, 1/4, ..., 2^-steps, computed exactly."""
    return [abs(magnitude) * Fraction(1, 2**k) ** degree for k in range(1, steps + 1)]
