"""Shared fixtures and independent oracles.

The brute-force classifiers here re-decide stability by scanning integral
subgroups in a box, interpreting the weight thresholds directly.  They share
no code path with the cone-based classifiers they validate.  `mu_oracle`
re-computes the subgroup weight by enumerating lifted monomials up to a
degree bound instead of trusting the pure-generator argument of `torstab.mu`.
`solve_cone_oracle` and `cone_has_nonzero_oracle` are the Fourier-Motzkin
solver as it was before its integer-only back-substitution: every stage is
eliminated, and the witness is back-substituted with `Fraction`s.
`config_verdict_oracle` is the chain classifier as it was before it read
weights at the cube points of a stratum: one cone per sign orthant, solved
by `verdict_over_pieces`, the multi-piece verdict walk that the package's
pattern core used before it became one system per support.
`pattern_table_oracle` is `classify_patterns` as it was before it decided
rows by sets: one row at a time, scanning the supports solved stable and
strictly semistable and then the certificates in solve order.
`invariant_monomials_oracle`, `minimal_generators_oracle` and
`relations_oracle` are the invariant-ring kernels as they were before the
meet-in-the-middle enumeration, without their shortcuts: every exponent
vector within the degree bound is visited, every monomial is tested against
every smaller one, and every generator product up to the syzygy degree is
tried.  Their helpers (`_order_key`, `_expand`, `_generator_monomials`) are
kept here, so that the oracles share no code with the kernel they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm

import pytest

from torstab import (
    GitProblem,
    MonomialInvariant,
    Polynomial,
    PointSample,
    StabilityStatus,
    SupportPattern,
    conic_bundle_problem,
    degenerating_conic_problem,
    king_theta1_problem,
    mu_from_pattern,
    support,
)
from torstab.classify import Verdict, classify_pattern
from torstab.cones import (
    ConeProblem,
    FeasibilityResult,
    _eliminate,
    cone_has_nonzero,
    solve_cone,
)
from torstab.degeneration import ChainConfiguration, WeightTable, mu_config
from torstab.errors import InputError
from torstab.mu import pairings, weight_of_pairings
from torstab.snf import IntegerLattice


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


def synthetic_point(problem: GitProblem, pattern: SupportPattern) -> PointSample:
    """A point realizing the pattern: value 1 on the support, 0 elsewhere."""
    one, zero = Fraction(1), Fraction(0)
    return PointSample(
        tuple((n, one if n in pattern.base else zero) for n in problem.base_names),
        tuple((n, one if n in pattern.fiber else zero) for n in problem.fiber_names),
    )


def box(rank: int, bound: int):
    return product(range(-bound, bound + 1), repeat=rank)


def _pairing(lam, weight) -> int:
    return sum(a * b for a, b in zip(lam, weight))


def mu_oracle(
    problem: GitProblem, point: PointSample, lam: tuple[int, ...], degree_bound: int
) -> int | None:
    """Enumeration oracle for `mu`.

    Enumerates lifted monomials a*g, with a a base monomial of total degree
    at most degree_bound and g a fiber generator, evaluates each at the lifted
    point, and takes minus the minimal lambda-degree over the nonvanishing
    ones.  A nonzero base coordinate of negative degree makes the degrees
    unbounded below (a^N * g drops without limit), matching the infinite case,
    None.
    """
    if degree_bound < 0:
        raise InputError(f"degree bound must be nonnegative, got {degree_bound}")
    lam = problem.check_lambda(lam)
    support(point)  # zero-section validation
    values = point.as_dict()

    base = list(problem.base_vars)
    for name, weight in base:
        if values[name] != 0 and _pairing(lam, weight) < 0:
            return None

    best: int | None = None
    fiber_degrees = [
        (_pairing(lam, tuple(a + b for a, b in zip(weight, problem.shift))), values[name])
        for name, weight in problem.fiber_vars
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
    return -best


def solve_cone_oracle(problem: ConeProblem) -> FeasibilityResult:
    """`torstab.solve_cone` with rational back-substitution and no early exit.

    Every variable is eliminated (`torstab.cones._eliminate`); the system is
    infeasible iff the last stage holds a positive constant.  Otherwise each
    variable, in order, takes its largest lower bound, else the smaller of
    its upper bound and 0, else 0, and the values are scaled to the
    primitive integral vector of their ray.
    """
    r = problem.dim
    rows = [(w, 0) for w in problem.nonneg_rows] + [(w, 1) for w in problem.strict_rows]
    stages = [rows]
    for j in range(r - 1, -1, -1):
        rows = _eliminate(rows, j)
        stages.append(rows)
    if any(rhs > 0 for _, rhs in stages[-1]):
        return FeasibilityResult(False, None)
    values: list[Fraction] = []
    for j in range(r):
        lower = upper = None
        for coeffs, rhs in stages[r - 1 - j]:
            c = coeffs[j]
            if c == 0:
                continue
            bound = Fraction(rhs - sum(coeffs[i] * values[i] for i in range(j)), c)
            if c > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        assert lower is None or upper is None or lower <= upper
        if lower is not None:
            values.append(lower)
        elif upper is not None:
            values.append(min(upper, Fraction(0)))
        else:
            values.append(Fraction(0))
    scale = lcm(*(v.denominator for v in values))
    witness = [int(v * scale) for v in values]
    g = gcd(*witness)
    return FeasibilityResult(True, tuple(w // g if g > 1 else w for w in witness))


def cone_has_nonzero_oracle(rows, dim: int):
    """`torstab.cone_has_nonzero` solving all 2*dim axis systems in turn."""
    for i in range(dim):
        for sign in (1, -1):
            axis = tuple(sign if k == i else 0 for k in range(dim))
            result = solve_cone_oracle(ConeProblem(rows, [axis], dim))
            if result.feasible:
                return result.witness
    return None


def brute_force_status(
    problem: GitProblem, pattern: SupportPattern, bound: int = 5
) -> StabilityStatus:
    """Theorem-threshold scan over the subgroup box [-bound, bound]^r."""
    stable = True
    for lam in box(problem.torus_rank, bound):
        if not any(lam):
            continue
        value = mu_from_pattern(problem, pattern, lam)
        if value is None:
            continue
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


def verdict_over_pieces(pieces, dim: int, weight) -> Verdict:
    """Verdict for a weight that is linear on each piece (weak, strict).

    A piece is the cone where its weak rows are >= 0; on it the weight is
    < 0 exactly where every strict row is >= 1 and <= 0 exactly where every
    strict row is >= 0, so every piece has at least one strict row.

    The first pass solves {weak >= 0, strict >= 1} on each piece in order;
    the first integral point found destabilizes.  Only then does a second
    pass look for a nonzero point of {weak >= 0, strict >= 0}, walking the
    pieces the first pass already built, so pieces may be generated lazily
    and an unstable point never pays for the pieces after its witness.
    Each witness's weight is recomputed by `weight` (None when infinite),
    and the Verdict constructor rejects it unless it is < 0 (unstable) or 0
    (strictly semistable).
    """
    seen = []
    for weak, strict in pieces:
        seen.append((weak, strict))
        destab = solve_cone(ConeProblem(weak, strict, dim))
        if destab.feasible:
            return Verdict(StabilityStatus.UNSTABLE, destab.witness, weight(destab.witness))
    for weak, strict in seen:
        blocker = cone_has_nonzero(list(weak) + list(strict), dim)
        if blocker is not None:
            return Verdict(StabilityStatus.STRICTLY_SEMISTABLE, blocker, weight(blocker))
    return Verdict(StabilityStatus.STABLE)


def config_verdict_oracle(table: WeightTable, config: ChainConfiguration) -> Verdict:
    """`torstab.classify_config` by exact cone analysis, one piece per sign
    orthant in `product((1, -1))` order: the weak rows are the base-limit
    rows and the orthant's sign rows, and the one strict row is the
    count-weighted sum of the components' limit weights on that orthant."""
    n = table.n
    stratum = config.stratum

    def pieces():
        for orthant in product((1, -1), repeat=n):
            signs = [tuple(orthant[i] if j == i else 0 for j in range(n)) for i in range(n)]
            form = [0] * n
            for interval, count in zip(stratum.intervals, config.lengths):
                for i, w in enumerate(table.limit_weights(interval, orthant)):
                    form[i] += count * w
            yield [*stratum.limit_rows, *signs], [tuple(form)]

    return verdict_over_pieces(pieces(), n, lambda lam: mu_config(table, config, lam))


def pattern_table_oracle(problem: GitProblem, solve=classify_pattern):
    """`torstab.classify_patterns`'s rows, decided one row at a time.

    Rows come base size outer, fiber size inner.  A row containing a support
    solved stable is stable; otherwise, if it contains a support solved
    strictly semistable, the first strictly semistable certificate (in solve
    order) whose mask holds it gives its witness, else the first unstable
    one does; a row no rule decides is classified by `solve`.  A
    certificate's mask is the variables whose rows its witness's pairings
    satisfy (base >= 0; fiber >= 1 for an unstable witness, >= 0 for a
    strictly semistable one), and a reused witness's weight is
    `weight_of_pairings` over the row's own entries.  Stable rows share one
    `Verdict`, and each witness one per distinct weight.
    """
    names = problem.var_names
    base_count = len(problem.base_names)

    def satisfied(pairs, fiber_floor):
        floors = [0] * base_count + [fiber_floor] * (len(names) - base_count)
        return sum(1 << i for i, (p, f) in enumerate(zip(pairs, floors)) if p >= f)

    def subsets(pool, smallest):
        return [
            (frozenset(names[i] for i in sub), sum(1 << i for i in sub), sub)
            for size in range(smallest, len(pool) + 1)
            for sub in combinations(pool, size)
        ]

    fiber_subsets = subsets(range(base_count, len(names)), 1)
    inherited = Verdict(StabilityStatus.STABLE)
    stable, semistable, destabilizers, blockers = [], [], [], []
    by_witness = {}
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
                    [pairs[i] for i in base_indices], [pairs[i] for i in fiber_indices]
                )
                verdict = by_weight.get(weight)
                if verdict is None:
                    verdict = by_weight[weight] = Verdict(solved.status, solved.witness, weight)
                rows.append((pattern, verdict))
                continue
            verdict = solve(problem, pattern)
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
    return rows


def decay_profile(magnitude: Fraction, degree: int, steps: int = 20) -> list[Fraction]:
    """|c| * t^degree along t = 1/2, 1/4, ..., 2^-steps, computed exactly."""
    return [abs(magnitude) * Fraction(1, 2**k) ** degree for k in range(1, steps + 1)]


def _order_key(mono: MonomialInvariant) -> tuple[int, tuple[int, ...]]:
    return sum(mono.exponents), tuple(-e for e in mono.exponents)


def invariant_monomials_oracle(problem: GitProblem, bound: int) -> list[MonomialInvariant]:
    """`torstab.invariant_monomials` descending into every exponent vector of
    total degree <= bound and keeping those of weight zero.  The weights are
    read from the declared data: base weights, then fiber weights plus the
    shift."""
    weights = [w for _, w in problem.base_vars] + [
        [a + b for a, b in zip(w, problem.shift)] for _, w in problem.fiber_vars
    ]
    nbase = len(problem.base_vars)
    rank = problem.torus_rank
    found: list[MonomialInvariant] = []

    def descend(idx, budget, weight, exps):
        if idx == len(weights):
            if any(exps) and not any(weight):
                found.append(MonomialInvariant(tuple(exps), sum(exps[nbase:])))
            return
        wvec = weights[idx]
        for e in range(budget + 1):
            exps.append(e)
            descend(idx + 1, budget - e, [weight[k] + e * wvec[k] for k in range(rank)], exps)
            exps.pop()

    descend(0, bound, [0] * rank, [])
    found.sort(key=_order_key)
    return found


def minimal_generators_oracle(monomials: list[MonomialInvariant]) -> list[MonomialInvariant]:
    """`torstab.minimal_generators` testing every monomial against every
    listed monomial of smaller degree: it is a generator unless one of them
    divides it with a listed quotient."""
    listed = {mono.exponents for mono in monomials}
    generators = []
    for mono in monomials:
        reducible = False
        for factor in monomials:
            if sum(factor.exponents) >= sum(mono.exponents):
                break  # canonical order is ascending in total degree
            rem = tuple(a - b for a, b in zip(mono.exponents, factor.exponents))
            if min(rem) < 0:
                continue
            if any(rem) and rem in listed:
                reducible = True
                break
        if not reducible:
            generators.append(mono)
    return generators


def _expand(generators: list[MonomialInvariant], powers: tuple[int, ...]) -> tuple[int, ...]:
    total: dict[int, int] = {}
    for gen, power in zip(generators, powers):
        for i, e in enumerate(gen.exponents):
            total[i] = total.get(i, 0) + power * e
    return tuple(total.values())


def _generator_monomials(count: int, bound: int):
    """Exponent vectors over the generators, pass by pass: pass t = 1..bound
    yields every vector of total degree <= t, the zero vector included, in
    descending lexicographic order.  A vector of degree d < t is yielded
    again in pass t."""
    def descend(idx: int, budget: int, prefix: tuple[int, ...]):
        if idx == count:
            yield prefix
            return
        for e in range(budget, -1, -1):
            yield from descend(idx + 1, budget - e, prefix + (e,))

    for total in range(1, bound + 1):
        yield from descend(0, total, ())


def relations_oracle(generators: list[MonomialInvariant], max_syzygy_degree: int) -> list[Polynomial]:
    """`torstab.relations` with its default names, trying every generator
    product up to the bound, with no stop once the relation lattice is
    complete and no cap."""
    names = [f"g{i}" for i in range(len(generators))]
    first_reaching = {}
    lattice = IntegerLattice(len(generators))
    found = []
    for powers in _generator_monomials(len(generators), max_syzygy_degree):
        expanded = _expand(generators, powers)
        rep = first_reaching.get(expanded)
        if rep is None:
            first_reaching[expanded] = powers
            continue
        vector = tuple(a - b for a, b in zip(powers, rep))
        if lattice.contains(vector):
            continue
        lattice.add(vector)
        found.append(
            Polynomial.make(
                [
                    (1, {names[i]: e for i, e in enumerate(powers) if e}),
                    (-1, {names[i]: e for i, e in enumerate(rep) if e}),
                ]
            )
        )
    return found
