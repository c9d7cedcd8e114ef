"""Invariant monomials, minimal generators, binomial relations, and the
weighted-projective quotient presentation.

For a diagonal torus action the invariant sections are spanned by monomials
of total weight zero, with the linearization shift charged once per fiber
degree unit.  Enumeration is bounded by explicit total-degree caps supplied
by the caller, and outputs are exactly those of a full scan to the bounds.
The relation scan stops early once the relations found span the whole
lattice of integer relations among the generators, since nothing later
could be emitted; a scan that never gets there tries at most
`MAX_RELATION_CANDIDATES` generator products and is then refused with an
InputError.

Canonical monomial order everywhere: ascending total degree, then descending
lexicographic exponent vector in declaration order.  All outputs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InputError
from .model import GitProblem, Monomial, PointSample, Polynomial, support
from .snf import IntegerLattice, smith_divisors

WeightVector = tuple[int, ...]

MAX_RELATION_CANDIDATES = 100_000


@dataclass(frozen=True)
class MonomialInvariant:
    """A weight-zero monomial; l_degree is its total degree in fiber variables."""

    exponents: Monomial
    l_degree: int

    @property
    def total_degree(self) -> int:
        return sum(e for _, e in self.exponents)

    def exponent(self, name: str) -> int:
        for n, e in self.exponents:
            if n == name:
                return e
        return 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.exponents)


def _variable_weights(problem: GitProblem) -> list[tuple[str, WeightVector, bool]]:
    rows: list[tuple[str, WeightVector, bool]] = []
    for name, weight in problem.base_vars:
        rows.append((name, weight, False))
    for name, _ in problem.fiber_vars:
        rows.append((name, problem.shifted_fiber_weight(name), True))
    return rows


def _order_key(problem: GitProblem, mono: MonomialInvariant) -> tuple[int, tuple[int, ...]]:
    exps = mono.as_dict()
    vector = tuple(exps.get(name, 0) for name in problem.var_names)
    return mono.total_degree, tuple(-e for e in vector)


def invariant_monomials(problem: GitProblem, max_total_degree: int) -> list[MonomialInvariant]:
    """All weight-zero monomials of total degree <= the bound, except 1.

    Exponent tuples keep the variable declaration order.
    """
    if max_total_degree < 1:
        raise InputError(f"degree bound must be >= 1, got {max_total_degree}")
    variables = _variable_weights(problem)
    rank = problem.torus_rank
    fiber_names = set(problem.fiber_names)
    found: list[MonomialInvariant] = []
    # windows[idx][k]: per unit of degree, the least and greatest change to
    # weight coordinate k that variables idx.. can make.  A branch whose
    # remaining budget cannot bring every coordinate back to zero is cut;
    # past the last variable the window is (0, 0), so a leaf has weight zero.
    windows = [[(0, 0)] * rank]
    for _, wvec, _ in reversed(variables):
        windows.append([(min(lo, w), max(hi, w)) for (lo, hi), w in zip(windows[-1], wvec)])
    windows.reverse()

    def descend(idx: int, budget: int, weight: list[int], exps: list[tuple[str, int]]) -> None:
        for (low, high), w in zip(windows[idx], weight):
            if not budget * low <= -w <= budget * high:
                return
        if idx == len(variables):
            if exps:
                l_degree = sum(e for n, e in exps if n in fiber_names)
                found.append(MonomialInvariant(tuple(exps), l_degree))
            return
        name, wvec, _ = variables[idx]
        for e in range(budget + 1):
            if e:
                exps.append((name, e))
            descend(
                idx + 1,
                budget - e,
                [weight[k] + e * wvec[k] for k in range(rank)],
                exps,
            )
            if e:
                exps.pop()

    descend(0, max_total_degree, [0] * rank, [])
    found.sort(key=lambda m: _order_key(problem, m))
    return found


def minimal_generators(monomials: list[MonomialInvariant]) -> list[MonomialInvariant]:
    """Monomials not expressible as a product of two smaller listed monomials.

    The input must be degree-closed (everything invariant up to its bound),
    as produced by invariant_monomials.
    """
    listed = {mono.exponents for mono in monomials}
    generators = []
    for mono in monomials:
        reducible = False
        for factor in monomials:
            if factor.total_degree >= mono.total_degree:
                break  # canonical order is ascending in total degree
            taken = factor.as_dict()
            remainder = []
            divides = True
            for name, e in mono.exponents:
                left = e - taken.pop(name, 0)
                if left < 0:
                    divides = False
                    break
                if left:
                    remainder.append((name, left))
            if not divides or taken:
                continue
            rem = tuple(remainder)
            if rem and rem in listed:
                reducible = True
                break
        if not reducible:
            generators.append(mono)
    return generators


def _expand(generators: list[MonomialInvariant], powers: tuple[int, ...]) -> tuple[tuple[str, int], ...]:
    total: dict[str, int] = {}
    for gen, power in zip(generators, powers):
        if not power:
            continue
        for name, e in gen.exponents:
            total[name] = total.get(name, 0) + power * e
    return tuple(sorted(total.items()))


def _generator_monomials(count: int, bound: int):
    """Exponent vectors over the generators, ascending total degree, then
    descending lexicographic."""
    def descend(idx: int, budget: int, prefix: tuple[int, ...]):
        if idx == count:
            yield prefix
            return
        for e in range(budget, -1, -1):
            yield from descend(idx + 1, budget - e, prefix + (e,))

    for total in range(1, bound + 1):
        yield from descend(0, total, ())


def relations(
    generators: list[MonomialInvariant],
    max_syzygy_degree: int,
    names: list[str] | None = None,
) -> list[Polynomial]:
    """Binomial relations among the generators up to the given degree.

    The degree bound counts generator factors, not underlying variables.
    Coincident products are paired against the first product reaching each
    expanded monomial; binomials already in the lattice spanned by earlier
    ones are dropped, so the output generates all relations visible at the
    bound (it need not be minimal).

    Every binomial's exponent difference lies in K, the integer vectors v
    with v * A = 0 for the generator exponent matrix A.  Once the binomials
    found span a saturated sublattice of full rank in K, they span all of K
    and no later product could add one, so the scan stops there; the output
    is the same as scanning to the bound.  A scan that tries more than
    `MAX_RELATION_CANDIDATES` products is refused with an InputError.
    """
    if max_syzygy_degree < 1:
        raise InputError(f"syzygy degree bound must be >= 1, got {max_syzygy_degree}")
    if names is None:
        names = [f"g{i}" for i in range(len(generators))]
    if len(names) != len(generators):
        raise InputError("generator names and generators differ in length")
    if not generators:
        return []
    variables = sorted({name for gen in generators for name, _ in gen.exponents})
    matrix = [[gen.exponent(name) for name in variables] for gen in generators]
    kernel_rank = len(generators) - sum(1 for d in smith_divisors(matrix) if d)
    if kernel_rank == 0:
        return []

    first_reaching: dict[tuple[tuple[str, int], ...], tuple[int, ...]] = {}
    lattice = IntegerLattice(len(generators))
    found: list[Polynomial] = []
    products = _generator_monomials(len(generators), max_syzygy_degree)
    for tried, powers in enumerate(products, 1):
        if tried > MAX_RELATION_CANDIDATES:
            raise InputError(
                f"relations among {len(generators)} generators up to syzygy degree "
                f"{max_syzygy_degree}: {MAX_RELATION_CANDIDATES} generator products "
                "tried and the relation lattice is still incomplete"
            )
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
        if lattice.rank == kernel_rank and lattice.is_saturated():
            break
    return found


@dataclass(frozen=True)
class QuotientPresentation:
    """Coordinates and relations for the quotient: Spec of the degree-zero
    invariants times a weighted projective space cut out by the relations."""

    base_generators: tuple[tuple[str, MonomialInvariant], ...]
    proj_generators: tuple[tuple[str, MonomialInvariant, int], ...]
    relations: tuple[Polynomial, ...]
    ambient: str
    veronese_divisor: int | None


def quotient_presentation(
    problem: GitProblem,
    max_degree: int = 4,
    syzygy_degree: int | None = None,
) -> QuotientPresentation:
    """Assemble generators and relations into a quotient presentation.

    syzygy_degree counts generator factors and defaults to twice the largest
    generator total degree.  Pass an explicit bound to search for longer
    coincidences.
    """
    gens = minimal_generators(invariant_monomials(problem, max_degree))
    base = [m for m in gens if m.l_degree == 0]
    proj = [m for m in gens if m.l_degree > 0]
    named: list[tuple[str, MonomialInvariant]] = []
    named += [(f"T{i}", m) for i, m in enumerate(base)]
    named += [(f"Z{i}", m) for i, m in enumerate(proj)]
    if syzygy_degree is None:
        syzygy_degree = max((2 * m.total_degree for m in gens), default=1)
    rels = relations([m for _, m in named], syzygy_degree, [n for n, _ in named]) if named else []

    degrees = sorted(m.l_degree for m in proj)
    parts = []
    if base:
        parts.append(f"A^{len(base)}")
    if proj:
        parts.append("P(" + ",".join(map(str, degrees)) + ")")
    ambient = " x ".join(parts) if parts else "point"

    veronese = None
    if degrees:
        common = 0
        for d in degrees:
            common = gcd(common, d)
        if common > 1:
            veronese = common

    return QuotientPresentation(
        base_generators=tuple((n, m) for n, m in named if m.l_degree == 0),
        proj_generators=tuple((n, m, m.l_degree) for n, m in named if m.l_degree > 0),
        relations=tuple(rels),
        ambient=ambient,
        veronese_divisor=veronese,
    )


def semistable_via_sections(
    problem: GitProblem, point: PointSample, max_degree: int
) -> MonomialInvariant | None:
    """First positive-fiber-degree invariant monomial nonvanishing at the lift.

    Finding one certifies the point is not unstable; not finding one at this
    bound proves nothing.
    """
    support(point)  # zero-section validation
    values = point.as_dict()
    nonzero = {name for name, v in values.items() if v != 0}
    for mono in invariant_monomials(problem, max_degree):
        if mono.l_degree < 1:
            continue
        if all(name in nonzero for name, _ in mono.exponents):
            return mono
    return None
