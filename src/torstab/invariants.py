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

Invariant monomials are found meet-in-the-middle.  The variables are split
at n // 2; every exponent vector of the second half within the degree bound
is tabled by its weight, and each vector of the first half takes the tabled
vectors of opposite weight that fit its remaining degree.  Both halves cut a
vector whose weight the variables not yet placed cannot bring back to zero.
On a degree-closed list, a monomial is a product of two smaller listed
monomials iff a generator of smaller degree divides it, so
`minimal_generators` tests each monomial against the generators found so
far only.

Canonical monomial order everywhere: ascending total degree, then descending
lexicographic exponent vector in declaration order, i.e. ascending
(total degree, negated exponent vector), the key each monomial gets once,
when it is found.  All outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import gcd
from operator import add, itemgetter, le, neg, sub

from .errors import InputError
from .model import GitProblem, Monomial, PointSample, Polynomial, support
from .snf import IntegerLattice, left_kernel

WeightVector = tuple[int, ...]

MAX_RELATION_CANDIDATES = 100_000  # distinct generator products tried


@dataclass(frozen=True)
class MonomialInvariant:
    """A weight-zero monomial; l_degree is its total degree in fiber variables."""

    exponents: Monomial
    l_degree: int

    # Summed on first use and kept.  A cached property, not a field, so
    # equality, hashing and repr see only the exponents and l_degree.
    @cached_property
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


Window = list[tuple[int, int]]  # per weight coordinate: least and greatest change


def _windows(weights: list[WeightVector], rank: int) -> list[Window]:
    """windows[k][c]: the least and greatest change to weight coordinate c
    that the first k variables can make per unit of degree (0 included)."""
    windows = [[(0, 0)] * rank]
    for wvec in weights:
        windows.append([(min(lo, w), max(hi, w)) for (lo, hi), w in zip(windows[-1], wvec)])
    return windows


def _placements(
    weights: list[WeightVector], windows: list[Window], rank: int, bound: int
) -> list[tuple[int, WeightVector, tuple[int, ...]]]:
    """Exponent vectors over `weights`, in the order given, of total degree
    <= bound, as (degree, weight, negated exponents) triples.

    windows[k] is the window of the variables still unplaced once variable k
    is placed; a vector whose weight the remaining budget cannot bring back
    to zero within that window is cut.
    """
    level = [(0, (0,) * rank, ())]
    for wvec, window in zip(weights, windows):
        grown = []
        for degree, weight, exps in level:
            for e in range(bound - degree + 1):
                room = bound - degree - e
                if all(room * low <= -w <= room * high for (low, high), w in zip(window, weight)):
                    grown.append((degree + e, weight, exps + (-e,)))
                weight = tuple(map(add, weight, wvec))
        level = grown
    return level


def invariant_monomials(problem: GitProblem, max_total_degree: int) -> list[MonomialInvariant]:
    """All weight-zero monomials of total degree <= the bound, except 1.

    Exponent tuples keep the variable declaration order.
    """
    if max_total_degree < 1:
        raise InputError(f"degree bound must be >= 1, got {max_total_degree}")
    variables = _variable_weights(problem)
    weights = [wvec for _, wvec, _ in variables]
    n, rank, bound = len(weights), problem.torus_rank, max_total_degree
    split = n // 2
    before = _windows(weights, rank)
    after = _windows(weights[::-1], rank)[::-1]  # after[k]: variables k..n-1
    heads = _placements(weights[:split], after[1 : split + 1], rank, bound)
    # The tails are placed last variable first, so the variables still
    # unplaced once variable j is placed are 0..j-1.
    backwards = range(n - 1, split - 1, -1)
    tails = _placements(
        [weights[j] for j in backwards], [before[j] for j in backwards], rank, bound
    )
    table: dict[WeightVector, list[tuple[int, tuple[int, ...]]]] = {}
    for degree, weight, exps in sorted(tails, key=itemgetter(0)):
        table.setdefault(tuple(map(neg, weight)), []).append((degree, exps[::-1]))
    keys = []
    for degree, weight, head in heads:
        room = bound - degree
        for tail_degree, tail in table.get(weight, ()):
            if tail_degree > room:
                break
            keys.append((degree + tail_degree, head + tail))
    keys.sort()
    names = [name for name, _, _ in variables]
    nbase = len(problem.base_vars)
    # keys[0] is (0, all zeros), the monomial 1.
    return [
        MonomialInvariant(
            tuple((name, -e) for name, e in zip(names, negated) if e), -sum(negated[nbase:])
        )
        for _, negated in keys[1:]
    ]


def minimal_generators(monomials: list[MonomialInvariant]) -> list[MonomialInvariant]:
    """Monomials not expressible as a product of two smaller listed monomials.

    The input must be degree-closed (everything invariant up to its bound)
    and in canonical order, as produced by invariant_monomials.  Then a
    monomial is such a product iff a generator of smaller degree divides it:
    the quotient is invariant, nonconstant and within the bound, so it is
    listed, and every listed monomial is a product of generators.  The
    generators of smaller degree are those found so far, and one of equal
    degree divides only itself, so each monomial is tested against them.
    """
    names = dict.fromkeys(name for mono in monomials for name, _ in mono.exponents)
    index = {name: i for i, name in enumerate(names)}
    generators = []
    rows: list[list[int]] = []
    for mono in monomials:
        vector = [0] * len(index)
        for name, e in mono.exponents:
            vector[index[name]] = e
        if not any(all(map(le, row, vector)) for row in rows):
            generators.append(mono)
            rows.append(vector)
    return generators


def _products(count: int, bound: int):
    """Generator products tried by `relations`, as sorted tuples of generator
    indices: each product of 1..bound generators once, by degree, and within
    a degree in lexicographic order, i.e. descending lexicographic order of
    exponent vectors.
    """
    return chain.from_iterable(
        combinations_with_replacement(range(count), t) for t in range(1, bound + 1)
    )


def _expand(rows: list[tuple[int, ...]], product: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent vector of a generator product: the sum of its rows."""
    return tuple(map(sum, zip(*map(rows.__getitem__, product))))


def _powers(product: tuple[int, ...], count: int) -> list[int]:
    powers = [0] * count
    for i in product:
        powers[i] += 1
    return powers


def relations(
    generators: list[MonomialInvariant],
    max_syzygy_degree: int,
    names: list[str] | None = None,
) -> list[Polynomial]:
    """Binomial relations among the generators up to the given degree.

    The degree bound counts generator factors, not underlying variables.
    Each product is tried once, by degree (`_products`).  Coincident
    products are paired against the first product reaching each expanded
    monomial; binomials already in the lattice spanned by earlier ones are
    dropped, so the output generates all relations visible at the bound (it
    need not be minimal).

    Every binomial's exponent difference lies in K, the integer vectors v
    with v * A = 0 for the generator exponent matrix A.  Once the lattice
    the binomials span contains a basis of K (`left_kernel`; its rank is
    compared first, the cheaper test), it is all of K and no later product
    could add one, so the scan stops there; the output is the same as
    scanning to the bound.  A scan that tries more than `MAX_RELATION_CANDIDATES` products
    is refused with an InputError.
    """
    if max_syzygy_degree < 1:
        raise InputError(f"syzygy degree bound must be >= 1, got {max_syzygy_degree}")
    if names is None:
        names = [f"g{i}" for i in range(len(generators))]
    if len(names) != len(generators):
        raise InputError("generator names and generators differ in length")
    if not generators:
        return []
    count = len(generators)
    variables = sorted({name for gen in generators for name, _ in gen.exponents})
    rows = [tuple(gen.exponent(name) for name in variables) for gen in generators]
    kernel = left_kernel(rows, len(variables))
    if not kernel:
        return []

    first_reaching: dict[tuple[int, ...], tuple[int, ...]] = {}
    lattice = IntegerLattice(count)
    found: list[Polynomial] = []
    for tried, product in enumerate(_products(count, max_syzygy_degree), 1):
        if tried > MAX_RELATION_CANDIDATES:
            raise InputError(
                f"relations among {count} generators up to syzygy degree "
                f"{max_syzygy_degree}: {MAX_RELATION_CANDIDATES} generator products "
                "tried and the relation lattice is still incomplete"
            )
        expanded = _expand(rows, product)
        rep = first_reaching.get(expanded)
        if rep is None:
            first_reaching[expanded] = product
            continue
        powers, rep_powers = _powers(product, count), _powers(rep, count)
        vector = tuple(map(sub, powers, rep_powers))
        if lattice.contains(vector):
            continue
        lattice.add(vector)
        found.append(
            Polynomial.make(
                [
                    (1, {names[i]: e for i, e in enumerate(powers) if e}),
                    (-1, {names[i]: e for i, e in enumerate(rep_powers) if e}),
                ]
            )
        )
        if lattice.rank == len(kernel) and all(map(lattice.contains, kernel)):
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
