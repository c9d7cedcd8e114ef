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
vector whose weight the variables not yet placed cannot bring back to zero;
the exponents of a variable that survive the cut form one interval, which
`_placements` computes by floor divisions.
On a degree-closed list, a monomial is a product of two smaller listed
monomials iff a generator of smaller degree divides it, so
`minimal_generators` tests each monomial against the generators found so
far only.

A monomial is its exponent vector over the problem's `var_names`, zeros
included: base variables first, then fiber variables, each in declaration
order.  Every function here works on these vectors, and the generator
exponent matrix of `relations` is their list; variable names are attached
only when a report is built.

Canonical monomial order everywhere: ascending total degree, then descending
lexicographic exponent vector, i.e. descending (negated total degree,
exponent vector), the key each monomial gets once, when it is found.  All
outputs are deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations_with_replacement
from math import gcd
from operator import add, itemgetter, le, sub

from .errors import InputError
from .model import GitProblem, PointSample, Polynomial, support
from .snf import IntegerLattice, left_kernel

WeightVector = tuple[int, ...]

MAX_RELATION_CANDIDATES = 100_000  # distinct generator products tried


class MonomialInvariant(namedtuple("MonomialInvariant", "exponents l_degree")):
    """A weight-zero monomial: its exponent vector over the problem's
    `var_names`, zeros included, and l_degree, its total degree in fiber
    variables."""

    exponents: tuple[int, ...]
    l_degree: int
    __slots__ = ()

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)


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
    <= bound, as (degree, weight, exponents) triples.

    windows[k] is the window of the variables still unplaced once variable k
    is placed; a vector whose weight the remaining budget cannot bring back
    to zero within that window is cut.  Placing e more units of a variable
    of weight v on a vector of weight w with spare = bound - degree keeps
    room*low <= -(w + e*v) <= room*high, room = spare - e, in each weight
    coordinate, that is e*a <= b for (a, b) = (v - low, -w - spare*low) and
    (high - v, spare*high + w).  So the kept exponents form one interval,
    found by floor divisions, and no exponent is tested on its own.
    """
    level = [(0, (0,) * rank, ())]
    for wvec, window in zip(weights, windows):
        grown = []
        for degree, weight, exps in level:
            spare = bound - degree
            first, last = 0, spare
            for (low, high), w, v in zip(window, weight, wvec):
                for a, b in ((v - low, -w - spare * low), (high - v, spare * high + w)):
                    if a > 0:
                        if b // a < last:
                            last = b // a
                    elif a < 0:
                        if -(b // -a) > first:
                            first = -(b // -a)
                    elif b < 0:
                        last = -1
            if first > last:
                continue
            if first:
                weight = tuple([w + first * v for w, v in zip(weight, wvec)])
            for e in range(first, last + 1):
                grown.append((degree + e, weight, exps + (e,)))
                weight = tuple(map(add, weight, wvec))
        level = grown
    return level


def invariant_monomials(problem: GitProblem, max_total_degree: int) -> list[MonomialInvariant]:
    """All weight-zero monomials of total degree <= the bound, except 1."""
    if max_total_degree < 1:
        raise InputError(f"degree bound must be >= 1, got {max_total_degree}")
    weights = problem.weights
    n, rank, bound = len(weights), problem.torus_rank, max_total_degree
    split = n // 2
    after = _windows(weights[::-1], rank)[::-1]  # after[k]: variables k..n-1
    heads = _placements(weights[:split], after[1 : split + 1], rank, bound)
    # The tails are placed last variable first, with their weights negated,
    # so that a tail's weight is the head weight it completes, and the
    # variables still unplaced once variable j is placed are 0..j-1.
    negated = [tuple([-c for c in wvec]) for wvec in weights]
    before = _windows(negated, rank)
    backwards = range(n - 1, split - 1, -1)
    tails = _placements(
        [negated[j] for j in backwards], [before[j] for j in backwards], rank, bound
    )
    table: dict[WeightVector, list[tuple[int, tuple[int, ...]]]] = {}
    for degree, weight, exps in sorted(tails, key=itemgetter(0)):
        table.setdefault(weight, []).append((degree, exps[::-1]))
    keys = []
    for degree, weight, head in heads:
        room = bound - degree
        for tail_degree, tail in table.get(weight, ()):
            if tail_degree > room:
                break
            keys.append((-degree - tail_degree, head + tail))
    # Descending (-degree, exponents): ascending degree, then descending
    # exponent vector.  keys[0] is (0, all zeros), the monomial 1.
    keys.sort(reverse=True)
    nbase = len(problem.base_vars)
    return [MonomialInvariant(exps, sum(exps[nbase:])) for _, exps in keys[1:]]


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
    generators: list[MonomialInvariant] = []
    for mono in monomials:
        if not any(all(map(le, g.exponents, mono.exponents)) for g in generators):
            generators.append(mono)
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
    *,
    warnings: list[str] | None = None,
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
    scanning to the bound.  A scan that reaches the bound first leaves a
    proper sublattice of K: the output then misses relations, and a
    ``syzygy-bounded`` warning saying so is appended to ``warnings`` when a
    list is given.  A scan that tries more than `MAX_RELATION_CANDIDATES`
    products is refused with an InputError.
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
    rows = [g.exponents for g in generators]
    kernel = left_kernel(rows, len(rows[0]))
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
    else:
        if warnings is not None:
            warnings.append(
                f"syzygy-bounded: generator products of syzygy degree > {max_syzygy_degree} "
                "were not tried, and the relations found span a proper sublattice of "
                "the relation lattice"
            )
    return found


class QuotientPresentation(namedtuple(
    "QuotientPresentation",
    "base_generators proj_generators relations ambient veronese_divisor warnings",
    defaults=((),),
)):
    """Coordinates and relations for the quotient: Spec of the degree-zero
    invariants times a weighted projective space cut out by the relations.
    `warnings` holds the `relations` warning of an incomplete relation set."""

    base_generators: tuple[tuple[str, MonomialInvariant], ...]
    proj_generators: tuple[tuple[str, MonomialInvariant], ...]
    relations: tuple[Polynomial, ...]
    ambient: str
    veronese_divisor: int | None
    warnings: tuple[str, ...]
    __slots__ = ()


def quotient_presentation(
    problem: GitProblem,
    max_degree: int = 4,
    syzygy_degree: int = 8,
) -> QuotientPresentation:
    """Assemble generators and relations into a quotient presentation.

    syzygy_degree counts generator factors; its default, 8, is the CLI's.
    Pass a larger bound to search for longer coincidences.  A bound below 1
    is refused by `relations`, also when there is no generator.
    """
    gens = minimal_generators(invariant_monomials(problem, max_degree))
    base = [m for m in gens if m.l_degree == 0]
    proj = [m for m in gens if m.l_degree > 0]
    names = [f"T{i}" for i in range(len(base))] + [f"Z{i}" for i in range(len(proj))]
    warnings: list[str] = []
    rels = relations(base + proj, syzygy_degree, names, warnings=warnings)

    degrees = sorted(m.l_degree for m in proj)
    parts = []
    if base:
        parts.append(f"A^{len(base)}")
    if proj:
        parts.append("P(" + ",".join(map(str, degrees)) + ")")
    common = gcd(*degrees)  # 0 when there is no projective coordinate

    return QuotientPresentation(
        base_generators=tuple(zip(names, base)),
        proj_generators=tuple(zip(names[len(base) :], proj)),
        relations=tuple(rels),
        ambient=" x ".join(parts) if parts else "point",
        veronese_divisor=common if common > 1 else None,
        warnings=tuple(warnings),
    )


def semistable_via_sections(
    problem: GitProblem, point: PointSample, max_degree: int
) -> MonomialInvariant | None:
    """First positive-fiber-degree invariant monomial nonvanishing at the lift.

    Finding one certifies the point is not unstable; not finding one at this
    bound proves nothing.  The monomials are listed up to bounds 1, 2, 4, ...,
    the last one `max_degree`, and the search stops at the first bound that
    finds a section.  Each listing is the part of total degree <= its bound
    of the next, in the same canonical order, so the section found is the
    one a single listing up to `max_degree` would give first.
    """
    base, fiber = problem.support_indices(support(point))
    vanishing = [True] * len(problem.var_names)
    for i in base + fiber:
        vanishing[i] = False
    bound = min(1, max_degree)
    while True:
        for mono in invariant_monomials(problem, bound):
            if mono.l_degree < 1:
                continue
            if not any(e and zero for e, zero in zip(mono.exponents, vanishing)):
                return mono
        if bound >= max_degree:
            return None
        bound = min(2 * bound, max_degree)
