import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from torstab import (
    GitProblem,
    MonomialInvariant,
    classify_patterns,
    invariant_monomials,
    minimal_generators,
    quotient_presentation,
    relations,
    semistable_via_sections,
    StabilityStatus,
)
from torstab import invariants
from torstab.errors import InputError
from torstab.model import parse_problem

from conftest import (
    _generator_monomials,
    invariant_monomials_oracle,
    minimal_generators_oracle,
    point,
    relations_oracle,
    synthetic_point,
)

P40 = Path(__file__).parent / "tables" / "p40.problem"


def exps(problem, mono):
    """The monomial as a name -> exponent map over the problem's variables."""
    return {n: e for n, e in zip(problem.var_names, mono.exponents) if e}


def test_conic_invariants_bound_two(conic):
    monos = invariant_monomials(conic, 2)
    assert [exps(conic, m) for m in monos] == [
        {"x": 1, "y": 1},
        {"x": 1, "v": 1},
        {"y": 1, "u": 1},
        {"u": 1, "v": 1},
    ]
    assert [m.l_degree for m in monos] == [0, 1, 1, 2]


def brute_force_invariants(problem, bound):
    """Independent enumeration: odometer over exponent vectors."""
    names = problem.var_names
    weights = [w for _, w in problem.base_vars] + [
        tuple(a + b for a, b in zip(w, problem.shift)) for _, w in problem.fiber_vars
    ]
    found = set()
    vector = [0] * len(names)
    while True:
        k = 0
        while k < len(names):
            vector[k] += 1
            if sum(vector) <= bound:
                break
            vector[k] = 0
            k += 1
        if k == len(names):
            return found
        total = [0] * problem.torus_rank
        for e, w in zip(vector, weights):
            for i in range(problem.torus_rank):
                total[i] += e * w[i]
        if not any(total):
            found.add(tuple(vector))


def test_conic_invariants_bound_four_contains_products(conic):
    monos = invariant_monomials(conic, 4)
    signatures = {m.exponents for m in monos}
    assert brute_force_invariants(conic, 4) == signatures
    for expected in (
        {"x": 2, "y": 2},
        {"x": 1, "y": 1, "u": 1, "v": 1},
        {"x": 1, "v": 1, "y": 1, "u": 1},
    ):
        key = tuple(expected.get(n, 0) for n in conic.var_names)
        assert key in signatures


def test_single_variable_no_invariants():
    problem = GitProblem(torus_rank=1, base_vars=(), fiber_vars=(("g", (1,)),))
    assert invariant_monomials(problem, 6) == []


def test_minimal_generators_conic(conic):
    gens = minimal_generators(invariant_monomials(conic, 4))
    assert {tuple(sorted(exps(conic, m).items())) for m in gens} == {
        (("x", 1), ("y", 1)),
        (("v", 1), ("x", 1)),
        (("u", 1), ("y", 1)),
        (("u", 1), ("v", 1)),
    }


def test_minimal_generators_empty():
    assert minimal_generators([]) == []


def test_generators_regenerate_all_invariants(conic):
    monos = invariant_monomials(conic, 4)
    gens = minimal_generators(monos)
    produced = {g.exponents for g in gens}
    # Close under products up to the bound.
    grown = True
    while grown:
        grown = False
        current = list(produced)
        for a in current:
            for b in current:
                key = tuple(x + y for x, y in zip(a, b))
                if sum(key) > 4:
                    continue
                if key not in produced:
                    produced.add(key)
                    grown = True
    assert {m.exponents for m in monos} <= produced


def test_relations_conic(conic):
    pres = quotient_presentation(conic, max_degree=4)
    assert len(pres.relations) == 1
    rel = pres.relations[0]
    by_name = {n: m for n, m in pres.base_generators}
    by_name.update({n: m for n, m in pres.proj_generators})
    positive = [mono for c, mono in rel.terms if c == 1]
    negative = [mono for c, mono in rel.terms if c == -1]
    assert len(positive) == 1 and len(negative) == 1

    def expand(mono):
        total = {}
        for gname, power in mono:
            for vname, e in exps(conic, by_name[gname]).items():
                total[vname] = total.get(vname, 0) + power * e
        return total

    # Both sides expand to x*y*u*v, and the sides pair the two degree-1
    # generators against base * degree-2.
    assert expand(positive[0]) == {"x": 1, "y": 1, "u": 1, "v": 1}
    assert expand(positive[0]) == expand(negative[0])
    degrees = sorted(by_name[g].l_degree for g, _ in positive[0])
    assert degrees in ([1, 1], [0, 2])
    other = sorted(by_name[g].l_degree for g, _ in negative[0])
    assert {tuple(degrees), tuple(other)} == {(1, 1), (0, 2)}


def test_relations_single_generator():
    gen = MonomialInvariant((2,), 0)
    assert relations([gen], 6) == []


def test_relations_power_coincidence():
    # Generators x^2 and x^3 of a weight-zero variable: the only primitive
    # coincidence is (x^2)^3 = (x^3)^2 at x^6.
    g2 = MonomialInvariant((2,), 0)
    g3 = MonomialInvariant((3,), 0)
    rels = relations([g2, g3], 6, ["p", "q"])
    assert len(rels) == 1
    monomials = {mono for _, mono in rels[0].terms}
    assert monomials == {(("p", 3),), (("q", 2),)}


def test_relations_lattice_filter_drops_multiples(conic):
    gens = minimal_generators(invariant_monomials(conic, 4))
    rels = relations(gens, 8)
    # Higher-degree coincidences are all lattice multiples of the single
    # primitive one.
    assert len(rels) == 1


def test_quotient_presentation_conic(conic):
    pres = quotient_presentation(conic, max_degree=4)
    assert len(pres.base_generators) == 1
    assert exps(conic, pres.base_generators[0][1]) == {"x": 1, "y": 1}
    assert [m.l_degree for _, m in pres.proj_generators] == [1, 1, 2]
    assert pres.ambient == "A^1 x P(1,1,2)"
    assert pres.veronese_divisor is None


def test_quotient_presentation_trivial_weights():
    problem = GitProblem(
        torus_rank=1, base_vars=(("t", (0,)),), fiber_vars=(("u", (0,)),)
    )
    pres = quotient_presentation(problem, max_degree=4)
    assert [exps(problem, m) for _, m in pres.base_generators] == [{"t": 1}]
    assert [exps(problem, m) for _, m in pres.proj_generators] == [{"u": 1}]
    assert pres.relations == ()
    assert pres.ambient == "A^1 x P(1)"


def test_quotient_presentation_king(king):
    pres = quotient_presentation(king, max_degree=4)
    proj = [exps(king, m) for _, m in pres.proj_generators]
    assert {"x": 1, "e": 1} in proj
    degree = next(
        m.l_degree for _, m in pres.proj_generators if exps(king, m) == {"x": 1, "e": 1}
    )
    assert degree == 1


def test_quotient_veronese_note():
    # Both projective generators have fiber degree 2: Veronese divisor 2.
    problem = GitProblem(
        torus_rank=1,
        base_vars=(),
        fiber_vars=(("a", (1,)), ("b", (-1,))),
    )
    pres = quotient_presentation(problem, max_degree=4)
    assert [m.l_degree for _, m in pres.proj_generators] == [2]
    assert pres.veronese_divisor == 2


def test_relations_expand_to_zero(conic):
    pres = quotient_presentation(conic, max_degree=4, syzygy_degree=6)
    by_name = {n: m for n, m in pres.base_generators}
    by_name.update({n: m for n, m in pres.proj_generators})
    values = {"x": Fraction(2), "y": Fraction(3), "u": Fraction(5), "v": Fraction(7)}
    for rel in pres.relations:
        total = Fraction(0)
        for coeff, mono in rel.terms:
            product = coeff
            for gname, power in mono:
                gen_value = Fraction(1)
                for vname, e in exps(conic, by_name[gname]).items():
                    gen_value *= values[vname] ** e
                product *= gen_value**power
            total += product
        assert total == 0


def test_sections_examples(conic):
    found = semistable_via_sections(conic, point(conic, x=1, y=0, u=1, v=1), 4)
    assert exps(conic, found) == {"x": 1, "v": 1}
    assert semistable_via_sections(conic, point(conic, x=1, y=0, u=1, v=0), 4) is None
    found = semistable_via_sections(conic, point(conic, x=0, y=0, u=1, v=1), 4)
    assert exps(conic, found) == {"u": 1, "v": 1}


def test_sections_soundness_and_completeness_at_bound(conic):
    for pattern, verdict in classify_patterns(conic).rows:
        p = synthetic_point(conic, pattern)
        section = semistable_via_sections(conic, p, 4)
        if section is not None:
            assert verdict.status is not StabilityStatus.UNSTABLE
        assert (section is not None) == (
            verdict.status is not StabilityStatus.UNSTABLE
        )


def test_degree_bound_validation(conic):
    with pytest.raises(InputError):
        invariant_monomials(conic, 0)
    with pytest.raises(InputError):
        relations([], 0)


# --- shortcuts against the full scans ----------------------------------------


@st.composite
def weight_problems(draw):
    """Rank 1 or 2, 2-6 variables with weights in [-3, 3]; zero weights and
    repeated weights appear often."""
    rank = draw(st.integers(1, 2))
    nvars = draw(st.integers(2, 6))
    nfiber = draw(st.integers(1, nvars - 1))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    weight = st.one_of(vector, st.sampled_from(pool + [(0,) * rank]))
    weights = [draw(weight) for _ in range(nvars)]
    return GitProblem(
        torus_rank=rank,
        base_vars=tuple((f"x{i}", w) for i, w in enumerate(weights[: nvars - nfiber])),
        fiber_vars=tuple((f"u{i}", w) for i, w in enumerate(weights[nvars - nfiber :])),
    )


@settings(max_examples=150, deadline=None)
@given(weight_problems(), st.integers(1, 8))
def test_invariant_monomials_equal_the_full_descent(problem, degree):
    assert invariant_monomials(problem, degree) == invariant_monomials_oracle(problem, degree)


@settings(max_examples=150, deadline=None)
@given(weight_problems(), st.data(), st.integers(1, 10))
def test_sections_give_the_first_section_of_one_listing(problem, data, degree):
    # The search widens its bound 1, 2, 4, ... up to `degree`; its answer is
    # the first section of the one listing up to `degree`.
    # A lift off the zero section: at least one fiber value is nonzero.
    support = data.draw(st.sets(st.sampled_from(problem.var_names)))
    support.add(data.draw(st.sampled_from(problem.fiber_names)))
    sample = point(problem, **{n: int(n in support) for n in problem.var_names})
    expected = next(
        (
            m
            for m in invariant_monomials(problem, degree)
            if m.l_degree >= 1
            and all(n in support for n, e in zip(problem.var_names, m.exponents) if e)
        ),
        None,
    )
    assert semistable_via_sections(problem, sample, degree) == expected


@st.composite
def ring_problems(draw, span=3):
    """Rank 1-3, 1-6 variables of which any number up to all are fiber
    variables, weights in [-span, span] with zero and repeated weights
    often, and a linearization shift half of the time."""
    rank = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 6))
    nfiber = draw(st.integers(1, nvars))
    vector = st.tuples(*[st.integers(-span, span)] * rank)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    weight = st.one_of(vector, st.sampled_from(pool + [(0,) * rank]))
    weights = [draw(weight) for _ in range(nvars)]
    return GitProblem(
        torus_rank=rank,
        base_vars=tuple((f"x{i}", w) for i, w in enumerate(weights[: nvars - nfiber])),
        fiber_vars=tuple((f"u{i}", w) for i, w in enumerate(weights[nvars - nfiber :])),
        shift=draw(st.one_of(st.just(None), vector)),
    )


@example(GitProblem(torus_rank=1, base_vars=(), fiber_vars=(("u", (0,)),)), 5)
@example(
    GitProblem(
        torus_rank=3,
        base_vars=(),
        fiber_vars=tuple(
            zip("abcde", ((1, -3, 2), (1, -3, -2), (1, -1, 3), (1, 1, 0), (1, -3, 1)))
        ),
        shift=(-1, 1, 0),
    ),
    8,
)
@settings(max_examples=150, deadline=None)
@given(ring_problems(), st.integers(1, 8))
def test_minimal_generators_equal_the_quadratic_scan(problem, degree):
    monos = invariant_monomials(problem, degree)
    assert monos == invariant_monomials_oracle(problem, degree)
    assert minimal_generators(monos) == minimal_generators_oracle(monos)


def fiber_problem(*weights):
    return GitProblem(
        torus_rank=len(weights[0]),
        base_vars=(),
        fiber_vars=tuple((f"u{i}", w) for i, w in enumerate(weights)),
    )


# The exponents each partial vector keeps form one interval per variable,
# bounded by e*a <= b in every weight coordinate.  The first two examples
# have a = 0: a weight equal to the edge of the window of the variables
# after it, and zero weights.  In the third, once the tail u2 is placed at
# exponent 1, no exponent of u1 leaves a weight that u0 can cancel within
# degree 2, so u1's interval there is empty.
@example(
    GitProblem(
        torus_rank=1,
        base_vars=(("x0", (-1,)), ("x1", (-1,))),
        fiber_vars=(("u0", (1,)), ("u1", (1,))),
    ),
    6,
)
@example(fiber_problem((0, 0), (0, 0), (0, -1), (0, 1)), 5)
@example(fiber_problem((3,), (-3,), (1,)), 2)
@settings(max_examples=150, deadline=None)
@given(ring_problems(span=7), st.integers(1, 10))
def test_invariant_monomials_equal_the_full_descent_on_wide_weights(problem, degree):
    assert invariant_monomials(problem, degree) == invariant_monomials_oracle(problem, degree)


def test_p40_ring_to_degree_eighty_has_its_counts():
    # No time bound: CI runs the same enumeration through the CLI with a
    # timeout of its own.
    monos = invariant_monomials(parse_problem(P40.read_text()), 80)
    assert len(monos) == 30_748
    assert len(minimal_generators(monos)) == 32


def test_p40_ring_to_degree_thirty_is_enumerated_within_its_budget():
    problem = parse_problem(P40.read_text())
    start = time.process_time()
    monos = invariant_monomials(problem, 30)
    gens = minimal_generators(monos)
    elapsed = time.process_time() - start
    assert len(monos) == 818
    assert len(gens) == 32
    assert max(g.total_degree for g in gens) == 21
    assert elapsed < 0.3, f"{elapsed:.3f} s of CPU time"


def test_product_order_is_unchanged():
    # The relation scan tries each product once, in the order in which the
    # old pass-by-pass descent first reached it, so the first product
    # reaching each monomial is unchanged.
    for count in range(7):
        for bound in range(1, 5):
            scan = [
                tuple(product.count(i) for i in range(count))
                for product in invariants._products(count, bound)
            ]
            first = dict.fromkeys(_generator_monomials(count, bound))
            assert scan == [powers for powers in first if any(powers)]


@st.composite
def problem_generators(draw):
    """The minimal generators of a `weight_problems` ring at degree 1-8, at
    most 10 of them, so that a full scan to syzygy degree 4 tries at most
    1000 products."""
    problem = draw(weight_problems())
    return minimal_generators(invariant_monomials(problem, draw(st.integers(1, 8))))[:10]


# Eleven monomials in eight variables whose relation lattice K has rank 3.
# The binomials of syzygy degree <= 4 span a sublattice of full rank but of
# index 2 in K; the vector that completes it appears at syzygy degree 5.
# In 3 000 random rank-1/2 rings of up to 6 variables the first full-rank
# lattice of the scan was always saturated, so this case is given explicitly.
INDEX_TWO_GENERATORS = [
    MonomialInvariant(row, 0)
    for row in (
        (3, 3, 1, 3, 3, 3, 1, 1),
        (3, 3, 3, 1, 1, 1, 3, 3),
        (1, 1, 1, 3, 3, 1, 3, 3),
        (2, 1, 1, 1, 1, 1, 1, 1),
        (1, 2, 1, 1, 1, 1, 1, 1),
        (1, 1, 2, 1, 1, 1, 1, 1),
        (1, 1, 1, 2, 1, 1, 1, 1),
        (2, 2, 2, 2, 3, 2, 2, 2),
        (1, 1, 1, 1, 1, 2, 1, 1),
        (1, 1, 1, 1, 1, 1, 2, 1),
        (2, 2, 2, 2, 2, 2, 2, 3),
    )
]


@example(INDEX_TWO_GENERATORS, 5)
@settings(max_examples=100, deadline=None)
@given(problem_generators(), st.integers(1, 4))
def test_relations_equal_the_full_scan(gens, syzygy):
    assert relations(gens, syzygy) == relations_oracle(gens, syzygy)


def test_index_two_lattice_is_completed_at_syzygy_degree_five():
    warnings = []
    assert len(relations(INDEX_TWO_GENERATORS, 4, warnings=warnings)) == 3
    assert warnings == [
        "syzygy-bounded: generator products of syzygy degree > 4 were not tried, "
        "and the relations found span a proper sublattice of the relation lattice"
    ]
    warnings = []
    assert len(relations(INDEX_TWO_GENERATORS, 5, warnings=warnings)) == 4
    assert warnings == []


def count_expansions(monkeypatch):
    calls = []
    original = invariants._expand

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, "_expand", counted)
    return calls


def test_relation_scan_stops_once_the_lattice_is_complete(monkeypatch):
    # tests/test_golden.py pins the output of this scan.
    gens = minimal_generators(invariant_monomials(parse_problem(P40.read_text()), 10))
    assert len(gens) == 24
    calls = count_expansions(monkeypatch)
    assert len(relations(gens, 4)) == 20
    # The full scan tries each of the C(28, 4) - 1 = 20 474 products of one
    # to four generators once; this one stops after 326, at syzygy degree 3.
    assert 0 < len(calls) < (comb(24 + 4, 4) - 1) // 20


def test_relations_without_a_kernel_try_no_product(monkeypatch, conic):
    # x*y, x*v and y*u have independent exponent vectors.
    gens = minimal_generators(invariant_monomials(conic, 2))[:3]
    calls = count_expansions(monkeypatch)
    assert relations(gens, 8) == []
    assert calls == []


def test_relation_scan_is_capped(monkeypatch, conic):
    gens = minimal_generators(invariant_monomials(conic, 4))
    monkeypatch.setattr(invariants, "MAX_RELATION_CANDIDATES", 5)
    with pytest.raises(InputError, match="4 generators up to syzygy degree 8"):
        relations(gens, 8)
    # The conic's one relation, at syzygy degree 2, completes its lattice
    # within 14 products, so a cap of 14 is not reached at any bound.
    monkeypatch.setattr(invariants, "MAX_RELATION_CANDIDATES", 14)
    assert relations(gens, 8) == relations_oracle(gens, 8)
