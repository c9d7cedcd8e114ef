"""Metamorphic properties: relabelings of a problem that cannot change its answers.

A unimodular change of basis U of the character lattice maps every weight w
to U w and every subgroup lam to U^-T lam, and keeps every pairing
<w, lam>.  So it keeps each support's rows up to that change of variables,
and with them the verdicts, the weights of corresponding subgroups, the
stabilizer lattices' indices and the weight-zero monomials.  Declaring the
variables in another order renames nothing, so it keeps each support's
verdict and each invariant monomial.  A support's cone systems then list the
same rows in another order, and the cone answers depend only on the set of
rows, so `classify_pattern` returns the same witness and weight too.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from torstab import (
    GitProblem,
    PointSample,
    classify_pattern,
    classify_patterns,
    invariant_monomials,
    mu_from_pattern,
    stabilizer_order,
)


def _identity(rank):
    return [[int(i == j) for j in range(rank)] for i in range(rank)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def unimodular(draw, rank):
    """(U, U^-1): a product of at most 4 elementary integer matrices.

    An elementary matrix adds c times one row to another (its inverse adds
    -c times), or negates one row (its own inverse).
    """
    u, inverse = _identity(rank), _identity(rank)
    for _ in range(draw(st.integers(0, 4))):
        e, e_inv = _identity(rank), _identity(rank)
        i = draw(st.integers(0, rank - 1))
        j = draw(st.integers(0, rank - 1))
        if i == j:
            e[i][i] = e_inv[i][i] = -1
        else:
            c = draw(st.integers(-2, 2))
            e[i][j], e_inv[i][j] = c, -c
        u, inverse = _matmul(e, u), _matmul(inverse, e_inv)
    assert _matmul(u, inverse) == _identity(rank)
    return u, inverse


@st.composite
def small_problems(draw, max_rank=3):
    """Rank 1-max_rank, 0-3 base and 1-3 fiber variables, weights in [-3, 3]."""
    rank = draw(st.integers(1, max_rank))
    vector = st.tuples(*[st.integers(-3, 3)] * rank)
    nb = draw(st.integers(0, 3))
    nf = draw(st.integers(1, 3))
    weights = draw(st.lists(vector, min_size=nb + nf, max_size=nb + nf))
    return GitProblem(
        torus_rank=rank,
        base_vars=tuple((f"x{i}", w) for i, w in enumerate(weights[:nb])),
        fiber_vars=tuple((f"u{j}", w) for j, w in enumerate(weights[nb:])),
        shift=draw(vector),
    )


@st.composite
def problems_and_bases(draw):
    problem = draw(small_problems())
    return problem, draw(unimodular(problem.torus_rank))


def _apply(matrix, vector):
    return tuple(sum(a * b for a, b in zip(row, vector)) for row in matrix)


def _transformed(problem, u):
    return GitProblem(
        torus_rank=problem.torus_rank,
        base_vars=tuple((n, _apply(u, w)) for n, w in problem.base_vars),
        fiber_vars=tuple((n, _apply(u, w)) for n, w in problem.fiber_vars),
        shift=_apply(u, problem.shift),
    )


def _support_point(problem, pattern):
    """The point with coordinate 1 on the pattern's support and 0 elsewhere."""
    on = pattern.base | pattern.fiber
    return PointSample.for_problem(problem, {n: int(n in on) for n in problem.var_names})


@settings(max_examples=100, deadline=None)
@given(problems_and_bases())
def test_a_change_of_lattice_basis_keeps_every_answer(case):
    problem, (u, inverse) = case
    moved = _transformed(problem, u)
    # U^-T lam pairs with U w as lam pairs with w.
    inverse_transpose = [list(col) for col in zip(*inverse)]
    rows, moved_rows = classify_patterns(problem).rows, classify_patterns(moved).rows
    assert [p for p, _ in rows] == [p for p, _ in moved_rows]
    for (pattern, verdict), (_, moved_verdict) in zip(rows, moved_rows):
        assert moved_verdict.status is verdict.status
        assert stabilizer_order(moved, _support_point(moved, pattern)) == stabilizer_order(
            problem, _support_point(problem, pattern)
        )
        if verdict.witness is not None:
            lam = _apply(inverse_transpose, verdict.witness)
            assert mu_from_pattern(moved, pattern, lam) == verdict.witness_mu
    assert invariant_monomials(moved, 4) == invariant_monomials(problem, 4)


@st.composite
def problems_and_orders(draw):
    problem = draw(small_problems())
    base = draw(st.permutations(problem.base_vars))
    fiber = draw(st.permutations(problem.fiber_vars))
    reordered = GitProblem(problem.torus_rank, tuple(base), tuple(fiber), problem.shift)
    return problem, reordered


def _statuses(problem):
    return {(p.base, p.fiber): v.status for p, v in classify_patterns(problem).rows}


def _supports(problem):
    """Each support's whole `classify_pattern` verdict, witness and weight
    included, and the `stabilizer_order` of its 0/1 point."""
    return {
        (p.base, p.fiber): (
            classify_pattern(problem, p),
            stabilizer_order(problem, _support_point(problem, p)),
        )
        for p, _ in classify_patterns(problem).rows
    }


def _monomials(problem):
    """The invariant monomials as name -> exponent maps, with their fiber
    degrees, independent of the order the variables are declared in."""
    return sorted(
        (sorted(zip(problem.var_names, m.exponents)), m.l_degree)
        for m in invariant_monomials(problem, 4)
    )


@settings(max_examples=100, deadline=None)
@given(problems_and_orders())
def test_declaration_order_keeps_every_answer(case):
    problem, reordered = case
    assert _statuses(reordered) == _statuses(problem)
    assert _supports(reordered) == _supports(problem)
    assert _monomials(reordered) == _monomials(problem)
