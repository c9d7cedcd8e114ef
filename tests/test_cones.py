import random
import time
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Eq, Matrix, symbols

from torstab import ConeProblem, cone_has_nonzero, cones, decide_cone, solve_cone
from torstab.errors import DimensionMismatchError, InternalInvariantError

from conftest import cone_has_nonzero_oracle, solve_cone_oracle


def pairing(lam, row):
    return sum(a * b for a, b in zip(lam, row))


def check_witness(problem, witness):
    assert witness is not None
    for row in problem.nonneg_rows:
        assert pairing(witness, row) >= 0
    for row in problem.strict_rows:
        assert pairing(witness, row) >= 1


def test_half_line():
    problem = ConeProblem([], [(1,)], dim=1)
    result = solve_cone(problem)
    assert result.feasible
    assert result.witness == (1,)


def test_opposite_half_lines_infeasible():
    result = solve_cone(ConeProblem([(1,)], [(-1,)], dim=1))
    assert not result.feasible
    assert result.witness is None


def test_destabilizing_pattern():
    # nonneg x-weight, strict u-weight: the y=0, v=0 destabilization.
    problem = ConeProblem([(1,)], [(1,)], dim=1)
    result = solve_cone(problem)
    assert result.feasible
    assert result.witness == (1,)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        ConeProblem([(1, 0)], [(1,)], dim=2)
    # The bad row is caught before any elimination.
    with pytest.raises(DimensionMismatchError):
        cone_has_nonzero([(1,), (-1,), (1, 2)], dim=1)


def test_list_rows_are_accepted():
    problem = ConeProblem(([1, 0], [-1, 1]), ([0, 1],), 2)
    assert problem.nonneg_rows == ((1, 0), (-1, 1))
    result = solve_cone(problem)
    assert result.feasible
    check_witness(problem, result.witness)


def test_nonzero_opposite_constraints_pin_origin():
    assert cone_has_nonzero([(1,), (-1,)], dim=1) is None


def test_nonzero_free_coordinate():
    witness = cone_has_nonzero([(1, 0)], dim=2)
    assert witness is not None
    assert any(witness)
    assert pairing(witness, (1, 0)) >= 0


def test_nonzero_fully_pinned_rank_one():
    # weights of x, y, u, v with everything nonvanishing: only the origin.
    assert cone_has_nonzero([(1,), (-1,), (1,), (-1,)], dim=1) is None


def test_scaling_invariance():
    problem = ConeProblem([(1, -2), (0, 1)], [(1, 1)], dim=2)
    result = solve_cone(problem)
    check_witness(problem, result.witness)
    for m in (2, 3, 10):
        check_witness(problem, tuple(m * x for x in result.witness))


def test_empty_system_feasible():
    result = solve_cone(ConeProblem([], [], dim=3))
    assert result.feasible
    assert result.witness == (0, 0, 0)


def test_thin_cone_witness_found():
    # Feasible only far outside a small box; elimination must still find it.
    problem = ConeProblem(
        [], [(1, 0, 0), (-3, 1, 0), (0, -3, 1)], dim=3
    )
    result = solve_cone(problem)
    assert result.feasible
    check_witness(problem, result.witness)
    assert result.witness[2] >= 13


def brute_force_feasible(problem, bound):
    for lam in product(range(-bound, bound + 1), repeat=problem.dim):
        if all(pairing(lam, row) >= 0 for row in problem.nonneg_rows) and all(
            pairing(lam, row) >= 1 for row in problem.strict_rows
        ):
            return True
    return False


def test_brute_force_agreement_random_systems():
    rng = random.Random(11807)
    for _ in range(300):
        dim = rng.randint(1, 3)
        total = rng.randint(1, 8)
        nstrict = rng.randint(0, total)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(total)
        ]
        problem = ConeProblem(rows[nstrict:], rows[:nstrict], dim)
        result = solve_cone(problem)
        if result.feasible:
            # Substitution proves the verdict outright; the box must agree
            # whenever the witness is within its reach.
            check_witness(problem, result.witness)
            if all(abs(x) <= 5 for x in result.witness):
                assert brute_force_feasible(problem, 5)
        else:
            # Infeasibility claims are refutable at any box size.
            assert not brute_force_feasible(problem, 5)


def test_witnesses_integral():
    rng = random.Random(2203)
    for _ in range(100):
        dim = rng.randint(1, 3)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(1, 6))
        ]
        result = solve_cone(ConeProblem(rows[: len(rows) // 2], rows[len(rows) // 2 :], dim))
        if result.feasible:
            assert all(isinstance(x, int) for x in result.witness)


def fourteen_rows(rank):
    rng = random.Random(0)
    return [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(14)]


@pytest.mark.parametrize("rank", [5, 6])
def test_fourteen_row_systems_are_answered(rank):
    # Fourier-Motzkin refused both: one stage of the rank-5 system would
    # form 35.9 M row pairs.  At rank 5 the cone is the origin; at rank 6 it
    # holds a witness.
    rows = fourteen_rows(rank)
    start = time.process_time()
    witness = cone_has_nonzero(rows, rank)
    assert time.process_time() - start < 0.1
    if rank == 5:
        assert witness is None
        assert Matrix(rows).rank() == 5
        assert lpmin_certificate(rows, [1] * len(rows), 1) is not None
    else:
        assert any(witness)
        check_witness(ConeProblem(rows, [], rank), witness)


def test_pinned_coordinates_leave_only_the_origin():
    # The 14 rank-5 rows with both unit rows of every coordinate.
    rows = fourteen_rows(5)
    units = [tuple(s * (k == i) for k in range(5)) for i in range(5) for s in (1, -1)]
    start = time.process_time()
    assert cone_has_nonzero(rows + units, 5) is None
    assert time.process_time() - start < 0.1


def test_rank_five_origin_cone_is_answered():
    from sympy.solvers.simplex import lpmin

    rows = [
        (3, 3, 0, 0, 1), (3, 1, -2, -2, 3), (1, 0, 2, 1, 3), (-2, -3, 0, -1, -2),
        (-3, 1, 3, 2, 2), (-3, 1, 0, 0, 2), (2, 1, 2, -2, 1), (-3, 3, 1, -3, -3),
        (-3, -2, -2, 1, -3), (3, 0, -1, 0, 1),
    ]
    start = time.process_time()
    assert cone_has_nonzero(rows, 5) is None
    assert time.process_time() - start < 0.1
    # Stiemke: some y >= 1 has y^T R = 0, so R x >= 0 forces R x = 0, and
    # R has rank 5, so x = 0.
    y = symbols(f"y:{len(rows)}")
    balance = [Eq(sum(yi * row[k] for yi, row in zip(y, rows)), 0) for k in range(5)]
    _, point = lpmin(sum(y), [yi >= 1 for yi in y] + balance)
    # lpmin's point counts only once it checks by substitution.
    assert all(point[yi] >= 1 for yi in y)
    assert all(b.lhs.subs(point) == 0 for b in balance)
    assert Matrix(rows).rank() == 5


@st.composite
def cone_systems(draw):
    """Rank 1-4, up to 8 weak and 4 strict rows with entries in [-5, 5];
    rows repeat and the zero row appears often."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-5, 5)] * dim)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    row = st.one_of(vector, st.sampled_from(pool + [(0,) * dim]))
    weak = draw(st.lists(row, max_size=8))
    strict = draw(st.lists(row, max_size=4))
    return ConeProblem(weak, strict, dim)


def check_nonzero(rows, dim, witness, expected):
    """`witness`, a `cone_has_nonzero` answer, exists exactly when the
    oracle's `expected` does, and is a nonzero point of the cone."""
    assert (witness is None) == (expected is None)
    if witness is not None:
        assert any(witness)
        check_witness(ConeProblem(rows, [], dim), witness)


@settings(max_examples=300, deadline=None)
@given(cone_systems())
def test_solve_cone_equals_rational_oracle(problem):
    # The witnesses may differ; each is checked by substitution.
    result = solve_cone(problem)
    assert result.feasible == solve_cone_oracle(problem).feasible
    if result.feasible:
        check_witness(problem, result.witness)


@settings(max_examples=200, deadline=None)
@given(cone_systems())
def test_cone_has_nonzero_equals_rational_oracle(problem):
    rows = problem.nonneg_rows + problem.strict_rows
    witness = cone_has_nonzero(rows, problem.dim)
    check_nonzero(rows, problem.dim, witness, cone_has_nonzero_oracle(rows, problem.dim))


@settings(max_examples=200, deadline=None)
@given(cone_systems(), st.booleans())
def test_decide_cone_answers_both_questions(problem, first):
    # One call answers what `solve_cone` and then `cone_has_nonzero` answer.
    feasible, witness = decide_cone(problem, first)
    rows = problem.nonneg_rows + problem.strict_rows
    if first and solve_cone_oracle(problem).feasible:
        assert feasible
        check_witness(problem, witness)
    else:
        assert not feasible
        check_nonzero(rows, problem.dim, witness, cone_has_nonzero_oracle(rows, problem.dim))


@st.composite
def scrambled_systems(draw):
    """A cone system and the same row sets shuffled, with rows repeated."""
    problem = draw(cone_systems())

    def scramble(rows):
        extra = draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        return draw(st.permutations(list(rows) + extra))

    weak, strict = scramble(problem.nonneg_rows), scramble(problem.strict_rows)
    return problem, ConeProblem(weak, strict, problem.dim)


@settings(max_examples=200, deadline=None)
@given(scrambled_systems())
def test_answers_depend_only_on_the_row_set(systems):
    # `classify.classify_patterns` reuses a support's witness across
    # supports, so order and repetition must not change a verdict or a
    # witness.
    problem, scrambled = systems
    assert solve_cone(scrambled) == solve_cone(problem)
    rows = problem.nonneg_rows + problem.strict_rows
    assert cone_has_nonzero(scrambled.nonneg_rows + scrambled.strict_rows, problem.dim) == (
        cone_has_nonzero(rows, problem.dim)
    )


@st.composite
def orthant_cones(draw):
    """Rows holding a sign row for every coordinate, some coordinates pinned
    by both sign rows, plus up to 5 rows with entries in [-5, 5]."""
    dim = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    pinned = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    rows = [tuple(s if k == i else 0 for k in range(dim)) for i, s in enumerate(signs)]
    rows += [tuple(-signs[i] if k == i else 0 for k in range(dim)) for i in pinned]
    rows += draw(st.lists(st.tuples(*[st.integers(-5, 5)] * dim), max_size=5))
    return draw(st.permutations(rows)), dim


@settings(max_examples=200, deadline=None)
@given(orthant_cones())
def test_orthant_cones_equal_rational_oracle(cone):
    # Also when sign rows pin some coordinates.
    rows, dim = cone
    check_nonzero(rows, dim, cone_has_nonzero(rows, dim), cone_has_nonzero_oracle(rows, dim))


def lpmin_certificate(rows, costs, floor):
    """A y with every entry >= `floor`, costs.y >= 1 and sum y_i rows_i = 0,
    found by sympy's lpmin and counted only once it checks by substitution
    (lpmin has returned points that violate its own constraints); None when
    lpmin finds none."""
    from sympy.solvers.simplex import InfeasibleLPError, lpmin

    y = symbols(f"y:{len(rows)}")
    balance = [sum(yi * row[k] for yi, row in zip(y, rows)) for k in range(len(rows[0]))]
    try:
        _, point = lpmin(sum(y), [yi >= floor for yi in y] + [sum(map(mul, costs, y)) >= 1]
                         + [Eq(b, 0) for b in balance])
    except InfeasibleLPError:
        return None
    values = [point[yi] for yi in y]
    if min(values) < floor or sum(map(mul, costs, values)) < 1:
        return None
    if any(b.subs(point) != 0 for b in balance):
        return None
    return values


@pytest.mark.parametrize("rank", [5, 6])
def test_answers_beyond_fourier_motzkin_hold_certificates(rank):
    # Random systems of 7-14 rows, most of which Fourier-Motzkin took
    # seconds on or refused: a witness checks by substitution, an
    # infeasible system has a Farkas ray y >= 0 with y.b >= 1 and
    # sum y_i w_i = 0, and a cone that is the origin has full rank and a
    # balance y >= 1 of all its rows (Stiemke).
    rng = random.Random(rank)
    for _ in range(6):
        rows = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(7, 14))]
        problem = ConeProblem(rows[2:], rows[:2], rank)
        start = time.process_time()
        result = solve_cone(problem)
        nonzero = cone_has_nonzero(rows, rank)
        assert time.process_time() - start < 0.1
        if result.feasible:
            check_witness(problem, result.witness)
        else:
            assert lpmin_certificate(rows, [1, 1] + [0] * (len(rows) - 2), 0) is not None
        if nonzero is not None:
            assert any(nonzero)
            check_witness(ConeProblem(rows, [], rank), nonzero)
        else:
            assert Matrix(rows).rank() == rank
            assert lpmin_certificate(rows, [1] * len(rows), 1) is not None


def test_a_wrong_witness_raises(monkeypatch):
    # Every witness is checked by substitution before it is returned, so a
    # slip in the arithmetic that yields a wrong one cannot pass.
    monkeypatch.setattr(cones, "_primitive", lambda vector: tuple(-v for v in vector))
    with pytest.raises(InternalInvariantError, match="violates strict row"):
        solve_cone(ConeProblem([], [(1, 0)], 2))
    with pytest.raises(InternalInvariantError, match="violates weak row"):
        cone_has_nonzero([(1, 1), (1, -1)], 2)


@pytest.mark.parametrize(
    "ray, message",
    [
        ([2, -1, 1], "nonnegative improving"),  # a negative entry
        ([0, 1, 1], "nonnegative improving"),  # costs.y = 0
        ([1, 1, 0], "does not balance"),  # sum y_i w_i = (2, 0)
    ],
)
def test_a_wrong_ray_raises(ray, message):
    # Columns (1, 0), (1, 0) and (-1, 0) with costs 1, 0, 0: the rays of an
    # infeasibility are checked by substitution as well.  (1, 0, 1) holds.
    coords = [(1, 1, -1), (0, 0, 0)]
    cones._check_ray(coords, [1, 0, 0], [1, 0, 1])
    with pytest.raises(InternalInvariantError, match=message):
        cones._check_ray(coords, [1, 0, 0], ray)
