import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Eq, Matrix, symbols

from torstab import ConeProblem, cone_has_nonzero, cones, solve_cone
from torstab.errors import DimensionMismatchError, InputError

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
    assert result.feasible and result.witness == (0, 1)


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


def test_fourier_motzkin_growth_is_refused():
    # Unbounded, one stage of this rank-5 system would form 35.9 M row pairs.
    rng = random.Random(0)
    rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(14)]
    start = time.process_time()
    with pytest.raises(InputError, match="rank-5 cone system of 14 rows"):
        cone_has_nonzero(rows, 5)
    assert time.process_time() - start < 1


def test_pinned_coordinates_are_left_out_of_the_elimination():
    # The rows of test_fourier_motzkin_growth_is_refused with both unit rows
    # of every coordinate: the cone is the origin, and no elimination is
    # needed to see it.
    rng = random.Random(0)
    rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(14)]
    units = [tuple(s * (k == i) for k in range(5)) for i in range(5) for s in (1, -1)]
    start = time.process_time()
    assert cone_has_nonzero(rows + units, 5) is None
    assert time.process_time() - start < 1


def test_rank_five_origin_cone_is_answered():
    # The homogeneous stages down to x_1 stay under MAX_STAGE_PAIRS.
    from sympy.solvers.simplex import lpmin

    rows = [
        (3, 3, 0, 0, 1), (3, 1, -2, -2, 3), (1, 0, 2, 1, 3), (-2, -3, 0, -1, -2),
        (-3, 1, 3, 2, 2), (-3, 1, 0, 0, 2), (2, 1, 2, -2, 1), (-3, 3, 1, -3, -3),
        (-3, -2, -2, 1, -3), (3, 0, -1, 0, 1),
    ]
    assert cone_has_nonzero(rows, 5) is None
    # Stiemke: some y >= 1 has y^T R = 0, so R x >= 0 forces R x = 0, and
    # R has rank 5, so x = 0.
    y = symbols(f"y:{len(rows)}")
    balance = [Eq(sum(yi * row[k] for yi, row in zip(y, rows)), 0) for k in range(5)]
    _, point = lpmin(sum(y), [yi >= 1 for yi in y] + balance)
    assert all(point[yi] >= 1 for yi in y)
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


@settings(max_examples=300, deadline=None)
@given(cone_systems())
def test_solve_cone_equals_rational_oracle(problem):
    result = solve_cone(problem)
    expected = solve_cone_oracle(problem)
    assert (result.feasible, result.witness) == (expected.feasible, expected.witness)


@settings(max_examples=200, deadline=None)
@given(cone_systems())
def test_cone_has_nonzero_equals_rational_oracle(problem):
    rows = problem.nonneg_rows + problem.strict_rows
    assert cone_has_nonzero(rows, problem.dim) == cone_has_nonzero_oracle(rows, problem.dim)


def test_contradictory_stage_stops_elimination(monkeypatch):
    calls = []
    original = cones._eliminate

    def counted(rows, j):
        calls.append(j)
        return original(rows, j)

    monkeypatch.setattr(cones, "_eliminate", counted)
    # x2 >= 1 and -x2 >= 0: eliminating x2 leaves 0 >= 1.
    result = solve_cone(ConeProblem([(0, 0, -1)], [(0, 0, 1)], dim=3))
    assert not result.feasible
    assert calls == [2]


def test_early_contradiction_answers_before_the_cap(monkeypatch):
    # Eliminating x1 would combine 3 x 3 row pairs, over a cap of 4; x2 is
    # eliminated first and already leaves 0 >= 1.
    monkeypatch.setattr(cones, "MAX_STAGE_PAIRS", 4)
    weak = [(1, 1, 0), (-1, 1, 0), (1, 2, 0), (1, -1, 0), (-1, -1, 0), (2, -1, 0), (0, 0, -1)]
    problem = ConeProblem(weak, [(0, 0, 1)], dim=3)
    assert not solve_cone(problem).feasible
    with pytest.raises(InputError, match="3 x 3 row pairs"):
        solve_cone_oracle(problem)


@pytest.mark.parametrize(
    "rows, eliminated",
    [
        # x >= 0, -y >= 0, z >= 0 and y >= x + z: only the origin.
        ([(1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 1, -1)], [2, 1]),
        # x and y pinned to 0, so z is the only coordinate left, and z <= 0:
        # the witness is z = -1.
        ([(1, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1)], []),
    ],
)
def test_nonzero_point_is_read_off_one_elimination(monkeypatch, rows, eliminated):
    solves, eliminations = [], []
    solve, eliminate = cones.solve_cone, cones._eliminate

    def counted_solve(problem):
        solves.append(problem)
        return solve(problem)

    def counted_eliminate(stage, j):
        eliminations.append(j)
        return eliminate(stage, j)

    monkeypatch.setattr(cones, "solve_cone", counted_solve)
    monkeypatch.setattr(cones, "_eliminate", counted_eliminate)
    answer = cone_has_nonzero(rows, 3)
    assert (len(solves), eliminations) == (0, eliminated)
    assert answer == cone_has_nonzero_oracle(rows, 3)


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
    # The witness must be the first feasible axis system's, as the oracle
    # finds it, also when sign rows pin some coordinates.
    rows, dim = cone
    assert cone_has_nonzero(rows, dim) == cone_has_nonzero_oracle(rows, dim)
