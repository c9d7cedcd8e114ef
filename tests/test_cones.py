import random
import time
from itertools import product

import pytest

from torstab import cone_has_nonzero, make_cone_problem, solve_cone
from torstab.errors import DimensionMismatchError, InputError


def pairing(lam, row):
    return sum(a * b for a, b in zip(lam, row))


def check_witness(problem, witness):
    assert witness is not None
    for row in problem.nonneg_rows:
        assert pairing(witness, row) >= 0
    for row in problem.strict_rows:
        assert pairing(witness, row) >= 1


def test_half_line():
    problem = make_cone_problem([], [(1,)], dim=1)
    result = solve_cone(problem)
    assert result.feasible
    assert result.witness == (1,)


def test_opposite_half_lines_infeasible():
    result = solve_cone(make_cone_problem([(1,)], [(-1,)], dim=1))
    assert not result.feasible
    assert result.witness is None


def test_destabilizing_pattern():
    # nonneg x-weight, strict u-weight: the y=0, v=0 destabilization.
    problem = make_cone_problem([(1,)], [(1,)], dim=1)
    result = solve_cone(problem)
    assert result.feasible
    assert result.witness == (1,)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        make_cone_problem([(1, 0)], [(1,)], dim=2)


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
    problem = make_cone_problem([(1, -2), (0, 1)], [(1, 1)], dim=2)
    result = solve_cone(problem)
    check_witness(problem, result.witness)
    for m in (2, 3, 10):
        check_witness(problem, tuple(m * x for x in result.witness))


def test_empty_system_feasible():
    result = solve_cone(make_cone_problem([], [], dim=3))
    assert result.feasible
    assert result.witness == (0, 0, 0)


def test_thin_cone_witness_found():
    # Feasible only far outside a small box; elimination must still find it.
    problem = make_cone_problem(
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
        problem = make_cone_problem(rows[nstrict:], rows[:nstrict], dim)
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
        result = solve_cone(make_cone_problem(rows[: len(rows) // 2], rows[len(rows) // 2 :], dim))
        if result.feasible:
            assert all(isinstance(x, int) for x in result.witness)


def test_fourier_motzkin_growth_is_refused():
    # Unbounded, one stage of this rank-5 system would form 35.9 M row pairs.
    rng = random.Random(0)
    rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(14)]
    start = time.process_time()
    with pytest.raises(InputError, match="rank-5 cone system of 15 rows"):
        cone_has_nonzero(rows)
    assert time.process_time() - start < 1
