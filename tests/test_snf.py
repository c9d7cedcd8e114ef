import random
from math import prod

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from torstab import IntegerLattice, lattice_rank_and_index
from torstab.errors import DimensionMismatchError
from torstab.snf import left_kernel


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_index_equals_abs_det_random():
    rng = random.Random(515)
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        rank, index = lattice_rank_and_index(m, 3)
        d = det3(m)
        if d:
            assert (rank, index) == (3, abs(d))
        else:
            assert rank < 3 and index is None


def test_lattice_index():
    # Index of the sublattice spanned by (2,): order-2 quotient.
    assert lattice_rank_and_index([(2,)], 1) == (1, 2)
    assert lattice_rank_and_index([(1, -1), (2, 0)], 2) == (2, 2)
    assert lattice_rank_and_index([(1, 0), (0, 1)], 2) == (2, 1)
    assert lattice_rank_and_index([(2,), (4,), (6,)], 1) == (1, 2)
    assert lattice_rank_and_index([(1, 1), (1, 1)], 2) == (1, None)
    assert lattice_rank_and_index([(0, 0), (0, 0)], 2) == (0, None)
    assert lattice_rank_and_index([(1, 0)], 2) == (1, None)
    assert lattice_rank_and_index([], 1) == (0, None)
    assert lattice_rank_and_index([], 0) == (0, 1)


def test_left_kernel():
    # The rows have rank 2 and (1, 1, -1) kills them, so the kernel is the
    # multiples of that primitive vector.
    kernel = left_kernel([(1, 2), (1, 0), (2, 2)], 2)
    assert len(kernel) == 1 and kernel[0] in ((1, 1, -1), (-1, -1, 1))
    assert left_kernel([(1, 0), (0, 1)], 2) == []
    assert left_kernel([(2,), (3,)], 1) in ([(3, -2)], [(-3, 2)])
    assert left_kernel([(), ()], 0) == [(1, 0), (0, 1)]
    assert left_kernel([], 3) == []


@pytest.mark.parametrize("seed", range(4))
def test_lattice_answers_equal_sympy(seed):
    # 60 random matrices per seed: rank and index against the invariant
    # factors of the Smith normal form, and the left kernel against its
    # defining equation, its expected size and its saturation.
    rng = random.Random(seed)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice((1, 3, 9))
        rows = [tuple(rng.randint(-bound, bound) for _ in range(ncols)) for _ in range(nrows)]
        factors = [int(f) for f in invariant_factors(Matrix(rows), domain=ZZ) if f]
        rank, index = lattice_rank_and_index(rows, ncols)
        assert rank == len(factors)
        assert index == (prod(factors) if rank == ncols else None)

        kernel = left_kernel(rows, ncols)
        assert len(kernel) == nrows - rank
        for v in kernel:
            assert all(sum(c * row[j] for c, row in zip(v, rows)) == 0 for j in range(ncols))
        if kernel:
            assert all(f == 1 for f in invariant_factors(Matrix(kernel), domain=ZZ))


def test_integer_lattice_membership():
    lattice = IntegerLattice(3)
    lattice.add((2, 0, 0))
    lattice.add((0, 3, 0))
    assert lattice.contains((2, 3, 0))
    assert lattice.contains((4, -3, 0))
    assert not lattice.contains((1, 0, 0))
    assert not lattice.contains((0, 0, 1))
    assert lattice.contains((0, 0, 0))


def test_integer_lattice_nontrivial_combination():
    lattice = IntegerLattice(2)
    lattice.add((2, 1))
    lattice.add((1, 2))
    # (3, 3) = (2,1) + (1,2); (1, 1) is not integral in this sublattice.
    assert lattice.contains((3, 3))
    assert not lattice.contains((1, 1))


def test_integer_lattice_random_closure():
    rng = random.Random(99)
    for _ in range(50):
        dim = rng.randint(1, 4)
        vectors = [
            tuple(rng.randint(-4, 4) for _ in range(dim))
            for _ in range(rng.randint(1, 4))
        ]
        lattice = IntegerLattice(dim)
        for v in vectors:
            lattice.add(v)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in vectors]
            combo = tuple(
                sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim)
            )
            assert lattice.contains(combo)


def test_membership_of_a_longer_vector_is_refused():
    lattice = IntegerLattice(2)
    lattice.add((1, 0))
    with pytest.raises(DimensionMismatchError):
        lattice.contains((1, 0, 0))


def test_adding_a_longer_vector_is_refused():
    with pytest.raises(DimensionMismatchError):
        IntegerLattice(2).add((1, 2, 3))


def test_index_of_rows_longer_than_the_ambient_dimension_is_refused():
    with pytest.raises(DimensionMismatchError):
        lattice_rank_and_index([(1, 0, 5)], 1)


def test_index_of_ragged_rows_is_refused():
    with pytest.raises(DimensionMismatchError):
        lattice_rank_and_index([(1, 0), (1,)], 2)


def test_left_kernel_of_ragged_rows_is_refused():
    with pytest.raises(DimensionMismatchError):
        left_kernel([(1, 0), (1,)], 2)
