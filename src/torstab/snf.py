"""Integer row lattices in echelon form: membership, rank, index and left
kernels.

One algorithm answers every lattice question in torstab.  `_echelonize`
brings integer rows to an echelon basis of the lattice they span by Euclid's
algorithm on each column in turn; each basis row starts at its own pivot
column with a positive pivot.  From that basis:

- a vector lies in the lattice iff reducing it by the basis rows in pivot
  order leaves zero (`IntegerLattice.contains`);
- the rank is the number of basis rows;
- a lattice of full rank in Z^dim has a triangular basis, so its index is
  the product of the pivots (`lattice_rank_and_index`);
- echelonizing [A | I] on the columns of A alone leaves rows whose A-part
  is zero; the row operations are unimodular, so their I-parts form a
  basis of {v : v * A = 0}, which is saturated (`left_kernel`).

Everything here works on plain Python ints, so there is no overflow and no
precision loss regardless of entry size.  The module keeps its old name,
`snf`, because the benchmark's tracer (`bench/tracing.py`) looks
`torstab.snf` and `IntegerLattice` up by name.
"""

from __future__ import annotations

from math import prod

from .errors import DimensionMismatchError

def _row(vec, dim: int) -> list[int]:
    """A fresh list copy of vec, which must have length dim."""
    row = list(vec)
    if len(row) != dim:
        raise DimensionMismatchError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
    return row


def lattice_rank_and_index(rows: list[tuple[int, ...]], ambient_dim: int) -> tuple[int, int | None]:
    """Rank of the row lattice and its index in Z^ambient_dim.

    The index (the product of the echelon pivots) is None when the lattice
    has rank below the ambient dimension, i.e. infinite index.
    """
    basis, pivots, _ = _echelonize([_row(r, ambient_dim) for r in rows], ambient_dim)
    if len(basis) < ambient_dim:
        return len(basis), None
    return len(basis), prod(row[c] for row, c in zip(basis, pivots))


def left_kernel(rows: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """A basis of the integer vectors v with sum(v[i] * rows[i]) = 0.

    The rows lie in Z^dim.  The basis spans every integer solution, so the
    lattice it spans is saturated; it is empty when the rows are
    independent.
    """
    count = len(rows)
    augmented = [
        _row(row, dim) + [int(i == j) for j in range(count)] for i, row in enumerate(rows)
    ]
    _, _, rest = _echelonize(augmented, dim)
    return [tuple(row[dim:]) for row in rest]


class IntegerLattice:
    """Row lattice in Z^dim with exact membership, kept in echelon form."""

    def __init__(self, dim: int):
        self.dim = dim
        self._basis: list[list[int]] = []  # sorted by pivot column
        self._pivots: list[int] = []  # pivot (first nonzero) column of each basis row

    def _reduce(self, vec: list[int]) -> list[int]:
        for c, row in zip(self._pivots, self._basis):
            if vec[c] and vec[c] % row[c] == 0:
                q = vec[c] // row[c]
                for i in range(c, self.dim):
                    vec[i] -= q * row[i]
        return vec

    def contains(self, vec: tuple[int, ...] | list[int]) -> bool:
        return not any(self._reduce(_row(vec, self.dim)))

    def add(self, vec: tuple[int, ...] | list[int]) -> None:
        rows = [list(r) for r in self._basis] + [_row(vec, self.dim)]
        self._basis, self._pivots, _ = _echelonize(rows, self.dim)

    @property
    def rank(self) -> int:
        return len(self._basis)  # echelon rows are linearly independent


def _echelonize(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Echelon basis on the first `cols` columns, its pivot columns, and the
    nonzero rows left over, which are zero there.

    The unimodular row operations act on whole rows, in place.
    """
    work = [r for r in rows if any(r)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(cols):
        active = [r for r in work if r[col]]
        if not active:
            continue
        rest = [r for r in work if not r[col]]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            a, b = active[0], active[1]
            q = b[col] // a[col]
            for i in range(col, len(b)):
                b[i] -= q * a[i]
            if not b[col]:
                active.pop(1)
                if any(b):
                    rest.append(b)
        pivot = active[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        pivots.append(col)
        work = rest
    return basis, pivots, work
