"""Smith normal form over the integers and row-lattice membership.

Everything here works on plain Python ints, so there is no overflow and no
precision loss regardless of entry size.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def _find_pivot(a: IntMatrix, t: int) -> tuple[int, int] | None:
    """Position of a nonzero entry of smallest magnitude in the trailing block."""
    best = None
    best_abs = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = abs(a[i][j])
            if v and (best_abs is None or v < best_abs):
                best, best_abs = (i, j), v
                if v == 1:
                    return best
    return best


def smith_divisors(matrix: list[list[int]] | tuple[tuple[int, ...], ...]) -> list[int]:
    """Elementary divisors d1 | d2 | ... of an integer matrix.

    The result has length min(rows, cols); trailing zeros mark rank
    deficiency.  The product of the nonzero divisors equals |det| for a
    square nonsingular input.
    """
    a: IntMatrix = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        return []
    nrows, ncols = len(a), len(a[0])
    size = min(nrows, ncols)
    divisors: list[int] = []
    t = 0
    while t < size:
        pos = _find_pivot(a, t)
        if pos is None:
            break
        pi, pj = pos
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        # Euclid on row t and column t until both are clear of off-pivot
        # entries; the pivot magnitude strictly decreases on each retry.
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                q = a[i][t] // pivot
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                q = a[t][j] // pivot
                if q:
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
            if dirty:
                continue
            # Divisibility pass: the pivot must divide the trailing block.
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        divisors.append(abs(a[t][t]))
        t += 1
    divisors.extend([0] * (size - len(divisors)))
    return divisors


def lattice_rank_and_index(rows: list[tuple[int, ...]], ambient_dim: int) -> tuple[int, int | None]:
    """Rank of the row lattice and its index in Z^ambient_dim.

    The index (product of the nonzero elementary divisors) is None when the
    lattice has rank below the ambient dimension, i.e. infinite index.
    """
    if not rows:
        return 0, None if ambient_dim > 0 else 1
    divisors = smith_divisors([list(r) for r in rows])
    nonzero = [d for d in divisors if d]
    rank = len(nonzero)
    if rank < ambient_dim:
        return rank, None
    index = 1
    for d in nonzero:
        index *= d
    return rank, index


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
        return not any(self._reduce(list(vec)))

    def add(self, vec: tuple[int, ...] | list[int]) -> None:
        rows = [list(r) for r in self._basis] + [list(vec)]
        self._basis, self._pivots = _echelonize(rows, self.dim)

    @property
    def rank(self) -> int:
        return len(self._basis)  # echelon rows are linearly independent

    def is_saturated(self) -> bool:
        """True iff every integer vector in the lattice's rational span is in
        the lattice, i.e. every elementary divisor of the basis is 1."""
        return all(d == 1 for d in smith_divisors(self._basis))


def _echelonize(rows: list[list[int]], dim: int) -> tuple[list[list[int]], list[int]]:
    """Echelon basis of the row lattice and the pivot column of each row."""
    work = [r for r in rows if any(r)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(dim):
        active = [r for r in work if r[col]]
        if not active:
            continue
        rest = [r for r in work if not r[col]]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            a, b = active[0], active[1]
            q = b[col] // a[col]
            for i in range(dim):
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
    return basis, pivots
