"""Exact linear algebra over the rational numbers, with ranks certified mod p.

The scalar type is :class:`fractions.Fraction`: arbitrary precision,
always in lowest terms with a positive denominator, so every arithmetic
result is exact and canonical. ``MatrixQ`` is a small immutable dense
matrix over it. Elimination is rational Gaussian elimination with a
fixed pivot rule: leftmost column first and, within a column, the first
nonzero row from the top. That rule makes ranks, echelon forms and
kernel bases bit-identical across runs, which golden values in the
test-suite rely on.

The matrices this package eliminates are mostly zeros, so a row update
touches only the pivot row's nonzero entries, and only in rows whose
entry in the pivot column is nonzero; scaling the pivot row skips its
zeros too. A skipped entry would have been left as it is, so the pivot
rule, and with it every result, is the same as dense elimination's.

``certified_rank`` takes the rank of an integer matrix modulo the
fixed prime ``PRIME`` first, with the same elimination and pivot rule
over Z/p. Reduction mod p can only lose rank, so ``rank_p <= rank_Q``,
and ``rank_Q`` is at most the number of rows: a ``rank_p`` equal to
that number proves ``rank_Q`` equal to it. A shorter ``rank_p`` may be
a loss to the prime, so it never decides a shortfall; the rank is then
taken over Q from the same integers. The result is the exact rank
either way, and the same on every run.

No floating point is used anywhere in this package; floats are rejected
at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

VectorQ = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the modulus of certified_rank: fixed, so every run eliminates alike;
# at 31 bits a product of two residues fits in 62
PRIME = 2**31 - 1


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a ``"p"`` / ``"p/q"`` string, or a Fraction.

    Floats are rejected: silently converting one would smuggle a binary
    rounding error into an exact computation. A value that is exactly a
    Fraction is returned as it is, since Fractions are immutable.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(value)


class MatrixQ:
    """Immutable dense rational matrix, row-major storage.

    Zero-by-n and n-by-zero shapes are legal and behave degenerately
    (rank 0, full or empty kernel) rather than erroring.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        flat = tuple(as_scalar(e) for e in entries)
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        self.rows = rows
        self.cols = cols
        self.entries = flat

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "MatrixQ":
        """Build from an iterable of rows; ``cols`` disambiguates the empty case."""
        data = [list(r) for r in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("rows must all have the same length")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row length {width}")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(data), cols, [e for r in data for e in r])

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> VectorQ:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        """Mutable copy of the rows, for elimination working storage."""
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"MatrixQ({self.rows}x{self.cols}: {body})"


def _clear(rows: list[list], targets: range, prow: list, col: int, p: int = 0) -> None:
    """Subtract multiples of the pivot row ``prow`` (pivot 1 at ``col``)
    from each target row, so that its entry at ``col`` becomes zero;
    modulo p when p is nonzero.

    Only the pivot row's nonzero entries are visited, in rows whose
    entry at ``col`` is nonzero; every other entry would stay as it is.
    """
    support = [(j, b) for j, b in enumerate(prow) if b]
    for r in targets:
        cur = rows[r]
        f = cur[col]
        if not f:
            continue
        if p:
            for j, b in support:
                cur[j] = (cur[j] - f * b) % p
        else:
            for j, b in support:
                cur[j] -= f * b


def _forward_eliminate(rows: list[list], p: int = 0) -> list[int]:
    """In-place forward elimination; returns the pivot column indices.

    Over Q when p is 0; over Z/p when p is a prime and every entry is a
    residue in ``0..p-1``. Integer entries are exact over Q too: they
    become Fractions at the first division.
    """
    pivots: list[int] = []
    piv_r = 0
    nrows = len(rows)
    for col in range(len(rows[0]) if rows else 0):
        if piv_r == nrows:
            break
        sel = None
        for r in range(piv_r, nrows):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        prow = rows[piv_r]
        pivot = prow[col]
        if pivot != 1:
            inv = pow(pivot, -1, p) if p else _ONE / pivot
            for j, e in enumerate(prow):
                if e:
                    prow[j] = e * inv % p if p else e * inv
        _clear(rows, range(piv_r + 1, nrows), prow, col, p)
        pivots.append(col)
        piv_r += 1
    return pivots


def _back_substitute(rows: list[list[Fraction]], pivots: list[int]) -> None:
    for r in range(len(pivots) - 1, -1, -1):
        _clear(rows, range(r), rows[r], pivots[r])


def rref(m: MatrixQ) -> tuple[MatrixQ, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    rows = m.row_lists()
    pivots = _forward_eliminate(rows)
    _back_substitute(rows, pivots)
    return MatrixQ.from_rows(rows, cols=m.cols), tuple(pivots)


def rank(m: MatrixQ) -> int:
    """Exact rank. Forward elimination only; cheaper than full rref."""
    rows = m.row_lists()
    return len(_forward_eliminate(rows))


def certified_rank(rows: Sequence[Sequence[int]], cols: int) -> int:
    """Exact rank of an integer matrix: its rank mod ``PRIME`` where that
    equals the number of rows, which certifies it (see the module
    docstring), and otherwise its rank over Q."""
    if any(len(r) != cols for r in rows):
        raise ValueError(f"rows must all have length {cols}")
    if len(_forward_eliminate([[e % PRIME for e in r] for r in rows], PRIME)) == len(rows):
        return len(rows)
    return len(_forward_eliminate([list(r) for r in rows]))


def kernel_basis(m: MatrixQ) -> list[VectorQ]:
    """Canonical basis of the right kernel.

    One basis vector per free column of the reduced echelon form, free
    columns taken in ascending index order, with a unit in the free slot
    and the negated reduced column elsewhere. This parametrization is a
    function of the matrix alone, so callers can treat basis order as
    part of the contract.
    """
    return kernel_from_rref(*rref(m))


def free_columns(reduced: MatrixQ, pivots: Sequence[int]) -> tuple[int, ...]:
    """Column indices of a reduced echelon form that carry no pivot."""
    pivot_set = set(pivots)
    return tuple(c for c in range(reduced.cols) if c not in pivot_set)


def kernel_from_rref(reduced: MatrixQ, pivots: Sequence[int]) -> list[VectorQ]:
    """The canonical kernel basis of :func:`kernel_basis`, read off an
    rref already computed.

    The basis restricted to the free columns is the identity, so the
    coordinates of any kernel vector in this basis are its entries at
    the free columns.
    """
    basis: list[VectorQ] = []
    for free in free_columns(reduced, pivots):
        v = [_ZERO] * reduced.cols
        v[free] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.at(r, free)
        basis.append(tuple(v))
    return basis
