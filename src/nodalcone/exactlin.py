"""Exact linear algebra over the rational numbers, with ranks of integer
matrices found mod a prime and certified.

The scalar type is :class:`fractions.Fraction`: arbitrary precision,
always in lowest terms with a positive denominator, so every arithmetic
result is exact and canonical. ``MatrixQ`` is a small immutable dense
matrix over it. Elimination over Q is fraction-free: rows are cleared
to integers, a row with entry f under the pivot a becomes
``a' row - f' pivot_row`` (``a' / f' = a / f`` in lowest terms) divided
by the gcd of its entries, taken anew for each row, not Bareiss's (1968)
exact division by the previous pivot, and a reader divides a row by its
pivot entry. Each integer row is a nonzero multiple of the row rational
Gaussian elimination leaves, so pivots and results do not change. The
pivot rule is fixed: leftmost column first and, within a column, the
first nonzero row from the top. That rule makes ranks, echelon forms
and kernel bases bit-identical across runs, which golden values in the
test-suite rely on.

The matrices this package eliminates are mostly zeros, so a row update
subtracts only the pivot row's nonzero entries, and only in rows whose
entry in the pivot column is nonzero. A skipped entry would have been
left as it is, so every result is the same as dense elimination's.

``certified_rank_of_columns`` takes the rank of an integer matrix, given
as the nonzero ``(row, entry)`` pairs of each column, modulo the fixed
prime ``PRIME`` first: column by column, in any order, since the rank
does not depend on it, each reduced on its nonzero entries only, zero
columns skipped, and a stop at ``min(rows, cols)`` pivots, or at a
smaller upper bound on ``rank_Q`` that the caller has proven
(``embedding``'s probe does, from vectors known to be in the kernel).
Reduction mod p can only lose rank, so ``rank_p <= rank_Q``, and
``rank_Q`` is at most that bound: a ``rank_p`` equal to it proves
``rank_Q`` equal to it, for a tall matrix as for a wide one. A shorter
``rank_p`` may be a loss to the prime, so it never decides a shortfall;
the rank is then taken over Q from the same integers, as dense rows. The
result is the exact rank either way, and the same on every run. Dense
rows go in as the columns of their transpose.

``kernel_of_columns`` finds the canonical kernel basis of an integer
matrix given by columns in the same way. A zero column is free, with the
unit vector there, so only the nonzero columns are eliminated, over Q,
as dense integer rows. No prime is involved, so the result is exact by
construction and is exactly ``kernel_basis``'s.

Every kernel has one form: each vector cleared by the lcm of its
denominators, as its nonzero ``(j, c)`` in ascending j, the last at its
free column, where c is that lcm. ``_kernel_vectors`` reads it over Q
off reduced integer rows with no Fraction built: ``kernel_of_columns``
keeps it, ``kernel_basis`` is its Fraction view (``_rational``), and
``bundles.section_basis`` cuts it into integer sections. The command
line builds two ``MatrixQ``s only: ``section_basis``'s gluing matrix and
``basis_rank``'s stack of the integer basis.

No floating point is used anywhere in this package; floats are rejected
at the boundary.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

VectorQ = tuple[Fraction, ...]

_ZERO = Fraction(0)

# the modulus of certified_rank_of_columns, 2^31 - 1, written out so that it
# is not searched for at import; at 31 bits a product of two residues fits in 62
PRIME = 2147483647


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


class _Frozen:
    """Base of the immutable objects: assigning or deleting an attribute
    raises ``AttributeError``; ``__init__`` uses ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MatrixQ(_Frozen):
    """Immutable dense rational matrix, row-major storage.

    Zero-by-n and n-by-zero shapes are legal and behave degenerately
    (rank 0, full or empty kernel) rather than erroring.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        flat = tuple(as_scalar(e) for e in entries)
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", flat)

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

    def row(self, i: int) -> VectorQ:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols : (i + 1) * self.cols]


def _combine(row: list[int], terms: list[tuple[int, int, list[tuple[int, int]]]]) -> None:
    """Clear an integer row at the pivots of ``terms``, each ``(a, f,
    support)``: a pivot, the row's entry there and the pivot row's nonzero
    ``(j, b)``, each pivot row zero at the others' pivots. Only the row's
    nonzero entries are scaled and divided, found by a scan in C
    (``compress``): a row can be long and mostly zero."""
    lowest = []
    for a, f, support in terms:
        g = gcd(a, f) if a > 0 else -gcd(a, f)
        lowest.append((a // g, f // g, support))
    scale = lcm(*(a for a, _, _ in lowest))
    if scale != 1:
        for j in compress(range(len(row)), row):
            row[j] *= scale
    for a, f, support in lowest:
        f *= scale // a
        for j, b in support:
            row[j] -= f * b
    g = gcd(*compress(row, row))
    if g > 1:
        for j in compress(range(len(row)), row):
            row[j] //= g


def _forward_eliminate(rows: list[list[int]]) -> list[int]:
    """In-place forward elimination of integer rows over Q, fraction-free
    (``_combine``); returns the pivot column indices."""
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
        support = [(j, b) for j, b in enumerate(prow) if b]
        for cur in rows[piv_r + 1 :]:
            f = cur[col]
            if f:
                _combine(cur, [(pivot, f, support)])
        pivots.append(col)
        piv_r += 1
    return pivots


def _back_substitute(rows: list[list[int]], pivots: list[int]) -> None:
    """In-place back substitution after ``_forward_eliminate``, which
    leaves the reduced echelon form up to a nonzero factor per row. Each
    row, from the bottom up, is cleared against all the reduced rows below
    at once (they are zero at each other's pivots), so it is scaled and
    made primitive once."""
    below: list[tuple[int, int, list[tuple[int, int]]]] = []  # (pivot column, pivot, nonzero entries)
    for r in range(len(pivots) - 1, -1, -1):
        cur = rows[r]
        terms = [(a, cur[pc], support) for pc, a, support in below if cur[pc]]
        if terms:
            _combine(cur, terms)
        below.append((pivots[r], cur[pivots[r]], [(j, b) for j, b in enumerate(cur) if b]))


def _integer_rows(m: MatrixQ) -> list[list[int]]:
    """Each row of m times the lcm of its denominators: m's pivots,
    reduced rows and kernel."""
    dens = [lcm(*(e.denominator for e in m.row(i))) for i in range(m.rows)]
    return [[e.numerator * (d // e.denominator) for e in m.row(i)] for i, d in enumerate(dens)]


def rank(m: MatrixQ) -> int:
    """Exact rank, by forward elimination only."""
    return len(_forward_eliminate(_integer_rows(m)))


def _dense_rows(columns: Sequence[Sequence[tuple[int, int]]], rows: int) -> list[list[int]]:
    """The dense rows of the matrix with these sparse columns."""
    out = [[0] * len(columns) for _ in range(rows)]
    for j, column in enumerate(columns):
        for i, e in column:
            out[i][j] = e
    return out


def _rank_mod_prime(columns: Sequence[Sequence[tuple[int, int]]], stop: int) -> int:
    """The rank mod ``PRIME`` of the matrix with these sparse columns,
    counted up to ``stop``; shortest columns first, as the cheapest to
    reduce. Each column is a dict from row to nonzero residue, always
    reduced at its lowest row: a pivot there keeps the rest of the dict,
    scaled to a unit at that row; a column reduced to nothing adds none."""
    pivots: dict[int, dict[int, int]] = {}
    for column in sorted(filter(None, columns), key=len):
        if len(pivots) == stop:
            break
        v = {i: r for i, e in column if (r := e % PRIME)}
        while v:
            i = min(v)
            f = v.pop(i)
            tail = pivots.get(i)
            if tail is None:
                inv = pow(f, -1, PRIME)
                pivots[i] = {j: x * inv % PRIME for j, x in v.items()}
                break
            for j, x in tail.items():
                if y := (v.get(j, 0) - f * x) % PRIME:
                    v[j] = y
                else:
                    del v[j]
    return len(pivots)


def certified_rank_of_columns(columns: Sequence[Sequence[tuple[int, int]]], rows: int, bound: int | None = None) -> int:
    """Exact rank of the integer matrix with ``rows`` rows and these
    columns, each its nonzero ``(row, entry)`` pairs: its rank mod
    ``PRIME`` where that equals ``min(rows, cols)``, or ``bound`` if
    smaller, a proven upper bound on the rank over Q, which certifies it
    (see the module docstring), and otherwise its rank over Q."""
    full = min(rows, len(columns)) if bound is None else min(rows, len(columns), bound)
    if _rank_mod_prime(columns, full) == full:
        return full
    return len(_forward_eliminate(_dense_rows(columns, rows)))


def _free(cols: int, pivots: Sequence[int]) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(cols) if c not in pivot_set]


def _kills(columns, rows: int, w) -> bool:
    """Whether the integer matrix with these sparse columns times the
    vector with nonzero entries ``(j, w_j)`` is zero, exactly over Z."""
    total = [0] * rows
    for j, c in w:
        for i, a in columns[j]:
            total[i] += a * c
    return not any(total)


def kernel_of_columns(columns: Sequence[Sequence[tuple[int, int]]], rows: int) -> list[list[tuple[int, int]]]:
    """The canonical kernel basis of the integer matrix with ``rows`` rows
    and these columns, each its nonzero ``(row, entry)`` pairs, in the
    order of ``kernel_basis``: each vector times the lcm of its
    denominators, as its nonzero ``(j, c)`` in ascending j, the last at
    its free column. A zero column is free, with its unit vector; the
    nonzero columns alone are eliminated over Q."""
    nonzero = [j for j, column in enumerate(columns) if column]
    basis = {j: [(j, 1)] for j, column in enumerate(columns) if not column}
    vectors = _kernel_vectors(_dense_rows([columns[j] for j in nonzero], rows), len(nonzero)) if nonzero else []
    for w in vectors:
        basis[nonzero[w[-1][0]]] = [(nonzero[j], c) for j, c in w]
    return [basis[f] for f in sorted(basis)]


def kernel_basis(m: MatrixQ) -> list[VectorQ]:
    """Canonical basis of the right kernel.

    One basis vector per free column of the reduced echelon form, free
    columns taken in ascending index order, with a unit in the free slot
    and the negated reduced column elsewhere. This parametrization is a
    function of the matrix alone, so callers can treat basis order as
    part of the contract.
    """
    return [_rational(w, m.cols) for w in _kernel_vectors(_integer_rows(m), m.cols)]


def _rational(w: list[tuple[int, int]], cols: int) -> VectorQ:
    """A vector of ``_kernel_vectors`` as its ``cols`` Fractions, each
    entry over the last."""
    v = [_ZERO] * cols
    for j, c in w:
        v[j] = Fraction(c, w[-1][1])
    return tuple(v)


def _kernel_vectors(rows: list[list[int]], cols: int) -> list[list[tuple[int, int]]]:
    """The canonical kernel basis of integer rows, reduced in place, as
    ``kernel_of_columns`` returns it: the vector at free column f has
    ``-row[f] / row[pc]`` at each pivot pc left of f, in lowest terms by
    a gcd, all over the (positive) lcm of the denominators, which ends it
    at f."""
    pivots = _forward_eliminate(rows)
    _back_substitute(rows, pivots)
    basis = []
    for f in _free(cols, pivots):
        entries = []
        for row, pc in zip(rows, pivots[: bisect_left(pivots, f)]):
            e, a = row[f], row[pc]
            if e:
                g = gcd(e, a)
                entries.append((pc, -e // g, a // g))
        den = lcm(*(d for _, _, d in entries))
        basis.append([(pc, n * (den // d)) for pc, n, d in entries] + [(f, den)])
    return basis
