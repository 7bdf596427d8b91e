"""Exact rational linear algebra: golden examples, properties, sympy cross-check."""

import ast
import inspect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_kernel, reference_rank_mod_prime, reference_rref, sparse_columns
from nodalcone import exactlin
from nodalcone.exactlin import (
    PRIME,
    MatrixQ,
    as_scalar,
    certified_rank_of_columns,
    kernel_basis,
    kernel_of_columns,
    rank,
)

F = Fraction

# six 31-bit primes, 2^31 - 1 and the next five below it: hostile inputs
# are built as multiples of them, or as rows dependent mod one of them only
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


def test_as_scalar_accepts_exact_values():
    assert as_scalar(3) == F(3)
    assert as_scalar(F(1, 2)) == F(1, 2)
    assert isinstance(as_scalar(7), F)
    half = F(1, 2)
    assert as_scalar(half) is half  # passed through, not rebuilt

    class Tagged(F):
        pass

    assert type(as_scalar(Tagged(1, 3))) is F


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        MatrixQ.from_rows([[0.5]])


def test_matrix_is_immutable():
    """Assigning or deleting a field raises, as for the other values, and
    leaves the shape and the entries as they were."""
    m = MatrixQ.from_rows([[1, 2]])
    for name in ("rows", "cols", "entries"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(m, name, 5)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(m, name)
    assert (m.rows, m.cols, m.entries) == (1, 2, (F(1), F(2)))
    with pytest.raises(IndexError):
        m.row(3)


def test_matrix_shape_is_integers():
    """A row or column count that is not an integer raises ``TypeError``,
    also where rows times cols is the number of entries, instead of making
    a matrix that fails only when it is used."""
    for rows, cols, n in ((1.5, 2, 3), (2, 1.5, 3), (2.0, 1, 2), (1, F(2), 2), ("2", 1, 2), (1, "2", 2)):
        with pytest.raises(TypeError):
            MatrixQ(rows, cols, [1] * n)
    for cols in (2.0, "2", F(2)):
        with pytest.raises(TypeError):
            MatrixQ.from_rows([], cols=cols)


def test_from_rows_ragged_raises():
    with pytest.raises(ValueError):
        MatrixQ.from_rows([[1, 2], [3]])


def test_empty_shapes():
    m = MatrixQ.from_rows([], cols=3)
    assert (m.rows, m.cols) == (0, 3)
    assert rank(m) == 0
    assert len(kernel_basis(m)) == 3
    n = MatrixQ.from_rows([[], []])
    assert (n.rows, n.cols) == (2, 0)
    assert kernel_basis(n) == []


def _det_by_permutations(m):
    assert m.rows == m.cols
    total = F(0)
    for perm in itertools.permutations(range(m.rows)):
        sign = F(1)
        for i in range(m.rows):
            for j in range(i + 1, m.rows):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i, j in enumerate(perm):
            prod *= m.row(i)[j]
        total += sign * prod
    return total


def test_vandermonde_rank_with_determinant_oracle():
    # nodes t = 0, 1, 2: the Vandermonde determinant is (1-0)(2-0)(2-1) = 2
    m = MatrixQ.from_rows([[1, t, t * t] for t in (F(0), F(1), F(2))])
    assert _det_by_permutations(m) == F(2)
    assert rank(m) == 3
    assert kernel_basis(m) == []


def test_kernel_canonical_form():
    m = MatrixQ.from_rows([[1, 2]])
    assert kernel_basis(m) == [(F(-2), F(1))]
    dependent = MatrixQ.from_rows([[2, 4], [1, 2]])
    assert kernel_basis(dependent) == [(F(-2), F(1))]
    assert rank(dependent) == 1
    z = MatrixQ.from_rows([[0, 0, 0], [0, 0, 0]])
    basis = kernel_basis(z)
    assert basis == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def _mul_vec(m, vec):
    return tuple(sum((a * b for a, b in zip(row, vec)), F(0)) for row in _rows(m))


def _rows(m):
    return [m.row(i) for i in range(m.rows)]


def _random_matrix(rng, max_dim=6):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    entries = [
        [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)
    ]
    return MatrixQ.from_rows(entries)


def test_rank_and_kernel_against_sympy():
    rng = random.Random(20260819)
    for _ in range(30):
        m = _random_matrix(rng)
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x) for x in m.entries])
        assert rank(m) == sm.rank()
        basis = kernel_basis(m)
        assert len(basis) == len(sm.nullspace())
        for vec in basis:
            assert _mul_vec(m, vec) == tuple([F(0)] * m.rows)


def test_point_evaluation_rank_invariant():
    # r <= d+1 distinct evaluation points give rank r; one more point adds nothing
    rng = random.Random(97)
    for _ in range(20):
        d = rng.randint(0, 5)
        pts = rng.sample(range(-9, 10), d + 2)
        pts = [F(p, 2) for p in pts]
        for r in (1, d + 1, d + 2):
            rows = [[t**j for j in range(d + 1)] for t in pts[:r]]
            assert rank(MatrixQ.from_rows(rows)) == min(r, d + 1)


fractions_st = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(
            st.lists(fractions_st, min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return MatrixQ.from_rows(entries)


@st.composite
def sparse_matrices(draw, max_rows=8, max_cols=12):
    """Matrices with at least 60% zero entries. Some rows are replaced by
    a combination of earlier rows, and so reduce to zero, wherever that
    keeps the zeros at 60%."""
    r = draw(st.integers(min_value=1, max_value=max_rows))
    c = draw(st.integers(min_value=1, max_value=max_cols))
    budget = (r * c * 2) // 5
    cells = draw(st.lists(st.integers(0, r * c - 1), unique=True, max_size=budget))
    rows = [[F(0)] * c for _ in range(r)]
    for cell in cells:
        rows[cell // c][cell % c] = draw(fractions_st.filter(bool))
    for i in range(1, r):
        if draw(st.booleans()):
            a, b = draw(fractions_st), draw(fractions_st)
            s, t = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            row = [a * x + b * y for x, y in zip(rows[s], rows[t])]
            others = sum(bool(e) for k, other in enumerate(rows) if k != i for e in other)
            if others + sum(map(bool, row)) <= budget:
                rows[i] = row
    return MatrixQ.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_rref_of_sparse_matrices_against_sympy(m):
    """The reduced echelon form of the fraction-free elimination, read
    through the canonical kernel basis it gives (a unit at each free
    column, the negated reduced column at the pivots), is sympy's."""
    assert 5 * sum(e == 0 for e in m.entries) >= 3 * m.rows * m.cols
    sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(e.numerator, e.denominator) for e in m.entries])
    s_reduced, s_pivots = sm.rref()
    expected = []
    for free in (c for c in range(m.cols) if c not in s_pivots):
        v = [F(0)] * m.cols
        v[free] = F(1)
        for r, pc in enumerate(s_pivots):
            e = s_reduced[r, free]
            v[pc] = -F(int(e.p), int(e.q))
        expected.append(tuple(v))
    assert kernel_basis(m) == expected
    assert rank(m) == len(s_pivots)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(MatrixQ.from_rows(list(zip(*_rows(m))), cols=m.rows))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    zero = tuple([F(0)] * m.rows)
    for vec in kernel_basis(m):
        assert _mul_vec(m, vec) == zero


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_basis_is_identity_on_free_columns(m):
    """The invariant coordinate readoff relies on: a kernel vector's
    coordinates in the canonical basis are its free-column entries."""
    _, pivots = reference_rref(m)
    free = tuple(c for c in range(m.cols) if c not in pivots)
    basis = kernel_basis(m)
    vectors = exactlin._kernel_vectors(exactlin._integer_rows(m), m.cols)
    assert vectors == _sparse_reference_kernel(m)
    assert [w[-1][0] for w in vectors] == list(free)
    assert [tuple(v[c] for c in free) for v in basis] == [
        tuple(F(int(i == j)) for j in range(len(free))) for i in range(len(free))
    ]


@st.composite
def awkward_matrices(draw):
    """MatrixQs that stress fraction-free elimination: any shape up to
    6 x 8, so wide and tall ones and 0 x n and n x 0; zero rows and zero
    columns; entries that are small signed fractions, signed 60-digit
    integers, fractions of two 60-digit integers, or small plus a small
    multiple of PRIME; and rows that are a small multiple of an earlier
    row plus PRIME times a vector, so dependent mod PRIME only."""
    r = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.integers(min_value=0, max_value=8))
    small = st.integers(-4, 4)
    big = st.integers(10**59, 10**60 - 1).flatmap(lambda b: st.sampled_from([b, -b]))
    entry = st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        big,
        st.tuples(big, big).map(lambda t: F(t[0], abs(t[1]))),
        st.tuples(small, small).map(lambda t: t[0] + t[1] * PRIME),
    )
    zero_rows = draw(st.sets(st.integers(0, r - 1))) if r else set()
    zero_cols = draw(st.sets(st.integers(0, c - 1))) if c else set()
    rows = [[0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(c)] for i in range(r)]
    for i in range(1, r):
        if i not in zero_rows and draw(st.booleans()):
            k, a = draw(st.integers(0, i - 1)), draw(small)
            rows[i] = [a * x + (0 if j in zero_cols else draw(small) * PRIME) for j, x in enumerate(rows[k])]
    return MatrixQ.from_rows(rows, cols=c)


@settings(max_examples=200, deadline=None)
@given(awkward_matrices())
def test_fraction_free_elimination_equals_the_fraction_reference(m):
    """``rank`` and ``kernel_basis`` eliminate integer rows with no
    division; every result equals rational Gaussian elimination's."""
    _, pivots = reference_rref(m)
    assert rank(m) == len(pivots)
    assert kernel_basis(m) == reference_kernel(m)


def _no_fraction(*args):
    raise AssertionError("Fraction built")


@settings(max_examples=200, deadline=None)
@given(awkward_matrices())
def test_integer_kernel_vectors_equal_the_cleared_fraction_reference(m):
    """``_kernel_vectors`` reads the canonical kernel off the reduced
    integer rows with no Fraction built: each ``reference_kernel`` vector
    times the lcm of its denominators, as its nonzero ``(j, c)``, the
    last at its free column. ``kernel_of_columns`` returns these vectors
    as they are."""
    rows = _cleared_rows(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactlin, "Fraction", _no_fraction)
        vectors = exactlin._kernel_vectors(rows, m.cols)
    assert vectors == _sparse_reference_kernel(m)


@st.composite
def sparse_integer_matrices(draw):
    """``awkward_matrices`` with each row cleared to integers, which keeps
    the kernel, and the columns shuffled, so zero columns fall anywhere:
    ``(m, columns)``, the shuffled integers as a MatrixQ and each of its
    columns as the nonzero ``(row, entry)`` pairs, in shuffled order."""
    m = draw(awkward_matrices())
    rows = _cleared_rows(m)
    order = draw(st.permutations(range(m.cols)))
    rows = [[r[j] for j in order] for r in rows]
    columns = [draw(st.permutations([(i, r[j]) for i, r in enumerate(rows) if r[j]])) for j in range(m.cols)]
    return MatrixQ.from_rows(rows, cols=m.cols), columns


def _cleared_rows(m):
    """The rows of a MatrixQ, each times the lcm of its denominators."""
    rows = []
    for i in range(m.rows):
        den = math.lcm(*(e.denominator for e in m.row(i)))
        rows.append([int(e * den) for e in m.row(i)])
    return rows


def _sparse_reference_kernel(m):
    """``reference_kernel`` with each vector cleared by the lcm of its
    denominators, as its nonzero ``(j, c)``."""
    out = []
    for v in reference_kernel(m):
        den = math.lcm(*(e.denominator for e in v))
        out.append([(j, int(e * den)) for j, e in enumerate(v) if e])
    return out


def _kernel_of_rows(rows, cols):
    """``kernel_of_columns`` of dense integer rows, read as columns by
    ``sparse_columns``."""
    return kernel_of_columns(sparse_columns(rows, cols), len(rows))


def _eliminations_skip_zero_columns(patch, m, columns):
    """Patch ``_forward_eliminate`` to require that every elimination gets
    exactly m's nonzero columns, in order, as integer rows; return the
    list it appends to, one entry per elimination."""
    nonzero = [j for j, column in enumerate(columns) if column]
    kept = [[m.row(i)[j].numerator for j in nonzero] for i in range(m.rows)]
    eliminate, runs = exactlin._forward_eliminate, []

    def counting(rows):
        assert rows == kept
        assert all(type(e) is int for row in rows for e in row)
        runs.append(len(rows))
        return eliminate(rows)

    patch.setattr(exactlin, "_forward_eliminate", counting)
    return runs


@settings(max_examples=150, deadline=None)
@given(sparse_integer_matrices())
def test_kernel_on_sparse_columns_equals_the_fraction_reference(matrix):
    """``kernel_of_columns`` gives the reference kernel, each vector
    cleared and sparse, from one elimination over Q of the nonzero
    columns alone, and none where every column is zero: a zero column is
    free, with its unit vector."""
    m, columns = matrix
    expected = _sparse_reference_kernel(m)
    with pytest.MonkeyPatch.context() as patch:
        runs = _eliminations_skip_zero_columns(patch, m, columns)
        assert kernel_of_columns(columns, m.rows) == expected
    assert len(runs) == (1 if any(columns) else 0)


def _exact_rank(rows, cols):
    return rank(MatrixQ.from_rows(rows, cols=cols))


@st.composite
def integer_matrices(draw, max_dim=6):
    """Integer matrices whose reduction mod PRIME is often short of full
    rank: entries are small, or multiples of PRIME, or small plus a
    multiple of PRIME; and a row may be a multiple of an earlier row plus
    PRIME times a vector, so it is dependent mod PRIME but, as a rule,
    not over Q."""
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    small = st.integers(-3, 3)
    entry = st.one_of(small, small.map(lambda k: k * PRIME), st.tuples(small, small).map(lambda t: t[0] + t[1] * PRIME))
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        if draw(st.booleans()):
            j, a = draw(st.integers(0, i - 1)), draw(small)
            rows[i] = [a * x + draw(small) * PRIME for x in rows[j]]
    return rows, c


def _certified_rank_of_rows(rows, cols):
    """``certified_rank_of_columns`` of dense integer rows, read as columns
    by ``sparse_columns``."""
    return certified_rank_of_columns(sparse_columns(rows, cols), len(rows))


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_certified_rank_equals_the_exact_rank(matrix):
    rows, cols = matrix
    assert _certified_rank_of_rows(rows, cols) == _exact_rank(rows, cols)


def test_certified_rank_falls_back_on_every_shortfall(monkeypatch):
    exact_runs = []
    eliminate = exactlin._forward_eliminate

    def counting(rows):
        exact_runs.append(len(rows))
        return eliminate(rows)

    monkeypatch.setattr(exactlin, "_forward_eliminate", counting)
    # full rank mod p: certified, no elimination over Q
    assert _certified_rank_of_rows([[1, 2, 3], [0, 1, PRIME + 4]], 3) == 2
    assert exact_runs == []
    # det = PRIME: rank 1 mod p, rank 2 over Q
    assert _certified_rank_of_rows([[1, 1], [1, 1 + PRIME]], 2) == 2
    # rank 1 mod p and over Q: short, so only the exact rank may say so
    assert _certified_rank_of_rows([[1, 1], [2, 2]], 2) == 1
    assert _certified_rank_of_rows([[PRIME, 0]], 2) == 1
    assert exact_runs == [2, 2, 1]
    # tall: rank mod p equal to the column count is certified, no elimination over Q
    assert _certified_rank_of_rows([[1], [2]], 1) == 1
    assert _certified_rank_of_rows([[1, 0], [0, 1], [1, 1]], 2) == 2
    assert exact_runs == [2, 2, 1]
    # tall, short mod p only: rank 1 mod p, rank 2 over Q; rank 0 mod p, 1 over Q
    assert _certified_rank_of_rows([[1, 1], [1, 1 + PRIME], [2, 2]], 2) == 2
    assert _certified_rank_of_rows([[0], [PRIME]], 1) == 1
    # tall and short over Q too
    assert _certified_rank_of_rows([[1, 1], [2, 2], [3, 3]], 2) == 1
    assert exact_runs == [2, 2, 1, 3, 2, 3]


def test_certified_rank_of_empty_shapes():
    assert _certified_rank_of_rows([], 0) == 0
    assert _certified_rank_of_rows([], 4) == 0
    assert _certified_rank_of_rows([[], []], 0) == 0


@st.composite
def wide_or_tall_integer_matrices(draw):
    """Wide integer matrices, at most 5 rows and up to 14 columns, some of
    them zero, with entries as in ``integer_matrices`` and rows that are
    dependent only mod PRIME; or their transposes, tall, whose columns are
    dependent only mod PRIME. Returned as ``(rows, cols)``."""
    r = draw(st.integers(min_value=0, max_value=5))
    c = draw(st.integers(min_value=r, max_value=14))
    small = st.integers(-3, 3)
    entry = st.one_of(small, small.map(lambda k: k * PRIME), st.tuples(small, small).map(lambda t: t[0] + t[1] * PRIME))
    zero = draw(st.sets(st.integers(0, c - 1))) if c else set()
    rows = [[0 if j in zero else draw(entry) for j in range(c)] for _ in range(r)]
    for i in range(1, r):
        if draw(st.booleans()):
            k, a = draw(st.integers(0, i - 1)), draw(small)
            rows[i] = [a * x + draw(small) * PRIME for x in rows[k]]
    if draw(st.booleans()):
        return [[rows[i][j] for i in range(r)] for j in range(c)], r
    return rows, c


@settings(max_examples=300, deadline=None)
@given(wide_or_tall_integer_matrices(), st.randoms(use_true_random=False), st.one_of(st.none(), st.integers(0, 2)))
def test_rank_on_sparse_columns_equals_the_exact_rank(matrix, rng, slack):
    """``certified_rank_of_columns`` is the exact rank, with its columns
    in any order, with or without a proven upper bound on the rank over
    Q, here the exact rank plus ``slack``. Its rank mod PRIME, counted up
    to ``min(rows, cols)`` or that bound if smaller, is sympy's over
    ``GF(PRIME)``, and exactly where it falls short of the bound the rank
    is taken over Q, once. The same holds for the draw's rows handed in
    as the columns of its transpose, as ``twisted_cohomology`` and the
    probe's known vectors hand in theirs."""
    rows, cols = matrix
    exact = _exact_rank(rows, cols)
    bound = None if slack is None else exact + slack
    full = min(len(rows), cols) if bound is None else min(len(rows), cols, bound)
    transpose = [[(j, e) for j, e in enumerate(row) if e] for row in rows]
    for columns, height in ((sparse_columns(rows, cols), len(rows)), (transpose, cols)):
        rng.shuffle(columns)
        rank_p = exactlin._rank_mod_prime(columns, full)
        assert rank_p == min(full, reference_rank_mod_prime(rows))
        runs = []
        eliminate = exactlin._forward_eliminate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactlin, "_forward_eliminate", lambda r: runs.append(len(r)) or eliminate(r))
            assert certified_rank_of_columns(columns, height, bound) == exact
        assert len(runs) == (1 if rank_p < full else 0)


def test_rank_mod_prime_allocates_nothing_per_row():
    """Two one-entry columns at the first and the last of 10**6 rows
    certify rank 2 with no list of the rows' length built: a dense
    vector of 10**6 entries alone would take about 8 MB."""
    rows = 10**6
    tracemalloc.start()
    try:
        assert certified_rank_of_columns([[(0, 1)], [(rows - 1, 1)]], rows) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class _Unread(list):
    """A column that fails if its entries are read."""

    def __iter__(self):
        raise AssertionError("column read after the rank was certified")


def test_rank_on_sparse_columns_falls_back_on_every_shortfall(monkeypatch):
    exact_runs, dense = [], []
    eliminate, to_rows = exactlin._forward_eliminate, exactlin._dense_rows

    def counting(rows):
        exact_runs.append(len(rows))
        return eliminate(rows)

    def counting_rows(columns, rows):
        dense.append((rows, len(columns)))
        return to_rows(columns, rows)

    monkeypatch.setattr(exactlin, "_forward_eliminate", counting)
    monkeypatch.setattr(exactlin, "_dense_rows", counting_rows)
    # full rank mod p: certified, no dense rows and no elimination over Q;
    # zero columns count for nothing
    assert certified_rank_of_columns([[(0, 1)], [(0, 2), (1, 1)], [(0, 3), (1, PRIME + 4)]], 2) == 2
    assert certified_rank_of_columns([[], [(1, 5)], [], [(0, 3)]], 2) == 2
    # min(rows, cols) pivots end the elimination: the longest column is never read
    assert certified_rank_of_columns([[(1, 1)], _Unread([(0, 1), (1, 1)]), [(0, 2)]], 2) == 2
    assert exact_runs == [] and dense == []
    # det = PRIME: rank 1 mod p, rank 2 over Q, in either column order
    assert reference_rank_mod_prime([[1, 1], [1, 1 + PRIME]]) == 1
    assert certified_rank_of_columns([[(0, 1), (1, 1)], [(0, 1), (1, 1 + PRIME)]], 2) == 2
    assert certified_rank_of_columns([[(0, 1), (1, 1 + PRIME)], [(0, 1), (1, 1)]], 2) == 2
    # rank 1 mod p and over Q: short, so only the exact rank may say so
    assert certified_rank_of_columns([[(0, 1), (1, 2)], [(0, 2), (1, 4)], []], 2) == 1
    assert certified_rank_of_columns([[(0, PRIME)], []], 1) == 1
    assert exact_runs == [2, 2, 2, 1] and dense == [(2, 2), (2, 2), (2, 3), (1, 2)]
    # tall: rank mod p equal to the column count is certified
    assert certified_rank_of_columns([[(0, 1), (1, 2)]], 2) == 1
    assert certified_rank_of_columns([[(0, 1), (2, 1)], [(1, 1), (2, 1)]], 3) == 2
    assert exact_runs == [2, 2, 2, 1]
    # tall, short mod p only; tall and short over Q too
    assert certified_rank_of_columns([[(0, 1), (1, 1), (2, 2)], [(0, 1), (1, 1 + PRIME), (2, 2)]], 3) == 2
    assert certified_rank_of_columns([[(1, PRIME)]], 2) == 1
    assert certified_rank_of_columns([[(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 3)]], 3) == 1
    assert exact_runs == [2, 2, 2, 1, 3, 2, 3]
    # no rows or no columns: rank 0, with nothing eliminated
    assert certified_rank_of_columns([], 3) == certified_rank_of_columns([[], []], 0) == 0
    assert exact_runs == [2, 2, 2, 1, 3, 2, 3]


def test_elimination_mod_p_follows_the_pivot_rule():
    """Forward elimination over Q swaps the first nonzero row of the
    leftmost column up and leaves each row an integer multiple of the
    echelon row, which dividing by its pivot entry recovers."""
    rows = [[0, 2, 4, 1], [0, 1, 2, 5], [3, 0, 0, 6]]
    pivots = exactlin._forward_eliminate(rows)
    assert pivots == [0, 1, 3]
    assert rows == [[3, 0, 0, 6], [0, 1, 2, 5], [0, 0, 0, -1]]
    assert [[F(e, row[pc]) for e in row] for row, pc in zip(rows, pivots)] == [[1, 0, 0, 2], [0, 1, 2, 5], [0, 0, 0, 1]]


def _integer_kernel(rows, cols):
    """``kernel_basis`` over Q, each vector times the lcm of its
    denominators, as its nonzero ``(j, c)``: what ``kernel_of_columns``
    must return."""
    out = []
    for v in kernel_basis(MatrixQ.from_rows(rows, cols=cols)):
        den = math.lcm(*(e.denominator for e in v))
        out.append([(j, int(e * den)) for j, e in enumerate(v) if e])
    return out


@st.composite
def hard_integer_matrices(draw, max_dim=5):
    """Integer matrices that would be hard for a kernel found mod primes:
    entries that are small, multiples of a prime of ``PRIMES``, small
    plus such a multiple, of 20 to 45 bits, or, in a matrix of at most
    three rows, of 200 bits; and rows that are a multiple of an earlier
    row plus a prime of ``PRIMES`` times a vector, so dependent mod that
    prime only and with pivots that differ between primes."""
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim + 1))
    small = st.integers(-3, 3)
    prime = st.sampled_from(PRIMES)
    kinds = [
        small,
        st.tuples(small, prime).map(lambda t: t[0] * t[1]),
        st.tuples(small, small, prime).map(lambda t: t[0] + t[1] * t[2]),
        st.integers(2**20, 2**45).flatmap(lambda b: st.sampled_from([b, -b, 0])),
    ]
    if r <= 3:
        kinds.append(st.integers(2**199, 2**200))
    entry = st.one_of(*kinds)
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        if draw(st.booleans()):
            j, a, p = draw(st.integers(0, i - 1)), draw(small), draw(prime)
            rows[i] = [a * x + draw(small) * p for x in rows[j]]
    return rows, c


@settings(max_examples=200, deadline=None)
@given(hard_integer_matrices())
def test_certified_kernel_equals_the_exact_kernel(matrix):
    rows, cols = matrix
    assert _kernel_of_rows(rows, cols) == _integer_kernel(rows, cols)


def test_certified_kernel_passes_over_a_prime_that_loses_rank():
    """``[[1, 1], [1, 1 + PRIME]]`` has rank 1 mod PRIME and rank 2 over
    Q, so its kernel is empty. In ``[[1, 1, 5], [1, 1 + p, 12]]``, p the
    second of ``PRIMES``, the pivot at column 1 is lost mod p, and the
    kernel vector has denominator p."""
    assert _kernel_of_rows([[1, 1], [1, 1 + PRIME]], 2) == []
    rows = [[1, 1, 5], [1, 1 + PRIMES[1], 12]]
    expected = [[(0, 7 - 5 * PRIMES[1]), (1, -7), (2, PRIMES[1])]]
    assert _kernel_of_rows(rows, 3) == _integer_kernel(rows, 3) == expected


def test_certified_kernel_of_empty_and_ragged_shapes():
    assert _kernel_of_rows([], 0) == []
    assert _kernel_of_rows([], 3) == [[(0, 1)], [(1, 1)], [(2, 1)]]
    assert _kernel_of_rows([[0, 0], [0, 0]], 2) == [[(0, 1)], [(1, 1)]]
    assert _kernel_of_rows([[], []], 0) == []
    assert _kernel_of_rows([[2, 4]], 2) == [[(0, -2), (1, 1)]]
    assert kernel_of_columns([], 0) == kernel_of_columns([], 2) == []
    assert kernel_of_columns([[], []], 0) == [[(0, 1)], [(1, 1)]]
    assert kernel_of_columns([[], [(0, 2)], [], [(0, 4)]], 1) == [[(0, 1)], [(2, 1)], [(1, -2), (3, 1)]]


def test_primes_are_distinct_31_bit_literals():
    """The one modulus, ``PRIME``, is the prime 2^31 - 1, written out in
    the source so that it is not searched for at import."""
    assert PRIME == 2**31 - 1
    assert sympy.isprime(PRIME)
    tree = ast.parse(inspect.getsource(exactlin))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PRIME"]
    ]
    assert isinstance(value, ast.Constant) and value.value == PRIME
