"""Line bundles, gluing matrices, cohomology, duality."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_identity_at,
    curve_with_infinity,
    flip_node,
    random_bundle,
    random_curve,
    reference_convolve,
    reference_dual,
    reference_dualizing_gluings,
    reference_evaluation_row,
    reference_flatten,
    reference_gluing_matrix,
    reference_integral,
    reference_jet,
    reference_kernel,
    reference_power,
    reference_product,
    reference_satisfies_gluing,
    reference_rref,
    reference_tangent,
    reference_tensor,
    reference_value,
)
import nodalcone.bundles as bundles
from nodalcone.bundles import (
    _dot,
    _homogeneous_row,
    _jet_row,
    _multiply,
    LineBundle,
    Section,
    SectionSpace,
    basis_rank,
    block_widths,
    cohomology,
    component_h0,
    component_h1,
    dual,
    dualizing_bundle,
    gluing_matrix,
    h0,
    h1_direct,
    line_bundle,
    power,
    riemann_roch_report,
    section_basis,
    serre_duality_check,
    tangent_bundle,
    tensor,
)
from nodalcone.curve import (
    INFINITY,
    Component,
    InvalidCurveError,
    NodalCurve,
    NodeGluing,
    affine_point,
    arithmetic_genus,
    paper_example_curve,
)
from nodalcone.embedding import sample_points
from nodalcone.exactlin import MatrixQ, certified_rank_of_columns, rank

F = Fraction


def _product(a, b):
    """``_multiply`` of two sections' integer forms, read back as the
    ``Section`` of the product's block widths."""
    widths = [len(x) + len(y) - 1 if x and y else 0 for x, y in zip(a.coeffs, b.coeffs)]
    return bundles._section(_multiply(reference_integral(a), reference_integral(b)), widths)


def _glues(bundle, section):
    """``bundles._glues`` on a section's integer form against the node
    rows of the bundle."""
    return bundles._glues(bundles._node_rows(bundle), reference_integral(section)[0])


def test_component_cohomology_table():
    assert [component_h0(d) for d in (-3, -1, 0, 2)] == [0, 0, 1, 3]
    assert [component_h1(d) for d in (-4, -2, -1, 0, 3)] == [3, 1, 0, 0, 0]


def test_evaluation_row_affine_and_infinity():
    """``_homogeneous_row`` over its s is the evaluation row: the powers of
    an affine point, the leading coefficient at infinity, nothing at
    width 0."""
    assert _homogeneous_row(3, affine_point(F(3))) == ((1, 3, 9), 1)
    assert _homogeneous_row(3, affine_point(F(3, 2))) == ((4, 6, 9), 4)
    assert _homogeneous_row(3, INFINITY) == ((0, 0, 1), 1)
    assert _homogeneous_row(1, INFINITY) == ((1,), 1)
    assert _homogeneous_row(0, affine_point(F(0))) == ((), 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.none() | st.fractions(max_denominator=10**6))
def test_evaluation_row_equals_the_power_reference(d, coord):
    """The homogeneous integer row over its s equals the powers of the
    point in Fractions, at infinity and affine points with signs, zero
    and large denominators."""
    p = INFINITY if coord is None else affine_point(coord)
    row, s = _homogeneous_row(d + 1, p)
    assert s > 0 and tuple(F(e, s) for e in row) == reference_evaluation_row(d, p)


def _value(block, p):
    """``(h, s)`` of a dense integer block at p: its nonzero terms dotted
    with ``_homogeneous_row``, and that row's s."""
    row, s = _homogeneous_row(len(block), p)
    return _dot([(k, c) for k, c in enumerate(block) if c], row), s


def _jet(block, p):
    """``(h, s)`` of the first-order jet of a dense integer block at p,
    from ``_jet_row`` like ``_value``."""
    row, s = _jet_row(len(block), p)
    return _dot([(k, c) for k, c in enumerate(block) if c], row), s


def test_poly_value_and_jet():
    block = (1, 0, 2)  # 1 + 2 t^2, integer numerators over denominator 1
    assert _value(block, affine_point(F(3))) == (19, 1)
    assert _value(block, INFINITY) == (2, 1)
    assert _value((), affine_point(F(3))) == (0, 1)
    assert _jet(block, affine_point(F(3))) == (12, 1)
    # at p = a/b the denominator b^d is cleared: h / s is the value
    assert _value(block, affine_point(F(3, 2))) == (22, 4)  # 11/2
    assert _value(block, affine_point(F(-1, 2))) == (6, 4)  # 3/2
    assert _jet(block, affine_point(F(3, 2))) == (12, 2)  # 4 t = 6
    assert _jet(block, INFINITY) == (0, 1)  # a_{d-1}
    assert _jet((1, 7, 2), INFINITY) == (7, 1)
    # a length-1 block is a constant: its value everywhere, no jet
    assert _value((5,), affine_point(F(3, 2))) == (5, 1)
    assert _value((5,), INFINITY) == (5, 1)
    assert _jet((5,), affine_point(F(3, 2))) == (0, 1)
    assert _jet((), INFINITY) == (0, 1)
    # at 0 the rows keep their full width, so every term is read
    assert _value(block, affine_point(F(0))) == (1, 1)
    assert _value((0, 0, 2), affine_point(F(0, 1))) == (0, 1)
    assert _jet((1, 7, 2), affine_point(F(0))) == (7, 1)
    assert _jet((1, 0, 2), affine_point(F(0))) == (0, 1)


def test_bundle_validation(paper_curve):
    with pytest.raises(ValueError):
        LineBundle(paper_curve, (1, 1), (F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        LineBundle(paper_curve, (1, 1, 1), (F(1), F(1)))
    with pytest.raises(ValueError):
        LineBundle(paper_curve, (1, 1, 1), (F(1), F(0), F(1)))


def test_gluing_matrix_shape_and_frozen_rows(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    m = gluing_matrix(b)
    assert (m.rows, m.cols) == (3, 13)
    assert block_widths(b) == (5, 4, 4)
    # node C1[0] ~ C3[0]: +ev on the C1 block, -ev on the C3 block
    assert m.row(0) == tuple(
        F(x) for x in (1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0)
    )
    # self-node C2[0] ~ C2[2]: both branches hit the same block
    assert m.row(2) == tuple(
        F(x) for x in (0, 0, 0, 0, 0, 0, -2, -4, -8, 0, 0, 0, 0)
    )


def _assert_gluing_and_basis_match_the_reference(bundle):
    """G, its kernel and its free columns against the Fraction references:
    the stored integer form is ``reference_integral`` of a reference
    kernel vector cut into the bundle's blocks, the derived ``basis`` is
    those sections, the identity at the reference's free columns.
    ``basis_rank`` is h0, also with a section repeated and one scaled by a
    negative integer appended."""
    g = reference_gluing_matrix(bundle)
    m = gluing_matrix(bundle)
    assert (m.rows, m.cols, m.entries) == (g.rows, g.cols, g.entries)
    _, pivots = reference_rref(g)
    space = section_basis(bundle)
    offsets = [sum(block_widths(bundle)[:i]) for i in range(len(bundle.multidegree) + 1)]
    expected = tuple(Section(tuple(v[a:b] for a, b in zip(offsets, offsets[1:]))) for v in reference_kernel(g))
    assert space.integral_basis == tuple(reference_integral(s) for s in expected)
    assert space.basis == expected
    assert_identity_at(space, [c for c in range(g.cols) if c not in pivots])
    assert basis_rank(space) == len(expected)
    if expected:
        (blocks, den), *_ = space.integral_basis
        forms = space.integral_basis + ((tuple(tuple((k, -3 * c) for k, c in b) for b in blocks), den),)
        assert basis_rank(SectionSpace(bundle, forms + forms[-2:])) == len(expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_gluing_matrix_and_section_basis_match_the_fraction_reference(seed, with_infinity):
    """G from integer node rows and the basis from its fraction-free
    elimination equal G summed in Fractions and its rational kernel, on
    curves with fractional coordinates, self-nodes and, with infinity,
    branches at infinity; degrees from -3 to 6, gluings with denominators."""
    rng = random.Random(seed)
    curve = curve_with_infinity(rng) if with_infinity else random_curve(rng)
    _assert_gluing_and_basis_match_the_reference(random_bundle(rng, curve, degree_range=(-3, 6)))


def test_one_line_without_nodes_matches_the_fraction_reference():
    """No node, so G has no rows: every coefficient is free, and a
    negative degree leaves no column at all."""
    line = NodalCurve((Component("L", ()),), ())
    for d in range(-3, 5):
        _assert_gluing_and_basis_match_the_reference(line_bundle(line, (d,)))


def test_gluing_matrix_skips_empty_blocks(paper_curve):
    b = line_bundle(paper_curve, (0, -1, 1))
    m = gluing_matrix(b)
    assert (m.rows, m.cols) == (3, 3)
    assert m.row(0) == (F(1), F(-1), F(0))
    assert m.row(1) == (F(1), F(0), F(0))
    assert m.row(2) == (F(0), F(0), F(0))
    assert h0(b) == 1
    assert h1_direct(b) == 1  # corank of the 3x3 matrix; no component h1 below degree -1


def test_section_counts_on_reference_bundles(paper_curve):
    expected = {(3, 3, 3): 9, (4, 3, 3): 10, (4, 4, 3): 11}
    for degrees, value in expected.items():
        b = line_bundle(paper_curve, degrees)
        assert h0(b) == value
        assert h1_direct(b) == 0
        space = section_basis(b)
        assert len(space.basis) == value


def test_trivial_bundle_cohomology(paper_curve):
    """Degree 0 and scalar 1 at every node: the trivial bundle."""
    o = line_bundle(paper_curve, (0, 0, 0))
    assert h0(o) == 1
    assert h1_direct(o) == arithmetic_genus(paper_curve)


def test_all_negative_multidegree(paper_curve):
    b = line_bundle(paper_curve, (-4, -4, -2))
    assert h0(b) == 0
    assert h1_direct(b) == 10
    assert section_basis(b).basis == ()


def test_basis_sections_satisfy_gluing_exactly(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    for s in space.basis:
        assert _glues(b, s) and reference_satisfies_gluing(b, s)
    rows = [reference_flatten(b, s) for s in space.basis]
    assert rank(MatrixQ.from_rows(rows, cols=13)) == 10


def test_multiply_sections_is_polynomial_product():
    """``_multiply`` of two sections' integer forms is their polynomial
    product."""
    a = Section(((F(1), F(1)), ()))
    b = Section(((F(2), F(0), F(1)), (F(3),)))
    prod = _product(a, b)
    # (1 + t)(2 + t^2) = 2 + 2t + t^2 + t^3; empty times anything collapses
    assert prod.coeffs == ((F(2), F(2), F(1), F(1)), ())


# a dense integer block: empty (a negative degree) or up to five
# numerators, often zero or negative, so that products cancel
_dense_blocks = st.one_of(
    st.just(()),
    st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(tuple),
    st.lists(st.sampled_from([0, 0, 1, -1, 7, -10**20]), min_size=1, max_size=5).map(tuple),
)


def _sparse(form):
    """The sparse integer form of a dense one ``(blocks, den)``."""
    blocks, den = form
    return tuple(tuple((k, c) for k, c in enumerate(block) if c) for block in blocks), den


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.tuples(st.lists(_dense_blocks, min_size=n, max_size=n), st.integers(1, 6)),
            st.tuples(st.lists(_dense_blocks, min_size=n, max_size=n), st.integers(1, 6)),
        )
    )
)
def test_sparse_product_matches_the_dense_convolution(factors):
    """``_multiply`` on sparse terms is the dense convolution of
    ``reference_convolve``, read as Fractions: every coefficient of the
    dense product is the sparse product's term at that exponent over its
    denominator, or zero where it has none. Its terms are nonzero, in
    ascending order and inside the dense block, and a block with an
    empty or all-zero factor has none."""
    (a_blocks, a_den), (b_blocks, b_den) = factors
    a, b = (tuple(a_blocks), a_den), (tuple(b_blocks), b_den)
    dense, den = reference_convolve(a, b)
    sparse, sparse_den = _multiply(_sparse(a), _sparse(b))
    assert sparse_den == den == a_den * b_den
    for x, y, block, terms in zip(a[0], b[0], dense, sparse):
        exponents = [k for k, _ in terms]
        assert exponents == sorted(set(exponents)) and all(c for _, c in terms)
        assert all(k < len(block) for k in exponents)
        by_exponent = dict(terms)
        assert [F(by_exponent.get(k, 0), sparse_den) for k in range(len(block))] == [F(c, den) for c in block]
        if not any(x) or not any(y):
            assert terms == ()


def test_sparse_product_drops_cancelled_terms():
    """(1 + t)(1 - t) = 1 - t^2 and (t + t^2)(t - t^2) = t^2 - t^4: the
    middle terms cancel and are left out; a zero factor block or an
    empty one gives no terms."""
    a = (((0, 1), (1, 1)), ((1, 1), (2, 1)), (), ((0, 2),)), 3
    b = (((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 5),), ()), 2
    assert _multiply(a, b) == ((((0, 1), (2, -1)), ((2, 1), (4, -1)), (), ()), 6)


def test_products_of_sections_glue_in_the_square(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    square = power(b, 2)
    basis = section_basis(b).basis
    for i in (0, 3, 7):
        for j in (1, 5, 9):
            prod = _product(basis[i], basis[j])
            assert _glues(square, prod)


def test_node_rows_decide_like_fraction_horner_on_moved_products(paper_curve):
    """On the paper curve at (4, 3, 3), each product of two basis
    sections glues in the square, and each copy with one coefficient
    moved by 1/2 glues exactly when the Fraction-Horner check says so:
    a move on C3 away from its constant term, the only coefficient its
    node at 0 reads, keeps a global section, and every other move breaks
    one. The node rows are built once for the square."""
    bundle = line_bundle(paper_curve, (4, 3, 3))
    square = power(bundle, 2)
    basis = section_basis(bundle).basis
    node_rows = bundles._node_rows(square)
    verdicts = set()
    for i, a in enumerate(basis):
        for b in basis[i:]:
            product = _product(a, b)
            assert _glues(square, product)
            for ci, block in enumerate(product.coeffs):
                for k in range(len(block)):
                    moved = block[:k] + (block[k] + F(1, 2),) + block[k + 1 :]
                    s = Section(product.coeffs[:ci] + (moved,) + product.coeffs[ci + 1 :])
                    verdict = bundles._glues(node_rows, reference_integral(s)[0])
                    assert verdict == reference_satisfies_gluing(square, s) == (ci == 2 and k > 0)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def _scaled(rng, section):
    """The section times ``odd / (2k)``, a factor that is never an
    integer, so a nonzero section gets non-integer coefficients."""
    q = F(2 * rng.randint(0, 4) + 1, 2 * rng.randint(1, 3))
    return Section(tuple(tuple(c * q for c in block) for block in section.coeffs))


def _perturbed_at_node(rng, bundle, section):
    """The section with the coefficient read at one branch of a random
    node (the leading one at infinity, else the constant term) moved by
    a non-integer amount, which breaks that node's constraint unless
    the other branch moves with it; ``None`` when the branch lies on a
    negative-degree component or the curve has no node."""
    if not bundle.curve.nodes:
        return None
    ci, _, point = bundle.curve.sites[rng.randrange(len(bundle.curve.nodes))][rng.randrange(2)]
    block = section.coeffs[ci]
    if not block:
        return None
    k = len(block) - 1 if point.is_infinity else 0
    shifted = block[:k] + (block[k] + F(1, rng.randint(2, 5)),) + block[k + 1 :]
    return Section(section.coeffs[:ci] + (shifted,) + section.coeffs[ci + 1 :])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_integer_kernels_match_the_fraction_references(seed, with_infinity):
    """``_multiply`` and ``_glues`` run on the integer form of a section;
    they must equal the Fraction convolution and the Fraction-Horner node
    check. The curves have fractional
    coordinates, ``inf`` branches and self-nodes, the gluings have
    denominators, and the sections are scaled basis sections, their
    products, and both perturbed at one node."""
    rng = random.Random(seed)
    curve = curve_with_infinity(rng) if with_infinity else random_curve(rng, max_components=3, max_nodes=3)
    bundle = random_bundle(rng, curve, degree_range=(-1, 3))
    square = power(bundle, 2)
    basis = [_scaled(rng, s) for s in section_basis(bundle).basis]
    cases = [(bundle, s) for s in basis]
    for i, a in enumerate(basis):
        for b in basis[i:]:
            product = _product(a, b)
            assert product == reference_product(a, b)
            assert reference_satisfies_gluing(square, product)
            cases.append((square, product))
    for target, s in list(cases):
        off = _perturbed_at_node(rng, target, s)
        if off is not None:
            cases.append((target, off))
            assert _product(off, basis[0]) == reference_product(off, basis[0])
    for target, s in cases:
        assert _glues(target, s) == reference_satisfies_gluing(target, s)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_integer_values_and_jets_match_fraction_horner(seed):
    """``Fraction(h, s * den)``, h the integer form's terms dotted with
    ``_homogeneous_row`` or ``_jet_row`` and s that row's, is the
    Fraction-Horner value and jet, at every marked
    point (``inf`` included) and sample point of each component, for the
    basis sections, scaled ones, and a random section with fractional
    coefficients, on bundles with negative degrees."""
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    bundle = random_bundle(rng, curve, degree_range=(-2, 4))
    space = section_basis(bundle)
    assert space.integral_basis == tuple(reference_integral(s) for s in space.basis)
    sections = list(space.basis) + [_scaled(rng, s) for s in space.basis]
    sections.append(
        Section(
            tuple(
                tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(w))
                for w in block_widths(bundle)
            )
        )
    )
    points = [list(comp.marked_points) for comp in curve.components]
    for x in sample_points(curve, 2, seed):
        if not x.is_node:
            points[curve.component_index(x.component)].append(x.coord)
    for section in sections:
        blocks, den = reference_integral(section)
        for ci, block in enumerate(section.coeffs):
            for p in points[ci]:
                row, s = _homogeneous_row(len(block), p)
                assert s > 0 and F(_dot(blocks[ci], row), s * den) == reference_value(block, p)
                row, s = _jet_row(len(block), p)
                assert s > 0 and F(_dot(blocks[ci], row), s * den) == reference_jet(block, p)


def test_degrees_and_powers_are_integers(paper_curve):
    """A multidegree entry, a power or a component degree that is not an
    integer raises ``TypeError`` instead of being truncated or parsed."""
    for degrees in ((4.7, 3, 3), ("4", 3, 3), (F(4), 3, 3)):
        with pytest.raises(TypeError):
            line_bundle(paper_curve, degrees)
    b = line_bundle(paper_curve, (4, 3, 3))
    for m in (2.5, 2.0, "2", F(2)):
        with pytest.raises(TypeError):
            power(b, m)
    for d in (2.5, -2.5, "2", F(2)):
        for count in (component_h0, component_h1):
            with pytest.raises(TypeError):
                count(d)


def test_tensor_dual_power_algebra(paper_curve):
    a = line_bundle(paper_curve, (4, 3, 3), (F(1), F(2), F(3)))
    b = line_bundle(paper_curve, (1, -1, 0), (F(1), F(1), F(5)))
    t = tensor(a, b)
    assert t.multidegree == (5, 2, 3)
    assert t.gluings == (F(1), F(2), F(15))
    d = dual(a)
    assert d.multidegree == (-4, -3, -3)
    assert d.gluings == (F(1), F(1, 2), F(1, 3))
    assert dual(d) == a
    assert power(a, 0) == line_bundle(paper_curve, (0, 0, 0))
    assert power(a, 3).multidegree == (12, 9, 9)
    assert power(a, 3).gluings == (F(1), F(8), F(27))
    assert power(a, -1) == d
    other = random_curve(random.Random(5))
    with pytest.raises(ValueError):
        tensor(a, line_bundle(other, (0,) * len(other.components)))


def test_dualizing_bundle_on_reference_curve(paper_curve):
    omega = dualizing_bundle(paper_curve)
    assert omega.multidegree == (0, 1, -1)
    assert omega.gluings == (F(1), F(1), F(-1))
    assert omega.degree() == 2 * arithmetic_genus(paper_curve) - 2
    assert h0(omega) == arithmetic_genus(paper_curve)
    assert h1_direct(omega) == 1  # Serre: h1(omega) = h0(O)


def test_tangent_bundle_weight_zero_values(paper_curve):
    theta = tangent_bundle(paper_curve)
    assert theta.multidegree == (0, -1, 1)
    assert theta.gluings == (F(1), F(1), F(-1))
    assert h0(theta) == 1
    assert h1_direct(theta) == 1


GENERIC_GLUINGS = ((2, 3, 5), (2, -3, F(5, 7)), (7, 11, 13))
SPECIAL_GLUINGS = ((1, 1, 1), (F(1, 2), 2, 1), (3, 1, F(1, 3)))  # l1 * l2 * l3 = 1


@pytest.mark.parametrize("scalars", GENERIC_GLUINGS + SPECIAL_GLUINGS, ids=str)
def test_tangent_bundle_of_a_generic_triangle_has_no_cohomology(paper_curve, scalars):
    """The abstract's "H^0(T_X) = H^1(T_X) = 0 for a generic gluing", on
    the triangle of lines: three lines with points 0 and 1, nodes
    C1.1 - C2.0, C2.1 - C3.0 and C3.1 - C1.0. Its dualizing bundle has
    multidegree (0, 0, 0) with scalars (1, 1, 1), so T twisted by the
    degree-0 bundle with scalars l has h0 = h1 = 0 unless the monodromy
    l1 l2 l3 is 1, where both are 1. On the paper curve, whose loop is a
    self-node on C2, both are 1 for every l."""
    lines = tuple(Component(name, (affine_point(0), affine_point(1))) for name in ("C1", "C2", "C3"))
    nodes = (NodeGluing(("C1", 1), ("C2", 0)), NodeGluing(("C2", 1), ("C3", 0)), NodeGluing(("C3", 1), ("C1", 0)))
    triangle = NodalCurve(lines, nodes)
    omega = dualizing_bundle(triangle)
    assert (omega.multidegree, omega.gluings) == ((0, 0, 0), (1, 1, 1))
    expected = (0, 0) if scalars in GENERIC_GLUINGS else (1, 1)
    for curve, h in ((triangle, expected), (paper_curve, (1, 1))):
        assert cohomology(tensor(tangent_bundle(curve), line_bundle(curve, (0, 0, 0), scalars))) == h


def test_dualizing_bundle_on_paper_curve_at_infinity(paper_curve):
    # the reference curve with C1's points 0, 1 moved to 0, inf (t -> t / (1 - t))
    # and C2's 0, 1, 2 to 0, 1, inf (t -> t / (2 - t)); C3 and the nodes stay
    c1 = Component("C1", (affine_point(0), INFINITY))
    c2 = Component("C2", (affine_point(0), affine_point(1), INFINITY))
    moved = NodalCurve((c1, c2, paper_curve.components[2]), paper_curve.nodes)
    omega = dualizing_bundle(moved)
    assert omega.multidegree == (0, 1, -1)
    # cofactors: C1: c_0 = 1, c_inf = -1; C2: c_0 = 0 - 1, c_1 = 1 - 0, c_inf = -1;
    # C3: c_0 = 1. Node scalars -c_p / c_q: -1/1, -(-1)/1, -(-1)/(-1)
    assert omega.gluings == (F(-1), F(1), F(-1))
    # a constant a on C1 and b_0 + b_1 t on C2: a = 0, a = b_0 + b_1, b_0 = -b_1,
    # so one section, b (1 - t) dt / (t (t - 1)) = -b dt / t on C2
    assert h0(omega) == 1 == arithmetic_genus(moved)
    assert h1_direct(omega) == 1
    # the two curves are isomorphic, so every power of omega has the same cohomology
    affine_omega = dualizing_bundle(paper_curve)
    for k in range(-3, 4):
        assert cohomology(power(omega, k)) == cohomology(power(affine_omega, k)), k


def test_dualizing_bundle_of_nodal_cubic_at_zero_and_infinity():
    # one line with its points 0 and inf glued: omega is trivial, spanned by
    # dt / t, whose residues +1 at 0 and -1 at inf cancel at the node
    cubic = NodalCurve((Component("C1", (affine_point(0), INFINITY)),), (NodeGluing(("C1", 0), ("C1", 1)),))
    assert dualizing_bundle(cubic) == line_bundle(cubic, (0,) * len(cubic.components))
    assert cohomology(dualizing_bundle(cubic)) == (1, 1)


def test_dualizing_bundle_with_infinity_randomized():
    rng = random.Random(1777)
    genera = set()
    with_infinity = 0
    for _ in range(60):
        curve = curve_with_infinity(rng)
        genus = arithmetic_genus(curve)
        genera.add(genus)
        with_infinity += any(p.is_infinity for c in curve.components for p in c.marked_points)
        omega = dualizing_bundle(curve)
        assert omega.gluings == reference_dualizing_gluings(curve), curve
        assert tangent_bundle(curve) == dual(omega), curve
        assert omega.degree() == 2 * genus - 2
        assert cohomology(omega) == (genus, 1), curve
        for _ in range(3):
            bundle = random_bundle(rng, curve)
            assert serre_duality_check(bundle, omega), (curve, bundle)
    assert set(range(5)) <= genera
    assert with_infinity >= 30


def _wide_bundle(rng, curve):
    """A bundle of degrees -3..6 whose scalars are small and often
    negative, or 30-digit numerators over 30-digit denominators."""
    big = 10**29

    def scalar():
        if rng.random() < 0.5:
            return F(rng.choice([-1, 1]) * rng.randrange(big, 10 * big), rng.randrange(big, 10 * big))
        return F(rng.choice([-5, -3, -2, 2, 3, 5]), rng.randint(1, 3))

    return LineBundle(curve, tuple(rng.randint(-3, 6) for _ in curve.components), tuple(scalar() for _ in curve.nodes))


def test_pair_arithmetic_matches_the_fraction_references():
    """``tensor``, ``dual``, ``power``, ``dualizing_bundle`` and
    ``tangent_bundle`` compute on integer pairs with no gcd taken; their
    Fraction views equal the bundles built in Fractions by conftest's
    references, on curves with branches at inf, for 30-digit and negative
    scalars and every m in -12..12."""
    rng = random.Random(1974)
    negative_den = big_pairs = with_infinity = 0
    for _ in range(40):
        curve = curve_with_infinity(rng)
        with_infinity += any(p.is_infinity for c in curve.components for p in c.marked_points)
        a, b = _wide_bundle(rng, curve), _wide_bundle(rng, curve)
        omega, theta = dualizing_bundle(curve), tangent_bundle(curve)
        assert omega.gluings == reference_dualizing_gluings(curve)
        assert theta.gluings == reference_tangent(curve).gluings and theta == reference_tangent(curve)
        assert tensor(a, b).gluings == reference_tensor(a, b).gluings and tensor(a, b) == reference_tensor(a, b)
        assert dual(a).gluings == reference_dual(a).gluings and dual(a) == reference_dual(a)
        for m in range(-12, 13):
            built = tensor(theta, power(tensor(a, dual(b)), m))
            expected = reference_tensor(reference_tangent(curve), reference_power(reference_tensor(a, reference_dual(b)), m))
            assert power(a, m).gluings == reference_power(a, m).gluings and power(a, m) == reference_power(a, m)
            assert built.gluings == expected.gluings and built == expected
            negative_den += any(den < 0 for _, den in built.pairs)
            big_pairs += any(abs(den) >= 10**60 for _, den in built.pairs)
    assert with_infinity >= 15 and negative_den > 100 and big_pairs > 100


def test_bundles_from_unreduced_pairs_equal_the_reduced_ones():
    """A bundle is its Fraction view: reached through pairs with a common
    factor, or with negative denominators, it compares, hashes, shows and
    pickles like the bundle built from reduced Fractions, and a pickled
    copy stores the reduced pairs."""
    rng = random.Random(1979)
    unreduced = 0
    for _ in range(40):
        curve = curve_with_infinity(rng)
        b, trivial = _wide_bundle(rng, curve), line_bundle(curve, (0,) * len(curve.components))
        scaled = bundles._bundle(curve, b.multidegree, [(-7 * num, -7 * den) for num, den in b.pairs])
        for built, reduced in ((tensor(b, dual(b)), trivial), (power(b, 0), trivial), (scaled, b)):
            unreduced += built.pairs != reduced.pairs
            assert built == reduced and hash(built) == hash(reduced) and repr(built) == repr(reduced)
            for twin in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
                assert twin == reduced and twin.pairs == reduced.pairs
    assert unreduced >= 40


def _send_a_point_to_infinity(rng, curve):
    """The same curve in new coordinates: on each component with marked
    points, ``t -> 1 / (t - p)`` for one of them, p, which goes to infinity
    while the others stay affine and distinct."""
    components = []
    for comp in curve.components:
        if comp.marked_points:
            p = rng.choice(comp.marked_points).coord
            comp = Component(
                comp.name,
                tuple(INFINITY if q.coord == p else affine_point(1 / (q.coord - p)) for q in comp.marked_points),
            )
        components.append(comp)
    return NodalCurve(tuple(components), curve.nodes)


def test_dualizing_bundle_powers_agree_across_charts():
    # omega is intrinsic, so moving points to infinity must not change the
    # cohomology of any of its powers, the tangent bundle (k = -1) included
    rng = random.Random(6161)
    for _ in range(30):
        curve = random_curve(rng)
        moved = _send_a_point_to_infinity(rng, curve)
        omega, moved_omega = dualizing_bundle(curve), dualizing_bundle(moved)
        for k in range(-2, 3):
            assert cohomology(power(moved_omega, k)) == cohomology(power(omega, k)), (curve, k)


def test_riemann_roch_on_reference_bundles(paper_curve):
    for degrees in ((3, 3, 3), (4, 3, 3), (4, 4, 3), (0, 0, 0), (-4, -4, -2)):
        report = riemann_roch_report(line_bundle(paper_curve, degrees))
        assert report.balanced
        assert report.genus == 1


def test_riemann_roch_randomized():
    rng = random.Random(2026)
    checked = 0
    for _ in range(60):
        curve = random_curve(rng)
        bundle = random_bundle(rng, curve)
        report = riemann_roch_report(bundle)
        assert report.balanced, (curve, bundle)
        checked += 1
    assert checked >= 50


def test_serre_duality_randomized():
    rng = random.Random(40704)
    checked = 0
    for _ in range(25):
        curve = random_curve(rng)
        bundle = random_bundle(rng, curve)
        assert serre_duality_check(bundle, dualizing_bundle(curve)), (curve, bundle)
        checked += 1
    assert checked >= 20


def test_serre_duality_check_rejects_another_curves_dualizing_bundle(paper_curve):
    other = random_curve(random.Random(5))
    with pytest.raises(ValueError, match="bundles live on different curves"):
        serre_duality_check(line_bundle(paper_curve, (4, 3, 3)), dualizing_bundle(other))


def test_dualizing_h0_equals_genus_randomized():
    rng = random.Random(515)
    for _ in range(25):
        curve = random_curve(rng)
        omega = dualizing_bundle(curve)
        assert omega.degree() == 2 * arithmetic_genus(curve) - 2
        assert h0(omega) == arithmetic_genus(curve)


def test_h0_stable_under_gluing_and_point_choice():
    """Section counts for the reference shape depend on combinatorics only.

    Rebuild the reference curve with random distinct affine coordinates
    and random nonzero gluing scalars; every variant must report h0 = 10
    for multidegree (4, 3, 3).
    """
    from nodalcone.curve import Component, NodalCurve, NodeGluing

    rng = random.Random(88)
    for _ in range(10):
        pool = rng.sample(range(-20, 21), 6)
        c1 = Component("C1", (affine_point(F(pool[0], 2)), affine_point(F(pool[1], 2))))
        c2 = Component(
            "C2",
            (
                affine_point(F(pool[2], 2)),
                affine_point(F(pool[3], 2)),
                affine_point(F(pool[4], 2)),
            ),
        )
        c3 = Component("C3", (affine_point(F(pool[5], 2)),))
        curve = NodalCurve(
            (c1, c2, c3),
            (
                NodeGluing(("C1", 0), ("C3", 0)),
                NodeGluing(("C1", 1), ("C2", 1)),
                NodeGluing(("C2", 0), ("C2", 2)),
            ),
        )
        nonzero = [x for x in range(-5, 6) if x != 0]
        gluings = tuple(F(rng.choice(nonzero), rng.randint(1, 3)) for _ in range(3))
        b = LineBundle(curve, (4, 3, 3), gluings)
        assert h0(b) == 10
        assert h1_direct(b) == 0


def test_node_flip_preserves_cohomology():
    rng = random.Random(909)
    for _ in range(20):
        curve = random_curve(rng)
        if not curve.nodes:
            continue
        bundle = random_bundle(rng, curve)
        k = rng.randrange(len(curve.nodes))
        flipped = flip_node(bundle, k)
        assert h0(flipped) == h0(bundle)
        assert h1_direct(flipped) == h1_direct(bundle)


def test_h0_matches_degree_for_ample_range(paper_curve):
    # deg L >= 2g - 1 = 1 forces h1 = 0, so h0 = deg on this genus-1 curve
    for degrees in ((1, 1, 1), (2, 2, 2), (3, 2, 1), (5, 5, 5)):
        b = line_bundle(paper_curve, degrees)
        assert h1_direct(b) == 0
        assert h0(b) == sum(degrees)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-6, max_value=6))
def test_cohomology_has_the_gluing_rank(seed, m):
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    nonzero = [x for x in range(-5, 6) if x != 0]
    base = LineBundle(
        curve,
        tuple(rng.randint(-3, 8) for _ in curve.components),
        tuple(F(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes),
    )
    # the twist deform computes, whose scalars are cofactor ratios
    twist = tensor(tangent_bundle(curve), power(base, m))
    for bundle in (base, power(base, m), twist):
        full = gluing_matrix(bundle)
        full_rank = rank(full)
        assert cohomology(bundle) == (
            full.cols - full_rank,
            full.rows - full_rank + sum(component_h1(d) for d in bundle.multidegree),
        )


def _counting_rank(monkeypatch):
    """Patch the elimination ``cohomology`` runs; return the list of the
    integer residual blocks it is handed, each as the sparse columns of
    its transpose and their row count, ``(columns, rows)``."""
    seen = []

    def counting(columns, rows):
        seen.append((columns, rows))
        return certified_rank_of_columns(columns, rows)

    monkeypatch.setattr(bundles, "certified_rank_of_columns", counting)
    return seen


def test_gluing_rank_splits_covered_nodes_and_residual(paper_curve, monkeypatch):
    # nodes: C1[0]-C3[0], C1[1]-C2[1], and C2's self-node C2[0]-C2[2]
    seen = _counting_rank(monkeypatch)
    # every component reaches all its branch values: 3 nodes covered
    full = line_bundle(paper_curve, (4, 2, 0))
    assert cohomology(full) == (5 + 3 + 1 - 3, 0)
    assert seen == [] and rank(gluing_matrix(full)) == 3
    # C1 at degree 1 covers its two nodes; C2 at degree 1 < 3 - 1 leaves
    # its self-node to a 1 x 2 residual over C2's block; C3 at -1 drops out
    short = line_bundle(paper_curve, (1, 1, -1))
    h0_value, _ = cohomology(short)
    [(residual, cols)] = seen
    assert (cols, len(residual)) == (2, 1)
    # an integer row, a nonzero multiple of the gluing matrix's row there,
    # handed in as its nonzero (column, entry) pairs
    g_row = gluing_matrix(short).row(2)[2:4]
    [column] = residual
    assert all(type(e) is int and e for _, e in column)
    row = [dict(column).get(j, 0) for j in range(cols)]
    j = next(j for j, e in enumerate(g_row) if e)
    scale = F(row[j]) / g_row[j]
    assert scale != 0 and tuple(row) == tuple(scale * e for e in g_row)
    assert certified_rank_of_columns(residual, cols) == rank(gluing_matrix(short)) - 2
    assert h0_value == 4 - 2 - certified_rank_of_columns(residual, cols)


def test_onto_or_negative_components_run_no_elimination(monkeypatch):
    seen = _counting_rank(monkeypatch)
    rng = random.Random(5)
    for _ in range(40):
        curve = curve_with_infinity(rng)
        degrees = tuple(
            rng.choice((rng.randint(-4, -1), len(c.marked_points) - 1 + rng.randint(0, 3))) for c in curve.components
        )
        bundle = LineBundle(curve, degrees, random_bundle(rng, curve).gluings)
        assert cohomology(bundle)[0] == gluing_matrix(bundle).cols - rank(gluing_matrix(bundle))
    assert seen == []


def test_branch_value_matrix_validates_the_curve(paper_curve):
    # a curve without its self-node cannot be built, so no bundle reaches
    # the matrix builders with C2's points 0 and 2 unattached
    with pytest.raises(InvalidCurveError, match=r"marked point C2\[0\] \(coordinate 0\) is not attached"):
        NodalCurve(paper_curve.components, paper_curve.nodes[:2])
