"""Line bundles, gluing matrices, cohomology, duality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    curve_with_infinity,
    flip_node,
    random_bundle,
    random_curve,
    reference_product,
    reference_satisfies_gluing,
)
from nodalcone.bundles import (
    LineBundle,
    Section,
    block_widths,
    branch_value_matrix,
    cohomology,
    component_h0,
    component_h1,
    dual,
    dualizing_bundle,
    evaluate_section,
    evaluation_row,
    flatten_section,
    gluing_matrix,
    h0,
    h1_direct,
    jet_row,
    line_bundle,
    multiply_sections,
    poly_jet,
    poly_value,
    power,
    riemann_roch_report,
    section_basis,
    section_from_vector,
    section_satisfies_gluing,
    serre_duality_check,
    tangent_bundle,
    tensor,
    trivial_bundle,
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
from nodalcone.exactlin import MatrixQ, rank

F = Fraction


def test_component_cohomology_table():
    assert [component_h0(d) for d in (-3, -1, 0, 2)] == [0, 0, 1, 3]
    assert [component_h1(d) for d in (-4, -2, -1, 0, 3)] == [3, 1, 0, 0, 0]


def test_evaluation_row_affine_and_infinity():
    assert evaluation_row(2, affine_point(F(3))) == (F(1), F(3), F(9))
    assert evaluation_row(2, INFINITY) == (F(0), F(0), F(1))
    assert evaluation_row(0, INFINITY) == (F(1),)
    with pytest.raises(ValueError):
        evaluation_row(-1, affine_point(F(0)))


def test_jet_row_affine_and_infinity():
    t = F(5, 2)
    assert jet_row(3, affine_point(t)) == (F(0), F(1), 2 * t, 3 * t * t)
    assert jet_row(2, INFINITY) == (F(0), F(1), F(0))
    with pytest.raises(ValueError):
        jet_row(0, affine_point(F(1)))


def test_poly_value_and_jet():
    coeffs = (F(1), F(0), F(2))  # 1 + 2 t^2
    assert poly_value(coeffs, affine_point(F(3))) == F(19)
    assert poly_value(coeffs, INFINITY) == F(2)
    assert poly_value((), affine_point(F(3))) == F(0)
    assert poly_jet(coeffs, affine_point(F(3))) == F(12)


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
    o = trivial_bundle(paper_curve)
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
        assert section_satisfies_gluing(b, s)
    columns = [flatten_section(b, s) for s in space.basis]
    assert rank(MatrixQ.from_columns(columns, rows=13)) == 10


def test_section_from_vector_roundtrip(paper_curve):
    b = line_bundle(paper_curve, (1, 0, -1))
    vec = (F(1), F(2), F(7))
    s = section_from_vector(b, vec)
    assert s.coeffs == ((F(1), F(2)), (F(7),), ())
    assert flatten_section(b, s) == vec
    with pytest.raises(ValueError):
        section_from_vector(b, (F(1),))


def test_evaluate_section(paper_curve):
    b = line_bundle(paper_curve, (1, 0, -1))
    s = Section(((F(1), F(2)), (F(7),), ()))
    assert evaluate_section(paper_curve, s, "C1", affine_point(F(3))) == F(7)
    assert evaluate_section(paper_curve, s, "C2", affine_point(F(9))) == F(7)
    with pytest.raises(ValueError):
        evaluate_section(paper_curve, s, "C3", affine_point(F(0)))


def test_multiply_sections_is_polynomial_product():
    a = Section(((F(1), F(1)), ()))
    b = Section(((F(2), F(0), F(1)), (F(3),)))
    prod = multiply_sections(a, b)
    # (1 + t)(2 + t^2) = 2 + 2t + t^2 + t^3; empty times anything collapses
    assert prod.coeffs == ((F(2), F(2), F(1), F(1)), ())


def test_products_of_sections_glue_in_the_square(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    square = power(b, 2)
    basis = section_basis(b).basis
    for i in (0, 3, 7):
        for j in (1, 5, 9):
            prod = multiply_sections(basis[i], basis[j])
            assert section_satisfies_gluing(square, prod)


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
    """``multiply_sections`` and ``section_satisfies_gluing`` run on the
    integer form of a section; they must equal the Fraction convolution
    and the Fraction-Horner node check. The curves have fractional
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
            product = multiply_sections(a, b)
            assert product == reference_product(a, b)
            assert reference_satisfies_gluing(square, product)
            cases.append((square, product))
    for target, s in list(cases):
        off = _perturbed_at_node(rng, target, s)
        if off is not None:
            cases.append((target, off))
            assert multiply_sections(off, basis[0]) == reference_product(off, basis[0])
    for target, s in cases:
        assert section_satisfies_gluing(target, s) == reference_satisfies_gluing(target, s)


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
    assert power(a, 0) == trivial_bundle(paper_curve)
    assert power(a, 3).multidegree == (12, 9, 9)
    assert power(a, 3).gluings == (F(1), F(8), F(27))
    assert power(a, -1) == d
    other = random_curve(random.Random(5))
    with pytest.raises(ValueError):
        tensor(a, trivial_bundle(other))


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
    assert dualizing_bundle(cubic) == trivial_bundle(cubic)
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
        assert omega.degree() == 2 * genus - 2
        assert cohomology(omega) == (genus, 1), curve
        for _ in range(3):
            bundle = random_bundle(rng, curve)
            assert serre_duality_check(bundle, omega), (curve, bundle)
    assert set(range(5)) <= genera
    assert with_infinity >= 30


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
def test_branch_value_matrix_has_the_gluing_rank(seed, m):
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    nonzero = [x for x in range(-5, 6) if x != 0]
    base = LineBundle(
        curve,
        tuple(rng.randint(-3, 8) for _ in curve.components),
        tuple(F(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes),
    )
    for bundle in (base, power(base, m)):
        reduced = branch_value_matrix(bundle)
        full = gluing_matrix(bundle)
        assert reduced.rows == full.rows == len(curve.nodes)
        assert reduced.cols <= 2 * len(curve.nodes)
        full_rank = rank(full)
        assert rank(reduced) == full_rank
        assert cohomology(bundle) == (
            full.cols - full_rank,
            full.rows - full_rank + sum(component_h1(d) for d in bundle.multidegree),
        )


def test_branch_value_matrix_unit_and_kept_columns(paper_curve):
    # every degree reaches all branch values: one unit column per marked
    # point (C1: 0, 1; C2: 0, 1, 2; C3: 0), a 1 in its node's row
    m = branch_value_matrix(line_bundle(paper_curve, (4, 2, 0)))
    assert [m.row(k) for k in range(3)] == [
        tuple(F(x) for x in (1, 0, 0, 0, 0, 1)),
        tuple(F(x) for x in (0, 1, 0, 1, 0, 0)),
        tuple(F(x) for x in (0, 0, 1, 0, 1, 0)),  # self-node: both in C2
    ]
    # degree 1 on C2 (three points) keeps its gluing block; C3 at -1 drops out
    short = line_bundle(paper_curve, (1, 1, -1))
    m = branch_value_matrix(short)
    assert m.cols == 2 + 2
    assert [m.row(k)[2:] for k in range(3)] == [gluing_matrix(short).row(k)[2:] for k in range(3)]
    assert rank(m) == rank(gluing_matrix(short))


def test_branch_value_matrix_validates_the_curve(paper_curve):
    # a curve without its self-node cannot be built, so no bundle reaches
    # the matrix builders with C2's points 0 and 2 unattached
    with pytest.raises(InvalidCurveError, match=r"marked point C2\[0\] \(coordinate 0\) is not attached"):
        NodalCurve(paper_curve.components, paper_curve.nodes[:2])
