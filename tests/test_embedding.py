"""Embedding checks: positivity verdicts, multiplication maps, quadrics."""

import functools
import itertools
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalcone.bundles as bundles
import nodalcone.embedding as embedding
import nodalcone.exactlin as exactlin
from conftest import (
    SHORT_M3_SPEC,
    assert_identity_at,
    curve_with_infinity,
    random_bundle,
    random_curve,
    reference_flatten,
    reference_jacobian_rank,
    reference_jet,
    reference_product,
    reference_quadric_value,
    reference_rref,
    reference_value,
)
from nodalcone.bundles import (
    LineBundle,
    SectionSpace,
    _homogeneous_row,
    _jet_row,
    h0,
    line_bundle,
    power,
    section_basis,
)
from nodalcone.cli import EXIT_OK, main, parse_spec
from nodalcone.curve import INFINITY, Component, NodalCurve, NodeGluing, affine_point, paper_example_curve
from nodalcone.embedding import (
    CRITERION_SATISFIED,
    AmpleVerdict,
    FAILED,
    SAMPLE_SEED,
    VERIFIED_ON_SAMPLES,
    CurvePoint,
    embed_point,
    globally_generated,
    multiplication_map,
    node_images_consistent,
    quadric_ideal,
    quadric_value,
    sample_points,
    separates_jets,
    separates_points,
    sym_monomials,
    very_ample,
)
from nodalcone.exactlin import MatrixQ, rank

F = Fraction

ROOT = Path(__file__).resolve().parents[1]
PAPER_SPEC = ROOT / "curves" / "paper-x.json"


def test_curve_point_display():
    assert str(CurvePoint.smooth("C1", F(3, 2))) == "C1:3/2"
    assert str(CurvePoint.at_node(1)) == "node:1"
    assert str(CurvePoint.at_node(1, branch=0)) == "node:1/branch:0"


def test_point_validation(paper_curve):
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    with pytest.raises(ValueError):
        embed_point(space, CurvePoint.smooth("C1", F(0)))  # marked point, not smooth
    with pytest.raises(ValueError):
        embed_point(space, CurvePoint.at_node(7))
    with pytest.raises(ValueError):
        embed_point(space, CurvePoint.at_node(0, branch=2))


def test_sample_points_deterministic(paper_curve):
    a = sample_points(paper_curve)
    b = sample_points(paper_curve)
    assert a == b
    assert len(a) == 3 + 3 * 5
    assert [x.node for x in a[:3]] == [0, 1, 2]
    marked = {
        (comp.name, p.coord) for comp in paper_curve.components for p in comp.marked_points
    }
    for x in a[3:]:
        assert (x.component, x.coord.coord) not in marked
    assert len(sample_points(paper_curve, extra_per_component=2)) == 3 + 3 * 2
    assert sample_points(paper_curve, seed=SAMPLE_SEED + 1) != a


def test_sample_points_bounded_by_free_pool(paper_curve):
    # the pool n/q, |n| <= 24, 1 <= q <= 5, has 169 values; C2 marks 0, 1, 2 in it
    assert len(sample_points(paper_curve, extra_per_component=166)) == 3 + 3 * 166
    with pytest.raises(ValueError, match=r"C2 takes 0\.\.166 extra sample points, 167 requested"):
        sample_points(paper_curve, extra_per_component=167)
    with pytest.raises(ValueError, match=r"C1 takes 0\.\.167 extra sample points, -1 requested"):
        sample_points(paper_curve, extra_per_component=-1)


@pytest.mark.parametrize(
    "extra, seed",
    [(2, None), (2, 1.0), (2, "1105"), (2.5, SAMPLE_SEED), (2.0, SAMPLE_SEED), ("2", SAMPLE_SEED), (None, 1)],
    ids=repr,
)
def test_sample_arguments_are_integers(paper_curve, extra, seed):
    """A sample count or seed that is no integer raises ``TypeError``
    wherever samples are counted or drawn, as ``operator.index`` reads
    them: a None seed would draw a new tuple on each call, and a count of
    2.5 three points per component. A sampled check raises before it
    keeps a table, so a table is only ever kept under two integers."""
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    forms = embedding.cone_ideal(space)[2]
    if not isinstance(extra, int):
        with pytest.raises(TypeError):
            embedding.check_sample_count(paper_curve, extra)
    with pytest.raises(TypeError):
        sample_points(paper_curve, extra, seed)
    for check in (globally_generated, very_ample):
        with pytest.raises(TypeError):
            check(space, extra, seed)
    for check in (embedding.quadric_failures, embedding.singularity_probe):
        with pytest.raises(TypeError):
            check(space, forms, extra, seed)
    assert not vars(space).get("_sample_tables")


def test_globally_generated_verdicts(paper_curve):
    cases = {
        (4, 3, 3): (CRITERION_SATISFIED, None),
        (2, 2, 2): (CRITERION_SATISFIED, None),
        (1, 1, 1): (VERIFIED_ON_SAMPLES, None),
    }
    for degrees, (status, witness) in cases.items():
        v = globally_generated(section_basis(line_bundle(paper_curve, degrees)))
        assert (v.status, v.witness) == (status, witness)
        assert v.samples_checked == 18


def test_globally_generated_failure_witness(paper_curve):
    v = globally_generated(section_basis(line_bundle(paper_curve, (-1, 3, 3))))
    assert v.status == FAILED
    assert v.witness == "all sections vanish at node:0"


def test_positivity_verdicts_with_too_few_sections(paper_curve):
    none = line_bundle(paper_curve, (-1, -1, -1))
    assert h0(none) == 0
    assert globally_generated(section_basis(none)) == AmpleVerdict(FAILED, "no global sections (h0 = 0)", 0)
    one = line_bundle(paper_curve, (0, 0, 0))
    assert very_ample(section_basis(one)) == AmpleVerdict(FAILED, "fewer than two global sections (h0 = 1)", 0)
    assert very_ample(section_basis(none)).witness == "fewer than two global sections (h0 = 0)"


def test_very_ample_on_reference_bundles(paper_curve):
    for degrees in ((4, 3, 3), (3, 3, 3)):
        v = very_ample(section_basis(line_bundle(paper_curve, degrees)))
        assert v.status == CRITERION_SATISFIED
        assert v.witness is None
        # 18 samples: C(18, 2) pairs plus 3 x 2 node-branch jets plus 15 smooth jets
        assert v.samples_checked == 153 + 6 + 15


def test_very_ample_failure_modes(paper_curve):
    v = very_ample(section_basis(line_bundle(paper_curve, (1, 1, 1))))
    assert v.status == FAILED
    assert v.witness == "sections do not separate node:1 and node:2"

    v = very_ample(section_basis(line_bundle(paper_curve, (2, 2, 2))))
    assert v.status == FAILED
    assert v.witness == "jet test fails on branch 1 of node:1"
    assert v.samples_checked == 157  # all 153 pairs pass, fourth jet test fails


def test_separates_points_basics(paper_curve):
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    assert separates_points(space, CurvePoint.at_node(0), CurvePoint.at_node(1))
    assert separates_points(space, CurvePoint.smooth("C1", F(5)), CurvePoint.smooth("C2", F(5)))
    weak = section_basis(line_bundle(paper_curve, (1, 1, 1)))
    assert not separates_points(weak, CurvePoint.at_node(1), CurvePoint.at_node(2))
    with pytest.raises(ValueError):
        separates_points(space, CurvePoint.at_node(0), CurvePoint.at_node(0))
    with pytest.raises(ValueError):
        separates_points(
            section_basis(line_bundle(paper_curve, (0, 0, 0))), CurvePoint.at_node(0), CurvePoint.at_node(1)
        )


def test_separates_points_agrees_with_projective_comparison(paper_curve):
    """Independent route: normalize embedding vectors by the first
    nonzero coordinate; separation must coincide with inequality."""

    def normalized(vec):
        lead = next(v for v in vec if v != 0)
        return tuple(v / lead for v in vec)

    for degrees in ((4, 3, 3), (1, 1, 1)):
        space = section_basis(line_bundle(paper_curve, degrees))
        samples = sample_points(paper_curve, extra_per_component=2)
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                direct = separates_points(space, samples[i], samples[j])
                proj = normalized(embed_point(space, samples[i])) != normalized(
                    embed_point(space, samples[j])
                )
                assert direct == proj


def test_separates_jets(paper_curve):
    strong = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    for k in range(3):
        assert separates_jets(strong, CurvePoint.at_node(k))
    weak = section_basis(line_bundle(paper_curve, (2, 2, 2)))
    assert not separates_jets(weak, CurvePoint.at_node(1, branch=1))
    assert not separates_jets(weak, CurvePoint.at_node(1))  # both branches must pass
    assert separates_jets(strong, CurvePoint.smooth("C2", F(7, 3)))


def test_embed_point_branches_differ_by_gluing_scalar(paper_curve):
    for degrees in ((3, 3, 3), (4, 3, 3), (4, 4, 3)):
        b = line_bundle(paper_curve, degrees)
        space = section_basis(b)
        for k, glue in enumerate(b.gluings):
            via_a = embed_point(space, CurvePoint.at_node(k, branch=0))
            via_b = embed_point(space, CurvePoint.at_node(k, branch=1))
            assert via_a == tuple(glue * v for v in via_b)
        assert node_images_consistent(space)


def test_node_images_consistent_with_nontrivial_gluings(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3), (F(2), F(-3, 4), F(5, 7)))
    assert node_images_consistent(section_basis(b))


def test_embed_point_zero_vector_raises(paper_curve):
    b = line_bundle(paper_curve, (-1, 3, 3))
    with pytest.raises(ValueError):
        embed_point(section_basis(b), CurvePoint.at_node(0))


def test_sym_monomials_order_and_count():
    assert sym_monomials(3, 2) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for n, m in ((1, 4), (4, 2), (10, 2), (10, 3)):
        assert len(sym_monomials(n, m)) == math.comb(n + m - 1, m)


def test_multiplication_map_degree_one_is_identity(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    m1 = multiplication_map(section_basis(b), 1)
    assert (m1.rows, m1.cols) == (10, 10)
    assert m1.entries == tuple(F(int(i == j)) for i in range(10) for j in range(10))
    with pytest.raises(ValueError):
        multiplication_map(section_basis(b), 0)


def test_multiplication_map_m2_frozen_shape_and_rank(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    m2 = multiplication_map(section_basis(b), 2)
    assert (m2.rows, m2.cols) == (20, 55)
    assert rank(m2) == 20  # surjective onto the degree-2 part


def test_multiplication_map_m2_rank_against_sympy(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    m2 = multiplication_map(section_basis(b), 2)
    sm = sympy.Matrix(m2.rows, m2.cols, [sympy.Rational(x) for x in m2.entries])
    assert sm.rank() == 20


def _assert_columns_reconstruct_products(bundle, m):
    """Every column of the m-th multiplication map, taken as coordinates
    in the canonical basis of L^m, sums back to its product exactly."""
    space = section_basis(bundle)
    target_bundle = power(bundle, m)
    target = [reference_flatten(target_bundle, s) for s in section_basis(target_bundle).basis]
    matrix = multiplication_map(space, m)
    monos = sym_monomials(len(space.basis), m)
    assert (matrix.rows, matrix.cols) == (len(target), len(monos))
    for col, mono in enumerate(monos):
        product = space.basis[mono[0]]
        for idx in mono[1:]:
            product = reference_product(product, space.basis[idx])
        expected = reference_flatten(target_bundle, product)
        combo = [F(0)] * len(expected)
        for c, flat in zip((matrix.row(r)[col] for r in range(matrix.rows)), target):
            if c:
                combo = [acc + c * v for acc, v in zip(combo, flat)]
        assert tuple(combo) == expected


def test_multiplication_map_columns_reconstruct_products(paper_curve):
    """Column coordinates really express each product in the target basis."""
    for degrees in ((4, 3, 3), (3, 3, 3), (4, 4, 4)):
        for m in (2, 3):
            _assert_columns_reconstruct_products(line_bundle(paper_curve, degrees), m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_multiplication_map_columns_reconstruct_products_random(seed, m):
    rng = random.Random(seed)
    curve = random_curve(rng, max_components=3, max_nodes=3)
    _assert_columns_reconstruct_products(random_bundle(rng, curve, degree_range=(-1, 3)), m)


def test_multiplication_map_builds_each_product_once(paper_curve, monkeypatch):
    """At m = 3 on the paper curve at (4, 3, 3) (h0 = 10) each of the 55
    degree-2 products is built once and each of the 220 columns is one
    more multiplication: 55 + 220 calls of the one product routine,
    ``_multiply``, where multiplying every monomial out from scratch
    takes 55 + 2 * 220 = 440. The product ladder builds the m = 2 map on
    the way, so each of the 55 degree-2 products is checked against the
    nodes of ``L^2`` once, and then every one of the 220 products, the
    zero ones too, against those of ``L^3`` once. Column order and
    values are checked by ``_assert_columns_reconstruct_products``."""
    calls, checked = [], []
    multiply, glues = embedding._multiply, embedding._glues

    def counted(a, b):
        calls.append(None)
        return multiply(a, b)

    def counted_check(node_rows, blocks):
        checked.append(blocks)
        return glues(node_rows, blocks)

    monkeypatch.setattr(embedding, "_multiply", counted)
    monkeypatch.setattr(embedding, "_glues", counted_check)
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    assert len(space.basis) == 10
    m3 = multiplication_map(space, 3)
    assert (m3.rows, m3.cols) == (30, 220)
    assert len(calls) == 55 + 220
    assert len(checked) == 55 + 220
    assert any(not any(blocks) for blocks in checked[55:])


def _moved(form, ci, k, delta):
    """An integer form with the numerator of ``t^k`` on component ci
    moved by delta, its terms kept in order and free of zeros."""
    blocks, den = form
    terms = dict(blocks[ci])
    terms[k] = terms.get(k, 0) + delta
    block = tuple((j, c) for j, c in sorted(terms.items()) if c)
    return blocks[:ci] + (block,) + blocks[ci + 1 :], den


def test_multiplication_map_rejects_product_off_the_gluing(paper_curve, monkeypatch):
    """A product that breaks a node constraint raises instead of being
    read off the free columns."""
    calls = []
    multiply = embedding._multiply

    def broken(a, b):
        product = multiply(a, b)
        calls.append(None)
        if len(calls) != 5:
            return product
        # shifting C1's constant term by 1 moves its value at both of C1's nodes
        return _moved(product, 0, 0, product[1])

    monkeypatch.setattr(embedding, "_multiply", broken)
    with pytest.raises(ArithmeticError, match=r"monomial \(0, 4\) is not a global section"):
        multiplication_map(section_basis(line_bundle(paper_curve, (4, 3, 3))), 2)


@pytest.mark.parametrize("k, ci", [(0, 0), (49, 2)])
def test_product_matrix_raises_where_one_branch_block_is_empty(paper_curve, monkeypatch, k, ci):
    """The m = 2 products of monomials (0, 0) and (7, 7) on the paper
    curve at (4, 3, 3) live on C1 alone and on C3 alone: at the node
    C1.0 - C3.0 one branch block is empty and the other is not. With the
    constant term of the nonempty one moved by one, the value there no
    longer matches the empty branch's zero, and the product ladder
    raises for that monomial."""
    calls = []
    multiply = embedding._multiply

    def broken(a, b):
        product = multiply(a, b)
        calls.append(None)
        if len(calls) != k + 1:
            return product
        assert [bool(block) for block in product[0]] == [i == ci for i in range(3)]
        return _moved(product, ci, 0, product[1])

    monkeypatch.setattr(embedding, "_multiply", broken)
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    mono = sym_monomials(10, 2)[k]
    with pytest.raises(ArithmeticError, match=rf"monomial {re.escape(str(mono))} is not a global section"):
        multiplication_map(space, 2)
    assert len(calls) == k + 1


@pytest.mark.parametrize("m, k", [(2, 0), (2, 54), (3, 7), (3, 219)])
def test_product_matrix_raises_on_one_corrupted_coefficient(paper_curve, monkeypatch, m, k):
    """The k-th column's product on the paper curve at (4, 3, 3), its
    leading coefficient on C2 (of degree 3m) moved by one, no longer
    takes the same value at the two branches of the self-node of C2 at
    0 and 2, and the product ladder raises for its monomial. At m = 3
    the 55 degree-2 prefixes are multiplied first."""
    calls = []
    multiply = embedding._multiply
    target = (55 if m == 3 else 0) + k + 1

    def broken(a, b):
        product = multiply(a, b)
        calls.append(None)
        if len(calls) != target:
            return product
        return _moved(product, 1, 3 * m, product[1])

    monkeypatch.setattr(embedding, "_multiply", broken)
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    mono = sym_monomials(10, m)[k]
    with pytest.raises(ArithmeticError, match=rf"monomial {re.escape(str(mono))} is not a global section"):
        multiplication_map(space, m)
    assert len(calls) == target


def _ladder_space(seed):
    """The paper curve at (2, 2, 1) for seed None, else a seeded curve
    with ``inf`` points, and self-nodes on some, and a bundle of degrees
    0..2 with at least three sections."""
    if seed is None:
        return section_basis(line_bundle(paper_example_curve(), (2, 2, 1)))
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    assert curve.nodes and any(p.is_infinity for c in curve.components for p in c.marked_points)
    space = section_basis(random_bundle(rng, curve, degree_range=(0, 2)))
    assert len(space.integral_basis) >= 3
    return space


def _breaking_move(bundle, m, form):
    """``form`` with one coefficient moved by its denominator so that it
    breaks a node constraint of ``L^m``: the first such move, in
    component and then exponent order."""
    target = power(bundle, m)
    node_rows = bundles._node_rows(target)
    for ci, width in enumerate(bundles.block_widths(target)):
        for k in range(width):
            moved = _moved(form, ci, k, form[1])
            if not bundles._glues(node_rows, moved[0]):
                return moved
    raise AssertionError("no single move breaks a node constraint")


@pytest.mark.parametrize("seed", [None, 12, 15, 17, 34])
def test_product_ladder_maps_each_degree_once(seed, monkeypatch):
    """For top = 1..4 ``multiplication_map`` builds the degrees 2..top in
    turn (degree 1 alone for top 1) and multiplies each of their products
    exactly once, into a map of the shape of degree top; and a product
    moved off the gluing raises ``ArithmeticError`` at every degree 1..4,
    for the first monomial, with no product built after it."""
    space = _ladder_space(seed)
    n = len(space.integral_basis)
    calls = []
    multiply = embedding._multiply

    def counted(a, b):
        calls.append(None)
        return multiply(a, b)

    for top in range(1, 5):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(embedding, "_multiply", counted)
            matrix = multiplication_map(space, top)
        assert len(calls) == sum(math.comb(n + m - 1, m) for m in range(2, top + 1))
        assert (matrix.rows, matrix.cols) == (h0(power(space.bundle, top)), math.comb(n + top - 1, top))

    moved = (_breaking_move(space.bundle, 1, space.integral_basis[0]), *space.integral_basis[1:])
    with pytest.raises(ArithmeticError, match=r"monomial \(0,\) is not a global section"):
        multiplication_map(SectionSpace(space.bundle, moved), 1)
    for m in range(2, 5):
        first = sum(math.comb(n + j - 1, j) for j in range(2, m)) + 1

        def broken(a, b):
            calls.append(None)
            product = multiply(a, b)
            return _breaking_move(space.bundle, m, product) if len(calls) == first else product

        calls.clear()
        monkeypatch.setattr(embedding, "_multiply", broken)
        with pytest.raises(ArithmeticError, match=rf"monomial {re.escape(str((0,) * m))} is not a global section"):
            multiplication_map(space, 4)
        assert len(calls) == first


def test_multiplication_map_m3_surjective(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    m3 = multiplication_map(section_basis(b), 3)
    assert (m3.rows, m3.cols) == (30, 220)
    assert rank(m3) == 30


def test_quadric_ideal_frozen_count(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    quadrics = quadric_ideal(multiplication_map(section_basis(b), 2))
    assert len(quadrics) == 55 - 20


def test_quadrics_vanish_on_embedded_samples(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    quadrics = quadric_ideal(multiplication_map(space, 2))
    samples = sample_points(paper_curve)  # 3 nodes + 15 smooth points
    assert len(samples) == 18
    for x in samples:
        coords = embed_point(space, x)
        for q in quadrics:
            assert quadric_value(q, coords) == 0


def test_quadric_value_golden():
    # n = 2 variables: monomials (0,0), (0,1), (1,1)
    q = (F(1), F(2), F(3))
    assert quadric_value(q, (F(2), F(5))) == F(4 + 20 + 75)
    with pytest.raises(ValueError):
        quadric_value((F(1),), (F(2), F(5)))


def _jacobian_rank(quadrics, coords):
    """``embedding._jacobian_rank`` of quadric vectors at rational
    coordinates, checked against ``reference_jacobian_rank``: each quadric
    as its ``_quadric_form``, the point cleared of its denominators by
    their lcm, positive factors that leave the rank alone."""
    den = math.lcm(*(F(v).denominator for v in coords))
    x = [int(F(v) * den) for v in coords]
    found = embedding._jacobian_rank([embedding._quadric_form(q, len(x)) for q in quadrics], x)
    assert found == reference_jacobian_rank(quadrics, coords)
    return found


def test_cone_jacobian_rank_hand_example():
    # single quadric x^2 - yz in three variables
    q = (F(1), F(0), F(0), F(0), F(-1), F(0))
    assert _jacobian_rank([q], (F(1), F(1), F(1))) == 1
    assert _jacobian_rank([q], (F(0), F(0), F(0))) == 0
    assert _jacobian_rank([], (F(1), F(1), F(1))) == 0
    with pytest.raises(ValueError):
        _jacobian_rank([q[:-1]], (F(1), F(1), F(1)))


def test_cone_jacobian_ranks_frozen(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    quadrics = quadric_ideal(multiplication_map(space, 2))
    smooth = embed_point(space, CurvePoint.smooth("C1", F(5)))
    assert _jacobian_rank(quadrics, smooth) == 8
    node_ranks = tuple(
        _jacobian_rank(quadrics, embed_point(space, CurvePoint.at_node(k))) for k in range(3)
    )
    assert node_ranks == (7, 6, 7)
    assert all(r <= 7 for r in node_ranks)
    vertex = tuple([F(0)] * 10)
    assert _jacobian_rank(quadrics, vertex) == 0


def test_cone_jacobian_rank_scale_invariant(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    quadrics = quadric_ideal(multiplication_map(space, 2))
    x = CurvePoint.smooth("C2", F(-4, 3))
    coords = embed_point(space, x)
    assert _jacobian_rank(quadrics, coords) == _jacobian_rank(quadrics, tuple(F(7, 2) * v for v in coords))


def _probe_against_the_reference(space, seed):
    """Check the probe's rank against ``reference_jacobian_rank`` at the
    vertex, every node and two smooth samples per component: the rank
    certified from known kernel vectors (``_probe_rank``), and the one
    ``_jacobian_rank`` takes with none. Return the points whose
    certified rank was taken over Q."""
    curve = space.bundle.curve
    n = len(space.basis)
    forms = embedding.cone_ideal(space)[2]
    quadrics = quadric_ideal(multiplication_map(space, 2))
    assert embedding._jacobian_rank(forms, (0,) * n) == reference_jacobian_rank(quadrics, (0,) * n) == 0
    over_q = []
    eliminate = exactlin._forward_eliminate
    for x in sample_points(curve, 2, seed):
        try:
            coords = embed_point(space, x)
        except ValueError:
            assert embedding._probe_rank(space, forms, x) is None
            continue
        expected = reference_jacobian_rank(quadrics, coords)
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactlin, "_forward_eliminate", lambda r: runs.append(len(r)) or eliminate(r))
            assert embedding._probe_rank(space, forms, x) == expected
        if runs:
            over_q.append(str(x))
        assert _jacobian_rank(quadrics, coords) == expected
    return over_q


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_certified_probe_rank_matches_the_reference(seed):
    """Very ample bundles of degree 3 or 4 on each component, on curves
    with self-nodes and with marked points at infinity, whose jets are
    read in the chart ``u = 1/t``: the probe's certified rank is the
    rank of the Fraction gradients at every point."""
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    space = section_basis(random_bundle(rng, curve, degree_range=(3, 4)))
    if very_ample(space, 2, seed).status == FAILED:
        return
    _probe_against_the_reference(space, seed)


@pytest.mark.parametrize("degrees", [(3, 3, 3), (4, 3, 3)])
def test_certified_probe_rank_falls_back_to_q_at_one_node(paper_curve, degrees):
    """On the paper curve the known vectors certify every point but node
    1, where C1 meets C2; there the rank is taken over Q, and it is the
    reference rank too."""
    space = section_basis(line_bundle(paper_curve, degrees))
    assert _probe_against_the_reference(space, SAMPLE_SEED) == ["node:1"]


@pytest.mark.parametrize("degrees, node", [((4, 3, 0), 0), ((3, 1, 3), 2), ((2, 2, 2), 2)])
def test_certified_probe_rank_where_known_vectors_are_dependent(paper_curve, degrees, node):
    """Below the very ampleness criterion a branch jet can vanish (degree
    0) or the known vectors at a node can be dependent, so their rank,
    not their count, bounds the gradients' rank: at the named node the
    rank is above ``h0`` minus their count, and still the reference's."""
    space = section_basis(line_bundle(paper_curve, degrees))
    n = len(space.basis)
    forms = embedding.cone_ideal(space)[2]
    # three known vectors at a node: the cone point and the two branch jets
    assert embedding._probe_rank(space, forms, CurvePoint.at_node(node)) > n - 3
    _probe_against_the_reference(space, SAMPLE_SEED)


@pytest.mark.parametrize("mutated, point", [(0, "node:0"), (1, "node:0"), (None, "C1:24")])
def test_probe_refuses_a_known_vector_off_the_kernel(monkeypatch, capsys, mutated, point):
    """A branch jet moved off the gradients' kernel by a unit vector, on
    branch 0 or 1 of every node or at every smooth point, fails the exact
    check over Z: ``ideal`` raises ``ArithmeticError`` naming the first
    point where it is read, and prints no rank."""
    vector = embedding._branch_vector

    def moved(space, x, row):
        v = vector(space, x, row)
        return (v[0] + 1, *v[1:]) if row is _jet_row and x.branch == mutated else v

    monkeypatch.setattr(embedding, "_branch_vector", moved)
    for as_json in (["--json"], []):
        with pytest.raises(ArithmeticError, match=f"Jacobian at {point} is not"):
            main(["ideal", str(PAPER_SPEC), *as_json])
        assert capsys.readouterr().out == ""


_COEFFS = st.one_of(st.just(F(0)), st.builds(F, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def _quadrics_at_a_point(draw):
    """Dense quadric vectors in n <= 5 variables with fractional and zero
    coefficients, a point with zero and fractional coordinates, and a
    positive rescaling factor."""
    n = draw(st.integers(1, 5))
    width = n * (n + 1) // 2
    quadrics = draw(st.lists(st.tuples(*[_COEFFS] * width), max_size=6))
    point = draw(st.tuples(*[_COEFFS] * n))
    scale = draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    return quadrics, point, scale


@settings(max_examples=120, deadline=None)
@given(_quadrics_at_a_point())
def test_quadric_form_matches_the_dense_fraction_reference(case):
    """The integer form's value, with the denominators of the quadric and
    of the point cleared, is the dense Fraction value scaled by both;
    its Jacobian rank on the integer point is the dense one; and the
    value and the rank of the rational point give the dense results,
    before and after rescaling."""
    quadrics, point, scale = case
    n = len(point)
    den = math.lcm(*(v.denominator for v in point))
    x = tuple(int(v * den) for v in point)
    scaled = tuple(scale * v for v in point)
    forms = [embedding._quadric_form(q, n) for q in quadrics]
    for q, form in zip(quadrics, forms):
        assert all(type(c) is int and c for c, _, _ in form[0]) and form[1] > 0
        value = reference_quadric_value(q, point)
        assert embedding._quadric_at(form, x) == value * form[1] * den**2
        assert quadric_value(q, point) == value
        assert quadric_value(q, scaled) == value * scale**2
    expected = reference_jacobian_rank(quadrics, point)
    assert embedding._jacobian_rank(forms, x) == expected
    assert _jacobian_rank(quadrics, point) == expected
    assert _jacobian_rank(quadrics, scaled) == expected


def test_very_ample_holds_for_min_degree_three_random_curves():
    """Criterion bundles pass direct sampling too, not just the test by degree.

    Restricted to dual graphs of genus at most 1: the degree criterion
    is stated for that regime (a subcurve of genus g needs total degree
    at least 2g + 1, and three per component covers g <= 1).
    """
    from nodalcone.curve import arithmetic_genus

    rng = random.Random(64)
    checked = 0
    for _ in range(14):
        curve = random_curve(rng, max_components=3, max_nodes=3)
        if arithmetic_genus(curve) > 1:
            continue
        degrees = tuple(3 for _ in curve.components)
        b = line_bundle(curve, degrees)
        v = very_ample(section_basis(b), extra_samples=2)
        assert v.status == CRITERION_SATISFIED
        assert v.witness is None
        checked += 1
    assert checked >= 5


def _reference_row(space, functional, x):
    """``reference_value`` or ``reference_jet`` of every basis section at
    x, from its Fraction coefficients, node points on their branch."""
    curve = space.bundle.curve
    if x.is_node:
        ci, _, point = curve.sites[x.node][x.branch or 0]
    else:
        ci, point = curve.component_index(x.component), x.coord
    return [functional(s.coeffs[ci], point) for s in space.basis]


def test_embed_point_is_the_fraction_value():
    """Exact coordinates, not just the projective point: the Fraction
    values of the basis at every node branch and sample point, on curves
    with fractional coordinates, ``inf`` branches and self-nodes. The
    integer cone coordinates the quadric checks read are those values
    times one positive factor, and all zero where there is no image."""
    rng = random.Random(2024)
    tested = 0
    for _ in range(60):
        curve = curve_with_infinity(rng)
        space = section_basis(random_bundle(rng, curve, degree_range=(-1, 4)))
        samples = sample_points(curve, 2, rng.randrange(100))
        points = [CurvePoint.at_node(x.node, b) for x in samples if x.is_node for b in (0, 1)]
        points += [x for x in samples if not x.is_node]
        for x in points:
            expected = tuple(_reference_row(space, reference_value, x))
            cone = embedding._branch_vector(space, x, _homogeneous_row)
            if any(expected):
                assert embed_point(space, x) == expected
                tested += any(v.denominator > 1 for v in expected)
                factor = next(c / v for c, v in zip(cone, expected) if v)
                assert factor > 0 and cone == tuple(factor * v for v in expected)
            else:
                assert not any(cone)
                with pytest.raises(ValueError):
                    embed_point(space, x)
    assert tested > 50


def _very_ample_by_rank(space, extra_samples, seed):
    """Reference: every pair re-evaluated from the Fraction coefficients
    and tested by the rank of a 2 x h0 matrix, then the jet tests by
    rank, node branches one by one."""
    if len(space.basis) < 2:
        return FAILED, f"fewer than two global sections (h0 = {len(space.basis)})", 0
    samples = sample_points(space.bundle.curve, extra_samples, seed)

    def independent(u, v):
        return rank(MatrixQ.from_rows([u, v])) == 2

    checked = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            checked += 1
            u = _reference_row(space, reference_value, samples[i])
            v = _reference_row(space, reference_value, samples[j])
            if not independent(u, v):
                return FAILED, f"sections do not separate {samples[i]} and {samples[j]}", checked
    for x in samples:
        for b in (0, 1) if x.is_node else (None,):
            checked += 1
            at = CurvePoint.at_node(x.node, b) if x.is_node else x
            if not independent(_reference_row(space, reference_value, at), _reference_row(space, reference_jet, at)):
                where = f"on branch {b} of {x}" if x.is_node else f"at {x}"
                return FAILED, f"jet test fails {where}", checked
    status = CRITERION_SATISFIED if min(space.bundle.multidegree) >= 3 else VERIFIED_ON_SAMPLES
    return status, None, checked


def test_very_ample_matches_the_pairwise_rank_reference():
    """Same status, witness and count as the rank-based pairwise loop, on
    curves with points at infinity and self-nodes, degrees -1..4; the
    sweep reaches failures at pairs, failures at jets and passes."""
    rng = random.Random(1105)
    outcomes = set()
    for _ in range(300):
        curve = curve_with_infinity(rng)
        space = section_basis(random_bundle(rng, curve, degree_range=(-1, 4)))
        extra, seed = rng.randint(0, 2), rng.randrange(100)
        v = very_ample(space, extra_samples=extra, seed=seed)
        assert (v.status, v.witness, v.samples_checked) == _very_ample_by_rank(space, extra, seed)
        outcomes.add(v.witness.split(" ")[0] if v.witness else "pass")
    assert {"sections", "jet", "pass"} <= outcomes


_ROWS = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)
)


@settings(max_examples=200, deadline=None)
@given(
    _ROWS,
    st.sampled_from(["zero-u", "zero-v", "equal", "multiple", "free"]),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
def test_independent_is_rank_two(rows, shape, scale):
    u, v = ([F(a) for a in row] for row in rows)
    zero = [F(0)] * len(u)
    u, v = {
        "zero-u": (zero, v),
        "zero-v": (u, zero),
        "equal": (u, u),
        "multiple": (u, [scale * a for a in u]),
        "free": (u, v),
    }[shape]
    assert embedding._independent(tuple(u), tuple(v)) == (rank(MatrixQ.from_rows([u, v])) == 2)


def test_very_ample_evaluates_each_sample_once_and_takes_no_rank(paper_curve, monkeypatch):
    """The paper curve of curves/paper-x.json at (4, 3, 3): one value
    row per sample, read once for its 17 pair tests and its jet tests,
    plus branch 1's at each node, so 18 + 3 = 21 value reads; and no
    elimination, so no rank of any kind. Reading each jet test's value
    row again would take 39, and the rank-per-pair loop takes 327
    evaluations and 174 ranks."""
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    counts = {"elimination": 0, "evaluation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    vector = embedding._branch_vector

    def evaluated(space, x, row):
        if row is _homogeneous_row:
            counts["evaluation"] += 1
        return vector(space, x, row)

    monkeypatch.setattr(exactlin, "_forward_eliminate", counted("elimination", exactlin._forward_eliminate))
    monkeypatch.setattr(embedding, "_branch_vector", evaluated)
    v = very_ample(space)
    assert (v.status, v.samples_checked) == (CRITERION_SATISFIED, 153 + 6 + 15)
    samples = sample_points(paper_curve)
    assert counts["elimination"] == 0
    assert counts["evaluation"] == len(samples) + len(paper_curve.nodes) == 21


def _separates_jets_by_rank(space, x):
    """Reference: rank 2 of each tested branch's own value and jet rows,
    from the Fraction coefficients: both branches at a node without a
    selector, the selected one otherwise."""
    if x.is_node:
        points = [CurvePoint.at_node(x.node, b) for b in ((0, 1) if x.branch is None else (x.branch,))]
    else:
        points = [x]
    rows = ([_reference_row(space, reference_value, at), _reference_row(space, reference_jet, at)] for at in points)
    return all(rank(MatrixQ.from_rows(pair)) == 2 for pair in rows)


def test_separates_jets_matches_the_rank_reference(paper_curve):
    """``separates_jets`` reads x's value row once and hands it to the
    jet tests; the verdict is still the rank-2 test of each branch's own
    rows, at every node with selector None, 0 and 1 and at smooth
    samples, on the paper curve and on curves with ``inf`` branches."""
    rng = random.Random(30)
    spaces = [section_basis(line_bundle(paper_curve, d)) for d in ((4, 3, 3), (2, 2, 2), (1, 1, 2))]
    at_infinity = 0
    while at_infinity < 15:
        curve = curve_with_infinity(rng)
        space = section_basis(random_bundle(rng, curve, degree_range=(0, 4)))
        if len(space.integral_basis) >= 2:
            spaces.append(space)
            at_infinity += any(point.is_infinity for sites in curve.sites for _, _, point in sites)
    verdicts = set()
    for space in spaces:
        curve = space.bundle.curve
        points = [CurvePoint.at_node(k, b) for k in range(len(curve.nodes)) for b in (None, 0, 1)]
        points += [x for x in sample_points(curve, 2, rng.randrange(100)) if not x.is_node]
        for x in points:
            verdict = separates_jets(space, x)
            assert verdict == _separates_jets_by_rank(space, x), (space.bundle, x)
            verdicts.add(verdict)
    assert verdicts == {True, False}


_POOL_REFERENCE = frozenset(Fraction(n, q) for n in range(-24, 25) for q in range(1, 6))


def _check_sample_count_by_pool(curve, extra):
    """Reference: each component's free share as the stored pool less
    its affine marked points, with the same message."""
    for comp in curve.components:
        free = len(_POOL_REFERENCE - {p.coord for p in comp.marked_points if not p.is_infinity})
        if not 0 <= extra <= free:
            raise ValueError(f"component {comp.name} takes 0..{free} extra sample points, {extra} requested")


def test_check_sample_count_counts_the_pool_it_no_longer_stores():
    """The pool is counted, not built: 169 values, less each component's
    marked points in it. Components marked in and out of the pool, at its
    edges (+-24, 24/5, 1/5), just past them (+-25, 1/6, 49/2) and at
    ``inf``, give the stored pool's count, and the same message at the
    bound, one past it and below zero."""
    assert len(_POOL_REFERENCE) == embedding._POOL_SIZE == 169
    special = [F(24), F(-24), F(25), F(-25), F(24, 5), F(1, 5), F(1, 6), F(49, 2), None, F(0), F(-7, 4), F(10, 4)]
    rng = random.Random(169)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        points = [rng.sample(special, n) for _ in range(2)]
        seen.update(c for pts in points for c in pts)
        components = tuple(
            Component(name, tuple(INFINITY if c is None else affine_point(c) for c in pts))
            for name, pts in zip(("C1", "C2"), points)
        )
        curve = NodalCurve(components, tuple(NodeGluing(("C1", i), ("C2", i)) for i in range(n)))
        free = [len(_POOL_REFERENCE - {c for c in pts if c is not None}) for pts in points]
        bound = min(free)
        for extra in (-1, 0, bound, bound + 1):
            try:
                _check_sample_count_by_pool(curve, extra)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    embedding.check_sample_count(curve, extra)
                assert str(raised.value) == str(exc)
            else:
                assert extra in (0, bound)
                embedding.check_sample_count(curve, extra)
    assert seen == set(special)


# the seeds of ``test_cone_ideal_quadrics_are_the_quadric_ideal``'s random
# specs, and those among them whose m = 3 map is onto (seed 1's has h0 = 0)
CONE_IDEAL_SEEDS = range(24)
M3_ONTO_SEEDS = {0, 1, 6, 12}

# the seeds where ``_pencil_trick`` holds: m3 is onto with no cubic built
PENCIL_SEEDS = {0, 6, 12}

# two more seeds whose pencil has no common zero and H1(L) = 0, but m2 is
# not onto and m3's rank is one short of the rows: a certificate that
# skipped m2's rank would report m3 onto there
SHORT_BY_ONE_SEEDS = (100, 134)


def _genus_two_canonical():
    """The dualizing bundle of two lines meeting in three points, genus 2:
    h0 = 2, H1 = 1, m2 onto and a pencil with no common zero, yet m3 has
    rank 4 of 5, so only H1(L) = 0 keeps the pencil trick from applying."""
    pts = (affine_point(0), affine_point(1), INFINITY), (affine_point(0), affine_point(2), affine_point(-1))
    components = tuple(Component(name, p) for name, p in zip(("C1", "C2"), pts))
    curve = NodalCurve(components, tuple(NodeGluing(("C1", i), ("C2", i)) for i in range(3)))
    return section_basis(bundles.dualizing_bundle(curve))


def _cone_ideal_space(paper_curve, spec):
    """The section space of a spec of ``test_cone_ideal_quadrics_are_the_quadric_ideal``:
    the paper curve at (k, k, k), a spec file, ``SHORT_M3_SPEC``, the
    genus-2 canonical bundle or a seeded spec of 2-5 lines, some through
    infinity, at degrees 0-4."""
    if isinstance(spec, int):
        return section_basis(line_bundle(paper_curve, (spec, spec, spec)))
    if spec == "canonical-genus-2":
        return _genus_two_canonical()
    if spec.startswith("seed:"):
        rng = random.Random(int(spec.removeprefix("seed:")))
        return section_basis(random_bundle(rng, curve_with_infinity(rng, components=(2, 5)), degree_range=(0, 4)))
    parsed = parse_spec(SHORT_M3_SPEC if spec == "short-m3" else (ROOT / spec).read_text())
    return section_basis(LineBundle(parsed.curve, parsed.multidegree, parsed.gluings))


@pytest.mark.parametrize(
    "spec",
    [*range(3, 9)]
    + [str(p.relative_to(ROOT)) for p in sorted(ROOT.glob("curves/*.json")) + sorted(ROOT.glob("tests/specs/*.json"))]
    + ["short-m3", "canonical-genus-2"]
    + [f"seed:{seed}" for seed in (*CONE_IDEAL_SEEDS, *SHORT_BY_ONE_SEEDS)],
)
def test_cone_ideal_quadrics_are_the_quadric_ideal(paper_curve, spec, monkeypatch):
    """The command line's integer quadrics (``cone_ideal``, from the sparse
    integer m = 2 map) and ``quadric_ideal`` (``kernel_basis`` of the
    rational map) share only ``exactlin``'s kernel, and agree vector for
    vector over ``sym_monomials(h0, 2)``. Both maps' shapes and ranks are
    those of the rational ``multiplication_map``, ranked by ``rank``, on
    the paper curve at (k, k, k), on every spec file, on ``SHORT_M3_SPEC``,
    on the genus-2 canonical bundle and on the seeded specs, where m3 is
    onto for ``M3_ONTO_SEEDS`` only.

    m3's is so on whichever route ``cone_ideal`` takes: "pencil", where
    ``_pencil_trick`` proves m3 onto and no rank is taken (the ladder, the
    curve files and ``PENCIL_SEEDS``), or "exact", where
    ``certified_rank_of_columns`` ranks every pivot cubic (the spec files,
    ``SHORT_M3_SPEC``, the genus-2 canonical bundle, ``SHORT_BY_ONE_SEEDS``
    and the other seeds). So the theorem never reports more than the rank."""
    space = _cone_ideal_space(paper_curve, spec)
    routes, exact_ranks = [], []
    trick, certified = embedding._pencil_trick, embedding.certified_rank_of_columns

    def recording_trick(space, m2):
        routes.append("pencil" if trick(space, m2) else "exact")
        return routes[-1] == "pencil"

    def recording_certified(columns, rows, bound=None):
        exact_ranks.append(len(columns))
        return certified(columns, rows, bound)

    monkeypatch.setattr(embedding, "_pencil_trick", recording_trick)
    monkeypatch.setattr(embedding, "certified_rank_of_columns", recording_certified)
    monos = sym_monomials(len(space.integral_basis), 2)
    index = {mono: j for j, mono in enumerate(monos)}
    m2, m3, forms = embedding.cone_ideal(space)
    vectors = []
    for terms, den in forms:
        v = [F(0)] * len(monos)
        for c, i, j in terms:
            v[index[(i, j)]] = F(c, den)
        vectors.append(tuple(v))
    assert tuple(vectors) == quadric_ideal(multiplication_map(space, 2))
    for shape, m in ((m2, 2), (m3, 3)):
        matrix = multiplication_map(space, m)
        assert shape == (matrix.cols, matrix.rows, rank(matrix))
    [route] = routes
    if isinstance(spec, int) or spec.startswith("curves/"):
        assert route == "pencil"
    elif spec.startswith("seed:"):
        seed = int(spec.removeprefix("seed:"))
        assert (m3[2] == m3[1]) == (seed in M3_ONTO_SEEDS)
        assert route == ("pencil" if seed in PENCIL_SEEDS else "exact")
        if seed in SHORT_BY_ONE_SEEDS:
            assert embedding._pencil_is_free(space) and m2[2] < m2[1] and m3[2] == m3[1] - 1
    else:
        assert route == "exact"
        if spec == "short-m3":
            assert m3 == (20, 12, 10)
        if spec == "canonical-genus-2":
            assert embedding._pencil_is_free(space) and m2 == (3, 3, 3) and m3 == (4, 5, 4)
    assert len(exact_ranks) == (route == "exact")


@pytest.mark.parametrize("degrees, built", [((4, 3, 3), (55, 0)), ((6, 6, 6), (171, 0))])
def test_cone_ideal_builds_m2_and_the_pivot_cubics_only(paper_curve, degrees, built, monkeypatch):
    """``cone_ideal`` multiplies, and then checks against the node
    constraints, each of m2's products once each and nothing else: the
    pencil trick proves m3 onto, so no cubic is built. That is 55 of the
    55 + 220 products at (4, 3, 3), the bundle of ``curves/paper-x.json``,
    and 171 of the 171 + 1140 at (6, 6, 6). The zero products are checked
    too."""
    space = section_basis(line_bundle(paper_curve, degrees))
    multiplied, glued = [], []
    multiply, glues = embedding._multiply, embedding._glues

    def counted_multiply(a, b):
        multiplied.append(multiply(a, b))
        return multiplied[-1]

    def counted_glues(node_rows, blocks):
        glued.append(blocks)
        return glues(node_rows, blocks)

    monkeypatch.setattr(embedding, "_multiply", counted_multiply)
    monkeypatch.setattr(embedding, "_glues", counted_glues)
    m2, m3, _ = embedding.cone_ideal(space)
    n = len(space.integral_basis)
    assert (m2[0], m3[0]) == (math.comb(n + 1, 2), math.comb(n + 2, 3))
    assert len(multiplied) == sum(built) == m2[0]
    assert glued == [blocks for blocks, _ in multiplied]
    assert any(not any(blocks) for blocks in glued)


def _restriction(section, ci):
    """Block ci of a Fraction section as a sympy polynomial in t over QQ."""
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(section.coeffs[ci])]
    return sympy.Poly(coeffs, sympy.Symbol("t"), domain="QQ")


@pytest.mark.parametrize("k", range(3, 15))
def test_multipliers_share_no_zero(paper_curve, k):
    """On the paper curve at (k, k, k) the two multipliers of the pencil
    trick, ``s1 = sum b_j`` and ``s2 = sum (j + 1) b_j`` over the basis
    sections b_j, have no common zero, checked over Q with sympy: on each
    line the gcd of their restrictions is 1, and their coefficients of
    t^k, the values at infinity, are not both zero. ``_pencil_is_free``,
    which checks the same mod PRIME, agrees."""
    space = section_basis(line_bundle(paper_curve, (k, k, k)))
    t = sympy.Symbol("t")
    for ci in range(len(paper_curve.components)):
        restrictions = [_restriction(b, ci) for b in space.basis]
        s1 = functools.reduce(sympy.Poly.add, restrictions)
        s2 = functools.reduce(sympy.Poly.add, (r * (j + 1) for j, r in enumerate(restrictions)))
        assert not s1.is_zero and not s2.is_zero and s1.gcd(s2).degree() == 0
        assert (s1.coeff_monomial(t**k), s2.coeff_monomial(t**k)) != (0, 0)
    assert embedding._pencil_is_free(space)


_P = exactlin.PRIME


@pytest.mark.parametrize(
    "degree, basis, free",
    [
        (2, [[(0, -1), (1, 1)], [(1, -1), (2, 1)]], False),  # t - 1 and t^2 - t share t = 1
        (2, [[(0, 1)], [(1, 1)]], False),  # 1 and t share the point at infinity
        (2, [[(0, 1)], [(2, 1)]], True),
        (1, [[(1, _P)], [(0, 1)]], False),  # p t + 1, p t + 2: no leading coefficient is a unit mod p
        (1, [[(0, _P - 2), (1, _P - 2)], [(0, 1), (1, 1)]], False),  # s2 = p (t + 1) is zero mod p
        (0, [[(0, 3)]], True),
        (-1, [], False),
    ],
    ids=["affine-zero", "zero-at-infinity", "free", "leads-vanish-mod-p", "s2-vanishes-mod-p", "constant", "width-0"],
)
def test_pencil_is_free_on_one_line(degree, basis, free):
    """``_pencil_is_free`` on hand-made bases over one line with no node:
    the pencil ``s1 = b0 + b1``, ``s2 = b0 + 2 b1`` spans the same sections
    as the basis, so it has a common zero exactly where the basis does.
    Where no restriction keeps its leading coefficient mod PRIME, or s2
    vanishes mod PRIME, the check fails whatever holds over Q."""
    bundle = line_bundle(NodalCurve((Component("A", ()),), ()), (degree,))
    space = SectionSpace(bundle, tuple(((tuple(terms),), 1) for terms in basis))
    assert embedding._pencil_is_free(space) is free


@pytest.mark.parametrize("spec", ["short-m3", "seed:8", "seed:13"])
def test_cone_ideal_fallback_builds_each_product_once(paper_curve, spec, monkeypatch):
    """Where the pencil trick proves nothing (``SHORT_M3_SPEC``, and two
    seeds whose pencil has no common zero but whose m2 is not onto),
    ``cone_ideal`` multiplies m2's products and then every cubic
    ``x_i * p`` over m2's pivots, the rational rref's, once each."""
    space = _cone_ideal_space(paper_curve, spec)
    n = len(space.integral_basis)
    monos = sym_monomials(n, 2)
    pivot_columns = reference_rref(multiplication_map(space, 2))[1]
    pivots = {tuple(sorted((*monos[j], i))) for j in pivot_columns for i in range(n)}
    built = []
    degree_map = embedding._degree_map

    def recording(space, target, prefixes, monos, kept=None):
        built.extend(monos)
        return degree_map(space, target, prefixes, monos, kept)

    multiplied = []
    multiply = embedding._multiply

    def counted_multiply(a, b):
        multiplied.append(1)
        return multiply(a, b)

    monkeypatch.setattr(embedding, "_degree_map", recording)
    monkeypatch.setattr(embedding, "_multiply", counted_multiply)
    embedding.cone_ideal(space)
    cubics = [mono for mono in built if len(mono) == 3]
    assert len(cubics) == len(set(cubics)) and set(cubics) == pivots
    assert len(multiplied) == len(monos) + len(pivots)


@pytest.mark.parametrize(
    "argv, built",
    [(["sections", "--basis"], 10)] + [([command], 0) for command in ("sections", "embed", "ample", "ideal", "deform", "verify")],
)
def test_only_sections_basis_builds_fraction_sections(argv, built, monkeypatch):
    """A section space stores the integer form only, and the checks read
    it: of the commands on the paper curve, only ``sections --basis``
    builds ``Section``s, one per basis section (h0 = 10)."""
    sections = []
    init = bundles.Section.__init__

    def counted_init(self, coeffs):
        sections.append(None)
        init(self, coeffs)

    monkeypatch.setattr(bundles.Section, "__init__", counted_init)
    assert main([argv[0], str(PAPER_SPEC), "--json", *argv[1:]]) == EXIT_OK
    assert len(sections) == built


def test_section_space_is_its_bundle_and_integer_basis(paper_curve):
    """``basis`` is derived on first read and then kept, and is not a
    field: a space rebuilt from the bundle and the integer basis equals
    and hashes like the original and derives the same basis, the identity
    at the gluing matrix's free columns. No library check reads it.

    The sampled checks' table is kept the same way: once the checks have
    filled it the space still equals, hashes and reprs like a fresh one,
    a pickled copy has none, each pair of sample arguments has its own,
    and the checks in any order give a fresh space's results."""
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    rebuilt = SectionSpace(space.bundle, space.integral_basis)
    assert rebuilt == space and hash(rebuilt) == hash(space)
    globally_generated(rebuilt)
    very_ample(rebuilt)
    node_images_consistent(rebuilt)
    embed_point(rebuilt, CurvePoint.smooth("C1", F(5)))
    multiplication_map(rebuilt, 2)
    multiplication_map(rebuilt, 3)
    assert "basis" not in vars(rebuilt)
    # the checks kept their sample table on rebuilt, and no field sees it
    assert list(vars(rebuilt)["_sample_tables"]) == [(5, SAMPLE_SEED)]
    assert rebuilt == space and hash(rebuilt) == hash(space) and repr(rebuilt) == repr(space)
    copied = pickle.loads(pickle.dumps(rebuilt))
    assert copied == rebuilt and set(vars(copied)) == {"bundle", "integral_basis"}
    assert rebuilt.basis == space.basis and rebuilt.basis is rebuilt.basis
    assert len(space.basis) == 10
    assert_identity_at(rebuilt, (2, 3, 4, 5, 7, 8, 9, 10, 11, 12))
    assert repr(rebuilt).startswith("SectionSpace(bundle=") and ", integral_basis=(" in repr(rebuilt)

    # one space, three sample arguments: each gives its own samples and a
    # fresh space's verdicts; C3 has degree 0, so the witness names a sample
    shared = section_basis(line_bundle(paper_curve, (3, 3, 0)))
    verdicts = set()
    for extra, seed in ((2, 1), (2, 2), (3, 1)):
        fresh = section_basis(shared.bundle)
        for check in (globally_generated, very_ample):
            assert check(shared, extra, seed) == check(fresh, extra, seed)
        assert embedding._sample_table(shared, extra, seed)[0] == sample_points(paper_curve, extra, seed)
        verdicts.add(very_ample(shared, extra, seed))
    assert len(verdicts) == 3

    # the three sampled checks on one space, in every order, give a fresh
    # space's results on seeded specs
    rng = random.Random(34)
    tested = 0
    while tested < 8:
        bundle = random_bundle(rng, random_curve(rng, max_components=3, max_nodes=3), degree_range=(1, 4))
        if h0(bundle) < 2:
            continue
        extra, seed = rng.randint(0, 3), rng.randrange(100)
        forms = embedding.cone_ideal(section_basis(bundle))[2]
        checks = (
            functools.partial(globally_generated, extra_samples=extra, seed=seed),
            functools.partial(very_ample, extra_samples=extra, seed=seed),
            functools.partial(embedding.quadric_failures, forms=forms, extra_samples=extra, seed=seed),
        )
        expected = [check(section_basis(bundle)) for check in checks]
        for order in itertools.permutations(range(3)):
            space = section_basis(bundle)
            assert [checks[i](space) for i in order] == [expected[i] for i in order]
        tested += 1
