"""Embedding checks: positivity verdicts, multiplication maps, quadrics."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import nodalcone.embedding as embedding
from conftest import curve_with_infinity, random_bundle, random_curve, reference_product
from nodalcone.bundles import (
    flatten_section,
    h0,
    line_bundle,
    power,
    section_basis,
    trivial_bundle,
)
from nodalcone.curve import paper_example_curve
from nodalcone.embedding import (
    CRITERION_SATISFIED,
    AmpleVerdict,
    FAILED,
    SAMPLE_SEED,
    VERIFIED_ON_SAMPLES,
    CurvePoint,
    cone_jacobian_rank,
    cone_point,
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
    one = trivial_bundle(paper_curve)
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
            section_basis(trivial_bundle(paper_curve)), CurvePoint.at_node(0), CurvePoint.at_node(1)
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
    assert multiplication_map(section_basis(b), 1) == MatrixQ.identity(10)
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
    sm = sympy.Matrix(
        m2.rows, m2.cols, [sympy.Rational(x) for row in m2.row_lists() for x in row]
    )
    assert sm.rank() == 20


def _assert_columns_reconstruct_products(bundle, m):
    """Every column of the m-th multiplication map, taken as coordinates
    in the canonical basis of L^m, sums back to its product exactly."""
    space = section_basis(bundle)
    target_bundle = power(bundle, m)
    target = [flatten_section(target_bundle, s) for s in section_basis(target_bundle).basis]
    matrix = multiplication_map(space, m)
    monos = sym_monomials(len(space.basis), m)
    assert (matrix.rows, matrix.cols) == (len(target), len(monos))
    for col, mono in enumerate(monos):
        product = space.basis[mono[0]]
        for idx in mono[1:]:
            product = reference_product(product, space.basis[idx])
        expected = flatten_section(target_bundle, product)
        combo = [F(0)] * len(expected)
        for c, flat in zip(matrix.column(col), target):
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
    more multiplication: at most 10 + 55 + 220 calls, where multiplying
    every monomial out from scratch takes 55 + 2 * 220 = 440. Column
    order and values are checked by ``_assert_columns_reconstruct_products``."""
    calls = []
    convolve = embedding._convolve

    def counted(a, b):
        calls.append(None)
        return convolve(a, b)

    monkeypatch.setattr(embedding, "_convolve", counted)
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    assert len(space.basis) == 10
    m3 = multiplication_map(space, 3)
    assert (m3.rows, m3.cols) == (30, 220)
    assert len(calls) <= 10 + 55 + 220


def test_multiplication_map_rejects_product_off_the_gluing(paper_curve, monkeypatch):
    """A product that breaks a node constraint raises instead of being
    read off the free columns."""
    calls = []
    convolve = embedding._convolve

    def broken(a, b):
        blocks, den = convolve(a, b)
        calls.append(None)
        if len(calls) != 5:
            return blocks, den
        # shifting C1's constant term by 1 moves its value at both of C1's nodes
        first = (blocks[0][0] + den,) + blocks[0][1:]
        return (first,) + blocks[1:], den

    monkeypatch.setattr(embedding, "_convolve", broken)
    with pytest.raises(ArithmeticError, match=r"monomial \(0, 4\) is not a global section"):
        multiplication_map(section_basis(line_bundle(paper_curve, (4, 3, 3))), 2)


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


def test_cone_jacobian_rank_hand_example():
    # single quadric x^2 - yz in three variables
    q = (F(1), F(0), F(0), F(0), F(-1), F(0))
    assert cone_jacobian_rank([q], (F(1), F(1), F(1))) == 1
    assert cone_jacobian_rank([q], (F(0), F(0), F(0))) == 0
    assert cone_jacobian_rank([], (F(1), F(1), F(1))) == 0


def test_cone_jacobian_ranks_frozen(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    quadrics = quadric_ideal(multiplication_map(space, 2))
    smooth = cone_point(space, CurvePoint.smooth("C1", F(5)))
    assert cone_jacobian_rank(quadrics, smooth) == 8
    node_ranks = tuple(
        cone_jacobian_rank(quadrics, cone_point(space, CurvePoint.at_node(k))) for k in range(3)
    )
    assert node_ranks == (7, 6, 7)
    assert all(r <= 7 for r in node_ranks)
    vertex = tuple([F(0)] * 10)
    assert cone_jacobian_rank(quadrics, vertex) == 0


def test_cone_jacobian_rank_scale_invariant(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    space = section_basis(b)
    quadrics = quadric_ideal(multiplication_map(space, 2))
    x = CurvePoint.smooth("C2", F(-4, 3))
    assert cone_jacobian_rank(quadrics, cone_point(space, x)) == cone_jacobian_rank(
        quadrics, cone_point(space, x, scale=F(7, 2))
    )


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


def _very_ample_by_rank(space, extra_samples, seed):
    """Reference: every pair re-evaluated and tested by the rank of a
    2 x h0 matrix, then the jet tests by rank, node branches one by one."""
    if len(space.basis) < 2:
        return FAILED, f"fewer than two global sections (h0 = {len(space.basis)})", 0
    samples = sample_points(space.bundle.curve, extra_samples, seed)

    def independent(u, v):
        return rank(MatrixQ.from_rows([u, v])) == 2

    checked = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            checked += 1
            u = embedding._evaluation_vector(space, samples[i])
            v = embedding._evaluation_vector(space, samples[j])
            if not independent(u, v):
                return FAILED, f"sections do not separate {samples[i]} and {samples[j]}", checked
    for x in samples:
        for b in (0, 1) if x.is_node else (None,):
            checked += 1
            at = CurvePoint.at_node(x.node, b) if x.is_node else x
            if not independent(embedding._evaluation_vector(space, at), embedding._jet_vector(space, at)):
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
    """The paper curve of curves/paper-x.json at (4, 3, 3): one evaluation
    per sample for all 153 pair tests, one per smooth jet and one per node
    branch, and no rank. The rank-per-pair loop takes 327 and 174."""
    space = section_basis(line_bundle(paper_curve, (4, 3, 3)))
    counts = {"rank": 0, "evaluation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(embedding, "rank", counted("rank", rank))
    monkeypatch.setattr(embedding, "_evaluation_vector", counted("evaluation", embedding._evaluation_vector))
    v = very_ample(space)
    assert (v.status, v.samples_checked) == (CRITERION_SATISFIED, 153 + 6 + 15)
    samples = sample_points(paper_curve)
    assert counts["rank"] == 0
    assert counts["evaluation"] <= 2 * len(samples) + len(paper_curve.nodes)
