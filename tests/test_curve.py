"""Curve assembly, validation, graph invariants."""

import random
from fractions import Fraction

import pytest

from conftest import random_curve
from nodalcone.curve import (
    INFINITY,
    Component,
    InvalidCurveError,
    NodalCurve,
    NodeGluing,
    PointOnLine,
    affine_point,
    arithmetic_genus,
    betti_1,
    dual_graph,
    jacobian_dimension,
    paper_example_curve,
    validate,
)

F = Fraction


def _chain(n_components, n_nodes_extra=0):
    """Chain of lines glued end to end, optionally with a loop on the last one."""
    comps = []
    nodes = []
    for i in range(n_components):
        pts = []
        if i > 0:
            pts.append(affine_point(F(0)))
        if i < n_components - 1:
            pts.append(affine_point(F(1)))
        comps.append(Component(f"C{i + 1}", tuple(pts)))
    for i in range(n_components - 1):
        nodes.append(NodeGluing((f"C{i + 1}", len(comps[i].marked_points) - 1), (f"C{i + 2}", 0)))
    return NodalCurve(tuple(comps), tuple(nodes))


def test_paper_curve_is_valid(paper_curve):
    assert validate(paper_curve) == []
    assert [c.name for c in paper_curve.components] == ["C1", "C2", "C3"]
    assert len(paper_curve.nodes) == 3


def test_paper_curve_invariants(paper_curve):
    g = dual_graph(paper_curve)
    assert len(g.vertices) == 3
    assert len(g.edges) == 3
    assert g.loop_count() == 1
    assert g.connected_component_count() == 1
    assert arithmetic_genus(paper_curve) == 1
    assert betti_1(g) == 1
    assert jacobian_dimension(paper_curve) == 1


def test_paper_curve_loop_sits_on_middle_component(paper_curve):
    g = dual_graph(paper_curve)
    loops = [e for e in g.edges if e[0] == e[1]]
    assert loops == [("C2", "C2")]


def test_point_display():
    assert str(affine_point(F(3, 2))) == "3/2"
    assert str(INFINITY) == "inf"
    assert INFINITY.is_infinity
    assert not affine_point(F(0)).is_infinity


def test_validate_duplicate_marked_point():
    c = Component("C1", (affine_point(F(1)), affine_point(F(1))))
    with pytest.raises(InvalidCurveError, match="C1: marked point 1 appears more than once"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 1)),))


def test_validate_unknown_component_reference():
    c = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    with pytest.raises(InvalidCurveError, match="unknown component"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C9", 0)),))


def test_validate_marked_point_index_out_of_range():
    c = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    with pytest.raises(InvalidCurveError, match="outside component"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 5)),))


def test_validate_branch_glued_to_itself():
    c = Component("C1", (affine_point(F(0)),))
    with pytest.raises(InvalidCurveError, match="both branches are the same"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 0)),))


def test_validate_marked_point_used_twice():
    c1 = Component("C1", (affine_point(F(0)),))
    c2 = Component("C2", (affine_point(F(0)), affine_point(F(1))))
    with pytest.raises(InvalidCurveError, match="exactly one is allowed"):
        NodalCurve(
            (c1, c2),
            (NodeGluing(("C1", 0), ("C2", 0)), NodeGluing(("C1", 0), ("C2", 1))),
        )


def test_validate_unused_marked_point():
    c1 = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    c2 = Component("C2", (affine_point(F(0)),))
    with pytest.raises(InvalidCurveError, match="not attached to any node"):
        NodalCurve((c1, c2), (NodeGluing(("C1", 0), ("C2", 0)),))


def test_validate_disconnected():
    c1 = Component("C1", ())
    c2 = Component("C2", ())
    with pytest.raises(InvalidCurveError, match="not connected"):
        NodalCurve((c1, c2), ())


def test_invalid_curve_blocks_invariants():
    # no invalid curve exists to ask a genus or a dual graph of
    c = Component("C1", (affine_point(F(0)),))
    with pytest.raises(InvalidCurveError, match="node 0: both branches are the same marked point"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 0)),))


def test_genus_examples():
    assert arithmetic_genus(_chain(1)) == 0
    assert arithmetic_genus(_chain(3)) == 0
    assert jacobian_dimension(_chain(4)) == 0

    # single line with a self-node: nodal cubic shape, genus 1
    c = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    cusp = NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 1)),))
    assert arithmetic_genus(cusp) == 1
    assert betti_1(dual_graph(cusp)) == 1

    # two loops on one line: genus 2
    pts = tuple(affine_point(F(i)) for i in range(4))
    c2 = Component("C1", pts)
    two = NodalCurve(
        (c2,), (NodeGluing(("C1", 0), ("C1", 1)), NodeGluing(("C1", 2), ("C1", 3)))
    )
    assert arithmetic_genus(two) == 2


def test_genus_matches_betti_on_random_curves():
    rng = random.Random(31415)
    for _ in range(40):
        curve = random_curve(rng)
        assert validate(curve) == []
        assert arithmetic_genus(curve) == betti_1(dual_graph(curve))
        g = dual_graph(curve)
        assert g.connected_component_count() == 1
        assert len(g.edges) == len(curve.nodes)


def test_component_lookup(paper_curve):
    assert paper_curve.component_index("C2") == 1
    assert paper_curve.component("C3").name == "C3"
    with pytest.raises(KeyError):
        paper_curve.component("C9")
    p = paper_curve.branch_point(("C2", 2))
    assert p.coord == F(2)
