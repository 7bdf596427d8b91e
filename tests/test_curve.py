"""Curve assembly, validation, graph invariants."""

import random
from fractions import Fraction

import pytest

from conftest import curve_with_infinity, random_curve
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
    # equal as rationals, written differently: 2/4 is 1/2, -0/3 is 0, and
    # two infinities are one point
    for pair, shown in (
        ((affine_point(F(1)), affine_point(F(1))), "1"),
        ((PointOnLine("1/2"), PointOnLine("2/4")), "1/2"),
        ((PointOnLine("0"), PointOnLine("-0/3")), "0"),
        ((INFINITY, PointOnLine(None)), "inf"),
    ):
        c = Component("C1", pair)
        with pytest.raises(InvalidCurveError, match=f"C1: marked point {shown} appears more than once"):
            NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", 1)),))


def test_validate_resolves_a_repeated_name_to_its_first_component():
    first = Component("C1", (affine_point(F(0)),))
    second = Component("C1", (affine_point(F(0)), affine_point(F(1)), affine_point(F(2))))
    with pytest.raises(InvalidCurveError) as err:
        NodalCurve((first, second), (NodeGluing(("C1", 0), ("C1", 2)),))
    assert str(err.value) == "; ".join(
        [
            "duplicate component name 'C1'",
            "node 0: branch b references marked point index 2 outside component C1 (which has 1)",
        ]
    )


def test_validate_unknown_component_reference():
    c = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    with pytest.raises(InvalidCurveError, match="unknown component"):
        NodalCurve((c,), (NodeGluing(("C1", 0), ("C9", 0)),))


def test_validate_marked_point_index_out_of_range():
    c = Component("C1", (affine_point(F(0)), affine_point(F(1))))
    for idx in (5, 2, -1):
        with pytest.raises(InvalidCurveError, match=f"index {idx} outside component C1 \\(which has 2\\)"):
            NodalCurve((c,), (NodeGluing(("C1", 0), ("C1", idx)),))


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
    assert paper_curve.component("C2").marked_points[2].coord == F(2)


def test_node_branch_index_is_an_integer():
    """A branch index that is not an integer raises ``TypeError`` instead
    of being truncated to another marked point."""
    for bad in (0.9, "0", F(0)):
        with pytest.raises(TypeError):
            NodeGluing(("C1", bad), ("C3", 0))
        with pytest.raises(TypeError):
            NodeGluing(("C3", 0), ("C1", bad))


def test_sites_resolve_every_branch_by_name():
    """``sites`` agrees with the name-based lookup for both branches of
    every node, and ``onto_thresholds`` is ``max(0, n - 1)`` per line, on
    affine curves, on curves with points at infinity and self-nodes, and
    on a lone line without marked points; both leave equality, hash and
    repr to the data."""
    rng = random.Random(2718)
    curves = [random_curve(rng) for _ in range(40)] + [curve_with_infinity(rng) for _ in range(40)]
    curves.append(NodalCurve((Component("C1", ()),)))
    assert any(INFINITY in c.marked_points for curve in curves for c in curve.components)
    assert any(n.branch_a[0] == n.branch_b[0] for curve in curves for n in curve.nodes)
    for curve in curves:
        assert len(curve.sites) == len(curve.nodes)
        for node, sites in zip(curve.nodes, curve.sites):
            expected = tuple(
                (curve.component_index(name), k, curve.component(name).marked_points[k])
                for name, k in (node.branch_a, node.branch_b)
            )
            assert sites == expected
        assert curve.onto_thresholds == tuple(max(0, len(c.marked_points) - 1) for c in curve.components)
        twin = NodalCurve(curve.components, curve.nodes)
        assert twin == curve and hash(twin) == hash(curve)
        assert twin.sites == curve.sites and twin.onto_thresholds == curve.onto_thresholds
        assert "sites" not in repr(curve) and "onto_thresholds" not in repr(curve)


def test_sites_is_not_a_constructor_argument(paper_curve):
    with pytest.raises(TypeError):
        NodalCurve(paper_curve.components, paper_curve.nodes, paper_curve.sites)
    with pytest.raises(TypeError):
        NodalCurve(paper_curve.components, paper_curve.nodes, sites=paper_curve.sites)
    with pytest.raises(TypeError):
        NodalCurve(paper_curve.components, paper_curve.nodes, onto_thresholds=paper_curve.onto_thresholds)
