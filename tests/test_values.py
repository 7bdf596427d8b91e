"""The package's value types: immutable, compared and hashed by their data."""

import copy
import pickle
from fractions import Fraction

import pytest

from nodalcone.bundles import LineBundle, RiemannRochReport, Section, SectionSpace
from nodalcone.cli import CurveSpec
from nodalcone.cone import EMBEDDING_SLOT, GradedReport, WeightEntry
from nodalcone.curve import (
    INFINITY,
    Component,
    DualGraph,
    NodalCurve,
    NodeGluing,
    PointOnLine,
    affine_point,
    paper_example_curve,
)
from nodalcone.embedding import FAILED, AmpleVerdict, CurvePoint

F = Fraction
CURVE = paper_example_curve()
# the same components, with the self-node's branches in the other order
FLIPPED = NodalCurve(CURVE.components, CURVE.nodes[:2] + (NodeGluing(("C2", 2), ("C2", 0)),))
BUNDLE = LineBundle(CURVE, (4, 3, 3), (F(1), F(1), F(1)))
WEIGHT = dict(m=1, t0_formula=10, t0_direct=10, t1_formula=0, t1_direct=0, hilbert=10,
              classification=EMBEDDING_SLOT, euler_note=None)

# (class, every field by keyword, one field, a different value for it)
VALUES = [
    (PointOnLine, dict(coord=F(1, 2)), "coord", F(1, 3)),
    (Component, dict(name="C1", marked_points=(affine_point(0),)), "name", "C2"),
    (NodeGluing, dict(branch_a=("C1", 0), branch_b=("C3", 0)), "branch_b", ("C2", 1)),
    (NodalCurve, dict(components=CURVE.components, nodes=CURVE.nodes), "nodes", FLIPPED.nodes),
    (DualGraph, dict(vertices=("A", "B"), edges=(("A", "B"),)), "edges", (("A", "B"), ("B", "B"))),
    (LineBundle, dict(curve=CURVE, multidegree=(4, 3, 3), gluings=(F(1), F(2), F(1))), "gluings", (F(1),) * 3),
    (Section, dict(coeffs=((F(1), F(2)), ())), "coeffs", ((F(1), F(3)), ())),
    (SectionSpace, dict(bundle=BUNDLE, integral_basis=()), "integral_basis", (((((0, 1),), (), ()), 1),)),
    (RiemannRochReport, dict(h0=10, h1=0, degree=10, genus=1), "h1", 1),
    (CurvePoint, dict(component="C1", coord=affine_point(5), node=None, branch=None), "coord", INFINITY),
    (AmpleVerdict, dict(status=FAILED, witness="all sections vanish at node:0", samples_checked=3), "samples_checked", 4),
    (WeightEntry, WEIGHT, "t0_direct", 11),
    (GradedReport, dict(curve_id="c", bundle_id="b", entries=(WeightEntry(**WEIGHT),)), "entries", ()),
    (CurveSpec, dict(curve=CURVE, multidegree=(4, 3, 3), gluings=(F(1),) * 3), "curve", FLIPPED),
]


@pytest.mark.parametrize("cls, fields, name, other", VALUES, ids=[case[0].__name__ for case in VALUES])
def test_values_compare_and_hash_by_their_fields_and_refuse_assignment(cls, fields, name, other):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert [getattr(value, f) for f in fields] == list(fields.values())
    assert cls(**{**fields, name: other}) != value
    with pytest.raises(AttributeError):
        setattr(value, name, other)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) == fields[name]
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)


def test_constructors_default_and_coerce_their_fields():
    assert PointOnLine() == INFINITY and PointOnLine().coord is None
    assert Component("C1").marked_points == ()
    assert NodalCurve((Component("C1"),)).nodes == ()
    assert CurvePoint() == CurvePoint(component=None, coord=None, node=None, branch=None)
    assert PointOnLine("-3/6").coord == F(-1, 2) and type(PointOnLine(2).coord) is Fraction
    with pytest.raises(TypeError):
        PointOnLine(0.5)
    assert Component("C1", [INFINITY]).marked_points == (INFINITY,)
    assert NodeGluing(("C1", 0), ["C3", 0]) == NodeGluing(("C1", 0), ("C3", 0))
    bundle = LineBundle(CURVE, [4, 3, 3], ["1", 1, F(1)])
    assert bundle == BUNDLE and type(bundle.multidegree) is tuple
    # integers are not coerced: a float or a string index or degree raises
    with pytest.raises(TypeError):
        NodeGluing(("C1", "0"), ["C3", 0.0])
    with pytest.raises(TypeError):
        LineBundle(CURVE, [4.0, 3, 3], ["1", 1, F(1)])
    assert Section([[1, "1/2"], []]).coeffs == ((F(1), F(1, 2)), ())
