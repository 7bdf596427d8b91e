"""Exact-arithmetic toolkit for nodal curves glued from projective lines.

Build curves out of marked projective lines and node gluings, compute
section spaces of line bundles as kernels of an exact gluing matrix,
check projective embeddings, and tabulate the graded deformation
dimensions of the affine cone over the embedded curve. Arithmetic is
over ``fractions.Fraction``, apart from the section values, jets and
separation tests, the section products, the node checks and the
quadrics' vanishing check and Jacobian probe. These run on integer
numerators over a common denominator; clearing a positive denominator
changes neither which values or 2 x 2 minors vanish nor a Jacobian's
rank, so the verdicts are the same. The m = 3 multiplication map is
proved onto by Castelnuovo's base-point-free pencil trick, with no
cubic built, where its hypotheses hold, each checked exactly: the m = 2
map onto, H1(L) = 0 and a pencil with no common zero. Elsewhere its
rank is taken mod one fixed prime where that proves the map onto, and
over Q from the same integers where it does not; so is each of the
probe's Jacobian ranks, bounded by vectors checked exactly to be in its
kernel. The quadrics are the m = 2 map's kernel, taken over Q from the
same integers. Results are exact and deterministic.
"""

__version__ = "0.1.0"

from .exactlin import MatrixQ, as_scalar, kernel_basis, rank
from .curve import (
    Component,
    DualGraph,
    INFINITY,
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
from .bundles import (
    LineBundle,
    RiemannRochReport,
    Section,
    SectionSpace,
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
from .embedding import (
    CRITERION_SATISFIED,
    AmpleVerdict,
    CurvePoint,
    embed_point,
    globally_generated,
    multiplication_map,
    quadric_ideal,
    quadric_value,
    sample_points,
    separates_jets,
    separates_points,
    very_ample,
)
from .cone import (
    DIRECT,
    FORMULA,
    GradedReport,
    WeightEntry,
    deformation_bundle,
    graded_report,
    t0_dim,
    t1_dim,
)

# The library API: the names README's "Library use" section lists.
__all__ = [
    # exactlin
    "MatrixQ", "as_scalar", "kernel_basis", "rank",
    # curve
    "Component", "DualGraph", "INFINITY", "InvalidCurveError", "NodalCurve", "NodeGluing", "PointOnLine",
    "affine_point", "arithmetic_genus", "betti_1", "dual_graph", "jacobian_dimension", "paper_example_curve",
    "validate",
    # bundles
    "LineBundle", "RiemannRochReport", "Section", "SectionSpace", "cohomology", "component_h0", "component_h1",
    "dual", "dualizing_bundle", "gluing_matrix", "h0", "h1_direct", "line_bundle", "power", "riemann_roch_report",
    "section_basis", "serre_duality_check", "tangent_bundle", "tensor",
    # embedding
    "CRITERION_SATISFIED", "AmpleVerdict", "CurvePoint", "embed_point", "globally_generated", "multiplication_map",
    "quadric_ideal", "quadric_value", "sample_points", "separates_jets", "separates_points", "very_ample",
    # cone
    "DIRECT", "FORMULA", "GradedReport", "WeightEntry", "deformation_bundle", "graded_report", "t0_dim", "t1_dim",
]
