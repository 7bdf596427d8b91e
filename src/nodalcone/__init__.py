"""Exact-arithmetic toolkit for nodal curves glued from projective lines.

Build curves out of marked projective lines and node gluings, compute
section spaces of line bundles as kernels of an exact gluing matrix,
check projective embeddings, and tabulate the graded deformation
dimensions of the affine cone over the embedded curve. Arithmetic is
over ``fractions.Fraction``, apart from section products and node
checks, which run on integer numerators over a common denominator;
results are exact and deterministic.
"""

__version__ = "0.1.0"

from .exactlin import MatrixQ, as_scalar, kernel_basis, rank, rref
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
    branch_value_matrix,
    cohomology,
    component_h0,
    component_h1,
    dual,
    dualizing_bundle,
    evaluate_section,
    evaluation_row,
    gluing_matrix,
    h0,
    h1_direct,
    jet_row,
    line_bundle,
    multiply_sections,
    power,
    riemann_roch_report,
    section_basis,
    serre_duality_check,
    tangent_bundle,
    tensor,
    trivial_bundle,
)
from .embedding import (
    AmpleVerdict,
    CurvePoint,
    cone_jacobian_rank,
    embed_point,
    globally_generated,
    multiplication_map,
    quadric_ideal,
    sample_points,
    separates_jets,
    separates_points,
    very_ample,
)
from .cone import (
    GradedReport,
    WeightEntry,
    deformation_bundle,
    graded_report,
    hilbert_function,
    t0_dim,
    t1_dim,
)
