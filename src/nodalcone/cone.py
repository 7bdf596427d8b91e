"""Graded deformation dimensions of the affine cone over an embedded curve.

For a curve X embedded by a bundle L, the weight-m graded piece of the
cone's deformation theory is controlled by the twist
``F_m = T (x) L^m`` of the tangent bundle T (realized as the inverse of
the dualizing bundle). This module tabulates, per integer weight m:

- ``t0``: first-order automorphisms, ``h0(F_m)``;
- ``t1``: first-order deformations, ``h1(F_m)``;
- the Hilbert function ``h0(L^m)`` of the cone's coordinate ring.

Each of t0 and t1 comes in two modes. Direct mode computes the
cohomology of F_m outright. Formula mode is the closed form for a
degree-D very ample bundle on a genus-1 curve of this kind:
``t0 = D * m`` for m >= 1 and 0 otherwise, ``t1 = -D * m`` for m <= -1
and 0 otherwise. The report never blends the two: both values are
recorded per weight with an explicit discrepancy flag, and weight 0,
where the closed form asserts generic vanishing while the concrete
curve can carry an actual section, is annotated rather than patched.

Negative weights are smoothing directions, weight 0 is the equisingular
slot, positive weights deform the embedding.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .bundles import LineBundle, power, tangent_bundle, tensor, twisted_cohomology
from .curve import NodalCurve, arithmetic_genus

SMOOTHING = "smoothing"
EQUISINGULAR_SLOT = "equisingular-slot"
EMBEDDING_SLOT = "embedding-slot"

FORMULA = "formula"
DIRECT = "direct"

_EULER_NOTE = (
    "formula mode assumes generic gluing data, where the twist carries no "
    "global sections at weight 0; the Euler derivation would contribute one "
    "more weight-0 automorphism if counted. Direct values are reported "
    "verbatim and may legitimately differ."
)


def deformation_bundle(curve: NodalCurve, bundle: LineBundle, m: int) -> LineBundle:
    """The weight-m twist ``tangent (x) L^m``."""
    if bundle.curve != curve:
        raise ValueError("bundle lives on a different curve")
    return tensor(tangent_bundle(curve), power(bundle, m))


def _check_mode(mode: str) -> None:
    if mode not in (FORMULA, DIRECT):
        raise ValueError(f"mode must be {FORMULA!r} or {DIRECT!r}, got {mode!r}")


def _formula(total: int, m: int) -> tuple[int, int]:
    """The closed form's ``(t0, t1)`` at weight m for a bundle of degree ``total``."""
    return total * m if m >= 1 else 0, -total * m if m <= -1 else 0


def _dims(curve: NodalCurve, bundle: LineBundle, m: int, mode: str) -> tuple[int, int]:
    """``(t0, t1)`` at weight m in ``mode``, once the weight, the mode and
    the bundle's curve are checked, in that order."""
    m = operator.index(m)
    _check_mode(mode)
    if bundle.curve != curve:
        raise ValueError("bundle lives on a different curve")
    if mode == FORMULA:
        return _formula(bundle.degree(), m)
    return twisted_cohomology(curve, bundle.multidegree, bundle.pairs, m, tangent_bundle(curve))


def t0_dim(curve: NodalCurve, bundle: LineBundle, m: int, mode: str = DIRECT) -> int:
    """Weight-m first-order automorphism dimension of the cone: in direct
    mode h0 of ``tangent (x) L^m``, with no bundle built for it."""
    return _dims(curve, bundle, m, mode)[0]


def t1_dim(curve: NodalCurve, bundle: LineBundle, m: int, mode: str = DIRECT) -> int:
    """Weight-m first-order deformation dimension of the cone: in direct
    mode h1 of ``tangent (x) L^m``, with no bundle built for it."""
    return _dims(curve, bundle, m, mode)[1]


class WeightEntry(NamedTuple):
    m: int
    t0_formula: int
    t0_direct: int
    t1_formula: int
    t1_direct: int
    hilbert: int
    classification: str
    euler_note: str | None

    @property
    def discrepancy(self) -> bool:
        return self.t0_formula != self.t0_direct or self.t1_formula != self.t1_direct


class GradedReport(NamedTuple):
    curve_id: str
    bundle_id: str
    entries: tuple[WeightEntry, ...]


def graded_report(
    curve: NodalCurve, bundle: LineBundle, m_min: int, m_max: int, *, tangent: LineBundle | None = None
) -> GradedReport:
    """Weight-by-weight table over ``m_min <= m <= m_max``.

    Requires ``m_min <= 0 <= m_max`` so the table always shows all three
    regimes. Formula and direct values are both present in every row;
    nothing is reconciled silently. No bundle is built per weight: each
    weight is two ``twisted_cohomology`` calls on L's degrees and scalar
    pairs, F_m with T as twist and L^m with none. T is ``tangent``, a
    caller's ``tangent_bundle(curve)`` (the dual of a dualizing bundle it
    holds), or else built once here. Every branch row comes from the
    curve's one table, so each is built once per curve, not per weight.
    """
    if not m_min <= 0 <= m_max:
        raise ValueError("range must contain 0: need m_min <= 0 <= m_max")
    if bundle.curve != curve:
        raise ValueError("bundle lives on a different curve")
    if tangent is None:
        tangent = tangent_bundle(curve)
    elif tangent.curve != curve:
        raise ValueError("tangent bundle lives on a different curve")
    l, g = bundle.multidegree, bundle.pairs
    total = bundle.degree()
    entries = []
    for m in range(m_min, m_max + 1):
        t0_direct, t1_direct = twisted_cohomology(curve, l, g, m, tangent)
        t0_formula, t1_formula = _formula(total, m)
        if m < 0:
            classification = SMOOTHING
        elif m == 0:
            classification = EQUISINGULAR_SLOT
        else:
            classification = EMBEDDING_SLOT
        entries.append(
            WeightEntry(
                m=m,
                t0_formula=t0_formula,
                t0_direct=t0_direct,
                t1_formula=t1_formula,
                t1_direct=t1_direct,
                hilbert=twisted_cohomology(curve, l, g, m)[0],
                classification=classification,
                euler_note=_EULER_NOTE if m == 0 else None,
            )
        )
    genus = arithmetic_genus(curve)
    curve_id = f"curve[{len(curve.components)} components, {len(curve.nodes)} nodes, genus {genus}]"
    bundle_id = f"bundle[multidegree {bundle.multidegree}, total degree {total}]"
    return GradedReport(curve_id, bundle_id, tuple(entries))
