"""Projective embedding checks for line bundles on nodal curves.

Global generation and very ampleness each have two modes: a degree
criterion on the multidegree (min degree 2, respectively 3) and a
direct mode on a deterministic sample set: every node, plus seeded
pseudo-random affine points on each component. A direct test asks for
a nonzero evaluation row (generation) or for two independent rows,
point against point or value against jet (separation); exact 2 x 2
minors decide independence, without a rank. Random sampling can only
ever refute; the criterion is what certifies.

Every check takes the section space its caller holds (the verdicts,
the point-level tests, node bookkeeping and the multiplication map),
so a bundle is eliminated once however many checks and points use it.

The multiplication map Sym^m H0(L) -> H0(L^m) is assembled in the
canonical section bases on both sides, monomials ordered graded-lex
over basis indices. No system is solved: the target basis is the
identity on the free columns of the target's gluing rref, so a
product's coordinates are its entries at those columns, valid once an
exact node-by-node check has shown the product is a global section.
Products and that check run on integer numerators over a common
denominator (see ``bundles``); only the entries read off become
Fractions.
Its kernel at m = 2 is the space of quadrics through the embedded
curve; the rank of their Jacobian at points of the affine cone is
exposed as a probe. The probe is a heuristic: it reflects the quadrics
alone, which are not known here to generate the full ideal, so no
smoothness verdict is derived from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement

from .bundles import (
    SectionSpace,
    _convolve,
    _glues,
    _integral,
    poly_jet,
    poly_value,
    power,
    section_basis,
    section_satisfies_gluing,
)
from .curve import NodalCurve, PointOnLine, affine_point
from .exactlin import MatrixQ, VectorQ, as_scalar, kernel_basis, rank

_ZERO = Fraction(0)

SAMPLE_SEED = 1105
_MAX_NUMERATOR = 24
_MAX_DENOMINATOR = 5
_SAMPLE_POOL = frozenset(
    Fraction(n, q)
    for n in range(-_MAX_NUMERATOR, _MAX_NUMERATOR + 1)
    for q in range(1, _MAX_DENOMINATOR + 1)
)

CRITERION_SATISFIED = "criterion-satisfied"
VERIFIED_ON_SAMPLES = "verified-on-samples"
FAILED = "failed"


@dataclass(frozen=True)
class CurvePoint:
    """A closed point of the curve: smooth on a named component, or a node.

    Smooth points must not sit at marked points (those are the nodes);
    node points may carry a branch selector (0 or 1) for branch-local
    jet tests, and default to branch 0 where one trivialization must be
    chosen.
    """

    component: str | None = None
    coord: PointOnLine | None = None
    node: int | None = None
    branch: int | None = None

    @classmethod
    def smooth(cls, component: str, coord) -> "CurvePoint":
        point = coord if isinstance(coord, PointOnLine) else affine_point(coord)
        return cls(component=component, coord=point)

    @classmethod
    def at_node(cls, node_index: int, branch: int | None = None) -> "CurvePoint":
        return cls(node=node_index, branch=branch)

    @property
    def is_node(self) -> bool:
        return self.node is not None

    def __str__(self) -> str:
        if self.is_node:
            suffix = "" if self.branch is None else f"/branch:{self.branch}"
            return f"node:{self.node}{suffix}"
        return f"{self.component}:{self.coord}"


def _check_point(curve: NodalCurve, x: CurvePoint) -> None:
    if x.is_node:
        if not 0 <= x.node < len(curve.nodes):
            raise ValueError(f"node index {x.node} outside 0..{len(curve.nodes) - 1}")
        if x.branch not in (None, 0, 1):
            raise ValueError(f"branch selector must be 0 or 1, got {x.branch!r}")
        return
    if x.component is None or x.coord is None:
        raise ValueError("smooth points need a component name and a coordinate")
    comp = curve.component(x.component)
    if x.coord in comp.marked_points:
        raise ValueError(
            f"{x.coord} is a marked point of {x.component}; address it as a node point"
        )


def _branch_site(curve: NodalCurve, x: CurvePoint) -> tuple[int, PointOnLine]:
    """Component index and coordinate where a point is evaluated.

    A node point is read off ``curve.sites`` at the branch it selects,
    branch 0 when it selects none, in that branch's trivialization.
    """
    if x.is_node:
        ci, _, point = curve.sites[x.node][x.branch or 0]
        return ci, point
    return curve.component_index(x.component), x.coord


def _evaluation_vector(space: SectionSpace, x: CurvePoint) -> VectorQ:
    ci, point = _branch_site(space.bundle.curve, x)
    return tuple(poly_value(s.coeffs[ci], point) for s in space.basis)


def _jet_vector(space: SectionSpace, x: CurvePoint) -> VectorQ:
    ci, point = _branch_site(space.bundle.curve, x)
    return tuple(poly_jet(s.coeffs[ci], point) for s in space.basis)


def sample_points(curve: NodalCurve, extra_per_component: int = 5, seed: int = SAMPLE_SEED) -> tuple[CurvePoint, ...]:
    """Deterministic sample set: all nodes, then seeded affine points.

    The pseudo-random points avoid marked points and repeats within a
    component. Identical arguments give an identical tuple, so witness
    order and every downstream report are reproducible. They are drawn
    from the finite pool ``n/q`` with ``|n| <= 24``, ``1 <= q <= 5``, so
    a request that is negative or exceeds a component's free share of
    the pool raises ``ValueError`` instead of drawing forever.
    """
    rng = random.Random(seed)
    points = [CurvePoint.at_node(k) for k in range(len(curve.nodes))]
    for comp in curve.components:
        taken = {p.coord for p in comp.marked_points if not p.is_infinity}
        free = len(_SAMPLE_POOL - taken)
        if not 0 <= extra_per_component <= free:
            raise ValueError(
                f"component {comp.name} takes 0..{free} extra sample points, "
                f"{extra_per_component} requested"
            )
        chosen: list[Fraction] = []
        while len(chosen) < extra_per_component:
            candidate = Fraction(rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR))
            if candidate in taken or candidate in chosen:
                continue
            chosen.append(candidate)
            points.append(CurvePoint.smooth(comp.name, candidate))
    return tuple(points)


@dataclass(frozen=True)
class AmpleVerdict:
    """Outcome of a positivity check.

    ``status`` is one of criterion-satisfied, verified-on-samples or
    failed; ``witness`` describes the first failing test in sample order
    when status is failed; ``samples_checked`` counts the individual
    direct tests that ran.
    """

    status: str
    witness: str | None
    samples_checked: int


def globally_generated(space: SectionSpace, extra_samples: int = 5, seed: int = SAMPLE_SEED) -> AmpleVerdict:
    """Criterion: min degree >= 2. Direct mode: no sample point where
    every section vanishes. A bundle without sections fails outright."""
    if len(space.basis) < 1:
        return AmpleVerdict(FAILED, "no global sections (h0 = 0)", 0)
    samples = sample_points(space.bundle.curve, extra_samples, seed)
    witness = None
    for x in samples:
        values = _evaluation_vector(space, x)
        if all(v == 0 for v in values):
            witness = f"all sections vanish at {x}"
            break
    if witness is not None:
        return AmpleVerdict(FAILED, witness, len(samples))
    criterion = min(space.bundle.multidegree) >= 2
    status = CRITERION_SATISFIED if criterion else VERIFIED_ON_SAMPLES
    return AmpleVerdict(status, None, len(samples))


def _independent(u: VectorQ, v: VectorQ) -> bool:
    """Whether the 2 x n matrix with rows u and v has rank 2: u is
    nonzero and v is not a multiple of u, i.e. some minor
    ``u[k] v[j] - u[j] v[k]`` is nonzero, k the first nonzero entry of
    u. O(n) exact products, no division."""
    k = next((i for i, a in enumerate(u) if a != 0), None)
    if k is None:
        return False
    uk, vk = u[k], v[k]
    return any(uk * b != a * vk for a, b in zip(u, v))


def _jet_tests(space: SectionSpace, x: CurvePoint):
    """Yield ``(witness, value row, jet row)`` for each first-order test
    at x: one at a smooth point, one per branch at a node without a
    branch selector, and the selected branch's at a node with one."""
    if not x.is_node:
        yield f"jet test fails at {x}", _evaluation_vector(space, x), _jet_vector(space, x)
        return
    for b in (0, 1) if x.branch is None else (x.branch,):
        at = CurvePoint.at_node(x.node, b)
        yield f"jet test fails on branch {b} of {x}", _evaluation_vector(space, at), _jet_vector(space, at)


def separates_points(space: SectionSpace, x: CurvePoint, y: CurvePoint) -> bool:
    """Whether sections map x and y to distinct projective points.

    Equivalent statement: the 2 x h0 matrix of basis evaluations has
    rank 2, i.e. restriction to the two points is onto.
    """
    if len(space.basis) < 2:
        raise ValueError("need at least two sections to separate points")
    _check_point(space.bundle.curve, x)
    _check_point(space.bundle.curve, y)
    if x == y:
        raise ValueError("the two points must be distinct")
    return _independent(_evaluation_vector(space, x), _evaluation_vector(space, y))


def separates_jets(space: SectionSpace, x: CurvePoint) -> bool:
    """Whether sections surject onto first-order data at x: the value
    row and the jet row are independent. At a node the test is
    branch-local, and both branches must pass unless x selects one.
    """
    if len(space.basis) < 2:
        raise ValueError("need at least two sections to separate jets")
    _check_point(space.bundle.curve, x)
    return all(_independent(u, v) for _, u, v in _jet_tests(space, x))


def very_ample(space: SectionSpace, extra_samples: int = 5, seed: int = SAMPLE_SEED) -> AmpleVerdict:
    """Criterion: min degree >= 3. Direct mode: separation of all sample
    pairs, each sample evaluated once, then jets at every sample point
    (branch by branch at nodes), as one ordered stream of tests.

    The witness is the first failing test; ``samples_checked`` counts
    the tests run up to it, node branches individually. A bundle with
    fewer than two sections fails outright, after no tests.
    """
    if len(space.basis) < 2:
        return AmpleVerdict(FAILED, f"fewer than two global sections (h0 = {len(space.basis)})", 0)
    samples = sample_points(space.bundle.curve, extra_samples, seed)
    values = [_evaluation_vector(space, x) for x in samples]
    pairs = (
        (f"sections do not separate {samples[i]} and {samples[j]}", values[i], values[j])
        for i, j in combinations(range(len(samples)), 2)
    )
    jets = (test for x in samples for test in _jet_tests(space, x))
    checked = 0
    for checked, (witness, u, v) in enumerate(chain(pairs, jets), start=1):
        if not _independent(u, v):
            return AmpleVerdict(FAILED, witness, checked)
    criterion = min(space.bundle.multidegree) >= 3
    status = CRITERION_SATISFIED if criterion else VERIFIED_ON_SAMPLES
    return AmpleVerdict(status, None, checked)


def embed_point(space: SectionSpace, x: CurvePoint) -> VectorQ:
    """Projective coordinates of x under the canonical section basis.

    Node points evaluate through branch 0 by default; branch 1 returns
    the same projective point, rescaled by the inverse gluing scalar.
    """
    _check_point(space.bundle.curve, x)
    values = _evaluation_vector(space, x)
    if all(v == 0 for v in values):
        raise ValueError(f"every section vanishes at {x}; the bundle is not globally generated there")
    return values


def node_images_consistent(space: SectionSpace) -> bool:
    """Exact branch bookkeeping check at every node.

    The basis evaluation vector through branch a must equal the gluing
    scalar times the vector through branch b, entry by entry: every
    basis section satisfies every node constraint.
    """
    return all(section_satisfies_gluing(space.bundle, s) for s in space.basis)


def sym_monomials(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Degree-m monomials in n variables as sorted index tuples,
    graded-lex order (the order combinations_with_replacement emits)."""
    return tuple(combinations_with_replacement(range(n), m))


def multiplication_map(space: SectionSpace, m: int) -> MatrixQ:
    """Matrix of Sym^m H0(L) -> H0(L^m) in the canonical bases, with L
    the bundle of ``space``.

    Columns follow ``sym_monomials(h0, m)``; each column is the product
    of the chosen basis sections, expressed in the canonical basis of
    the target. Surjectivity is ``rank == h0(L^m)``. The degree-(m - 1)
    products are built once and held; each column's product is one more
    multiplication of its prefix, so the degree-m products are never
    all held at once.

    The basis is converted once to integer numerators over one common
    denominator per section, and a product multiplies numerators and
    denominators apart. Each product is first checked exactly against
    every node constraint of ``L^m``, on integers with every denominator
    cleared. Once it is known to be a global section, its coordinates
    are its entries at the target space's free columns, where the target
    basis is the identity, each read off as ``Fraction(numerator,
    denominator)``. A product failing the check would mean the
    gluing bookkeeping is broken, and raises ``ArithmeticError`` rather
    than reading off coordinates that do not reproduce it.
    """
    if m < 1:
        raise ValueError("multiplication maps are defined for m >= 1")
    target = power(space.bundle, m)
    target_space = section_basis(target)
    basis = [_integral(s) for s in space.basis]
    prefixes = {(i,): s for i, s in enumerate(basis)}
    for j in range(2, m):
        prefixes = {p: _convolve(prefixes[p[:-1]], basis[p[-1]]) for p in sym_monomials(len(basis), j)}
    columns = []
    for mono in sym_monomials(len(basis), m):
        blocks, den = _convolve(prefixes[mono[:-1]], basis[mono[-1]]) if m > 1 else basis[mono[0]]
        if not _glues(target, blocks):
            raise ArithmeticError(
                f"product for monomial {mono} is not a global section of the target; "
                "gluing bookkeeping is broken"
            )
        # a product's blocks have the target's widths: m*d + 1, or empty for d < 0
        flat = tuple(chain.from_iterable(blocks))
        entries = (flat[c] for c in target_space.free_columns)
        # most entries are zero; they share one Fraction instead of one each
        columns.append(tuple(Fraction(n, den) if n else _ZERO for n in entries))
    return MatrixQ.from_columns(columns, rows=len(target_space.basis))


def quadric_ideal(m2: MatrixQ) -> tuple[VectorQ, ...]:
    """Canonical basis of quadrics through the embedded curve.

    Takes the m = 2 multiplication map, so a caller that also reports
    the map builds it once. Coefficient vectors over
    ``sym_monomials(h0, 2)``; the kernel of that map. For an
    h0-dimensional section space the count is ``C(h0 + 1, 2) - rank``.
    """
    return tuple(kernel_basis(m2))


def quadric_value(quadric, coords) -> Fraction:
    """Value of a quadric coefficient vector at affine coordinates."""
    values = [as_scalar(c) for c in coords]
    n = len(values)
    monos = sym_monomials(n, 2)
    if len(quadric) != len(monos):
        raise ValueError(f"quadric length {len(quadric)} does not match {len(monos)} monomials")
    acc = _ZERO
    for coeff, (i, j) in zip(quadric, monos):
        if coeff != 0:
            acc += as_scalar(coeff) * values[i] * values[j]
    return acc


def cone_point(space: SectionSpace, x: CurvePoint, scale=1) -> VectorQ:
    """A point of the affine cone over the embedded curve: a scalar
    multiple of the section-basis evaluation vector."""
    s = as_scalar(scale)
    return tuple(s * v for v in embed_point(space, x))


def cone_jacobian_rank(quadrics, coords) -> int:
    """Rank of the Jacobian of the given quadrics at an affine point.

    Heuristic singularity probe: it sees only the quadrics handed in
    (normally the degree-2 part of the ideal), so a rank drop locates
    candidate singular points but proves nothing about smoothness.
    """
    values = [as_scalar(c) for c in coords]
    n = len(values)
    monos = sym_monomials(n, 2)
    rows = []
    for q in quadrics:
        if len(q) != len(monos):
            raise ValueError(f"quadric length {len(q)} does not match {len(monos)} monomials")
        grad = [_ZERO] * n
        for coeff, (i, j) in zip(q, monos):
            if coeff == 0:
                continue
            c = as_scalar(coeff)
            if i == j:
                grad[i] += 2 * c * values[i]
            else:
                grad[i] += c * values[j]
                grad[j] += c * values[i]
        rows.append(grad)
    return rank(MatrixQ.from_rows(rows, cols=n))
