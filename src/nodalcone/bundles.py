"""Line bundles on nodal curves: sections, cohomology, duality.

A line bundle is a multidegree (one integer per component) plus one
nonzero gluing scalar per node. Its sections are tuples of polynomials,
one per component: on a component of degree ``d >= 0`` a section is a
coefficient vector ``(a_0, ..., a_d)`` for ``a_0 + a_1 t + ... + a_d t^d``,
and on a component of negative degree the zero polynomial, stored as an
empty vector. The trivialization at infinity is the standard one for
the chart ``u = 1/t``: evaluation at infinity reads off the leading
coefficient ``a_d`` and the first-order jet there reads off ``a_{d-1}``.

A global section must satisfy one linear constraint per node: with the
node's branches at marked points p (on component i) and q (on component
j), and gluing scalar g,

    value of the i-th polynomial at p  =  g * value of the j-th at q.

Stacking these rows gives the gluing matrix G; the section space is its
kernel and ``h1`` comes from its corank plus the classical line-bundle
contributions of the components. Both are exact integers computed over
Fraction arithmetic, never estimated.

Products of sections and the node check run on a section's integer
form instead: per component, its integer numerators over one common
positive denominator (``_integral``). Convolution then needs no gcd at
each step. The node check clears the denominators of the branch
coordinates and of the gluing scalar by homogeneous Horner (``_glues``),
so it compares integers and stays exact. ``multiply_sections`` and
``section_satisfies_gluing`` are thin wrappers over these helpers.

Only the rank of G enters ``h0`` and ``h1``, and G factors as ``A * E``:
E evaluates each component's polynomial at its marked points (the
branch values), A forms ``value at p - g * value at q`` per node. So
rank G is the rank of A on the image of E, and that image splits by
component. On a component of degree ``d >= n - 1`` with n marked
points, evaluation is onto all n values: Lagrange interpolation at the
affine points, and with a point at infinity, fix the leading coefficient
to its value there and interpolate the rest in degree ``<= d - 1``
through the ``n - 1 <= d`` affine points. Its image is spanned by unit
vectors, each of which A sends to a nonzero multiple of one node's unit
column. A component of degree ``0 <= d < n - 1`` keeps its block of G,
and one of negative degree contributes nothing. The branch-value matrix
collects these columns: the same rank as G from at most ``2 * #nodes``
columns of small entries, however large the degrees.

The dualizing bundle is realized concretely: on a component whose
branch points are D, with A the affine ones among them, a section of it
is the differential ``f(t) dt / prod_{p in A} (t - p)`` with
``deg f <= |D| - 2``, and the node constraints say that residues at the
two branches of each node sum to zero. The residue at an affine p is
``f(p) / c_p`` with ``c_p = prod_{p' in A, p' != p} (p - p')``. When
infinity is in D, ``|A| = |D| - 1``; in the chart ``u = 1/t`` the
differential is ``-f(1/u) u^(|A| - 2) du / prod_{p in A} (1 - p u)``,
whose ``du / u`` coefficient is ``-a_{|A|-1}``: minus the value at
infinity in the trivialization above, so ``c_inf = -1``. (Without a
point at infinity, ``deg f <= |A| - 2`` leaves no pole there.) Either
way a residue is the value divided by its cofactor, so the gluing
scalar at a node with branches (i, p), (j, q) is ``-c_p / c_q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .curve import NodalCurve, PointOnLine, Site
from .exactlin import MatrixQ, VectorQ, as_scalar, free_columns, kernel_from_rref, rank, rref

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LineBundle:
    """Multidegree plus one nonzero gluing scalar per node of the curve."""

    curve: NodalCurve
    multidegree: tuple[int, ...]
    gluings: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        degrees = tuple(int(d) for d in self.multidegree)
        object.__setattr__(self, "multidegree", degrees)
        scalars = tuple(as_scalar(g) for g in self.gluings)
        object.__setattr__(self, "gluings", scalars)
        if len(degrees) != len(self.curve.components):
            raise ValueError(
                f"multidegree has {len(degrees)} entries for "
                f"{len(self.curve.components)} components"
            )
        if len(scalars) != len(self.curve.nodes):
            raise ValueError(
                f"{len(scalars)} gluing scalars for {len(self.curve.nodes)} nodes"
            )
        for k, g in enumerate(scalars):
            if g == 0:
                raise ValueError(f"gluing scalar at node {k} is zero")

    def degree(self) -> int:
        return sum(self.multidegree)


def line_bundle(curve: NodalCurve, multidegree, gluings=None) -> LineBundle:
    """Build a bundle; gluing scalars default to 1 at every node."""
    if gluings is None:
        gluings = (_ONE,) * len(curve.nodes)
    return LineBundle(curve, tuple(multidegree), tuple(gluings))


def trivial_bundle(curve: NodalCurve) -> LineBundle:
    return line_bundle(curve, (0,) * len(curve.components))


def component_h0(d: int) -> int:
    """Sections of O(d) on one projective line: d + 1 for d >= 0, else 0."""
    return d + 1 if d >= 0 else 0


def component_h1(d: int) -> int:
    """h1 of O(d) on one projective line: -d - 1 for d <= -2, else 0."""
    return -d - 1 if d <= -2 else 0


def evaluation_row(d: int, p: PointOnLine) -> VectorQ:
    """Row of the evaluation functional on degree <= d polynomials.

    Affine p gives ``(1, p, p^2, ..., p^d)``; infinity selects the
    leading coefficient. Negative d has no coefficient slots at all, so
    it is a caller error rather than an empty row.
    """
    if d < 0:
        raise ValueError("no evaluation row on a negative-degree component")
    if p.is_infinity:
        return tuple(_ZERO for _ in range(d)) + (_ONE,)
    acc = _ONE
    out = []
    for _ in range(d + 1):
        out.append(acc)
        acc = acc * p.coord
    return tuple(out)


def jet_row(d: int, p: PointOnLine) -> VectorQ:
    """Row of the first-order jet functional at p on degree <= d polynomials.

    Affine p: the formal derivative, ``(0, 1, 2p, ..., d p^{d-1})``.
    Infinity: in the chart u = 1/t a section reads ``sum a_k u^{d-k}``,
    whose derivative at u = 0 is ``a_{d-1}``, so the row selects that
    coefficient. Degree 0 bundles have no first-order data, hence d >= 1.
    """
    if d <= 0:
        raise ValueError("jet rows need degree at least 1")
    if p.is_infinity:
        return tuple(_ONE if k == d - 1 else _ZERO for k in range(d + 1))
    out = [_ZERO]
    power = _ONE
    for k in range(1, d + 1):
        out.append(k * power)
        power = power * p.coord
    return tuple(out)


def poly_value(coeffs: VectorQ, p: PointOnLine) -> Fraction:
    """Value of a coefficient vector at p; an empty block is the zero section."""
    if not coeffs:
        return _ZERO
    if p.is_infinity:
        return coeffs[-1]
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * p.coord + c
    return acc


def poly_jet(coeffs: VectorQ, p: PointOnLine) -> Fraction:
    """First-order jet of a coefficient vector at p; zero when the block
    has no degree-1 data (length < 2)."""
    if len(coeffs) < 2:
        return _ZERO
    if p.is_infinity:
        return coeffs[-2]
    acc = _ZERO
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * p.coord + k * coeffs[k]
    return acc


def block_widths(bundle: LineBundle) -> tuple[int, ...]:
    """Coefficient-vector length per component: ``max(0, d + 1)``."""
    return tuple(max(0, d + 1) for d in bundle.multidegree)


def gluing_matrix(bundle: LineBundle) -> MatrixQ:
    """One row per node over the concatenated coefficient blocks.

    The row is the branch-a evaluation minus the gluing scalar times the
    branch-b evaluation. Blocks of negative-degree components have width
    zero, so a branch landing there simply contributes nothing; for a
    self-node both contributions land in the same block.
    """
    return _node_matrix(bundle, frozenset())


def branch_value_matrix(bundle: LineBundle) -> MatrixQ:
    """A matrix with the rank of the gluing matrix and at most
    ``2 * #nodes`` columns.

    A component whose degree is at least its number of marked points
    minus one contributes one unit column per marked point, set in the
    row of the node that point belongs to; every other component keeps
    its gluing-matrix block. See the module docstring for why the rank
    is unchanged.
    """
    onto = frozenset(
        i
        for i, (comp, d) in enumerate(zip(bundle.curve.components, bundle.multidegree))
        if d >= 0 and d >= len(comp.marked_points) - 1
    )
    return _node_matrix(bundle, onto)


def _node_matrix(bundle: LineBundle, onto: frozenset[int]) -> MatrixQ:
    """Node rows over the component blocks, at the branch sites of
    ``curve.sites``; a component in ``onto`` gets one unit column per
    marked point instead of its coefficient block."""
    curve = bundle.curve
    widths = tuple(
        len(comp.marked_points) if i in onto else w
        for i, (comp, w) in enumerate(zip(curve.components, block_widths(bundle)))
    )
    offsets = tuple(accumulate(widths, initial=0))
    total = offsets[-1]
    rows = []
    for sites, glue in zip(curve.sites, bundle.gluings):
        row = [_ZERO] * total
        for (ci, k, point), sign_scale in zip(sites, (_ONE, -glue)):
            if widths[ci] == 0:
                continue
            base = offsets[ci]
            if ci in onto:
                row[base + k] = _ONE
                continue
            for j, val in enumerate(evaluation_row(bundle.multidegree[ci], point)):
                row[base + j] += sign_scale * val
        rows.append(row)
    return MatrixQ.from_rows(rows, cols=total)


@dataclass(frozen=True)
class Section:
    """Per-component coefficient vectors; empty vector = zero polynomial."""

    coeffs: tuple[VectorQ, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(tuple(as_scalar(c) for c in block) for block in self.coeffs)
        )


@dataclass(frozen=True)
class SectionSpace:
    """A bundle together with the canonical basis of its global sections.

    Basis order is the canonical kernel order of the gluing matrix, so
    it is deterministic and forms part of downstream contracts (embedding
    coordinates, monomial indexing). ``free_columns`` are the free
    columns of the gluing matrix's rref, in the flattened block layout:
    the basis restricted to them is the identity, so a global section's
    coordinates in this basis are its flattened entries there.
    """

    bundle: LineBundle
    basis: tuple[Section, ...]
    free_columns: tuple[int, ...]


def section_from_vector(bundle: LineBundle, vec) -> Section:
    widths = block_widths(bundle)
    vals = tuple(as_scalar(v) for v in vec)
    if len(vals) != sum(widths):
        raise ValueError(f"vector length {len(vals)} does not match total width {sum(widths)}")
    blocks = []
    at = 0
    for w in widths:
        blocks.append(vals[at : at + w])
        at += w
    return Section(tuple(blocks))


def flatten_section(bundle: LineBundle, section: Section) -> VectorQ:
    """Concatenated coefficient vector in the bundle's block layout.

    Zero blocks (empty vectors) pad out to the bundle's width, which is
    what lets products of sections with collapsed blocks re-enter linear
    algebra at the correct shape.
    """
    widths = block_widths(bundle)
    if len(section.coeffs) != len(widths):
        raise ValueError("section has the wrong number of component blocks")
    flat: list[Fraction] = []
    for w, block in zip(widths, section.coeffs):
        if len(block) == w:
            flat.extend(block)
        elif len(block) == 0:
            flat.extend([_ZERO] * w)
        else:
            raise ValueError(f"block of length {len(block)} does not fit width {w}")
    return tuple(flat)


def section_basis(bundle: LineBundle) -> SectionSpace:
    """Canonical basis of global sections: kernel of the gluing matrix,
    from one rref whose free columns the space keeps."""
    reduced, pivots = rref(gluing_matrix(bundle))
    kernel = kernel_from_rref(reduced, pivots)
    return SectionSpace(
        bundle,
        tuple(section_from_vector(bundle, v) for v in kernel),
        free_columns(reduced, pivots),
    )


def cohomology(bundle: LineBundle) -> tuple[int, int]:
    """``(h0, h1)`` from one rank of the branch-value matrix.

    The normalization exact sequence gives
    ``h0 = sum_i h0(O(d_i)) - rank`` and
    ``h1 = (#nodes - rank) + sum_i h1(O(d_i))``, where rank is that of
    the gluing matrix, equal to the branch-value matrix's.
    """
    r = rank(branch_value_matrix(bundle))
    return (
        sum(block_widths(bundle)) - r,
        len(bundle.curve.nodes) - r + sum(component_h1(d) for d in bundle.multidegree),
    )


def h0(bundle: LineBundle) -> int:
    """dim of global sections: total coefficient slots minus the rank of
    the gluing matrix, taken from the branch-value matrix.

    The two ranks agree because a component of degree ``d >= n - 1``
    reaches every tuple of values at its n marked points (at infinity
    the value is the leading coefficient, fixed first, and the rest is
    interpolated through the affine points), so its block may be
    replaced by unit columns.
    """
    return cohomology(bundle)[0]


def h1_direct(bundle: LineBundle) -> int:
    """First cohomology, computed rather than inferred from a formula:
    ``(#nodes - rank) + sum_i h1(O(d_i))``, with the gluing rank taken
    from the branch-value matrix (the same rank; see ``h0``)."""
    return cohomology(bundle)[1]


def evaluate_section(curve: NodalCurve, section: Section, component_name: str, p: PointOnLine) -> Fraction:
    """Value of a section on one component, in that component's trivialization."""
    idx = curve.component_index(component_name)
    block = section.coeffs[idx]
    if not block:
        raise ValueError(
            f"component {component_name} carries negative degree; "
            "the section has no coefficients there"
        )
    return poly_value(block, p)


def multiply_sections(a: Section, b: Section) -> Section:
    """Componentwise polynomial product.

    A section of L' times a section of L'' lies in L' (x) L''; blocks
    multiply by convolution and a zero (empty) factor block collapses
    the product block to empty. The convolution runs on the integer
    forms of the two factors (see ``_integral``).
    """
    if len(a.coeffs) != len(b.coeffs):
        raise ValueError("sections live on curves with different component counts")
    blocks, den = _convolve(_integral(a), _integral(b))
    return Section(tuple(tuple(Fraction(c, den) for c in block) for block in blocks))


def section_satisfies_gluing(bundle: LineBundle, section: Section) -> bool:
    """Exact check of every node constraint for one section, at the
    branch sites of ``curve.sites``, on its integer form (see ``_glues``)."""
    return _glues(bundle, _integral(section)[0])


_IntegralForm = tuple[tuple[tuple[int, ...], ...], int]


def _integral(section: Section) -> _IntegralForm:
    """A section as ``(blocks, den)``: per component a tuple of integer
    numerators over one common positive denominator, the lcm of the
    coefficients' denominators, so ``coeff == Fraction(numerator, den)``
    for every coefficient."""
    den = lcm(*(c.denominator for block in section.coeffs for c in block))
    blocks = tuple(tuple(c.numerator * (den // c.denominator) for c in block) for block in section.coeffs)
    return blocks, den


def _convolve(a: _IntegralForm, b: _IntegralForm) -> _IntegralForm:
    """Componentwise product of two integer-form sections: blocks
    convolve over the integers, an empty factor block gives an empty
    block, and the denominators multiply."""
    (a_blocks, a_den), (b_blocks, b_den) = a, b
    blocks = []
    for x, y in zip(a_blocks, b_blocks):
        if not x or not y:
            blocks.append(())
            continue
        out = [0] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    out[i + j] += xi * yj
        blocks.append(tuple(out))
    return tuple(blocks), a_den * b_den


def _glues(bundle: LineBundle, blocks: tuple[tuple[int, ...], ...]) -> bool:
    """Exact node check on the integer numerators of a section.

    At an affine branch ``p = a/b`` (``b > 0``) a block ``c_0..c_d`` has
    the value ``H / S`` over the common denominator, with
    ``H = sum_k c_k a^k b^(d-k)`` by homogeneous Horner and ``S = b^d``.
    At infinity ``H = c_d`` and ``S = 1``; an empty block has ``H = 0``,
    ``S = 1``. The node constraint ``H_a / S_a = g H_b / S_b`` is then
    ``H_a S_b g.denominator == g.numerator H_b S_a``: every factor is an
    integer, the common denominator cancels, and nothing is rounded.
    """
    for sites, g in zip(bundle.curve.sites, bundle.gluings):
        scaled = []
        for ci, _, p in sites:
            block = blocks[ci]
            h, s = (block[-1] if block else 0), 1
            if not p.is_infinity:
                a, b = p.coord.numerator, p.coord.denominator
                for c in block[-2::-1]:
                    s *= b
                    h = h * a + c * s
            scaled.append((h, s))
        (h_a, s_a), (h_b, s_b) = scaled
        if h_a * s_b * g.denominator != g.numerator * h_b * s_a:
            return False
    return True


def _same_curve(a: LineBundle, b: LineBundle) -> None:
    if a.curve != b.curve:
        raise ValueError("bundles live on different curves")


def tensor(a: LineBundle, b: LineBundle) -> LineBundle:
    """Multidegrees add, gluing scalars multiply."""
    _same_curve(a, b)
    return LineBundle(
        a.curve,
        tuple(x + y for x, y in zip(a.multidegree, b.multidegree)),
        tuple(x * y for x, y in zip(a.gluings, b.gluings)),
    )


def dual(bundle: LineBundle) -> LineBundle:
    """Multidegree negates, gluing scalars invert."""
    return LineBundle(
        bundle.curve,
        tuple(-d for d in bundle.multidegree),
        tuple(_ONE / g for g in bundle.gluings),
    )


def power(bundle: LineBundle, m: int) -> LineBundle:
    """m-th tensor power; m may be negative or zero."""
    m = int(m)
    return LineBundle(
        bundle.curve,
        tuple(d * m for d in bundle.multidegree),
        tuple(g**m for g in bundle.gluings),
    )


def dualizing_bundle(curve: NodalCurve) -> LineBundle:
    """The dualizing sheaf as an explicit line bundle.

    Sections on a component with branch points D, A the affine ones,
    are differentials ``f(t) dt / prod_{p in A}(t - p)``,
    ``deg f <= |D| - 2``, glued by the residue condition; see the module
    docstring for the resulting degree-(|D| - 2) trivialization, the
    ``-c_p / c_q`` scalars and the cofactor ``c_inf = -1`` of a branch
    at infinity, each taken at a branch site of ``curve.sites``.
    """
    multidegree = tuple(len(comp.marked_points) - 2 for comp in curve.components)

    def cofactor(site: Site) -> Fraction:
        ci, k, p = site
        if p.is_infinity:
            return -_ONE
        acc = _ONE
        for j, other in enumerate(curve.components[ci].marked_points):
            if j != k and not other.is_infinity:
                acc *= p.coord - other.coord
        return acc

    return LineBundle(curve, multidegree, tuple(-cofactor(a) / cofactor(b) for a, b in curve.sites))


def tangent_bundle(curve: NodalCurve) -> LineBundle:
    """Inverse of the dualizing bundle.

    For these curves the dualizing bundle has degree ``2 p_a - 2``; its
    inverse is what the deformation theory of the cone tensors against.
    This package takes that inverse as the definition of the tangent
    bundle.
    """
    return dual(dualizing_bundle(curve))


@dataclass(frozen=True)
class RiemannRochReport:
    h0: int
    h1: int
    degree: int
    genus: int

    @property
    def balanced(self) -> bool:
        return self.h0 - self.h1 == self.degree - self.genus + 1


def riemann_roch_report(bundle: LineBundle) -> RiemannRochReport:
    """h0, h1, degree and genus, with the Euler-characteristic identity."""
    from .curve import arithmetic_genus

    h0_value, h1_value = cohomology(bundle)
    return RiemannRochReport(
        h0=h0_value,
        h1=h1_value,
        degree=bundle.degree(),
        genus=arithmetic_genus(bundle.curve),
    )


def serre_duality_check(bundle: LineBundle, omega: LineBundle) -> bool:
    """Exact check that h1 of the bundle equals h0 of (omega (x) dual),
    with ``omega`` the curve's dualizing bundle, built once by the caller."""
    return h1_direct(bundle) == h0(tensor(omega, dual(bundle)))
