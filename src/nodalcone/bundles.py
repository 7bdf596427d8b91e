"""Line bundles on nodal curves: sections, cohomology, duality.

A line bundle is a multidegree (one integer per component) plus one
nonzero gluing scalar per node. Its sections are tuples of polynomials,
one per component: on a component of degree ``d >= 0`` a section is a
coefficient vector ``(a_0, ..., a_d)`` for ``a_0 + a_1 t + ... + a_d t^d``,
and on a component of negative degree the zero polynomial, stored as an
empty vector. The trivialization at infinity is the standard one for
the chart ``u = 1/t``: evaluation at infinity reads off the leading
coefficient ``a_d`` and the first-order jet there reads off ``a_{d-1}``.

A ``LineBundle`` stores each gluing scalar once, as an integer pair:
``pairs[k] == (num, den)`` is ``num / den`` at node k, both nonzero.
Any pair for the scalar will do, ``(c num, c den)`` for every nonzero
c, so no gcd is taken and a denominator may be negative. ``tensor``,
``dual`` and ``power`` are pair arithmetic through the one pair power
``_power``, and ``dualizing_bundle`` builds its pairs from the cofactors.
Every computation below reads ``pairs``; ``LineBundle.gluings``, the
reduced Fractions, is built only where it is read, and is what
equality, hashing, repr and pickling see.

A global section must satisfy one linear constraint per node: with the
node's branches at marked points p (on component i) and q (on component
j), and gluing scalar g,

    value of the i-th polynomial at p  =  g * value of the j-th at q.

Stacking these rows gives the gluing matrix G; the section space is its
kernel, and ``h1`` comes from its corank plus the classical line-bundle
contributions of the components. Both are exact, never estimated. G's
rows are ``_node_row``'s integer rows over their scales, and
the kernel is read off their fraction-free elimination (``exactlin``)
as integer vectors over their last entry.

A section space stores its basis in integer form only: per component,
the nonzero terms ``(k, c)``, numerator c of ``t^k`` over one common
positive denominator, cut from each kernel vector
(``SectionSpace.integral_basis``); a canonical basis has few terms.
``_section`` is the one step from that form to a Fraction ``Section``,
taken only where a ``Section`` is read (``SectionSpace.basis``). A
value or a jet is the terms dotted with an integer row of the point
that clears its denominator (``_homogeneous_row``, ``_jet_row``), an
integer over a positive one. The one product routine multiplies terms
with no gcd at each step and drops those that cancel (``_multiply``),
and the node check dots each branch's terms with an integer row, built
once per bundle, that also clears the gluing scalar's denominator
(``_node_rows``, ``_glues``). ``_node_row`` takes the scalar's pair,
and each branch's ``_homogeneous_row`` from a memo keyed by
(component, marked-point index, width) that its caller creates: one per
bundle, one per ``cone.graded_report``, shared by every weight, or one
per ``verify`` run, shared by every bundle its Riemann-Roch and Serre
rows check, each read as degrees and scalar pairs (``twisted_cohomology``).

Only the rank of G enters ``h0`` and ``h1``, and it is mostly read off
the multidegree. Call a component of degree ``d >= max(0, n - 1)``, with
n marked points, *onto*: its polynomials reach every tuple of values at
those points (Lagrange interpolation at the affine points; with a point
at infinity, fix the leading coefficient to its value there and
interpolate the rest in degree ``<= d - 1`` through the ``n - 1 <= d``
affine points). The curve derives each component's threshold
``max(0, n - 1)`` once, as ``NodalCurve.onto_thresholds``. Call a node
*covered* when a branch of it lies on an onto component. Then the
column space of G holds the unit vector of each covered node's row, so
rank G is the number of covered nodes plus the rank of the residual
block R: G without those rows. In R the onto
components' columns are zero and negative degrees have none, so R is
the rows of the uncovered nodes with a branch on a component of degree
``0 <= d < n - 1``, over those components' blocks. R is built from the
integer rows of ``_node_row``, with node k's scalar pair ``(num, den)``:
its row ``row_a s_b den - row_b s_a num`` is ``s_a s_b den != 0`` times
G's row, so R's rank is unchanged for any pair of the scalar, and
``exactlin.certified_rank`` takes it. Away from small degrees R has no
rows, and no elimination runs at all.

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

import operator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, pairwise
from typing import Callable, NamedTuple, Sequence

from .curve import NodalCurve, PointOnLine, Site, Value, _set, arithmetic_genus
from .exactlin import MatrixQ, VectorQ, _integer_rows, _kernel_vectors, as_scalar, certified_rank, rank

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LineBundle(Value):
    """Multidegree plus one nonzero gluing scalar per node of the curve,
    stored once, as an integer pair: ``pairs[k] == (num, den)`` is the
    scalar ``num / den`` at node k, with ``num, den != 0`` and no gcd
    taken, so a denominator may be negative. ``gluings`` is the derived
    read-only Fraction view, built on each read, and the field that
    equality, hashing, repr and pickling use: two bundles whose pairs
    differ by a scale are the same bundle."""

    __slots__ = ("curve", "multidegree", "pairs")
    _fields = ("curve", "multidegree", "gluings")

    def __init__(self, curve: NodalCurve, multidegree: tuple[int, ...], gluings: tuple[Fraction, ...]) -> None:
        degrees = tuple(operator.index(d) for d in multidegree)
        scalars = tuple(as_scalar(g) for g in gluings)
        if len(degrees) != len(curve.components):
            raise ValueError(
                f"multidegree has {len(degrees)} entries for "
                f"{len(curve.components)} components"
            )
        if len(scalars) != len(curve.nodes):
            raise ValueError(
                f"{len(scalars)} gluing scalars for {len(curve.nodes)} nodes"
            )
        for k, g in enumerate(scalars):
            if g == 0:
                raise ValueError(f"gluing scalar at node {k} is zero")
        _init(self, curve, degrees, tuple((g.numerator, g.denominator) for g in scalars))

    @property
    def gluings(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, den) for num, den in self.pairs)

    def degree(self) -> int:
        return sum(self.multidegree)


def _init(bundle: LineBundle, curve: NodalCurve, degrees: tuple[int, ...], pairs) -> LineBundle:
    """Set the bundle's three slots, with no check."""
    _set(bundle, "curve", curve)
    _set(bundle, "multidegree", degrees)
    _set(bundle, "pairs", tuple(pairs))
    return bundle


def _bundle(curve: NodalCurve, degrees, pairs) -> LineBundle:
    """A ``LineBundle`` of these degrees and scalar pairs, unchecked: the
    constructor of the pair arithmetic, whose pairs are known nonzero."""
    return _init(object.__new__(LineBundle), curve, tuple(degrees), pairs)


def _power(g: tuple[int, int], m: int, t: tuple[int, int] = (1, 1)) -> tuple[int, int]:
    """``t * g^m`` for scalars given as integer pairs ``(num, den)``, as
    one such pair: no gcd is taken, and for m < 0 the power is the
    reciprocal's, so its denominator may be negative."""
    (gn, gd), (tn, td) = g, t
    if m < 0:
        gn, gd, m = gd, gn, -m
    return tn * gn**m, td * gd**m


def line_bundle(curve: NodalCurve, multidegree, gluings=None) -> LineBundle:
    """Build a bundle; gluing scalars default to 1 at every node."""
    if gluings is None:
        gluings = (_ONE,) * len(curve.nodes)
    return LineBundle(curve, tuple(multidegree), tuple(gluings))


def component_h0(d: int) -> int:
    """Sections of O(d) on one projective line: d + 1 for d >= 0, else 0."""
    d = operator.index(d)
    return d + 1 if d >= 0 else 0


def component_h1(d: int) -> int:
    """h1 of O(d) on one projective line: -d - 1 for d <= -2, else 0."""
    d = operator.index(d)
    return -d - 1 if d <= -2 else 0


def block_widths(bundle: LineBundle) -> tuple[int, ...]:
    """Coefficient-vector length per component: ``max(0, d + 1)``."""
    return tuple(max(0, d + 1) for d in bundle.multidegree)


def gluing_matrix(bundle: LineBundle) -> MatrixQ:
    """One row per node over the concatenated coefficient blocks.

    The row is the branch-a evaluation minus the gluing scalar times the
    branch-b evaluation. Blocks of negative-degree components have width
    zero, so a branch landing there simply contributes nothing; for a
    self-node both contributions land in the same block. Each row is a
    ``_node_rows`` integer row over its scale.
    """
    offsets = tuple(accumulate(block_widths(bundle), initial=0))
    rows = [[Fraction(e, node[4]) if e else _ZERO for e in _flat_row(offsets, node)] for node in _node_rows(bundle)]
    return MatrixQ.from_rows(rows, cols=offsets[-1])


def _cohomology_of(
    curve: NodalCurve, degrees: Sequence[int], scalar: Callable[[int], tuple[int, int]], rows: _RowMemo
) -> tuple[int, int]:
    """``cohomology`` of the bundle of multidegree ``degrees`` and scalar
    ``num / den`` at node k, ``scalar(k) == (num, den)`` with ``den != 0``,
    with no ``LineBundle`` built. The gluing rank is the covered nodes plus
    the certified rank of the residual block in integer rows, over the
    blocks of the components neither onto nor negative (see the module
    docstring), which a common factor of a pair leaves unchanged. One
    pass over the components counts the slots and the ``h1(O(d_i))``,
    and one over the nodes counts the covered ones; the block offsets and
    the rows are built, and ``scalar`` asked, only at the nodes with a
    row, each branch row from the caller's memo ``rows`` (``_node_row``)."""
    slots = h1 = 0
    widths = []  # per component its width in the residual block, None if onto
    for d, threshold in zip(degrees, curve.onto_thresholds):
        if d < 0:
            h1 += component_h1(d)
            widths.append(0)
        else:
            slots += d + 1
            widths.append(None if d >= threshold else d + 1)
    r, residual = 0, []
    for k, ((ia, _, _), (ib, _, _)) in enumerate(curve.sites):
        wa, wb = widths[ia], widths[ib]
        if wa is None or wb is None:
            r += 1
        elif wa or wb:
            residual.append(k)
    if residual:
        widths = [w or 0 for w in widths]
        offsets = tuple(accumulate(widths, initial=0))
        node_rows = [_flat_row(offsets, _node_row(widths, curve.sites[k], scalar(k), rows)) for k in residual]
        r += certified_rank(node_rows, offsets[-1])
    return slots - r, len(curve.nodes) - r + h1


class Section(Value):
    """Per-component coefficient vectors; empty vector = zero polynomial."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[VectorQ, ...]) -> None:
        _set(self, "coeffs", tuple(tuple(as_scalar(c) for c in block) for block in coeffs))


class SectionSpace(Value):
    """A bundle and the canonical basis of its global sections, stored in
    integer form only: ``integral_basis`` holds each section's terms over
    one positive denominator, cut from a kernel vector of the gluing matrix. Basis order is the
    canonical kernel order, so it is deterministic and forms part of
    downstream contracts (embedding coordinates, monomial indexing).

    ``basis``, the Fraction ``Section``s (``_section``), is derived on
    first read, then kept, and is not a field: equality and hashing see
    the two fields only.
    """

    _fields = ("bundle", "integral_basis")

    def __init__(self, bundle: LineBundle, integral_basis: tuple[_IntegralForm, ...]) -> None:
        vars(self).update(bundle=bundle, integral_basis=integral_basis)

    @cached_property
    def basis(self) -> tuple[Section, ...]:
        widths = block_widths(self.bundle)
        return tuple(_section(form, widths) for form in self.integral_basis)


def basis_rank(space: SectionSpace) -> int:
    """Rank of the basis sections stacked in the bundle's block layout,
    ``len(space.integral_basis)`` exactly when they are independent. Each
    row is an integer form's numerators: its section times a positive
    denominator, which leaves the rank unchanged."""
    widths = block_widths(space.bundle)
    rows = [
        [t.get(k, 0) for w, t in zip(widths, map(dict, blocks)) for k in range(w)] for blocks, _ in space.integral_basis
    ]
    return rank(MatrixQ.from_rows(rows, cols=sum(widths)))


def section_basis(bundle: LineBundle) -> SectionSpace:
    """Canonical basis of global sections: kernel of the gluing matrix,
    off its integer rows. Each integer kernel vector is cut at the block
    offsets into its integer form; no ``Section`` is built."""
    g = gluing_matrix(bundle)
    blocks = list(pairwise(accumulate(block_widths(bundle), initial=0)))
    kernel = _kernel_vectors(_integer_rows(g), g.cols)
    return SectionSpace(
        bundle, tuple((tuple(tuple((j - a, c) for j, c in w if a <= j < b) for a, b in blocks), w[-1][1]) for w in kernel)
    )


def cohomology(bundle: LineBundle) -> tuple[int, int]:
    """``(h0, h1)`` from the rank of the gluing matrix.

    The normalization exact sequence gives
    ``h0 = sum_i h0(O(d_i)) - rank`` and
    ``h1 = (#nodes - rank) + sum_i h1(O(d_i))``. The rank is the number
    of covered nodes plus the certified rank of the residual block,
    taken only when it has rows (see the module docstring): this is
    ``_cohomology_of`` on the bundle's scalar pairs, with a memo of its own.
    """
    return _cohomology_of(bundle.curve, bundle.multidegree, bundle.pairs.__getitem__, {})


def twisted_cohomology(
    curve: NodalCurve, degrees: Sequence[int], pairs, m: int, rows: _RowMemo, twist: LineBundle | None = None
) -> tuple[int, int]:
    """``cohomology`` of ``twist (x) B^m``, B of multidegree ``degrees``
    and scalar pairs ``pairs`` on ``curve`` and ``twist`` a bundle on it or
    None for the trivial one, with no ``LineBundle`` built: the degrees
    ``t_i + m d_i`` and at a node with a row the scalar ``t_k g_k^m`` as a
    pair (``_power``). ``rows`` is the caller's branch-row memo
    (``_cohomology_of``); its keys depend only on the curve, so one memo
    may serve every bundle on it."""
    shift, t = (twist.multidegree, twist.pairs) if twist else ((0,) * len(degrees), ((1, 1),) * len(pairs))
    twisted = [a + m * d for a, d in zip(shift, degrees)]
    return _cohomology_of(curve, twisted, lambda k: _power(pairs[k], m, t[k]), rows)


def h0(bundle: LineBundle) -> int:
    """dim of global sections: total coefficient slots minus the rank of
    the gluing matrix, counted as in ``cohomology``: each node with a
    branch on a component that reaches all its branch values adds one,
    and only the residual block is eliminated."""
    return cohomology(bundle)[0]


def h1_direct(bundle: LineBundle) -> int:
    """First cohomology, computed rather than inferred from a formula:
    ``(#nodes - rank) + sum_i h1(O(d_i))``, with the gluing rank counted
    as in ``cohomology``."""
    return cohomology(bundle)[1]


_Terms = tuple[tuple[int, int], ...]
_IntegralForm = tuple[tuple[_Terms, ...], int]


def _section(form: _IntegralForm, widths) -> Section:
    """The ``Section`` of an integer form ``(blocks, den)``, its blocks of
    ``widths``: per component the nonzero terms ``(k, c)`` in ascending k
    over one common positive denominator, so the coefficient of ``t^k`` is
    ``Fraction(c, den)``. A Fraction is built for each term only, and
    every other coefficient is one shared zero."""
    blocks, den = form
    return Section(
        tuple(tuple(Fraction(t[k], den) if k in t else _ZERO for k in range(w)) for w, t in zip(widths, map(dict, blocks)))
    )


def _multiply(a: _IntegralForm, b: _IntegralForm) -> _IntegralForm:
    """Componentwise product of two integer forms: each block pair's terms
    multiply out, cancelled terms are dropped, and the denominators
    multiply. A factor without terms (zero, or a negative degree) gives none."""
    (a_blocks, a_den), (b_blocks, b_den) = a, b
    blocks = []
    for x, y in zip(a_blocks, b_blocks):
        if not (x and y):
            blocks.append(())
            continue
        if len(y) == 1:
            [(j, yj)] = y
            blocks.append(tuple((i + j, xi * yj) for i, xi in x))
            continue
        out: dict[int, int] = {}
        for i, xi in x:
            for j, yj in y:
                out[i + j] = out.get(i + j, 0) + xi * yj
        blocks.append(tuple((k, c) for k, c in sorted(out.items()) if c))
    return tuple(blocks), a_den * b_den


def _dot(terms: _Terms, row: tuple[int, ...]) -> int:
    """``row . block`` for the block with these terms."""
    return sum(c * row[k] for k, c in terms)


_NodeRow = tuple[int, tuple[int, ...], int, tuple[int, ...], int]
_NodeRows = tuple[_NodeRow, ...]
_RowMemo = dict[tuple[int, int, int], tuple[tuple[int, ...], int]]  # (component, marked point, width) -> row, s


def _homogeneous_row(width: int, p: PointOnLine) -> tuple[tuple[int, ...], int]:
    """``(row, s)`` with ``row . block / s`` the value at p of every block
    of length ``width``: ``a^k b^(width-1-k)`` over ``b^(width-1)`` at
    ``p = a/b``, ``b > 0``; a unit at the last slot over 1 at infinity;
    empty over 1 for width 0. So s depends only on p and the width."""
    if width == 0:
        return (), 1
    if p.is_infinity:
        return (0,) * (width - 1) + (1,), 1
    a, b = p.coord.numerator, p.coord.denominator
    return tuple(a**k * b ** (width - 1 - k) for k in range(width)), b ** (width - 1)


def _jet_row(width: int, p: PointOnLine) -> tuple[tuple[int, ...], int]:
    """``(row, s)`` like ``_homogeneous_row`` for the first-order jet: the
    derivative's value at an affine p, the coefficient of ``t^(width-2)``
    at infinity (the chart ``u = 1/t`` reads ``sum c_k u^(d-k)``), and
    zero with no degree-1 data (width < 2)."""
    if width < 2:
        return (0,) * width, 1
    if p.is_infinity:
        return (0,) * (width - 2) + (1, 0), 1
    row, s = _homogeneous_row(width - 1, p)
    return (0,) + tuple(k * e for k, e in enumerate(row, 1)), s


def _node_rows(bundle: LineBundle) -> _NodeRows:
    """One ``(ia, row_a, ib, row_b, S_a S_b den)`` per node, for the
    node's scalar pair ``(num, den)``: the components and integer rows of
    its branches, for ``_glues`` and ``gluing_matrix``.

    With a section's branch values ``H_a / S_a`` and ``H_b / S_b`` from
    ``_homogeneous_row``, the node constraint ``H_a / S_a = num H_b / (den S_b)``
    is ``H_a S_b den == num H_b S_a``. ``S`` depends only on the branch
    point and the bundle's block width there, so each side is a fixed
    integer row dotted with the block: the ``_homogeneous_row`` times the
    other branch's S and den, or num. Every factor is an integer, the
    common denominator cancels, and nothing is rounded.
    """
    widths, memo = block_widths(bundle), {}
    return tuple(_node_row(widths, sites, g, memo) for sites, g in zip(bundle.curve.sites, bundle.pairs))


def _node_row(widths, sites: tuple[Site, Site], g: tuple[int, int], rows: _RowMemo) -> _NodeRow:
    """One node's entry of ``_node_rows``, over blocks of ``widths``, for
    the scalar ``num / den`` given as ``g = (num, den)``, ``den != 0``.
    Each branch's ``_homogeneous_row`` is read from the memo ``rows``,
    keyed by (component, marked-point index, width), and built there on
    first use."""
    num, den = g
    row_a, s_a = _branch_row(rows, widths, sites[0])
    row_b, s_b = _branch_row(rows, widths, sites[1])
    scaled_a = tuple(e * s_b * den for e in row_a)
    return sites[0][0], scaled_a, sites[1][0], tuple(e * s_a * num for e in row_b), s_a * s_b * den


def _branch_row(rows: _RowMemo, widths, site: Site) -> tuple[tuple[int, ...], int]:
    """``_homogeneous_row`` of the branch at ``site`` over its component's
    width, from the memo ``rows`` or built into it."""
    ci, k, p = site
    key = ci, k, widths[ci]
    row = rows.get(key)
    if row is None:
        row = rows[key] = _homogeneous_row(widths[ci], p)
    return row


def _flat_row(offsets: tuple[int, ...], node: _NodeRow) -> list[int]:
    """A ``_node_row`` over blocks at ``offsets``, ``row_a`` minus
    ``row_b``: the node's row of G times its scale."""
    ia, row_a, ib, row_b, _ = node
    row = [0] * offsets[-1]
    for j, e in enumerate(row_a, offsets[ia]):
        row[j] += e
    for j, e in enumerate(row_b, offsets[ib]):
        row[j] -= e
    return row


def _glues(node_rows: _NodeRows, blocks: tuple[_Terms, ...]) -> bool:
    """Exact check of every node constraint on the integer form of a
    section, each block's terms within the bundle's width, against the
    bundle's ``_node_rows``. A node whose two branch blocks are both
    empty reads ``0 == 0`` and is skipped."""
    for ia, row_a, ib, row_b, _ in node_rows:
        a, b = blocks[ia], blocks[ib]
        if (a or b) and _dot(a, row_a) != _dot(b, row_b):
            return False
    return True


def _same_curve(a: LineBundle, b: LineBundle) -> None:
    if a.curve != b.curve:
        raise ValueError("bundles live on different curves")


def tensor(a: LineBundle, b: LineBundle) -> LineBundle:
    """Multidegrees add, gluing scalars multiply (as pairs, ``_power``)."""
    _same_curve(a, b)
    degrees = (x + y for x, y in zip(a.multidegree, b.multidegree))
    return _bundle(a.curve, degrees, (_power(y, 1, x) for x, y in zip(a.pairs, b.pairs)))


def dual(bundle: LineBundle) -> LineBundle:
    """Multidegree negates, gluing scalars invert (as pairs, ``_power``)."""
    return power(bundle, -1)


def power(bundle: LineBundle, m: int) -> LineBundle:
    """m-th tensor power; m may be negative or zero (as pairs, ``_power``)."""
    m = operator.index(m)
    return _bundle(bundle.curve, (d * m for d in bundle.multidegree), (_power(g, m) for g in bundle.pairs))


def dualizing_bundle(curve: NodalCurve) -> LineBundle:
    """The dualizing sheaf as an explicit line bundle.

    Sections on a component with branch points D, A the affine ones,
    are differentials ``f(t) dt / prod_{p in A}(t - p)``,
    ``deg f <= |D| - 2``, glued by the residue condition; see the module
    docstring for the resulting degree-(|D| - 2) trivialization, the
    ``-c_p / c_q`` scalars and the cofactor ``c_inf = -1`` of a branch
    at infinity, each taken at a branch site of ``curve.sites`` as an
    integer numerator over a positive denominator. The scalar ``-c_p / c_q``
    is the pair ``(-num_p den_q, den_p num_q)`` of the two cofactors'
    numerators and denominators, with no gcd taken.
    """

    def cofactor(site: Site) -> tuple[int, int]:
        ci, k, p = site
        if p.is_infinity:
            return -1, 1
        a, b = p.coord.numerator, p.coord.denominator
        num = den = 1
        for j, other in enumerate(curve.components[ci].marked_points):
            if j != k and not other.is_infinity:
                num *= a * other.coord.denominator - other.coord.numerator * b
                den *= b * other.coord.denominator
        return num, den

    cofactors = (cofactor(a) + cofactor(b) for a, b in curve.sites)
    degrees = (len(comp.marked_points) - 2 for comp in curve.components)
    return _bundle(curve, degrees, ((-na * db, da * nb) for na, da, nb, db in cofactors))


def tangent_bundle(curve: NodalCurve) -> LineBundle:
    """Inverse of the dualizing bundle.

    For these curves the dualizing bundle has degree ``2 p_a - 2``; its
    inverse is what the deformation theory of the cone tensors against.
    This package takes that inverse as the definition of the tangent
    bundle.
    """
    return dual(dualizing_bundle(curve))


class RiemannRochReport(NamedTuple):
    h0: int
    h1: int
    degree: int
    genus: int

    @property
    def balanced(self) -> bool:
        return self.h0 - self.h1 == self.degree - self.genus + 1


def riemann_roch_report(bundle: LineBundle) -> RiemannRochReport:
    """h0, h1, degree and genus, with the Euler-characteristic identity."""
    return RiemannRochReport(*cohomology(bundle), bundle.degree(), arithmetic_genus(bundle.curve))


def serre_duality_check(bundle: LineBundle, omega: LineBundle) -> bool:
    """Exact check that h1 of the bundle equals h0 of (omega (x) dual),
    with ``omega`` the curve's dualizing bundle, built once by the caller."""
    return h1_direct(bundle) == h0(tensor(omega, dual(bundle)))
