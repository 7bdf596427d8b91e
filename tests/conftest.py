"""Shared fixtures and seeded generators for randomized suites."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from nodalcone.bundles import LineBundle, Section, block_widths
from nodalcone.curve import INFINITY, Component, NodalCurve, NodeGluing, affine_point, paper_example_curve
from nodalcone.exactlin import PRIME, MatrixQ, rank


# two lines, a self-node on A: degree 1 there cannot separate its branches,
# and the m = 3 map is not onto
SHORT_M3_SPEC = """
{
  "components": [
    {"name": "A", "points": ["0", "1", "2"]},
    {"name": "B", "points": ["0"]}
  ],
  "nodes": [
    {"a": "A.0", "b": "B.0"},
    {"a": "A.1", "b": "A.2"}
  ],
  "bundle": {"multidegree": [1, 3], "gluings": ["1", "1"]}
}
"""


@pytest.fixture
def paper_curve():
    return paper_example_curve()


def random_curve(rng, max_components=4, max_nodes=4):
    """Connected curve with affine marked points.

    A spanning tree keeps it connected; extra edges (loops and multi-edges
    allowed) stay within max_nodes. Marked points per component share a
    denominator so distinct numerators stay distinct.
    """
    k = rng.randint(1, max_components)
    edges = [(rng.randrange(j), j) for j in range(1, k)]
    extra = rng.randint(0, max_nodes - len(edges))
    for _ in range(extra):
        edges.append((rng.randrange(k), rng.randrange(k)))
    counts = [0] * k
    node_refs = []
    for a, b in edges:
        ia = counts[a]
        counts[a] += 1
        ib = counts[b]
        counts[b] += 1
        node_refs.append((a, ia, b, ib))
    components = []
    for i in range(k):
        numerators = rng.sample(range(-8, 9), counts[i])
        den = rng.randint(1, 3)
        pts = tuple(affine_point(Fraction(n, den)) for n in numerators)
        components.append(Component(f"C{i + 1}", pts))
    nodes = tuple(
        NodeGluing((f"C{a + 1}", ia), (f"C{b + 1}", ib)) for a, ia, b, ib in node_refs
    )
    return NodalCurve(tuple(components), nodes)


def curve_with_infinity(rng, components=(1, 4)):
    """Connected curve whose components may carry a point at infinity
    (``random_curve`` is affine-only), with self-nodes on about a third
    of its components, so a node can have both branches in one block,
    and a component count drawn from the range ``components``."""
    k = rng.randint(*components)
    edges = [(rng.randrange(j), j) for j in range(1, k)]
    edges += [(i, i) for i in range(k) if rng.random() < 1 / 3]
    edges += [(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(0, 2))]
    counts = [0] * k
    refs = []
    for a, b in edges:
        refs.append(((f"C{a + 1}", counts[a]), (f"C{b + 1}", counts[b] + (a == b))))
        counts[a] += 1
        counts[b] += 1
    components = []
    for i in range(k):
        den = rng.randint(1, 3)
        pts = [affine_point(Fraction(n, den)) for n in rng.sample(range(-8, 9), counts[i])]
        if pts and rng.random() < 0.5:
            pts[rng.randrange(len(pts))] = INFINITY
        components.append(Component(f"C{i + 1}", tuple(pts)))
    return NodalCurve(tuple(components), tuple(NodeGluing(a, b) for a, b in refs))


def random_bundle(rng, curve, degree_range=(-4, 4)):
    degrees = tuple(rng.randint(*degree_range) for _ in curve.components)
    nonzero = [x for x in range(-5, 6) if x != 0]
    gluings = tuple(Fraction(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes)
    return LineBundle(curve, degrees, gluings)


def reference_random_bundles(curve, count, seed):
    """``count`` seeded random ``LineBundle``s with Fraction scalars, as
    ``cli._random_bundles`` built them before it yielded integer pairs: a
    degree in -4..4 per component, then per node ``Fraction(a, b)`` with a
    in -5..5 nonzero and b in 1..3, from one ``random.Random(seed)``. The
    reference for the bundles verify's randomized rows check."""
    rng = random.Random(seed)
    nonzero = [x for x in range(-5, 6) if x != 0]
    for _ in range(count):
        degrees = tuple(rng.randint(-4, 4) for _ in curve.components)
        gluings = tuple(Fraction(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes)
        yield LineBundle(curve, degrees, gluings)


def flip_node(bundle, k):
    """Same bundle with node k's branch order swapped and its scalar inverted."""
    curve = bundle.curve
    nodes = list(curve.nodes)
    n = nodes[k]
    nodes[k] = NodeGluing(n.branch_b, n.branch_a)
    flipped_curve = NodalCurve(curve.components, tuple(nodes))
    gluings = list(bundle.gluings)
    gluings[k] = 1 / gluings[k]
    return LineBundle(flipped_curve, bundle.multidegree, tuple(gluings))


def reference_tensor(a, b):
    """Multidegrees added and gluing scalars multiplied in Fractions: the
    reference for ``bundles.tensor``."""
    degrees = tuple(x + y for x, y in zip(a.multidegree, b.multidegree))
    return LineBundle(a.curve, degrees, tuple(x * y for x, y in zip(a.gluings, b.gluings)))


def reference_dual(bundle):
    """Multidegree negated and gluing scalars inverted in Fractions: the
    reference for ``bundles.dual``."""
    return LineBundle(bundle.curve, tuple(-d for d in bundle.multidegree), tuple(1 / g for g in bundle.gluings))


def reference_power(bundle, m):
    """The m-th power in Fractions: the reference for ``bundles.power``."""
    return LineBundle(bundle.curve, tuple(m * d for d in bundle.multidegree), tuple(g**m for g in bundle.gluings))


def reference_tangent(curve):
    """The inverse of the dualizing bundle, its degrees ``2 - n`` and its
    scalars ``reference_dualizing_gluings`` inverted, all in Fractions:
    the reference for ``bundles.tangent_bundle``."""
    degrees = tuple(2 - len(c.marked_points) for c in curve.components)
    return LineBundle(curve, degrees, tuple(1 / g for g in reference_dualizing_gluings(curve)))


def reference_dualizing_gluings(curve):
    """The dualizing bundle's gluing scalars ``-c_p / c_q`` with every
    cofactor ``c_p = prod (p - p')`` over the other affine marked points
    taken in Fraction arithmetic, ``c_inf = -1``: the reference for
    ``bundles.dualizing_bundle``."""

    def cofactor(site):
        ci, k, p = site
        if p.is_infinity:
            return Fraction(-1)
        acc = Fraction(1)
        for j, other in enumerate(curve.components[ci].marked_points):
            if j != k and not other.is_infinity:
                acc *= p.coord - other.coord
        return acc

    return tuple(-cofactor(a) / cofactor(b) for a, b in curve.sites)


def reference_product(a, b):
    """Componentwise product by Fraction convolution, an empty factor
    block collapsing the product block: the reference that
    ``bundles._multiply`` and the multiplication map must match."""
    blocks = []
    for x, y in zip(a.coeffs, b.coeffs):
        if not x or not y:
            blocks.append(())
            continue
        out = [Fraction(0)] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
        blocks.append(tuple(out))
    return Section(tuple(blocks))


def reference_integral(section):
    """A section as ``(blocks, den)``: per component the nonzero terms
    ``(k, c)`` in ascending k over one common positive denominator, the
    lcm of the coefficients' denominators, so the coefficient of ``t^k``
    is ``Fraction(c, den)`` and every other coefficient is zero. The
    reference for the integer form of ``SectionSpace.integral_basis``."""
    den = lcm(*(c.denominator for block in section.coeffs for c in block))
    blocks = tuple(
        tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(block) if c) for block in section.coeffs
    )
    return blocks, den


def reference_convolve(a, b):
    """Componentwise product of two dense integer forms ``(blocks, den)``,
    each block every integer numerator over den: blocks convolve over the
    integers, an empty factor block gives an empty block, and the
    denominators multiply. The dense product that ``bundles._multiply``
    replaced, kept as its reference."""
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


def reference_value(block, point):
    """Value of a Fraction coefficient block at a point by Fraction
    Horner; the leading coefficient at infinity, zero on an empty block."""
    if not block:
        return Fraction(0)
    if point.is_infinity:
        return block[-1]
    acc = Fraction(0)
    for c in reversed(block):
        acc = acc * point.coord + c
    return acc


def reference_jet(block, point):
    """First-order jet of a Fraction coefficient block by Fraction Horner
    on the derivative; ``a_{d-1}`` at infinity, zero on a block of
    length < 2."""
    if len(block) < 2:
        return Fraction(0)
    if point.is_infinity:
        return block[-2]
    acc = Fraction(0)
    for k in range(len(block) - 1, 0, -1):
        acc = acc * point.coord + k * block[k]
    return acc


def reference_satisfies_gluing(bundle, section):
    """Every node constraint by Fraction Horner at both branches: the
    reference for ``bundles._glues``."""
    for ((ia, _, pa), (ib, _, pb)), glue in zip(bundle.curve.sites, bundle.gluings):
        if reference_value(section.coeffs[ia], pa) != glue * reference_value(section.coeffs[ib], pb):
            return False
    return True


def _reference_terms(quadric, n):
    """The nonzero terms ``(c, i, j)`` of a Fraction quadric vector over
    the graded-lex degree-2 monomials in n variables."""
    monos = tuple(combinations_with_replacement(range(n), 2))
    assert len(quadric) == len(monos)
    return [(Fraction(c), i, j) for c, (i, j) in zip(quadric, monos) if c]


def reference_quadric_value(quadric, coords):
    """Value of a dense quadric vector at rational coordinates, summed
    term by term in Fractions: the reference for
    ``embedding.quadric_value`` and the integer quadric form."""
    values = [Fraction(c) for c in coords]
    acc = Fraction(0)
    for c, i, j in _reference_terms(quadric, len(values)):
        acc += c * values[i] * values[j]
    return acc


def reference_jacobian_rank(quadrics, coords):
    """Rank of the Fraction gradients of dense quadric vectors at
    rational coordinates: the reference for ``embedding._jacobian_rank``."""
    values = [Fraction(c) for c in coords]
    n = len(values)
    rows = []
    for q in quadrics:
        grad = [Fraction(0)] * n
        for c, i, j in _reference_terms(q, n):
            if i == j:
                grad[i] += 2 * c * values[i]
            else:
                grad[i] += c * values[j]
                grad[j] += c * values[i]
        rows.append(grad)
    return rank(MatrixQ.from_rows(rows, cols=n))


def reference_rank_mod_prime(rows):
    """Rank mod ``PRIME`` of integer rows, by sympy's ``DomainMatrix``
    over ``GF(PRIME)``: the reference for ``exactlin._rank_mod_prime``."""
    field = GF(PRIME)
    shape = (len(rows), len(rows[0]) if rows else 0)
    return DomainMatrix([[field(e) for e in r] for r in rows], shape, field).rank()


def reference_rref(m):
    """Reduced row echelon form and pivot columns of a MatrixQ by rational
    Gaussian elimination in Fractions: leftmost column first and, within
    a column, the first nonzero row from the top; the pivot row scaled to
    a unit pivot and cleared below, then every pivot column cleared above.
    The elimination ``exactlin`` ran before it became fraction-free, kept
    as the reference for ``rank`` and the kernels."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    for col in range(m.cols):
        top = len(pivots)
        sel = next((r for r in range(top, m.rows) if rows[r][col]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        pivot = rows[top][col]
        rows[top] = [e / pivot for e in rows[top]]
        for r in range(top + 1, m.rows):
            f = rows[r][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    for top in reversed(range(len(pivots))):
        for r in range(top):
            f = rows[r][pivots[top]]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
    return MatrixQ.from_rows(rows, cols=m.cols), tuple(pivots)


def reference_kernel(m):
    """The canonical kernel basis read off ``reference_rref``: per free
    column, ascending, a unit there and the negated reduced column at
    the pivots."""
    reduced, pivots = reference_rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.row(r)[free]
        basis.append(tuple(v))
    return basis


def reference_evaluation_row(d, p):
    """``(1, p, ..., p^d)`` by repeated Fraction products at affine p, the
    unit at the leading coefficient at infinity: the reference that
    ``bundles._homogeneous_row``'s row over its s must match."""
    if p.is_infinity:
        return (Fraction(0),) * d + (Fraction(1),)
    return tuple(p.coord**k for k in range(d + 1))


def reference_flatten(bundle, section):
    """A section's coefficient blocks concatenated in the bundle's block
    layout, an empty block padded with zeros to its width."""
    flat = []
    for w, block in zip(block_widths(bundle), section.coeffs):
        assert len(block) in (0, w)
        flat.extend(block or [Fraction(0)] * w)
    return tuple(flat)


def assert_identity_at(space, columns):
    """The basis of a section space, flattened in its bundle's block
    layout, is the identity at ``columns`` (the free columns of the gluing
    matrix's rref), and each section's last nonzero slot is its column."""
    flat = [reference_flatten(space.bundle, s) for s in space.basis]
    assert [[v[c] for c in columns] for v in flat] == [[int(i == j) for j in columns] for i in columns]
    assert [max(j for j, e in enumerate(v) if e) for v in flat] == list(columns)


def reference_gluing_matrix(bundle):
    """The gluing matrix summed in Fractions from ``reference_evaluation_row``:
    per node, the branch-a evaluation minus the gluing scalar times the
    branch-b evaluation, each on its component's block. The reference
    for ``bundles.gluing_matrix``, which builds it from integer rows."""
    widths = block_widths(bundle)
    offsets = [sum(widths[:i]) for i in range(len(widths) + 1)]
    rows = []
    for sites, g in zip(bundle.curve.sites, bundle.gluings):
        row = [Fraction(0)] * offsets[-1]
        for (ci, _, point), scale in zip(sites, (Fraction(1), -g)):
            if widths[ci]:
                for j, val in enumerate(reference_evaluation_row(bundle.multidegree[ci], point), offsets[ci]):
                    row[j] += scale * val
        rows.append(row)
    return MatrixQ.from_rows(rows, cols=offsets[-1])
