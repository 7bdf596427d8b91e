"""Shared fixtures and seeded generators for randomized suites."""

from fractions import Fraction

import pytest

from nodalcone.bundles import LineBundle, Section
from nodalcone.curve import INFINITY, Component, NodalCurve, NodeGluing, affine_point, paper_example_curve


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


def curve_with_infinity(rng):
    """Connected curve whose components may carry a point at infinity
    (``random_curve`` is affine-only), with self-nodes on about a third
    of its components, so a node can have both branches in one block."""
    k = rng.randint(1, 4)
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


def reference_product(a, b):
    """Componentwise product by Fraction convolution, an empty factor
    block collapsing the product block: the reference that
    ``bundles.multiply_sections`` and the multiplication map must match."""
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


def reference_satisfies_gluing(bundle, section):
    """Every node constraint by Fraction Horner at both branches: the
    reference for ``bundles.section_satisfies_gluing``."""

    def value(block, point):
        if not block:
            return Fraction(0)
        if point.is_infinity:
            return block[-1]
        acc = Fraction(0)
        for c in reversed(block):
            acc = acc * point.coord + c
        return acc

    for ((ia, _, pa), (ib, _, pb)), glue in zip(bundle.curve.sites, bundle.gluings):
        if value(section.coeffs[ia], pa) != glue * value(section.coeffs[ib], pb):
            return False
    return True
