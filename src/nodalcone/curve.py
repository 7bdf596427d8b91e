"""Nodal curves glued from projective lines.

A curve here is combinatorial data: an ordered tuple of components,
each a copy of the projective line carrying marked points with exact
rational (or infinite) coordinates, plus an ordered tuple of node
gluings identifying marked points in pairs. A node may join two
components or glue a component to itself; either way its two branches
must be distinct marked points. The dual graph has one vertex per
component and one edge per node (a self-node becomes a loop), and the
arithmetic genus is ``#nodes - #components + 1`` for connected curves.

A curve is valid by construction: ``NodalCurve`` runs ``validate``,
which returns the list of violation strings, and raises
``InvalidCurveError`` with all of them when the list is not empty. So
the derived quantities never check the curve again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import as_scalar


class InvalidCurveError(ValueError):
    """Raised when a ``NodalCurve`` is built from data that fails ``validate``."""


@dataclass(frozen=True)
class PointOnLine:
    """A point of the projective line: an affine rational coordinate or infinity.

    ``coord`` is the affine coordinate; ``None`` encodes the point at
    infinity.
    """

    coord: Fraction | None = None

    def __post_init__(self) -> None:
        if self.coord is not None and not isinstance(self.coord, Fraction):
            object.__setattr__(self, "coord", as_scalar(self.coord))

    @property
    def is_infinity(self) -> bool:
        return self.coord is None

    def __str__(self) -> str:
        return "inf" if self.coord is None else str(self.coord)


INFINITY = PointOnLine(None)


def affine_point(value) -> PointOnLine:
    """Affine point with an exact rational coordinate."""
    return PointOnLine(as_scalar(value))


Branch = tuple[str, int]


@dataclass(frozen=True)
class Component:
    """A projective line with an ordered tuple of marked points."""

    name: str
    marked_points: tuple[PointOnLine, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "marked_points", tuple(self.marked_points))


@dataclass(frozen=True)
class NodeGluing:
    """Ordered identification of two marked-point branches.

    Branch order matters downstream: gluing constraints read
    "value on branch_a equals scalar times value on branch_b".
    """

    branch_a: Branch
    branch_b: Branch

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch_a", (self.branch_a[0], int(self.branch_a[1])))
        object.__setattr__(self, "branch_b", (self.branch_b[0], int(self.branch_b[1])))


@dataclass(frozen=True)
class NodalCurve:
    components: tuple[Component, ...]
    nodes: tuple[NodeGluing, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        problems = validate(self)
        if problems:
            raise InvalidCurveError("; ".join(problems))

    def component_index(self, name: str) -> int:
        for i, comp in enumerate(self.components):
            if comp.name == name:
                return i
        raise KeyError(f"no component named {name!r}")

    def component(self, name: str) -> Component:
        return self.components[self.component_index(name)]

    def branch_point(self, branch: Branch) -> PointOnLine:
        """Marked point a node branch refers to."""
        comp = self.component(branch[0])
        return comp.marked_points[branch[1]]


@dataclass(frozen=True)
class DualGraph:
    """Vertices are component names; one edge per node, loops allowed."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def loop_count(self) -> int:
        return sum(1 for a, b in self.edges if a == b)

    def connected_component_count(self) -> int:
        if not self.vertices:
            return 0
        adjacency: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen: set[str] = set()
        count = 0
        for start in self.vertices:
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count


def validate(curve: NodalCurve) -> list[str]:
    """All structural violations, as human-readable strings.

    Checks, in order: unique component names, distinct marked points per
    component, resolvable and distinct node branches, every marked point
    attached to exactly one node branch, and connectedness of the dual
    graph. Connectedness is only assessed once the references resolve.
    """
    problems: list[str] = []

    seen_names: set[str] = set()
    for comp in curve.components:
        if comp.name in seen_names:
            problems.append(f"duplicate component name {comp.name!r}")
        seen_names.add(comp.name)

    for comp in curve.components:
        seen_pts: set[PointOnLine] = set()
        for idx, p in enumerate(comp.marked_points):
            if p in seen_pts:
                problems.append(
                    f"component {comp.name}: marked point {p} appears more than once"
                )
            seen_pts.add(p)

    names = {comp.name for comp in curve.components}
    refs_ok = True
    usage: dict[Branch, int] = {}
    for k, node in enumerate(curve.nodes):
        node_ok = True
        for label, branch in (("a", node.branch_a), ("b", node.branch_b)):
            cname, idx = branch
            if cname not in names:
                problems.append(f"node {k}: branch {label} references unknown component {cname!r}")
                node_ok = False
                continue
            comp = curve.component(cname)
            if not 0 <= idx < len(comp.marked_points):
                problems.append(
                    f"node {k}: branch {label} references marked point index {idx} "
                    f"outside component {cname} (which has {len(comp.marked_points)})"
                )
                node_ok = False
        if not node_ok:
            refs_ok = False
            continue
        if node.branch_a == node.branch_b:
            problems.append(f"node {k}: both branches are the same marked point")
            refs_ok = False
            continue
        usage[node.branch_a] = usage.get(node.branch_a, 0) + 1
        usage[node.branch_b] = usage.get(node.branch_b, 0) + 1

    if refs_ok:
        for comp in curve.components:
            for idx, p in enumerate(comp.marked_points):
                n = usage.get((comp.name, idx), 0)
                if n == 0:
                    problems.append(
                        f"marked point {comp.name}[{idx}] (coordinate {p}) "
                        "is not attached to any node"
                    )
                elif n > 1:
                    problems.append(
                        f"marked point {comp.name}[{idx}] (coordinate {p}) "
                        f"is attached to {n} node branches; exactly one is allowed"
                    )
        if dual_graph(curve).connected_component_count() > 1:
            problems.append("curve is not connected")

    return problems


def dual_graph(curve: NodalCurve) -> DualGraph:
    """Dual graph: one vertex per component, one edge per node."""
    return DualGraph(
        tuple(c.name for c in curve.components),
        tuple((n.branch_a[0], n.branch_b[0]) for n in curve.nodes),
    )


def arithmetic_genus(curve: NodalCurve) -> int:
    """``#nodes - #components + 1``; every curve is connected."""
    return len(curve.nodes) - len(curve.components) + 1


def betti_1(graph: DualGraph) -> int:
    """First Betti number ``#edges - #vertices + #connected components``."""
    return len(graph.edges) - len(graph.vertices) + graph.connected_component_count()


def jacobian_dimension(curve: NodalCurve) -> int:
    """Dimension of the group of line bundle gluings modulo trivial ones.

    Equals the first Betti number of the dual graph: one multiplicative
    torus factor per independent cycle.
    """
    return betti_1(dual_graph(curve))


def paper_example_curve() -> NodalCurve:
    """The reference curve used across the docs and test-suite.

    Three lines: C1 with marked points 0, 1; C2 with 0, 1, 2; C3 with 0.
    Nodes glue C1[0] to C3[0], C1[1] to C2[1], and C2[0] to C2[2] (a
    self-node). Connected, arithmetic genus 1; the dual graph is the
    path C3 - C1 - C2 with one loop at C2.
    """
    c1 = Component("C1", (affine_point(0), affine_point(1)))
    c2 = Component("C2", (affine_point(0), affine_point(1), affine_point(2)))
    c3 = Component("C3", (affine_point(0),))
    nodes = (
        NodeGluing(("C1", 0), ("C3", 0)),
        NodeGluing(("C1", 1), ("C2", 1)),
        NodeGluing(("C2", 0), ("C2", 2)),
    )
    return NodalCurve((c1, c2, c3), nodes)
