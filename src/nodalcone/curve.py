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
the derived quantities never check the curve again, and every node
branch is resolved once, in ``NodalCurve.sites``. Both ``validate`` and
``sites`` resolve a component name through one dict from each name to
the index of its first component (``name_index``), built once per curve;
``reference_problems`` is the one rule, with its messages, that a node
branch resolves, for ``validate`` and the command line's parser. Each
component's onto threshold ``max(0, n - 1)``, with n its marked points,
is derived once too, in ``NodalCurve.onto_thresholds``: the least degree
at which its polynomials reach every tuple of values at those points
(see ``bundles``). ``NodalCurve.branch_rows`` is the one table of node
branch rows that ``bundles`` fills for every bundle on the curve.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from .exactlin import _Frozen, as_scalar

_set = object.__setattr__


class InvalidCurveError(ValueError):
    """Raised when a ``NodalCurve`` is built from data that fails ``validate``."""


class Value(_Frozen):
    """Base of the immutable values, compared, hashed and shown by the
    attributes named in ``_fields``: ``__reduce__`` is the constructor
    call that rebuilds a value from them, for pickling and copying too."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


class PointOnLine(Value):
    """A point of the projective line: an affine rational coordinate or infinity.

    ``coord`` is the affine coordinate; ``None`` encodes the point at
    infinity.
    """

    __slots__ = _fields = ("coord",)

    def __init__(self, coord: Fraction | int | str | None = None) -> None:
        _set(self, "coord", None if coord is None else as_scalar(coord))

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
Site = tuple[int, int, PointOnLine]


class Component(Value):
    """A projective line with an ordered tuple of marked points."""

    __slots__ = _fields = ("name", "marked_points")

    def __init__(self, name: str, marked_points: tuple[PointOnLine, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "marked_points", tuple(marked_points))


class NodeGluing(Value):
    """Ordered identification of two marked-point branches.

    Branch order matters downstream: gluing constraints read
    "value on branch_a equals scalar times value on branch_b".
    """

    __slots__ = _fields = ("branch_a", "branch_b")

    def __init__(self, branch_a: Branch, branch_b: Branch) -> None:
        _set(self, "branch_a", (branch_a[0], operator.index(branch_a[1])))
        _set(self, "branch_b", (branch_b[0], operator.index(branch_b[1])))


class NodalCurve(Value):
    """Components and node gluings, checked by ``validate`` on construction.

    Derived, never passed, and no part of equality, hash or repr:
    ``sites``, once ``validate`` accepts, per node the ``(component index,
    marked-point index, point)`` of branch a, then of branch b;
    ``onto_thresholds``, per component ``max(0, n - 1)`` for its n marked
    points; and ``branch_rows``, a dict that starts empty and that
    ``bundles`` fills, from (component index, marked-point index, width)
    to that branch's ``_homogeneous_row``. Its keys and rows depend only
    on the curve, so every bundle on it shares them, and a pickle or copy
    rebuilds the curve with an empty table. Names resolve through
    ``_index``, each name's first component.
    """

    __slots__ = ("components", "nodes", "sites", "onto_thresholds", "branch_rows", "_index")
    _fields = ("components", "nodes")

    def __init__(self, components: tuple[Component, ...], nodes: tuple[NodeGluing, ...] = ()) -> None:
        _set(self, "components", tuple(components))
        _set(self, "nodes", tuple(nodes))
        index = name_index(self.components)
        _set(self, "_index", index)
        problems = validate(self)
        if problems:
            raise InvalidCurveError("; ".join(problems))
        comps = self.components
        sites = tuple(
            tuple((index[c], k, comps[index[c]].marked_points[k]) for c, k in (n.branch_a, n.branch_b))
            for n in self.nodes
        )
        _set(self, "sites", sites)
        _set(self, "onto_thresholds", tuple(max(0, len(c.marked_points) - 1) for c in comps))
        _set(self, "branch_rows", {})

    def component_index(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"no component named {name!r}")
        return i

    def component(self, name: str) -> Component:
        return self.components[self.component_index(name)]


class DualGraph(NamedTuple):
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


def name_index(components) -> dict[str, int]:
    """Each component name to the index of its first component."""
    return {c.name: i for i, c in reversed(tuple(enumerate(components)))}


def reference_problems(components, index: dict[str, int], k: int, node: NodeGluing) -> list[str]:
    """Why node k's branches do not resolve, empty when both do: each
    must name a component, its first by that name (``index``), and the
    index of one of its marked points."""
    problems = []
    for label, (cname, idx) in (("a", node.branch_a), ("b", node.branch_b)):
        ci = index.get(cname)
        if ci is None:
            problems.append(f"node {k}: branch {label} references unknown component {cname!r}")
            continue
        n = len(components[ci].marked_points)
        if not 0 <= idx < n:
            problems.append(
                f"node {k}: branch {label} references marked point index {idx} outside component {cname} (which has {n})"
            )
    return problems


def validate(curve: NodalCurve) -> list[str]:
    """All structural violations, as human-readable strings.

    Checks, in order: unique component names, distinct marked points per
    component, resolvable and distinct node branches, every marked point
    attached to exactly one node branch, and connectedness of the dual
    graph. Connectedness is only assessed once the references resolve.
    """
    problems: list[str] = []
    index = curve._index

    for i, comp in enumerate(curve.components):
        if index[comp.name] != i:
            problems.append(f"duplicate component name {comp.name!r}")

    for comp in curve.components:
        # keyed on the lowest-terms pair, not the point: hashing a Fraction
        # takes a modular inverse
        seen_pts: set[tuple[int, int] | None] = set()
        for p in comp.marked_points:
            key = None if p.coord is None else (p.coord.numerator, p.coord.denominator)
            if key in seen_pts:
                problems.append(
                    f"component {comp.name}: marked point {p} appears more than once"
                )
            seen_pts.add(key)

    refs_ok = True
    usage: dict[Branch, int] = {}
    for k, node in enumerate(curve.nodes):
        found = reference_problems(curve.components, index, k, node)
        if found:
            problems.extend(found)
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
