"""Projective embedding checks for line bundles on nodal curves.

Global generation and very ampleness each have two modes: a degree
criterion on the multidegree (min degree 2, respectively 3) and a
direct mode on a deterministic sample set: every node, plus seeded
pseudo-random affine points on each component. A direct test asks for
a nonzero evaluation row (generation) or for two independent rows,
point against point or value against jet (separation); exact 2 x 2
minors decide independence, without a rank. Random sampling can only
ever refute; the criterion is what certifies. The sampled checks share
one table per section space and sample arguments (``_sample_table``),
so the samples are drawn once and each point's value row is read once.

The rows are integers, read off the integer form of the basis that the
section space keeps (see ``bundles``) by one reader, ``_branch_vector``:
entry j is the value ``h_j / (s * den_j)`` of section j times ``s * L``,
with ``s > 0`` given by the point and the component's degree and L the
lcm of the basis denominators. One positive factor per point keeps a
row's zero pattern and scales each 2 x 2 minor by a positive factor; a
value row is a cone point for the quadric checks, and jet rows scale
the same way. The verdicts, witnesses and test counts are those of the
rational rows, reached with no Fraction arithmetic. ``embed_point``
alone builds Fractions, ``Fraction(h, s * den)``, for exact coordinates.

Every check takes the section space its caller holds (the verdicts,
the point-level tests, node bookkeeping and the multiplication map),
so a bundle is eliminated once however many checks and points use it.

The multiplication map Sym^m H0(L) -> H0(L^m) is assembled in the
canonical section bases on both sides, monomials ordered graded-lex
over basis indices. No system is solved: the target basis is the
identity on the free columns of the target's gluing rref, read off its
integer node rows with no basis or gluing matrix built, so a product's
coordinates are its terms at those columns, valid once an exact
node-by-node check has shown the product is a global section.
Products and that check run on the sparse integer terms of the basis
(see ``bundles``, whose ``_multiply`` is the one product routine), into
one integer matrix per map, kept as each monomial's nonzero
``(row, entry)`` pairs: most products are zero. One step,
``_degree_map``, builds a degree's map on the monomials it is given,
each product one more ``_multiply`` of a prefix kept from the degree
below; ``multiplication_map`` runs it on every monomial of each degree
in turn and makes Fractions of the top degree's entries. A
caller after a rank or a kernel can keep the integers: column j is the
rational column times ``den_j > 0``, so the rank is the same, and
``exactlin.certified_rank_of_columns`` takes it on the sparse columns
modulo one prime; as ``rank_p <= rank_Q <= min(rows, cols)``, that
certifies that the map is onto and never decides a shortfall (that
falls back to the exact rank of the same integers). Its kernel at m = 2
is the space of quadrics through the embedded curve.
``exactlin.kernel_of_columns`` finds it from the same sparse columns, a
zero product's monomial being a quadric by itself, and eliminates only
the nonzero ones, over Q, so it is the canonical basis of
``kernel_basis``: a vector w of the integer map gives the rational
kernel vector with entries ``den_j * w_j`` up to a positive factor.
m3 is proved onto, where it can be, by Castelnuovo's base-point-free
pencil trick (Green 1984; Eisenbud 2005, ch. 8), with no cubic built:
two sections s1, s2 with no common zero give the exact Koszul sequence
``0 -> L -> L^2 + L^2 -> L^3 -> 0`` on any curve, nodal and reducible
ones included, so with H1(L) = 0 and m2 onto, ``s1 * H0(L^2) +
s2 * H0(L^2) = H0(L^3)`` lies in m3's image. ``_pencil_trick`` checks its
three hypotheses exactly: m2's rank equals its rows, H1(L) = 0 by
``twisted_cohomology``, and the pencil ``s1 = sum b_j``,
``s2 = sum (j + 1) b_j`` of the basis has no common zero on any line
(``_pencil_is_free``: its values at infinity, and a gcd mod ``PRIME`` of
its restrictions that proves their gcd over Q is 1). Then m3's target
and rank are ``h0(L^3)``. Otherwise m3's rank is exact: its image is
``H0(L) * image(m2)``, each cubic monomial is ``x_c * (x_a x_b)``, and
m2's column for ``x_a x_b`` lies in the span of its pivot columns P,
those that are no kernel vector's free column, read off the exact kernel
with no second elimination. So the cubics ``x_i * p``, i a basis index
and p in P, span m3's image; ``cone_ideal`` builds each once,
node-checked as above, and ``certified_rank_of_columns`` ranks them.
Either way m3's reported source counts every cubic monomial.
``_quadric_forms`` keeps each quadric as its integer terms, the nonzero
``(den_j * w_j, i, j)``, with no denominator. ``quadric_ideal`` is
``kernel_basis``'s view of the same quadrics, from the rational map.
The rank of the quadrics' Jacobian at points of the affine cone is
exposed as a probe. The probe is a heuristic: it reflects the quadrics
alone, which are not known here to generate the full ideal, so no
smoothness verdict is derived from it. One evaluator and one Jacobian
read the integer quadrics at a point's integer cone coordinates,
``embed_point`` times a positive factor. A quadric is homogeneous, so
positive rescalings of it and of the point change neither which values
vanish nor the Jacobian's rank; of degree 2, so its gradient is linear
and the rank at the vertex is 0, with no Jacobian built. The gradients'
columns are built straight from the quadric terms at the nonzero
coordinates. Every quadric vanishes on the cone, so its gradient at a
cone point x kills x (``grad q(x) . x = 2 q(x) = 0``) and the tangent
jet of every branch through x (``_probe_rank``). Once each of those
known vectors is shown to be in the kernel exactly over Z,
``rank_p <= rank_Q <= n - k``, with k their rank, so a rank mod p equal
to ``n - k`` proves the rank with no kernel found; a shorter one is
taken over Q from the same integers, never decided mod p
(``_jacobian_rank``). ``cone_ideal``, ``singularity_probe`` and
``quadric_failures`` are the whole ideal computation a caller reports:
maps, quadrics, probe and vanishing check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, chain, combinations, combinations_with_replacement, islice
from math import comb, lcm
from operator import index
from typing import NamedTuple

from .bundles import SectionSpace, _dot, _flat_row, _glues, _homogeneous_row, _jet_row, _multiply, _node_rows
from .bundles import block_widths, power, twisted_cohomology
from .curve import NodalCurve, PointOnLine, affine_point
from .exactlin import PRIME, MatrixQ, VectorQ, _dense_rows, _forward_eliminate, _free, _kills
from .exactlin import as_scalar, certified_rank_of_columns, kernel_basis, kernel_of_columns

_ZERO = Fraction(0)

SAMPLE_SEED = 1105
_MAX_NUMERATOR = 24
_MAX_DENOMINATOR = 5
_POOL_SIZE = 169  # the distinct n/q with |n| <= 24 and 1 <= q <= 5

CRITERION_SATISFIED = "criterion-satisfied"
VERIFIED_ON_SAMPLES = "verified-on-samples"
FAILED = "failed"


class CurvePoint(NamedTuple):
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
    if not isinstance(x.coord, PointOnLine):
        raise TypeError(f"coordinate {x.coord!r} is no PointOnLine; build smooth points with CurvePoint.smooth")
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


def _branch_vector(space: SectionSpace, x: CurvePoint, row) -> tuple[int, ...]:
    """The basis at x as integers on one scale, read with ``row``: its
    values with ``_homogeneous_row``, ``embed_point`` times ``s * L > 0``
    or all zero where x has no image; its jets with ``_jet_row``."""
    ci, point = _branch_site(space.bundle.curve, x)
    weights, _ = row(block_widths(space.bundle)[ci], point)
    den = lcm(*(d for _, d in space.integral_basis))
    return tuple(_dot(blocks[ci], weights) * (den // d) for blocks, d in space.integral_basis)


def check_sample_count(curve: NodalCurve, extra_per_component: int) -> None:
    """Raise ``TypeError`` unless ``extra_per_component`` is an integer
    (``operator.index``), and ``ValueError`` unless every component has
    that many free points in the sample pool: the pool is the 169 values
    ``n/q`` with ``|n| <= 24``, ``1 <= q <= 5``, less the component's
    affine marked points in it, those ``a/b`` in lowest terms with
    ``b <= 5`` and ``|a| <= 24``. Nothing is drawn or stored."""
    extra_per_component = index(extra_per_component)
    for comp in curve.components:
        marked = {p.coord for p in comp.marked_points if not p.is_infinity}
        free = _POOL_SIZE - sum(c.denominator <= _MAX_DENOMINATOR and abs(c.numerator) <= _MAX_NUMERATOR for c in marked)
        if not 0 <= extra_per_component <= free:
            raise ValueError(
                f"component {comp.name} takes 0..{free} extra sample points, "
                f"{extra_per_component} requested"
            )


def sample_points(curve: NodalCurve, extra_per_component: int = 5, seed: int = SAMPLE_SEED) -> tuple[CurvePoint, ...]:
    """Deterministic sample set: all nodes, then seeded affine points.

    The pseudo-random points avoid marked points and repeats within a
    component. Identical arguments give an identical tuple, so witness
    order and every downstream report are reproducible. They are drawn
    from a finite pool, so a request that is negative or exceeds a
    component's free share of it raises ``ValueError`` from
    ``check_sample_count`` instead of drawing forever; a count or seed
    that is no integer raises ``TypeError``. The tuple is that of
    ``_samples``, which draws a point only when it is read.
    """
    return tuple(_samples(curve, extra_per_component, seed))


def _samples(curve: NodalCurve, extra_per_component: int, seed: int):
    """The points of ``sample_points`` in order, as a generator."""
    check_sample_count(curve, extra_per_component)
    rng = random.Random(index(seed))
    yield from (CurvePoint.at_node(k) for k in range(len(curve.nodes)))
    for comp in curve.components:
        taken = {p.coord for p in comp.marked_points if not p.is_infinity}
        chosen: list[Fraction] = []
        while len(chosen) < extra_per_component:
            candidate = Fraction(rng.randint(-_MAX_NUMERATOR, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR))
            if candidate in taken or candidate in chosen:
                continue
            chosen.append(candidate)
            yield CurvePoint.smooth(comp.name, candidate)


def _sample_table(space: SectionSpace, extra_samples: int, seed: int):
    """``sample_points(curve, extra_samples, seed)`` and each sample's
    value row, kept in the space's ``__dict__`` like its ``basis``, under
    the two arguments as integers, where no ``Value`` method sees it."""
    key = index(extra_samples), index(seed)
    tables = vars(space).setdefault("_sample_tables", {})
    if key not in tables:
        samples = sample_points(space.bundle.curve, *key)
        tables[key] = samples, [_branch_vector(space, x, _homogeneous_row) for x in samples]
    return tables[key]


class AmpleVerdict(NamedTuple):
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
    if len(space.integral_basis) < 1:
        return AmpleVerdict(FAILED, "no global sections (h0 = 0)", 0)
    samples, values = _sample_table(space, extra_samples, seed)
    for x, value in zip(samples, values):
        if not any(value):
            return AmpleVerdict(FAILED, f"all sections vanish at {x}", len(samples))
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


def _jet_tests(space: SectionSpace, x: CurvePoint, value: tuple[int, ...]):
    """Yield ``(witness, value row, jet row)`` for each first-order test
    at x: one at a smooth point, one per branch at a node without a
    branch selector, and the selected branch's at a node with one. A
    witness is a ``(template, arguments)`` pair, formatted only for a
    test that fails.

    ``value`` is x's value row as ``_branch_vector`` reads it: the
    selected branch's, branch 0's at a node without a selector. The one
    value row read here is branch 1's at a node without a selector."""
    if not x.is_node:
        yield ("jet test fails at {}", (x,)), value, _branch_vector(space, x, _jet_row)
        return
    for b in (0, 1) if x.branch is None else (x.branch,):
        at = CurvePoint.at_node(x.node, b)
        u = value if b == (x.branch or 0) else _branch_vector(space, at, _homogeneous_row)
        yield ("jet test fails on branch {} of {}", (b, x)), u, _branch_vector(space, at, _jet_row)


def separates_points(space: SectionSpace, x: CurvePoint, y: CurvePoint) -> bool:
    """Whether sections map x and y to distinct projective points.

    Equivalent statement: the 2 x h0 matrix of basis evaluations has
    rank 2, i.e. restriction to the two points is onto.
    """
    if len(space.integral_basis) < 2:
        raise ValueError("need at least two sections to separate points")
    _check_point(space.bundle.curve, x)
    _check_point(space.bundle.curve, y)
    if x._replace(branch=None) == y._replace(branch=None):  # one closed point, whichever branches are named
        raise ValueError("the two points must be distinct")
    return _independent(_branch_vector(space, x, _homogeneous_row), _branch_vector(space, y, _homogeneous_row))


def separates_jets(space: SectionSpace, x: CurvePoint) -> bool:
    """Whether sections surject onto first-order data at x: the value
    row and the jet row are independent. At a node the test is
    branch-local, and both branches must pass unless x selects one.
    x's value row is read once, for ``_jet_tests``.
    """
    if len(space.integral_basis) < 2:
        raise ValueError("need at least two sections to separate jets")
    _check_point(space.bundle.curve, x)
    tests = _jet_tests(space, x, _branch_vector(space, x, _homogeneous_row))
    return all(_independent(u, v) for _, u, v in tests)


def very_ample(space: SectionSpace, extra_samples: int = 5, seed: int = SAMPLE_SEED) -> AmpleVerdict:
    """Criterion: min degree >= 3. Direct mode: separation of all sample
    pairs, then jets at every sample point (branch by branch at nodes),
    as one ordered stream of tests. The value rows are the sample table's,
    for the pairs and the jets; a node's branch 1 adds one read.

    The witness is the first failing test, formatted only once it fails;
    ``samples_checked`` counts the tests run up to it, node branches
    individually. A bundle with fewer than two sections fails outright,
    after no tests.
    """
    if len(space.integral_basis) < 2:
        return AmpleVerdict(FAILED, f"fewer than two global sections (h0 = {len(space.integral_basis)})", 0)
    samples, values = _sample_table(space, extra_samples, seed)
    pairs = (
        (("sections do not separate {} and {}", (samples[i], samples[j])), values[i], values[j])
        for i, j in combinations(range(len(samples)), 2)
    )
    jets = (test for x, value in zip(samples, values) for test in _jet_tests(space, x, value))
    checked = 0
    for checked, ((template, args), u, v) in enumerate(chain(pairs, jets), start=1):
        if not _independent(u, v):
            return AmpleVerdict(FAILED, template.format(*args), checked)
    criterion = min(space.bundle.multidegree) >= 3
    status = CRITERION_SATISFIED if criterion else VERIFIED_ON_SAMPLES
    return AmpleVerdict(status, None, checked)


def embed_point(space: SectionSpace, x: CurvePoint) -> VectorQ:
    """Projective coordinates of x under the canonical section basis.

    Node points evaluate through branch 0 by default; branch 1 returns
    the same projective point, rescaled by the inverse gluing scalar.
    Each coordinate is the exact value ``Fraction(h, s * den)`` of a
    basis section (see ``bundles._homogeneous_row``).
    """
    _check_point(space.bundle.curve, x)
    ci, point = _branch_site(space.bundle.curve, x)
    row, s = _homogeneous_row(block_widths(space.bundle)[ci], point)
    values = [Fraction(_dot(blocks[ci], row), s * den) for blocks, den in space.integral_basis]
    if all(v == 0 for v in values):
        raise ValueError(f"every section vanishes at {x}; the bundle is not globally generated there")
    return tuple(values)


def node_images_consistent(space: SectionSpace) -> bool:
    """Exact branch bookkeeping check at every node.

    The basis evaluation vector through branch a must equal the gluing
    scalar times the vector through branch b, entry by entry: every
    basis section satisfies every node constraint.
    """
    node_rows = _node_rows(space.bundle)
    return all(_glues(node_rows, blocks) for blocks, _ in space.integral_basis)


def sym_monomials(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Degree-m monomials in n variables as sorted index tuples,
    graded-lex order (the order combinations_with_replacement emits)."""
    return tuple(combinations_with_replacement(range(n), m))


def _target(bundle, m: int):
    """``(node_rows, tables, rows)`` for the map into ``L^m``: its
    ``_node_rows``; per component, the target row of each slot of its
    block, None at a slot without one; and the number of rows, h0(L^m).

    The rows are the target's free columns, where the target basis is the
    identity: those without a pivot in the target's ``_flat_row`` rows,
    each G's row times a positive scale."""
    target = power(bundle, m)
    node_rows = _node_rows(target)
    widths = block_widths(target)
    offsets = tuple(accumulate(widths, initial=0))
    free = _free(offsets[-1], _forward_eliminate([_flat_row(offsets, node) for node in node_rows]))
    row_of = {c: i for i, c in enumerate(free)}
    tables = tuple(tuple(row_of.get(at + k) for k in range(w)) for at, w in zip(offsets, widths))
    return node_rows, tables, len(free)


def _degree_map(space: SectionSpace, target, prefixes, monos, kept: dict | None = None):
    """The integer map of Sym^m H0(L) -> H0(L^m) on the columns of
    ``monos``, degree-m monomials, as ``(columns, dens, rows)``: for each
    monomial the nonzero entries ``(i, h)`` of its column, where entry
    (i, j) of the map is ``Fraction(h, dens[j])`` with ``dens[j] > 0``;
    and the number of rows, the target's h0. ``target`` is
    ``_target(space.bundle, m)``, built once per degree.

    Each product is one ``_multiply`` of its degree-(m - 1) prefix, read
    from ``prefixes``, by its last basis section (the basis section
    itself at m = 1), and is stored in ``kept`` when one is given. Each
    product, zero or not, is first checked exactly against every node
    constraint of ``L^m``, on integers. Once it is known to be a global
    section, its coordinates are its terms at the target's rows, read
    through the target's tables. A product failing the check would mean
    the gluing bookkeeping is broken, and raises ``ArithmeticError``
    rather than reading off coordinates that do not reproduce it.
    """
    basis = space.integral_basis
    node_rows, tables, rows = target
    columns, dens = [], []
    for mono in monos:
        product = _multiply(prefixes[mono[:-1]], basis[mono[-1]]) if len(mono) > 1 else basis[mono[0]]
        blocks, den = product
        if not _glues(node_rows, blocks):
            raise ArithmeticError(
                f"product for monomial {mono} is not a global section of the target; "
                "gluing bookkeeping is broken"
            )
        if kept is not None:
            kept[mono] = product
        column = ((table[k], c) for table, terms in zip(tables, blocks) for k, c in terms if table[k] is not None)
        # a tuple, not a list: the many zero products then share the empty tuple, and m3 holds less memory
        columns.append(tuple(column))
        dens.append(den)
    return columns, dens, rows


def multiplication_map(space: SectionSpace, m: int) -> MatrixQ:
    """Matrix of Sym^m H0(L) -> H0(L^m) in the canonical bases, with L
    the bundle of ``space``.

    Columns follow ``sym_monomials(h0, m)``; each column is the product
    of the chosen basis sections, expressed in the canonical basis of
    the target. The integer maps of degrees 2..m (m = 1 alone, the
    basis's identity) are built in turn by ``_degree_map``, each on every
    monomial of its degree; a degree's products are kept only while the
    next degree reads them as prefixes, so the top degree's are never all
    held at once. Surjectivity is ``rank == h0(L^m)``.
    """
    if m < 1:
        raise ValueError("multiplication maps are defined for m >= 1")
    basis = space.integral_basis
    prefixes = {(i,): form for i, form in enumerate(basis)}
    for degree in range(min(2, m), m + 1):
        products = {} if degree < m else None
        monos = sym_monomials(len(basis), degree)
        columns, dens, rows = _degree_map(space, _target(space.bundle, degree), prefixes, monos, products)
        prefixes = products
    # most entries are zero; they share one Fraction instead of one each
    entries = [[Fraction(h, d) if h else _ZERO for h, d in zip(row, dens)] for row in _dense_rows(columns, rows)]
    return MatrixQ.from_rows(entries, cols=len(dens))


def quadric_ideal(m2: MatrixQ) -> tuple[VectorQ, ...]:
    """Canonical basis of quadrics through the embedded curve:
    ``kernel_basis(m2)``, coefficient vectors over
    ``sym_monomials(h0, 2)``.

    Takes the m = 2 multiplication map, so a caller that also reports
    the map builds it once. For an h0-dimensional section space the
    count is ``C(h0 + 1, 2) - rank``. ``_quadric_forms`` holds the same
    quadrics in integer form.
    """
    return tuple(kernel_basis(m2))


_Quadric = tuple[tuple[int, int, int], ...]


def _quadric_forms(columns, dens, rows: int, n: int) -> tuple[_Quadric, ...]:
    """The quadrics through the curve in integer form, from the integer
    m = 2 map ``(columns, dens, rows)`` of ``_degree_map`` on an
    n-dimensional space: the vectors of ``quadric_ideal``, each as its
    nonzero terms ``(c, i, j)``, the quadric ``sum c x_i x_j``.

    The integer map is the rational one times ``diag(dens)``, so each
    vector w of its ``kernel_of_columns`` gives the canonical kernel vector
    as ``u_j = dens[j] * w_j`` over u's last entry, which is positive."""
    monos = sym_monomials(n, 2)
    return tuple(tuple((dens[j] * c, *monos[j]) for j, c in w) for w in kernel_of_columns(columns, rows))


def _quadric_at(terms: _Quadric, x) -> int:
    """The value at x of the quadric with integer terms ``terms``."""
    return sum(c * x[i] * x[j] for c, i, j in terms)


def _jacobian_rank(forms, x, known=(), at: CurvePoint | None = None) -> int:
    """Rank of the integer quadrics' gradients at an integer point x,
    taken by ``certified_rank_of_columns`` on the nonzero columns, each
    its nonzero ``(quadric, d/dx_i)``. A term ``c x_i x_j`` adds ``c x_j``
    to column i only where ``x_j != 0``, so a square term adds ``c x_i``
    twice.

    The vectors ``known`` are ones every gradient must kill, made sparse
    once: each is checked to be in the kernel exactly over Z, else
    ``ArithmeticError`` names the point ``at``, and with k their rank,
    as the columns of a transpose, ``rank_Q <= len(x) - k``,
    the bound a rank mod p must reach to be certified; short of it the
    rank is taken over Q from the same integers, never decided mod p."""
    grads: list[dict[int, int]] = [{} for _ in x]
    for q, terms in enumerate(forms):
        for c, i, j in terms:
            if x[j]:
                grads[i][q] = grads[i].get(q, 0) + c * x[j]
            if x[i]:
                grads[j][q] = grads[j].get(q, 0) + c * x[i]
    columns = [[(q, e) for q, e in grad.items() if e] for grad in grads]
    known = [[(j, c) for j, c in enumerate(v) if c] for v in known]
    if not all(_kills(columns, len(forms), w) for w in known):
        raise ArithmeticError(
            f"a vector known to be in the kernel of the quadrics' Jacobian at {at} is not; "
            "the cone point or a branch jet is broken"
        )
    bound = len(x) - certified_rank_of_columns(known, len(x))
    return certified_rank_of_columns([column for column in columns if column], len(forms), bound)


def _probe_rank(space: SectionSpace, forms, x: CurvePoint) -> int | None:
    """The rank of the quadric forms' Jacobian at the cone point of x,
    or None where x has no image. Every quadric q vanishes on the cone,
    so its gradient there kills the point (``grad q(x) . x = 2 q(x)``)
    and the tangent jet of every branch through it: the cone vector and
    the jets of both branches at a node, of the point itself elsewhere,
    are ``_jacobian_rank``'s known vectors."""
    coords = _branch_vector(space, x, _homogeneous_row)
    if not any(coords):
        return None
    branches = [CurvePoint.at_node(x.node, b) for b in (0, 1)] if x.is_node else [x]
    known = [coords, *(_branch_vector(space, b, _jet_row) for b in branches)]
    return _jacobian_rank(forms, coords, known, x)


def _gcd(g: list[int], h: list[int]) -> list[int]:
    """A gcd mod ``PRIME`` of two polynomials, coefficients low to high,
    g nonzero and each with no trailing zero, up to a unit: ``[1]`` when
    it is one. Euclid's algorithm, each step g mod h by long division."""
    while len(h) > 1:
        g, top, inv = g[:], len(h) - 1, pow(h[-1], -1, PRIME)
        for i in range(len(g) - 1, top - 1, -1):
            f = g[i] * inv % PRIME
            for j in range(top):
                g[i - top + j] = (g[i - top + j] - f * h[j]) % PRIME
        g, h = h, _trimmed(g[:top])
    return [1] if h else g


def _pencil_is_free(space: SectionSpace) -> bool:
    """Whether the pencil ``s1 = sum b_j``, ``s2 = sum (j + 1) b_j`` of
    the basis, times the lcm of its denominators, has no common zero, line
    by line: a line of width 0 fails; the values at infinity, the
    coefficients of ``t^(w - 1)``, must not both be 0; and for w >= 2, with
    F the restriction whose true leading coefficient is nonzero mod
    ``PRIME`` and G the other, nonzero mod ``PRIME``, ``_gcd`` must be a
    unit. Then their gcd over Q is 1: a primitive common factor over Q
    divides F in Z[t], so its leading coefficient is a unit mod ``PRIME``,
    and its reduction keeps its degree and divides both reductions."""
    basis = space.integral_basis
    den = lcm(*(d for _, d in basis))
    for ci, width in enumerate(block_widths(space.bundle)):
        pencil = [[0] * width, [0] * width]
        for j, (blocks, d) in enumerate(basis):
            for k, c in blocks[ci]:
                pencil[0][k] += c * (den // d)
                pencil[1][k] += (j + 1) * c * (den // d)
        if not (width and (pencil[0][-1] or pencil[1][-1])):
            return False
        if width > 1:
            f, g = map(_trimmed, pencil)
            if not (f and f[-1] % PRIME):
                f, g = g, f
            g = _trimmed([c % PRIME for c in g])
            if not (f and f[-1] % PRIME and g) or len(_gcd([c % PRIME for c in f], g)) > 1:
                return False
    return True


def _trimmed(coeffs: list[int]) -> list[int]:
    """``coeffs``, low to high, less its zero coefficients at the top."""
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    return coeffs


def _pencil_trick(space: SectionSpace, m2: tuple[int, int, int]) -> bool:
    """Whether the base-point-free pencil trick proves m3 onto (see the
    module docstring): m2, as ``(source, target, rank)``, is onto,
    H1(L) = 0, and the pencil of ``_pencil_is_free`` has no common zero."""
    bundle = space.bundle
    return (
        m2[2] == m2[1]
        and twisted_cohomology(bundle.curve, bundle.multidegree, bundle.pairs, 1)[1] == 0
        and _pencil_is_free(space)
    )


def cone_ideal(space: SectionSpace) -> tuple[tuple[int, int, int], tuple[int, int, int], tuple[_Quadric, ...]]:
    """``(m2, m3, quadrics)``: the m = 2 and m = 3 multiplication maps of
    ``space`` as ``(source, target, rank)``, and the quadrics through the
    curve in integer form (``_quadric_forms``). m2 stays the integers of
    ``_degree_map``, and its kernel, whose count gives its rank, is taken
    over Q. m3's ``source`` counts every cubic monomial, ``C(h0 + 2, 3)``.
    Where ``_pencil_trick`` holds, m3 is onto, and its target and rank are
    ``h0(L^3)`` from ``twisted_cohomology``, with no cubic built.
    Otherwise each cubic ``x_i * p``, i a basis index and p one of m2's
    pivot monomials, those that are no quadric's last term, is built and
    node-checked once, and ``certified_rank_of_columns`` ranks them all:
    they span m3's image, as the module docstring sets out."""
    basis = space.integral_basis
    n = len(basis)
    monos = sym_monomials(n, 2)
    products: dict = {}
    prefixes = {(i,): form for i, form in enumerate(basis)}
    columns, dens, rows = _degree_map(space, _target(space.bundle, 2), prefixes, monos, products)
    quadrics = _quadric_forms(columns, dens, rows, n)
    m2 = (len(dens), rows, len(dens) - len(quadrics))
    if _pencil_trick(space, m2):
        bundle = space.bundle
        rows = twisted_cohomology(bundle.curve, bundle.multidegree, bundle.pairs, 3)[0]
        return m2, (comb(n + 2, 3), rows, rows), quadrics
    lead = {terms[-1][1:] for terms in quadrics}
    cubics = sorted({tuple(sorted((*p, i))) for p in monos if p not in lead for i in range(n)})
    columns, _, rows = _degree_map(space, _target(space.bundle, 3), products, cubics)
    return m2, (comb(n + 2, 3), rows, certified_rank_of_columns(columns, rows)), quadrics


def singularity_probe(space: SectionSpace, forms, extra_samples: int, seed: int) -> tuple:
    """``(vertex, nodes, smooth)``: the ranks of the Jacobian of the
    quadric forms of ``cone_ideal`` at the cone's vertex, at each node and
    at the first smooth point of ``sample_points`` in that order, no point
    after it drawn; ``smooth`` is empty where no sample is smooth. A point
    with no image has rank None (``_probe_rank``). The vertex's rank is 0,
    no Jacobian built: a quadric's gradient is linear, 0 at the vertex."""
    curve = space.bundle.curve
    nodes = [_probe_rank(space, forms, CurvePoint.at_node(k)) for k in range(len(curve.nodes))]
    smooth = (x for x in _samples(curve, extra_samples, seed) if not x.is_node)
    return 0, nodes, [_probe_rank(space, forms, x) for x in islice(smooth, 1)]


def quadric_failures(space: SectionSpace, forms, extra_samples: int, seed: int) -> tuple[int, int]:
    """``(points, failures)``: how many points of ``sample_points(curve,
    extra_samples, seed)`` have an image, and how many values of the
    quadric forms of ``cone_ideal`` at those images are nonzero. A point
    where every section vanishes has no image to test."""
    images = [v for v in _sample_table(space, extra_samples, seed)[1] if any(v)]
    return len(images), sum(1 for v in images for q in forms if _quadric_at(q, v))


def quadric_value(quadric, coords) -> Fraction:
    """Value of a quadric coefficient vector at affine coordinates."""
    values = [as_scalar(c) for c in coords]
    monos = sym_monomials(len(values), 2)
    if len(quadric) != len(monos):
        raise ValueError(f"quadric length {len(quadric)} does not match {len(monos)} monomials")
    return sum((c * values[i] * values[j] for c, (i, j) in zip(map(as_scalar, quadric), monos) if c), _ZERO)
