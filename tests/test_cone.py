"""Graded deformation table of the affine cone."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_with_infinity, random_bundle, random_curve, reference_power, reference_tangent, reference_tensor
from nodalcone import bundles
from nodalcone.bundles import (
    LineBundle,
    cohomology,
    component_h1,
    gluing_matrix,
    h0,
    h1_direct,
    line_bundle,
    power,
    tangent_bundle,
    tensor,
    twisted_cohomology,
)
from nodalcone.cone import (
    DIRECT,
    EMBEDDING_SLOT,
    EQUISINGULAR_SLOT,
    FORMULA,
    SMOOTHING,
    WeightEntry,
    deformation_bundle,
    graded_report,
    t0_dim,
    t1_dim,
)
from nodalcone.curve import INFINITY, Component, NodalCurve, NodeGluing, affine_point, arithmetic_genus, paper_example_curve
from nodalcone.exactlin import rank

F = Fraction


def _fraction_cohomology(bundle):
    """``(h0, h1)`` from the rank of the whole gluing matrix over Q."""
    full = gluing_matrix(bundle)
    r = rank(full)
    return full.cols - r, full.rows - r + sum(component_h1(d) for d in bundle.multidegree)


def _reference_twist(curve, bundle, m):
    """F_m = T (x) L^m from conftest's Fraction references, so an oracle
    shares no pair arithmetic with the code under test."""
    return reference_tensor(reference_tangent(curve), reference_power(bundle, m))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_graded_report_matches_the_bundle_by_bundle_cohomology(seed):
    # small degrees, so components of degree 0 <= d < n - 1 leave residual
    # rows at many weights, with scalars t_k g_k^m up to |m| = 8
    rng = random.Random(seed)
    curve = curve_with_infinity(rng)
    bundle = random_bundle(rng, curve, (-2, 2))
    tangent = tangent_bundle(curve)
    entries = graded_report(curve, bundle, -8, 8).entries
    assert [e.m for e in entries] == list(range(-8, 9))
    for e in entries:
        twist = tensor(tangent, power(bundle, e.m))
        assert (e.t0_direct, e.t1_direct) == cohomology(twist) == _fraction_cohomology(_reference_twist(curve, bundle, e.m))
        assert e.hilbert == h0(power(bundle, e.m)) == _fraction_cohomology(reference_power(bundle, e.m))[0]


_COORDINATES = sorted({F(p, q) for p in range(-6, 7) for q in (1, 2, 3)})


def _sweep_curve(rng):
    """A connected curve of 1-6 lines in the regimes of the random specs
    ``deform`` sweeps: leaves with one marked point, self-nodes, and a
    point at infinity on about a quarter of the lines."""
    n = rng.randint(1, 6)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(rng.randint(0, 3)):
        a = rng.randrange(n)
        edges.append((a, a) if rng.random() < 0.4 else (a, rng.randrange(n)))
    counts = [0] * n
    refs = []
    for a, b in edges:
        refs.append(((f"L{a}", counts[a]), (f"L{b}", counts[b] + (a == b))))
        counts[a] += 1
        counts[b] += 1
    components = []
    for i in range(n):
        pts = [affine_point(x) for x in rng.sample(_COORDINATES, counts[i])]
        if pts and rng.random() < 0.25:
            pts[rng.randrange(len(pts))] = INFINITY
        components.append(Component(f"L{i}", tuple(pts)))
    return NodalCurve(tuple(components), tuple(NodeGluing(a, b) for a, b in refs))


def test_cohomology_of_matches_the_fraction_oracle_on_sweep_regimes():
    """``twisted_cohomology`` on F_m and L^m, called as ``graded_report``
    calls it, with every call on a curve sharing its branch-row table,
    equals the rank of the whole gluing matrix over Q at every weight
    -12..12, for bundles of degrees -3..6 with a degree-0 line, on a lone
    line without marked points and on random curves."""
    rng = random.Random(1974)
    curves = [NodalCurve((Component("L0", ()),))] + [_sweep_curve(rng) for _ in range(30)]
    assert {0, 1} <= {len(c.marked_points) for curve in curves for c in curve.components}
    assert any(n.branch_a[0] == n.branch_b[0] for curve in curves for n in curve.nodes)
    assert any(INFINITY in c.marked_points for curve in curves for c in curve.components)
    nonzero = [x for x in range(-5, 6) if x != 0]
    for curve in curves:
        degrees = [rng.randint(-3, 6) for _ in curve.components]
        degrees[rng.randrange(len(degrees))] = 0
        bundle = LineBundle(curve, degrees, tuple(F(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes))
        tangent, l, g = tangent_bundle(curve), bundle.multidegree, bundle.pairs
        for m in range(-12, 13):
            twist, lm = _reference_twist(curve, bundle, m), reference_power(bundle, m)
            assert twisted_cohomology(curve, l, g, m, tangent) == _fraction_cohomology(twist)
            assert twisted_cohomology(curve, l, g, m) == _fraction_cohomology(lm)


def test_cohomology_of_is_free_of_the_pairs_scale(monkeypatch):
    """A pair ``(c num, c den)`` is the same scalar for every nonzero c,
    and ``twisted_cohomology`` gives the same ``(h0, h1)`` for c in -3, 1,
    7 as for the reduced pair, on the sweep regimes at every weight
    -12..12, negative scalars at odd negative weights among them; 30-digit
    numerators and denominators equal the rank over Q. The scale rides on
    the twist's pairs (T's, or the trivial bundle's ``(c, c)``), so each
    scalar ``t_k g_k^m`` the routine forms is c times its unscaled pair."""
    rng = random.Random(1979)
    big = 10**29
    handed = []
    power, scale = bundles._power, None  # the c of the running call, None for the reduced one

    def recording(g, m, t=(1, 1)):
        num, den = power(g, m, t)
        if scale is not None:
            handed.append((num // scale, den // scale))
        return num, den

    def scaled(c, twist):
        return bundles._bundle(twist.curve, twist.multidegree, ((c * num, c * den) for num, den in twist.pairs))

    monkeypatch.setattr(bundles, "_power", recording)

    for draw in range(30):
        curve = _sweep_curve(rng)
        degrees = [rng.randint(-3, 6) for _ in curve.components]
        degrees[rng.randrange(len(degrees))] = 0
        if draw % 3:
            scalars = [F(rng.choice([-5, -3, -2, 2, 3, 5]), rng.randint(1, 3)) for _ in curve.nodes]
        else:
            scalars = [
                F(rng.choice([-1, 1]) * rng.randrange(big, 10 * big), rng.randrange(big, 10 * big)) for _ in curve.nodes
            ]
        bundle = LineBundle(curve, degrees, scalars)
        tangent, trivial = tangent_bundle(curve), line_bundle(curve, (0,) * len(curve.components))
        l, g = bundle.multidegree, bundle.pairs
        for m in range(-12, 13):
            twist, lm = _reference_twist(curve, bundle, m), reference_power(bundle, m)
            for shift, oracle in ((tangent, twist), (trivial, lm)):
                reduced = twisted_cohomology(curve, oracle.multidegree, oracle.pairs, 1)
                assert reduced == _fraction_cohomology(oracle)
                for scale in (-3, 1, 7):
                    assert twisted_cohomology(curve, l, g, m, scaled(scale, shift)) == reduced
                scale = None
    # denominators below zero, from negative scalars at odd negative weights
    assert sum(den < 0 for _, den in handed) > 100
    assert any(abs(num) >= 10**29 <= abs(den) for num, den in handed)


def test_graded_report_builds_each_branch_row_once_and_no_fraction_power(monkeypatch):
    """One ``graded_report`` on a spec with a degree-0 line builds the
    ``_homogeneous_row`` of each (component, marked point, width) its
    residual blocks use exactly once, across F_m, L^m and every weight,
    and takes no Fraction power, at -3..3 and at -12..12, each on a fresh
    curve, whose branch-row table starts empty."""
    built, powers = [], []
    homogeneous_row, fraction_pow = bundles._homogeneous_row, F.__pow__

    def counting_row(width, p):
        built.append((width, p))
        return homogeneous_row(width, p)

    def counting_pow(a, b, *rest):
        powers.append((a, b))
        return fraction_pow(a, b, *rest)

    for lo, hi in ((-3, 3), (-12, 12)):
        curve = paper_example_curve()
        bundle = LineBundle(curve, (0, 1, 2), (F(5, 3), F(-2, 7), F(3)))
        tangent = tangent_bundle(curve)
        thresholds = [max(0, len(c.marked_points) - 1) for c in curve.components]
        expected = set()
        for m in range(lo, hi + 1):
            for degrees in (
                [a + m * d for a, d in zip(tangent.multidegree, bundle.multidegree)],
                [m * d for d in bundle.multidegree],
            ):
                widths = [None if d >= n else max(0, d + 1) for d, n in zip(degrees, thresholds)]
                for (ia, ka, _), (ib, kb, _) in curve.sites:
                    if None not in (widths[ia], widths[ib]) and (widths[ia] or widths[ib]):
                        expected |= {(ia, ka, widths[ia]), (ib, kb, widths[ib])}
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bundles, "_homogeneous_row", counting_row)
            patch.setattr(F, "__pow__", counting_pow)
            entries = graded_report(curve, bundle, lo, hi).entries
        assert len(built) == len(expected) > 0 and powers == []
        assert Counter(built) == Counter((w, curve.components[i].marked_points[k]) for i, k, w in expected)
        for e in entries:
            assert (e.t0_direct, e.t1_direct) == _fraction_cohomology(_reference_twist(curve, bundle, e.m))
            assert e.hilbert == _fraction_cohomology(reference_power(bundle, e.m))[0]


def test_weights_with_every_line_negative_or_onto_run_no_elimination(monkeypatch):
    from nodalcone.exactlin import certified_rank

    calls = []

    def counting(rows, cols):
        calls.append((len(rows), cols))
        return certified_rank(rows, cols)

    monkeypatch.setattr(bundles, "certified_rank", counting)
    rng = random.Random(2718)
    quiet = 0
    for _ in range(30):
        curve = _sweep_curve(rng)
        bundle = LineBundle(curve, [rng.randint(-3, 6) for _ in curve.components], (F(2),) * len(curve.nodes))
        tangent = tangent_bundle(curve)
        thresholds = [max(0, len(c.marked_points) - 1) for c in curve.components]
        for m in range(-12, 13):
            degrees = tuple(a + m * d for a, d in zip(tangent.multidegree, bundle.multidegree))
            if all(d < 0 or d >= n for d, n in zip(degrees, thresholds)):
                quiet += 1
                twisted_cohomology(curve, bundle.multidegree, bundle.pairs, m, tangent)
    assert quiet > 100 and calls == []
    # and a line of degree 0 <= d < n - 1 does eliminate its uncovered nodes
    paper = paper_example_curve()
    twisted_cohomology(paper, (0, 0, 0), ((1, 1),) * 3, 1)
    assert calls == [(2, 2)]


def test_hilbert_function_values(paper_curve):
    """The table's Hilbert column, ``h0(L^m)``, at m = 0, 1, ..."""
    b = line_bundle(paper_curve, (4, 3, 3))
    assert [e.hilbert for e in graded_report(paper_curve, b, 0, 3).entries] == [1, 10, 20, 30]
    b2 = line_bundle(paper_curve, (3, 3, 3))
    assert [e.hilbert for e in graded_report(paper_curve, b2, 0, 2).entries] == [1, 9, 18]


def test_deformation_bundle_twists(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    assert deformation_bundle(paper_curve, b, 0).multidegree == (0, -1, 1)
    assert deformation_bundle(paper_curve, b, 1).multidegree == (4, 2, 4)
    assert deformation_bundle(paper_curve, b, -1).multidegree == (-4, -4, -2)
    assert deformation_bundle(paper_curve, b, 1).gluings == (F(1), F(1), F(-1))


def test_deformation_bundle_rejects_foreign_curve(paper_curve):
    """``deformation_bundle``, and ``t0_dim`` and ``t1_dim`` in both modes,
    direct (which builds no twist) and formula, reject a bundle on another
    curve."""
    other = random_curve(random.Random(3))
    b = line_bundle(other, (0,) * len(other.components))
    with pytest.raises(ValueError, match="bundle lives on a different curve"):
        deformation_bundle(paper_curve, b, 1)
    for dim in (t0_dim, t1_dim):
        for mode in (DIRECT, FORMULA):
            with pytest.raises(ValueError, match="bundle lives on a different curve"):
                dim(paper_curve, b, 1, mode)


def test_t0_t1_values(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    assert t0_dim(paper_curve, b, 2, FORMULA) == 20
    assert t0_dim(paper_curve, b, 2, DIRECT) == 20
    assert t1_dim(paper_curve, b, -2, FORMULA) == 20
    assert t1_dim(paper_curve, b, -2, DIRECT) == 20
    assert t0_dim(paper_curve, b, -3, FORMULA) == 0
    assert t1_dim(paper_curve, b, 3, FORMULA) == 0
    with pytest.raises(ValueError):
        t0_dim(paper_curve, b, 1, mode="closedform")
    # a weight that is not an integer raises in both modes, before the mode is read
    for m in (2.5, -1.5, F(2), "2"):
        for dim in (t0_dim, t1_dim):
            for mode in (FORMULA, DIRECT, "closedform"):
                with pytest.raises(TypeError):
                    dim(paper_curve, b, m, mode)


def test_euler_characteristic_of_twists(paper_curve):
    # deg F_m = deg T + m deg L = 10 m on this curve, so chi(F_m) = 10 m
    b = line_bundle(paper_curve, (4, 3, 3))
    for m in range(-4, 5):
        f = deformation_bundle(paper_curve, b, m)
        assert h0(f) - h1_direct(f) == 10 * m


def test_graded_report_range_validation(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    with pytest.raises(ValueError):
        graded_report(paper_curve, b, 1, 3)
    with pytest.raises(ValueError):
        graded_report(paper_curve, b, -3, -1)


def test_graded_report_reads_a_given_tangent_bundle(paper_curve, monkeypatch):
    """A caller's tangent bundle gives the same table as the one
    ``graded_report`` builds, and no other is built; one on another curve
    is refused."""
    from nodalcone import cone

    b = line_bundle(paper_curve, (4, 3, 3))
    expected = graded_report(paper_curve, b, -3, 3)
    tangent = tangent_bundle(paper_curve)

    def refuse(curve):
        raise AssertionError("graded_report built its own tangent bundle")

    monkeypatch.setattr(cone, "tangent_bundle", refuse)
    assert graded_report(paper_curve, b, -3, 3, tangent=tangent) == expected
    with pytest.raises(ValueError, match="tangent bundle lives on a different curve"):
        graded_report(paper_curve, b, -3, 3, tangent=tangent_bundle(random_curve(random.Random(1))))


def test_graded_report_table(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    report = graded_report(paper_curve, b, -5, 5)
    assert len(report.entries) == 11
    assert "3 components" in report.curve_id
    assert "genus 1" in report.curve_id
    assert "(4, 3, 3)" in report.bundle_id

    for entry in report.entries:
        if entry.m < 0:
            assert entry.classification == SMOOTHING
            assert entry.hilbert == 0
            assert entry.t0_formula == 0 and entry.t0_direct == 0
            assert entry.t1_formula == -10 * entry.m
            assert entry.t1_direct == entry.t1_formula
            assert not entry.discrepancy
        elif entry.m > 0:
            assert entry.classification == EMBEDDING_SLOT
            assert entry.hilbert == 10 * entry.m
            assert entry.t0_formula == 10 * entry.m
            assert entry.t0_direct == entry.t0_formula
            assert entry.t1_formula == 0 and entry.t1_direct == 0
            assert not entry.discrepancy
        assert (entry.euler_note is not None) == (entry.m == 0)


def test_weight_zero_row_reports_both_values(paper_curve):
    b = line_bundle(paper_curve, (4, 3, 3))
    report = graded_report(paper_curve, b, -1, 1)
    row = next(e for e in report.entries if e.m == 0)
    assert row.classification == EQUISINGULAR_SLOT
    assert (row.t0_formula, row.t1_formula) == (0, 0)
    # the concrete curve carries one weight-0 section on each side
    f0 = deformation_bundle(paper_curve, b, 0)
    assert row.t0_direct == h0(f0) == 1
    assert row.t1_direct == h1_direct(f0) == 1
    assert row.discrepancy
    assert row.hilbert == 1
    assert row.euler_note


def test_formula_matches_direct_for_other_reference_bundles(paper_curve):
    for degrees, total in (((3, 3, 3), 9), ((4, 4, 3), 11)):
        b = line_bundle(paper_curve, degrees)
        for m in (-2, -1, 1, 2):
            assert t0_dim(paper_curve, b, m, FORMULA) == t0_dim(paper_curve, b, m, DIRECT)
            assert t1_dim(paper_curve, b, m, FORMULA) == t1_dim(paper_curve, b, m, DIRECT)
        assert t0_dim(paper_curve, b, 1, FORMULA) == total
        assert t1_dim(paper_curve, b, -1, FORMULA) == total


def test_weight_entry_discrepancy_property():
    base = dict(m=1, t1_formula=0, t1_direct=0, hilbert=10,
                classification=EMBEDDING_SLOT, euler_note=None)
    same = WeightEntry(t0_formula=10, t0_direct=10, **base)
    differ = WeightEntry(t0_formula=10, t0_direct=11, **base)
    assert not same.discrepancy
    assert differ.discrepancy


def test_direct_values_satisfy_riemann_roch_at_every_weight_and_genus():
    # deg T = 2 - 2g, so chi(F_m) = D m + 2 - 2g + 1 - g = D m + 3 - 3g
    rng = random.Random(3303)
    genera = set()
    for _ in range(40):
        curve = random_curve(rng)
        bundle = random_bundle(rng, curve)
        g = arithmetic_genus(curve)
        genera.add(g)
        for e in graded_report(curve, bundle, -3, 3).entries:
            assert e.t0_direct - e.t1_direct == bundle.degree() * e.m + 3 - 3 * g, (curve, bundle, e)
    assert genera == {0, 1, 2, 3, 4}


def test_direct_values_satisfy_riemann_roch_with_points_at_infinity():
    rng = random.Random(3304)
    genera = set()
    for _ in range(40):
        curve = curve_with_infinity(rng)
        bundle = random_bundle(rng, curve)
        g = arithmetic_genus(curve)
        genera.add(g)
        for e in graded_report(curve, bundle, -3, 3).entries:
            assert e.t0_direct - e.t1_direct == bundle.degree() * e.m + 3 - 3 * g, (curve, bundle, e)
    assert set(range(5)) <= genera
