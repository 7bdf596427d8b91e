"""Acceptance gate: ten criteria, exact equality throughout.

Each criterion is one test named test_criterion_NN_*, so a verbose run
prints one pass/fail line per criterion. A decorator also emits an
explicit [criterion NN] PASS/FAIL line (visible on failure or with -s).
"""

import functools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import random_bundle, random_curve
from nodalcone.bundles import (
    dual,
    dualizing_bundle,
    h0,
    h1_direct,
    line_bundle,
    riemann_roch_report,
    section_basis,
    tensor,
)
from nodalcone.cone import DIRECT, FORMULA, graded_report, t0_dim, t1_dim
from nodalcone.curve import (
    arithmetic_genus,
    betti_1,
    dual_graph,
    paper_example_curve,
    validate,
)
from nodalcone.embedding import (
    CRITERION_SATISFIED,
    CurvePoint,
    embed_point,
    multiplication_map,
    quadric_ideal,
    quadric_value,
    sample_points,
    separates_jets,
    separates_points,
    very_ample,
)
from nodalcone.exactlin import rank

F = Fraction
REPO = Path(__file__).resolve().parents[1]
PAPER_SPEC = REPO / "curves" / "paper-x.json"


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:02d}] FAIL: {description}")
                raise
            print(f"[criterion {number:02d}] PASS: {description}")

        return run

    return wrap


@criterion(1, "genus 1, Betti number 1, dual graph 3 vertices / 3 edges / 1 loop")
def test_criterion_01_genus_and_graph():
    curve = paper_example_curve()
    assert validate(curve) == []
    assert arithmetic_genus(curve) == 1
    graph = dual_graph(curve)
    assert betti_1(graph) == 1
    assert len(graph.vertices) == 3
    assert len(graph.edges) == 3
    assert graph.loop_count() == 1


@criterion(2, "h0 = 9 / 10 / 11 via the gluing-matrix kernel; targets P^8 / P^9 / P^10")
def test_criterion_02_section_counts():
    curve = paper_example_curve()
    expected = {(3, 3, 3): 9, (4, 3, 3): 10, (4, 4, 3): 11}
    for degrees, value in expected.items():
        bundle = line_bundle(curve, degrees)
        space = section_basis(bundle)  # kernel basis of the gluing matrix
        assert len(space.basis) == value
        assert h0(bundle) == value
        target_dim = value - 1
        assert target_dim in (8, 9, 10)


@criterion(3, "(4,3,3) and (3,3,3) very ample by criterion; >= 50 pairs and all jets pass")
def test_criterion_03_very_ample():
    curve = paper_example_curve()
    for degrees in ((4, 3, 3), (3, 3, 3)):
        bundle = line_bundle(curve, degrees)
        verdict = very_ample(bundle, extra_samples=5)
        assert verdict.status == CRITERION_SATISFIED
        assert verdict.witness is None
        samples = sample_points(curve, extra_per_component=5)
        pairs = math.comb(len(samples), 2)
        jets = 2 * len(curve.nodes) + (len(samples) - len(curve.nodes))
        assert pairs >= 50
        assert verdict.samples_checked == pairs + jets == 174
        space = section_basis(bundle)
        # the jet tests again, spelled out branch by branch
        for k in range(len(curve.nodes)):
            for branch in (0, 1):
                assert separates_jets(space, CurvePoint.at_node(k, branch=branch))
        # a direct slice of the pair tests
        for i in range(10):
            for j in range(i + 1, 10):
                assert separates_points(space, samples[i], samples[j])


@criterion(4, "t0 = 10m for m = 1..5, t1 = 10|m| for m = -1..-5, formula = direct off 0")
def test_criterion_04_deformation_table():
    curve = paper_example_curve()
    bundle = line_bundle(curve, (4, 3, 3))
    report = graded_report(curve, bundle, -5, 5)
    rows = {e.m: e for e in report.entries}
    for m in range(1, 6):
        assert rows[m].t0_direct == 10 * m
        assert rows[m].t1_direct == 0
        assert rows[m].t0_formula == rows[m].t0_direct
        assert rows[m].t1_formula == rows[m].t1_direct
    for m in range(-5, 0):
        assert rows[m].t1_direct == -10 * m
        assert rows[m].t0_direct == 0
        assert rows[m].t0_formula == rows[m].t0_direct
        assert rows[m].t1_formula == rows[m].t1_direct


@criterion(5, "Riemann-Roch balanced on >= 50 randomized bundles over randomized curves")
def test_criterion_05_riemann_roch_randomized():
    rng = random.Random(11055)
    checked = 0
    for _ in range(60):
        curve = random_curve(rng, max_components=4, max_nodes=4)
        bundle = random_bundle(rng, curve, degree_range=(-4, 4))
        report = riemann_roch_report(bundle)
        assert report.h0 - report.h1 == report.degree - report.genus + 1
        checked += 1
    assert checked >= 50


@criterion(6, "Serre duality on >= 20 randomized bundles; h0(omega) = genus each time")
def test_criterion_06_serre_duality_randomized():
    rng = random.Random(22110)
    checked = 0
    for _ in range(25):
        curve = random_curve(rng)
        assert all(
            not p.is_infinity for c in curve.components for p in c.marked_points
        )
        omega = dualizing_bundle(curve)
        assert h0(omega) == arithmetic_genus(curve)
        bundle = random_bundle(rng, curve)
        assert h1_direct(bundle) == h0(tensor(omega, dual(bundle)))
        checked += 1
    assert checked >= 20


@criterion(7, "m2 map 55 -> 20 has rank 20; 35 quadrics; all vanish at 25 embedded points")
def test_criterion_07_projective_normality_degree_two():
    curve = paper_example_curve()
    bundle = line_bundle(curve, (4, 3, 3))
    m2 = multiplication_map(bundle, 2)
    assert (m2.cols, m2.rows) == (55, 20)
    assert rank(m2) == 20
    quadrics = quadric_ideal(m2)
    assert len(quadrics) == 35
    points = sample_points(curve, extra_per_component=8)[:25]
    assert len(points) == 25
    space = section_basis(bundle)
    for x in points:
        coords = embed_point(space, x)
        for q in quadrics:
            assert quadric_value(q, coords) == 0


@criterion(8, "branch evaluation vectors at every node proportional with ratio lambda")
def test_criterion_08_node_image_consistency():
    curve = paper_example_curve()
    for degrees in ((3, 3, 3), (4, 3, 3), (4, 4, 3)):
        bundle = line_bundle(curve, degrees)
        space = section_basis(bundle)
        for k, glue in enumerate(bundle.gluings):
            via_a = embed_point(space, CurvePoint.at_node(k, branch=0))
            via_b = embed_point(space, CurvePoint.at_node(k, branch=1))
            assert via_a == tuple(glue * v for v in via_b)


@criterion(9, "m = 0 row is dual-valued with an honestly computed discrepancy flag")
def test_criterion_09_weight_zero_dual_valued():
    curve = paper_example_curve()
    bundle = line_bundle(curve, (4, 3, 3))
    report = graded_report(curve, bundle, -1, 1)
    row = next(e for e in report.entries if e.m == 0)
    # both sides present: the closed-form claim and the direct computation
    assert (row.t0_formula, row.t1_formula) == (0, 0)
    assert isinstance(row.t0_direct, int) and isinstance(row.t1_direct, int)
    assert row.t0_direct == t0_dim(curve, bundle, 0, DIRECT)
    assert row.t1_direct == t1_dim(curve, bundle, 0, DIRECT)
    assert row.t0_formula == t0_dim(curve, bundle, 0, FORMULA)
    assert row.t1_formula == t1_dim(curve, bundle, 0, FORMULA)
    # the flag states exactly whether the two sides differ; no side is patched
    assert row.discrepancy == (
        (row.t0_formula, row.t1_formula) != (row.t0_direct, row.t1_direct)
    )
    assert row.euler_note


@criterion(10, "verify --json is byte-identical across two runs and exits 0")
def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "nodalcone", "verify", str(PAPER_SPEC), "--json"]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
