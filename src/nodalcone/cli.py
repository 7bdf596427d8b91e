"""Command line front end.

Curve specs are JSON: a list of named components with marked-point
coordinates ("p", "p/q" or "inf"), a list of nodes referencing marked
points as "<component>.<index>", and a bundle with a multidegree and
optional gluing scalars ("p", "p/q" or a JSON integer; default 1 at
every node). In "p" and "p/q", p is ASCII digits with an optional sign
and q is ASCII digits, as is a node branch's index; nothing else is a
number. Reports print as plain text or, with --json, as a
machine-readable document whose key order and exact values ("p/q"
strings, never floats) are deterministic: the same spec and flags
produce byte-identical output.

Exit codes: 0 success, 1 a verification check failed, 2 malformed input
or usage error (including a ``--samples`` count that is negative or
larger than a component's pool of sample coordinates).

A subcommand is one ``_COMMANDS`` entry: its help, its options, a runner
``(bundle, args) -> dict`` that reads the curve off the bundle and its
options off ``args`` and returns the report's body, and a text renderer
``body -> lines`` for the plain form.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from .bundles import (
    LineBundle,
    RiemannRochReport,
    basis_rank,
    dual,
    dualizing_bundle,
    riemann_roch_report,
    section_basis,
    twisted_cohomology,
)
from .cone import graded_report
from .curve import (
    Component,
    INFINITY,
    InvalidCurveError,
    NodalCurve,
    NodeGluing,
    PointOnLine,
    affine_point,
    arithmetic_genus,
    betti_1,
    dual_graph,
    jacobian_dimension,
    name_index,
    reference_problems,
    validate,
)
from .embedding import (
    FAILED,
    SAMPLE_SEED,
    check_sample_count,
    cone_ideal,
    embed_point,
    globally_generated,
    node_images_consistent,
    quadric_failures,
    sample_points,
    singularity_probe,
    very_ample,
)
from .jsontext import json_text

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class SpecError(Exception):
    """Rejected input, carrying a stable diagnostic code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class CurveSpec(NamedTuple):
    """Parsed curve + bundle description, already in exact form;
    ``components`` and ``nodes`` read the curve's."""

    curve: NodalCurve
    multidegree: tuple[int, ...]
    gluings: tuple[Fraction, ...]

    components = property(lambda self: self.curve.components)
    nodes = property(lambda self: self.curve.nodes)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _rational(text: str) -> Fraction:
    """``p`` or ``p/q`` in ASCII digits, p signed; else ``ValueError``,
    also past ``int``'s digit limit. Built from the match's two groups, so
    the text is parsed once. ``Fraction`` alone takes exponents:
    "1e1000000" has a million digits."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not 'p' or 'p/q': {text!r}")
    p, q = match.groups()
    return Fraction(int(p)) if q is None else Fraction(int(p), int(q))


def _integer(text: str) -> int:
    """An option's integer: ASCII digits with an optional sign, as a
    spec's numbers are, else ``ValueError``, also past ``int``'s digit
    limit. ``int`` alone takes underscores, surrounding spaces and every
    Unicode decimal digit. Named ``int``, so argparse's message for a bad
    value reads "invalid int value"."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_integer.__name__ = "int"


def parse_coordinate(text) -> PointOnLine:
    if not isinstance(text, str):
        raise SpecError("coordinate", f"coordinates are strings, got {text!r}")
    raw = text.strip()
    if raw == "inf":
        return INFINITY
    try:
        return affine_point(_rational(raw))
    except (ValueError, ZeroDivisionError):
        raise SpecError("coordinate", f"cannot parse coordinate {text!r}; use 'p', 'p/q' or 'inf'")


def parse_scalar(text) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise SpecError("gluing", f"gluing scalars are strings or integers, got {text!r}")
    try:
        return _rational(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise SpecError("gluing", f"cannot parse gluing scalar {text!r}")


def _parse_branch(text) -> tuple[str, int]:
    """``<component>.<index>``, the index in ASCII digits as numbers are;
    an index past ``int``'s digit limit is an ``error[reference]`` too."""
    if isinstance(text, str):
        name, _, idx = text.rpartition(".")
        if name and idx.isdigit() and idx.isascii():
            try:
                return name, int(idx)
            except ValueError:
                raise SpecError("reference", f"node branch on {name!r} has a {len(idx)}-digit index, past the digit limit")
    raise SpecError("reference", f"node branches look like 'C1.0', got {text!r}")


def _expect(condition: bool, code: str, message: str, *args) -> None:
    """Reject unless ``condition``, with ``message.format(*args)``: a spec
    that passes formats none of the messages it is checked against."""
    if not condition:
        raise SpecError(code, message.format(*args))


def parse_spec(text: str) -> CurveSpec:
    """Parse and fully validate a JSON curve spec.

    Every rejection carries a diagnostic code: syntax, schema,
    coordinate, reference, gluing, shape or invariant; an invariant
    rejection carries the message ``NodalCurve`` raised.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise SpecError("syntax", f"not valid JSON: {exc}")
    except RecursionError:
        raise SpecError("syntax", "not valid JSON: nested too deeply")
    _expect(isinstance(data, dict), "schema", "top level must be a JSON object")
    _expect("components" in data, "schema", "missing 'components'")
    _expect("bundle" in data, "schema", "missing 'bundle'")
    raw_components = data["components"]
    _expect(
        isinstance(raw_components, list) and raw_components,
        "schema",
        "'components' must be a nonempty list",
    )

    components = []
    for entry in raw_components:
        _expect(isinstance(entry, dict), "schema", "each component is an object")
        _expect(
            isinstance(entry.get("name"), str) and entry["name"],
            "schema",
            "each component needs a nonempty string 'name'",
        )
        raw_points = entry.get("points", [])
        _expect(isinstance(raw_points, list), "schema", "component {}: 'points' must be a list", entry["name"])
        components.append(Component(entry["name"], tuple(parse_coordinate(p) for p in raw_points)))

    raw_nodes = data.get("nodes", [])
    _expect(isinstance(raw_nodes, list), "schema", "'nodes' must be a list")
    nodes = []
    for entry in raw_nodes:
        _expect(
            isinstance(entry, dict) and "a" in entry and "b" in entry,
            "schema",
            "each node is an object with branches 'a' and 'b'",
        )
        nodes.append(NodeGluing(_parse_branch(entry["a"]), _parse_branch(entry["b"])))

    index = name_index(components)
    for k, node in enumerate(nodes):
        found = reference_problems(components, index, k, node)
        if found:
            raise SpecError("reference", found[0])

    bundle_data = data["bundle"]
    _expect(isinstance(bundle_data, dict), "schema", "'bundle' must be an object")
    raw_degrees = bundle_data.get("multidegree")
    _expect(isinstance(raw_degrees, list), "schema", "'bundle.multidegree' must be a list")
    for d in raw_degrees:
        _expect(isinstance(d, int) and not isinstance(d, bool), "schema", "multidegree entries are integers, got {!r}", d)
    _expect(
        len(raw_degrees) == len(components),
        "shape",
        "multidegree has {} entries for {} components",
        len(raw_degrees), len(components),
    )
    raw_gluings = bundle_data.get("gluings")
    if raw_gluings is None:
        gluings = tuple(Fraction(1) for _ in nodes)
    else:
        _expect(isinstance(raw_gluings, list), "schema", "'bundle.gluings' must be a list")
        _expect(len(raw_gluings) == len(nodes), "shape", "{} gluing scalars for {} nodes", len(raw_gluings), len(nodes))
        gluings = tuple(parse_scalar(g) for g in raw_gluings)
    for k, g in enumerate(gluings):
        _expect(g != 0, "gluing", "gluing scalar at node {} must be nonzero", k)

    try:
        curve = NodalCurve(components, nodes)
    except InvalidCurveError as exc:
        raise SpecError("invariant", str(exc))
    return CurveSpec(curve, tuple(raw_degrees), gluings)


def _layout(curve: NodalCurve) -> dict:
    """A curve's components and nodes in the spec's JSON form."""
    return {
        "components": [
            {"name": c.name, "points": [str(p) for p in c.marked_points]} for c in curve.components
        ],
        "nodes": [
            {"a": f"{n.branch_a[0]}.{n.branch_a[1]}", "b": f"{n.branch_b[0]}.{n.branch_b[1]}"}
            for n in curve.nodes
        ],
    }


def fmt_exact(value: Fraction):
    """Exact JSON value: plain int when integral, 'p/q' string otherwise."""
    return int(value) if value.denominator == 1 else str(value)


# ---------------------------------------------------------------- subcommands


def run_info(bundle: LineBundle, args) -> dict:
    curve = bundle.curve
    graph = dual_graph(curve)
    return {
        **_layout(curve),
        "violations": validate(curve),
        "genus": arithmetic_genus(curve),
        "betti_1": betti_1(graph),
        "jacobian_dimension": jacobian_dimension(curve),
        "dual_graph": {
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "loops": graph.loop_count(),
        },
        "multidegree": list(bundle.multidegree),
        "total_degree": bundle.degree(),
    }


def run_sections(bundle: LineBundle, args) -> dict:
    report = riemann_roch_report(bundle)
    curve = bundle.curve
    # h0 of omega (x) L^-1, the other side of Serre duality
    dual_h0 = twisted_cohomology(curve, bundle.multidegree, bundle.pairs, -1, dualizing_bundle(curve))[0]
    out = {**report._asdict(), "riemann_roch_balanced": report.balanced, "serre_duality": report.h1 == dual_h0}
    if args.basis:
        space = section_basis(bundle)
        out["basis"] = [
            {
                comp.name: [fmt_exact(c) for c in block]
                for comp, block in zip(bundle.curve.components, s.coeffs)
            }
            for s in space.basis
        ]
    return out


def run_ample(bundle: LineBundle, args) -> dict:
    space = section_basis(bundle)
    return {
        "globally_generated": globally_generated(space, args.samples, args.seed)._asdict(),
        "very_ample": very_ample(space, args.samples, args.seed)._asdict(),
    }


def run_embed(bundle: LineBundle, args) -> dict:
    space = section_basis(bundle)
    n = len(space.integral_basis)
    points_out = []
    for x in sample_points(bundle.curve, args.samples, args.seed):
        entry: dict = {"point": str(x)}
        try:
            entry["coordinates"] = [fmt_exact(v) for v in embed_point(space, x)]
        except ValueError:
            entry["undefined"] = True
        points_out.append(entry)
    return {
        "h0": n,
        "target": f"P^{n - 1}" if n >= 1 else "empty",
        "node_consistency": node_images_consistent(space),
        "points": points_out,
    }


def _shape(source: int, target: int, rank: int) -> dict:
    """A multiplication map of ``cone_ideal`` as its report."""
    return {"source": source, "target": target, "rank": rank, "surjective": rank == target}


def run_ideal(bundle: LineBundle, args) -> dict:
    space = section_basis(bundle)
    m2, m3, quadrics = cone_ideal(space)
    vertex, nodes, smooth = singularity_probe(space, quadrics, args.samples, args.seed)
    note = (
        "ranks of the Jacobian of the degree-2 ideal part only; the quadrics "
        "are not known to generate the whole ideal, so this probes candidate "
        "singular points without proving smoothness"
    )
    probe = {"note": note, "vertex_rank": vertex, "node_ranks": nodes, **{"smooth_point_rank": r for r in smooth}}
    maps = {"m2": _shape(*m2), "m3": _shape(*m3)}
    return {"h0": len(space.integral_basis), **maps, "quadric_count": len(quadrics), "singularity_probe": probe}


def run_deform(bundle: LineBundle, args) -> dict:
    report = graded_report(bundle.curve, bundle, *args.weight_range)
    keys = ("m", "classification", "t0_formula", "t0_direct", "t1_formula", "t1_direct", "hilbert", "discrepancy")
    entries = []
    for e in report.entries:
        row = {key: getattr(e, key) for key in keys}
        if e.euler_note is not None:
            row["euler_note"] = e.euler_note
        entries.append(row)
    return {"curve": report.curve_id, "bundle": report.bundle_id, "entries": entries}


def _random_bundles(curve: NodalCurve, count: int, seed: int):
    """``count`` seeded random bundles as ``(degrees, pairs)``: a degree in
    -4..4 per component, then per node the pair ``(a, b)`` of the scalar
    ``a / b``, a in -5..5 nonzero and b in 1..3, unreduced; no Fraction or
    ``LineBundle`` is built."""
    rng = random.Random(seed)
    k = len(curve.components)
    nonzero = [x for x in range(-5, 6) if x != 0]
    for _ in range(count):
        degrees = tuple(rng.randint(-4, 4) for _ in range(k))
        yield degrees, tuple((rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes)


def run_verify(bundle: LineBundle, args) -> dict:
    """The full exactness suite for one spec. The deformation closed form
    is compared only on genus-1 curves with a very ample bundle, the case
    it is derived for, and its weight 0 is reported, never failed: the
    closed form there is a generic claim and the concrete curve may
    differ.

    The riemann-roch*, dualizing-h0-equals-genus, serre-duality and
    randomized-* rows read each bundle as its degrees and integer scalar
    pairs, with no ``LineBundle`` built: L^m for m = 1, 2, -1, the
    dualizing bundle omega, the twists ``omega (x) L^-m`` and the 35
    ``_random_bundles`` B with their twists ``omega (x) B^-1``. Each is one
    ``twisted_cohomology`` call. Those rows, the deformation table and the
    section basis read every branch row from the curve's one table
    (``NodalCurve.branch_rows``), so each is built once per run however
    many bundles read it."""
    curve, samples, seed, (m_min, m_max) = bundle.curve, args.samples, args.seed, args.weight_range
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "status": "ok" if ok else "FAIL", "detail": detail})

    def info(name: str, detail: str) -> None:
        checks.append({"name": name, "status": "info", "detail": detail})

    def skip(name: str, detail: str) -> None:
        checks.append({"name": name, "status": "skip", "detail": detail})

    problems = validate(curve)
    check("curve-structure", not problems, "; ".join(problems) or "all structural invariants hold")

    genus = arithmetic_genus(curve)
    betti = betti_1(dual_graph(curve))
    check("genus-equals-betti", genus == betti, f"genus {genus}, first Betti number {betti}")

    l, g = bundle.multidegree, bundle.pairs
    omega = dualizing_bundle(curve)

    def report(degrees, pairs, m: int = 1) -> RiemannRochReport:
        """Riemann-Roch for B^m, B of these degrees and scalar pairs."""
        return RiemannRochReport(*twisted_cohomology(curve, degrees, pairs, m), m * sum(degrees), genus)

    def serre(h1: int, degrees, pairs, m: int = 1) -> bool:
        """Whether ``h1`` of B^m equals h0 of ``omega (x) B^-m``."""
        return h1 == twisted_cohomology(curve, degrees, pairs, -m, omega)[0]

    # L^m's cohomology once, read again by the serre-duality row
    reports = {m: report(l, g, m) for m in (1, 2, -1)}
    rr = reports[1]
    check(
        "riemann-roch",
        rr.balanced,
        f"h0 {rr.h0} - h1 {rr.h1} = degree {rr.degree} - genus {rr.genus} + 1",
    )
    for label, m in (("square", 2), ("inverse", -1)):
        tw = reports[m]
        check(f"riemann-roch-{label}", tw.balanced, f"h0 {tw.h0}, h1 {tw.h1}, degree {tw.degree}")

    space = section_basis(bundle)
    n = len(space.integral_basis)
    # node_images_consistent is exactly this basis node check; both rows report it
    basis_glues = node_images_consistent(space)
    check("basis-gluing-exact", basis_glues, f"{n} basis sections satisfy every node constraint exactly")
    flat_rank = basis_rank(space)
    check("basis-independent", flat_rank == n, f"rank {flat_rank} of {n} stacked sections")
    check(
        "node-image-consistency",
        basis_glues,
        "branch evaluation vectors are proportional with ratio the gluing scalar",
    )

    gg = globally_generated(space, samples, seed)
    check("globally-generated", gg.status != FAILED, f"{gg.status} after {gg.samples_checked} tests")
    va = very_ample(space, samples, seed)
    check("very-ample", va.status != FAILED, f"{va.status} after {va.samples_checked} tests")

    if min(bundle.multidegree) >= 3:
        m2, m3, quadrics = cone_ideal(space)
        for m, (source, target, rank) in ((2, m2), (3, m3)):
            check(f"multiplication-m{m}-surjective", rank == target, f"rank {rank} of a {target} x {source} matrix")
        points, failures = quadric_failures(space, quadrics, samples, seed)
        check(
            "quadrics-vanish-on-curve",
            failures == 0,
            f"{len(quadrics)} quadrics at {points if quadrics else 0} points, {failures} nonzero values",
        )
    else:
        skip("multiplication-m2-surjective", "multidegree below the very-ampleness criterion")
        skip("multiplication-m3-surjective", "multidegree below the very-ampleness criterion")
        skip("quadrics-vanish-on-curve", "multidegree below the very-ampleness criterion")

    omega_h0 = twisted_cohomology(curve, omega.multidegree, omega.pairs, 1)[0]
    check(
        "dualizing-h0-equals-genus",
        omega_h0 == genus,
        f"h0 of the dualizing bundle {omega_h0}, genus {genus}",
    )
    serre_ok = all(serre(r.h1, l, g, m) for m, r in reports.items())
    check("serre-duality", serre_ok, "h1 matches h0 of the dual twist for the bundle, its square and its inverse")

    entries = graded_report(curve, bundle, m_min, m_max, tangent=dual(omega)).entries
    if genus != 1:
        skip("deformation-formula-vs-direct", f"the closed form is derived for genus 1; this curve has genus {genus}")
    elif va.status == FAILED:
        skip("deformation-formula-vs-direct", "the closed form assumes a very ample bundle")
    else:
        mismatched = [e.m for e in entries if e.m != 0 and e.discrepancy]
        check(
            "deformation-formula-vs-direct",
            not mismatched,
            f"weights {m_min}..{m_max} excluding 0"
            + (f"; mismatches at {mismatched}" if mismatched else ", all agree"),
        )
    w0 = next(e for e in entries if e.m == 0)
    info(
        "deformation-weight-0",
        f"formula t0 {w0.t0_formula} / t1 {w0.t1_formula}; direct t0 {w0.t0_direct} / t1 {w0.t1_direct}. "
        "Report-only: the closed form is a generic-gluing claim.",
    )

    rr_bad = sum(not report(d, p).balanced for d, p in _random_bundles(curve, 25, seed + 7))
    check("randomized-riemann-roch", rr_bad == 0, f"25 random bundles on this curve, {rr_bad} unbalanced")

    serre_bad = sum(not serre(report(d, p).h1, d, p) for d, p in _random_bundles(curve, 10, seed + 13))
    check("randomized-serre", serre_bad == 0, f"10 random bundles on this curve, {serre_bad} mismatched")

    passed = all(c["status"] != "FAIL" for c in checks)
    return {"passed": passed, "checks": checks}


# ------------------------------------------------------------------ plumbing


def _verify_text(body: dict) -> list[str]:
    lines = [f"{c['status']:<5} {c['name']:<34} {c['detail']}" for c in body["checks"]]
    return [*lines, "PASSED" if body["passed"] else "FAILED"]


def _deform_text(body: dict) -> list[str]:
    lines = [
        f"{body['curve']}  {body['bundle']}",
        f"{'m':>4}  {'class':<18} {'t0 formula':>10} {'t0 direct':>9} {'t1 formula':>10} {'t1 direct':>9} {'hilbert':>7}",
    ]
    for e in body["entries"]:
        lines.append(
            f"{e['m']:>4}  {e['classification']:<18} {e['t0_formula']:>10} {e['t0_direct']:>9} "
            f"{e['t1_formula']:>10} {e['t1_direct']:>9} {e['hilbert']:>7}"
            + ("  !" if e["discrepancy"] else "")
        )
    if any(e["discrepancy"] for e in body["entries"]):
        lines.append("rows marked ! differ between formula and direct mode; see euler_note")
    return lines


def _render_plain(value: dict | list, indent: int = 0) -> list[str]:
    """A dict's entries as 'key: value' lines and a list's items as
    '- value' lines, a nested dict or list under its bare 'key:' or '-'
    line, one level deeper."""
    pad = "  " * indent
    labelled = ((f"{k}:", v) for k, v in value.items()) if isinstance(value, dict) else (("-", v) for v in value)
    lines: list[str] = []
    for label, v in labelled:
        if isinstance(v, (dict, list)):
            lines.append(f"{pad}{label}")
            lines.extend(_render_plain(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {v}")
    return lines


def _parse_range(text: str) -> tuple[int, int]:
    """A weight range 'a:b' with a <= 0 <= b, else ``ValueError``."""
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = _integer(lo_text), _integer(hi_text)
    except ValueError:
        raise ValueError(f"ranges look like '-3:3', got {text!r}") from None
    if not lo <= 0 <= hi:
        raise ValueError(f"range must contain 0, got {text!r}")
    if max(-lo, hi) > 1000:  # a weight's cost grows with it: refuse before any work
        raise ValueError(f"range endpoints must lie in -1000..1000, got {text!r}")
    return lo, hi


# The command line: each subcommand's help, its options after ``spec``
# in help order as (name, dest, converter, default, help), its runner and
# its text renderer; a converter of None makes a flag that stores True.
# ``_parse_argv``, ``build_parser`` and ``main`` all read this table.
_JSON = ("--json", "json", None, False, "machine-readable output")
_BASIS = ("--basis", "basis", None, False, "include the section basis")
_SAMPLING = (
    ("--samples", "samples", _integer, 5, "extra sample points per component"),
    ("--seed", "seed", _integer, SAMPLE_SEED, "sampling seed"),
)


def _weights(default: tuple[int, int]) -> tuple:
    return ("--range", "weight_range", _parse_range, default, "weight range 'a:b' containing 0")


_COMMANDS = {
    "info": ("curve structure, genus, dual graph", (_JSON,), run_info, _render_plain),
    "sections": ("h0/h1 and duality checks for the bundle", (_JSON, _BASIS), run_sections, _render_plain),
    "ample": ("global generation and very ampleness verdicts", (_JSON, *_SAMPLING), run_ample, _render_plain),
    "embed": ("projective coordinates of sample points", (_JSON, *_SAMPLING), run_embed, _render_plain),
    "ideal": ("multiplication maps, quadrics, singularity probe", (_JSON, *_SAMPLING), run_ideal, _render_plain),
    "deform": ("graded deformation table of the affine cone", (_JSON, _weights((-5, 5))), run_deform, _deform_text),
    "verify": (
        "run every check and exit nonzero on failure", (_JSON, *_SAMPLING, _weights((-3, 3))), run_verify, _verify_text
    ),
}


def _parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    off ``_COMMANDS`` for the plain grammar: a subcommand first, then one
    spec not starting with '-', and each of the subcommand's options at
    most once, by its full name, as ``--opt value`` (the value not
    starting with '-') or ``--opt=value``, every value converting. Any
    other argv gives None: help, an abbreviation, a repeat, '--', a
    missing spec or a bad value is argparse's to parse or refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {option[0]: option for option in _COMMANDS[argv[0]][1]}
    values = {"command": argv[0], **{dest: default for _, dest, _, default, _ in options.values()}}
    spec = None
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if spec is not None:
                return None
            spec = token
            continue
        name, equals, text = token.partition("=")
        option = options.pop(name, None)  # popped, so a repeat is unknown
        if option is None:
            return None
        _, dest, convert, _, _ = option
        if convert is None:
            if equals:
                return None
            values[dest] = True
            continue
        if not equals:
            text = next(tokens, "-")  # a missing value defers like a dashed one
            if text.startswith("-"):
                return None
        try:
            values[dest] = convert(text)
        except ValueError:
            return None
    if spec is None:
        return None
    return SimpleNamespace(spec=spec, **values)


def build_parser():
    """The argparse parser for ``_COMMANDS``; ``main`` builds it only for
    the argv ``_parse_argv`` leaves to it, so argparse writes every help
    text and usage error."""
    import argparse

    def weights(text: str) -> tuple[int, int]:  # argparse prints this error's text as it is
        try:
            return _parse_range(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = argparse.ArgumentParser(
        prog="nodalcone",
        description="Exact section spaces, embeddings and cone deformations for nodal curves of projective lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("spec", help="path to a JSON curve spec")
        for name, dest, convert, default, help_text in options:
            if convert is None:
                kind = {"action": "store_true"}
            else:
                kind = {"type": weights if convert is _parse_range else convert}
            p.add_argument(name, dest=dest, default=default, help=help_text, **kind)
    return parser


def _fold_range(argv: list[str]) -> list[str]:
    """argv with its first '--range VALUE' written '--range=VALUE'.
    argparse reads a leading '-' in '--range -3:3' as a new option, so
    the fold makes both spellings work."""
    for i, token in enumerate(argv[:-1]):
        if token == "--range":
            return [*argv[:i], "--range=" + argv[i + 1], *argv[i + 2 :]]
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = _fold_range(list(sys.argv[1:] if argv is None else argv))
    args = _parse_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        with open(args.spec, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    _, _, run, render = _COMMANDS[args.command]
    try:
        spec = parse_spec(raw.decode("utf-8"))
        bundle = LineBundle(spec.curve, spec.multidegree, spec.gluings)
        if hasattr(args, "samples"):
            try:
                check_sample_count(spec.curve, args.samples)
            except ValueError as exc:
                raise SpecError("samples", str(exc))
        body = run(bundle, args)
    except SpecError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnicodeDecodeError:
        print(f"error[syntax]: {args.spec} is not UTF-8 text", file=sys.stderr)
        return EXIT_INPUT_ERROR

    document = {
        "tool": {"name": "nodalcone", "version": __version__},
        "input": {"path": args.spec, "sha256": hashlib.sha256(raw).hexdigest()},
        "sections": {args.command: body},
    }
    try:
        if args.json:
            print(json_text(document))
        else:
            print("\n".join(render(body)))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (e.g. `| head -1`). As the `signal` docs advise,
        # point stdout at devnull so the flush at interpreter exit cannot raise
        # again, and keep the exit code the command computed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "verify" and not body["passed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
