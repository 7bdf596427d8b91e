"""Command line front end.

Curve specs are JSON: a list of named components with marked-point
coordinates ("p", "p/q" or "inf"), a list of nodes referencing marked
points as "<component>.<index>", and a bundle with a multidegree and
optional gluing scalars (default 1 at every node). Reports print as
plain text or, with --json, as a machine-readable document whose key
order and exact values ("p/q" strings, never floats) are deterministic:
the same spec and flags produce byte-identical output.

Exit codes: 0 success, 1 a verification check failed, 2 malformed input
or usage error (including a ``--samples`` count that is negative or
larger than a component's pool of sample coordinates).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .bundles import (
    LineBundle,
    SectionSpace,
    block_widths,
    dual,
    dualizing_bundle,
    flatten_section,
    h0,
    power,
    riemann_roch_report,
    section_basis,
    serre_duality_check,
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
    validate,
)
from .embedding import (
    FAILED,
    SAMPLE_SEED,
    CurvePoint,
    cone_jacobian_rank,
    cone_point,
    embed_point,
    globally_generated,
    multiplication_map,
    node_images_consistent,
    quadric_ideal,
    quadric_value,
    sample_points,
    very_ample,
)
from .exactlin import MatrixQ, rank

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class SpecError(Exception):
    """Rejected input, carrying a stable diagnostic code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class CurveSpec:
    """Parsed curve + bundle description, already in exact form, with
    the curve that ``components`` and ``nodes`` build."""

    components: tuple[tuple[str, tuple[PointOnLine, ...]], ...]
    nodes: tuple[NodeGluing, ...]
    multidegree: tuple[int, ...]
    gluings: tuple[Fraction, ...]
    curve: NodalCurve


def parse_coordinate(text) -> PointOnLine:
    if not isinstance(text, str):
        raise SpecError("coordinate", f"coordinates are strings, got {text!r}")
    raw = text.strip()
    if raw == "inf":
        return INFINITY
    try:
        return affine_point(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise SpecError("coordinate", f"cannot parse coordinate {text!r}; use 'p', 'p/q' or 'inf'")


def parse_scalar(text) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise SpecError("gluing", f"gluing scalars are strings or integers, got {text!r}")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise SpecError("gluing", f"cannot parse gluing scalar {text!r}")


def _parse_branch(text) -> tuple[str, int]:
    if not isinstance(text, str) or "." not in text:
        raise SpecError("reference", f"node branches look like 'C1.0', got {text!r}")
    name, _, idx = text.rpartition(".")
    if not name or not idx.isdigit():
        raise SpecError("reference", f"node branches look like 'C1.0', got {text!r}")
    return name, int(idx)


def _expect(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise SpecError(code, message)


def parse_spec(text: str) -> CurveSpec:
    """Parse and fully validate a JSON curve spec.

    Every rejection carries a diagnostic code: syntax, schema,
    coordinate, reference, gluing, shape or invariant; an invariant
    rejection carries the message ``NodalCurve`` raised.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("syntax", f"not valid JSON: {exc}")
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
        _expect(isinstance(raw_points, list), "schema", f"component {entry['name']}: 'points' must be a list")
        points = tuple(parse_coordinate(p) for p in raw_points)
        components.append((entry["name"], points))

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

    point_counts = {name: len(pts) for name, pts in components}
    for k, node in enumerate(nodes):
        for label, (cname, idx) in (("a", node.branch_a), ("b", node.branch_b)):
            _expect(
                cname in point_counts,
                "reference",
                f"node {k}: branch {label} references unknown component {cname!r}",
            )
            _expect(
                0 <= idx < point_counts[cname],
                "reference",
                f"node {k}: branch {label} references marked point {idx} "
                f"outside component {cname}",
            )

    bundle_data = data["bundle"]
    _expect(isinstance(bundle_data, dict), "schema", "'bundle' must be an object")
    raw_degrees = bundle_data.get("multidegree")
    _expect(isinstance(raw_degrees, list), "schema", "'bundle.multidegree' must be a list")
    for d in raw_degrees:
        _expect(
            isinstance(d, int) and not isinstance(d, bool),
            "schema",
            f"multidegree entries are integers, got {d!r}",
        )
    _expect(
        len(raw_degrees) == len(components),
        "shape",
        f"multidegree has {len(raw_degrees)} entries for {len(components)} components",
    )
    raw_gluings = bundle_data.get("gluings")
    if raw_gluings is None:
        gluings = tuple(Fraction(1) for _ in nodes)
    else:
        _expect(isinstance(raw_gluings, list), "schema", "'bundle.gluings' must be a list")
        _expect(
            len(raw_gluings) == len(nodes),
            "shape",
            f"{len(raw_gluings)} gluing scalars for {len(nodes)} nodes",
        )
        gluings = tuple(parse_scalar(g) for g in raw_gluings)
    for k, g in enumerate(gluings):
        _expect(g != 0, "gluing", f"gluing scalar at node {k} must be nonzero")

    try:
        curve = NodalCurve(tuple(Component(name, pts) for name, pts in components), tuple(nodes))
    except InvalidCurveError as exc:
        raise SpecError("invariant", str(exc))
    return CurveSpec(tuple(components), tuple(nodes), tuple(raw_degrees), gluings, curve)


def serialize_spec(spec: CurveSpec) -> str:
    """Canonical JSON text; parse_spec(serialize_spec(s)) round-trips."""
    doc = {
        "components": [
            {"name": name, "points": [str(p) for p in points]} for name, points in spec.components
        ],
        "nodes": [
            {"a": f"{n.branch_a[0]}.{n.branch_a[1]}", "b": f"{n.branch_b[0]}.{n.branch_b[1]}"}
            for n in spec.nodes
        ],
        "bundle": {
            "multidegree": list(spec.multidegree),
            "gluings": [str(g) for g in spec.gluings],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def fmt_exact(value: Fraction):
    """Exact JSON value: plain int when integral, 'p/q' string otherwise."""
    return int(value) if value.denominator == 1 else str(value)


# ---------------------------------------------------------------- subcommands


def run_info(curve: NodalCurve, bundle: LineBundle) -> dict:
    graph = dual_graph(curve)
    return {
        "components": [
            {"name": c.name, "points": [str(p) for p in c.marked_points]}
            for c in curve.components
        ],
        "nodes": [
            {"a": f"{n.branch_a[0]}.{n.branch_a[1]}", "b": f"{n.branch_b[0]}.{n.branch_b[1]}"}
            for n in curve.nodes
        ],
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


def run_sections(curve: NodalCurve, bundle: LineBundle, with_basis: bool) -> dict:
    report = riemann_roch_report(bundle)
    out = {
        "h0": report.h0,
        "h1": report.h1,
        "degree": report.degree,
        "genus": report.genus,
        "riemann_roch_balanced": report.balanced,
    }
    out["serre_duality"] = serre_duality_check(bundle, dualizing_bundle(curve))
    if with_basis:
        space = section_basis(bundle)
        out["basis"] = [
            {
                comp.name: [fmt_exact(c) for c in block]
                for comp, block in zip(curve.components, s.coeffs)
            }
            for s in space.basis
        ]
    return out


def _verdict_dict(verdict) -> dict:
    return {
        "status": verdict.status,
        "witness": verdict.witness,
        "samples_checked": verdict.samples_checked,
    }


def run_ample(curve: NodalCurve, bundle: LineBundle, samples: int, seed: int) -> dict:
    space = section_basis(bundle)
    return {
        "globally_generated": _verdict_dict(globally_generated(space, samples, seed)),
        "very_ample": _verdict_dict(very_ample(space, samples, seed)),
    }


def run_embed(curve: NodalCurve, bundle: LineBundle, samples: int, seed: int) -> dict:
    space = section_basis(bundle)
    n = len(space.basis)
    points_out = []
    for x in sample_points(curve, samples, seed):
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


def _multiplication_maps(space: SectionSpace) -> tuple[dict, dict, tuple]:
    """Shape and rank of the m = 2 and m = 3 multiplication maps of
    ``space``, and the quadrics: the kernel at m = 2, whose count gives
    its rank without a second elimination."""
    m2 = multiplication_map(space, 2)
    quadrics = quadric_ideal(m2)
    m3 = multiplication_map(space, 3)

    def shape(m: MatrixQ, r: int) -> dict:
        return {"source": m.cols, "target": m.rows, "rank": r, "surjective": r == m.rows}

    return shape(m2, m2.cols - len(quadrics)), shape(m3, rank(m3)), quadrics


def run_ideal(curve: NodalCurve, bundle: LineBundle, samples: int, seed: int) -> dict:
    space = section_basis(bundle)
    n = len(space.basis)
    m2, m3, quadrics = _multiplication_maps(space)
    out = {"h0": n, "m2": m2, "m3": m3, "quadric_count": len(quadrics)}
    probe: dict = {
        "note": (
            "ranks of the Jacobian of the degree-2 ideal part only; the quadrics "
            "are not known to generate the whole ideal, so this probes candidate "
            "singular points without proving smoothness"
        ),
        "vertex_rank": cone_jacobian_rank(quadrics, [0] * n),
    }

    def point_rank(x: CurvePoint) -> int | None:
        try:
            coords = cone_point(space, x)
        except ValueError:  # every section vanishes at x: it has no image
            return None
        return cone_jacobian_rank(quadrics, coords)

    probe["node_ranks"] = [point_rank(CurvePoint.at_node(k)) for k in range(len(curve.nodes))]
    smooth = [x for x in sample_points(curve, samples, seed) if not x.is_node]
    if smooth:
        probe["smooth_point_rank"] = point_rank(smooth[0])
    out["singularity_probe"] = probe
    return out


def run_deform(curve: NodalCurve, bundle: LineBundle, m_min: int, m_max: int) -> dict:
    report = graded_report(curve, bundle, m_min, m_max)
    entries = []
    for e in report.entries:
        row = {
            "m": e.m,
            "classification": e.classification,
            "t0_formula": e.t0_formula,
            "t0_direct": e.t0_direct,
            "t1_formula": e.t1_formula,
            "t1_direct": e.t1_direct,
            "hilbert": e.hilbert,
            "discrepancy": e.discrepancy,
        }
        if e.euler_note is not None:
            row["euler_note"] = e.euler_note
        entries.append(row)
    return {"curve": report.curve_id, "bundle": report.bundle_id, "entries": entries}


def _random_bundles(curve: NodalCurve, count: int, seed: int):
    rng = random.Random(seed)
    k = len(curve.components)
    nonzero = [x for x in range(-5, 6) if x != 0]
    for _ in range(count):
        degrees = tuple(rng.randint(-4, 4) for _ in range(k))
        gluings = tuple(
            Fraction(rng.choice(nonzero), rng.randint(1, 3)) for _ in curve.nodes
        )
        yield LineBundle(curve, degrees, gluings)


def run_verify(curve: NodalCurve, bundle: LineBundle, samples: int, seed: int, m_min: int, m_max: int) -> dict:
    """The full exactness suite for one spec. The deformation closed form
    is compared only on genus-1 curves with a very ample bundle, the case
    it is derived for, and its weight 0 is reported, never failed: the
    closed form there is a generic claim and the concrete curve may
    differ."""
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

    rr = riemann_roch_report(bundle)
    check(
        "riemann-roch",
        rr.balanced,
        f"h0 {rr.h0} - h1 {rr.h1} = degree {rr.degree} - genus {rr.genus} + 1",
    )
    for label, twisted in (("square", power(bundle, 2)), ("inverse", dual(bundle))):
        tw = riemann_roch_report(twisted)
        check(f"riemann-roch-{label}", tw.balanced, f"h0 {tw.h0}, h1 {tw.h1}, degree {tw.degree}")

    space = section_basis(bundle)
    # node_images_consistent is exactly this basis node check; both rows report it
    basis_glues = node_images_consistent(space)
    check(
        "basis-gluing-exact",
        basis_glues,
        f"{len(space.basis)} basis sections satisfy every node constraint exactly",
    )
    flat = MatrixQ.from_rows(
        [flatten_section(bundle, s) for s in space.basis], cols=sum(block_widths(bundle))
    )
    flat_rank = rank(flat)
    check(
        "basis-independent",
        flat_rank == len(space.basis),
        f"rank {flat_rank} of {len(space.basis)} stacked sections",
    )
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
        m2, m3, quadrics = _multiplication_maps(space)
        for m, doc in ((2, m2), (3, m3)):
            check(
                f"multiplication-m{m}-surjective",
                doc["surjective"],
                f"rank {doc['rank']} of a {doc['target']} x {doc['source']} matrix",
            )
        failures = 0
        tested = 0
        for x in sample_points(curve, samples, seed):
            try:
                coords = embed_point(space, x)
            except ValueError:  # every section vanishes at x: it has no image to test
                continue
            for q in quadrics:
                tested += 1
                if quadric_value(q, coords) != 0:
                    failures += 1
        check(
            "quadrics-vanish-on-curve",
            failures == 0,
            f"{len(quadrics)} quadrics at {tested // max(1, len(quadrics))} points, {failures} nonzero values",
        )
    else:
        skip("multiplication-m2-surjective", "multidegree below the very-ampleness criterion")
        skip("multiplication-m3-surjective", "multidegree below the very-ampleness criterion")
        skip("quadrics-vanish-on-curve", "multidegree below the very-ampleness criterion")

    omega = dualizing_bundle(curve)
    omega_h0 = h0(omega)
    check(
        "dualizing-h0-equals-genus",
        omega_h0 == genus,
        f"h0 of the dualizing bundle {omega_h0}, genus {genus}",
    )
    serre_ok = all(serre_duality_check(b, omega) for b in (bundle, power(bundle, 2), dual(bundle)))
    check("serre-duality", serre_ok, "h1 matches h0 of the dual twist for the bundle, its square and its inverse")

    entries = graded_report(curve, bundle, m_min, m_max).entries
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

    rr_bad = 0
    for b in _random_bundles(curve, 25, seed + 7):
        if not riemann_roch_report(b).balanced:
            rr_bad += 1
    check("randomized-riemann-roch", rr_bad == 0, f"25 random bundles on this curve, {rr_bad} unbalanced")

    serre_bad = sum(1 for b in _random_bundles(curve, 10, seed + 13) if not serre_duality_check(b, omega))
    check("randomized-serre", serre_bad == 0, f"10 random bundles on this curve, {serre_bad} mismatched")

    passed = all(c["status"] != "FAIL" for c in checks)
    return {"passed": passed, "checks": checks}


# ------------------------------------------------------------------ plumbing


def _render_text(command: str, body: dict) -> str:
    lines: list[str] = []
    if command == "verify":
        for c in body["checks"]:
            lines.append(f"{c['status']:<5} {c['name']:<34} {c['detail']}")
        lines.append("PASSED" if body["passed"] else "FAILED")
    elif command == "deform":
        lines.append(f"{body['curve']}  {body['bundle']}")
        header = f"{'m':>4}  {'class':<18} {'t0 formula':>10} {'t0 direct':>9} {'t1 formula':>10} {'t1 direct':>9} {'hilbert':>7}"
        lines.append(header)
        for e in body["entries"]:
            lines.append(
                f"{e['m']:>4}  {e['classification']:<18} {e['t0_formula']:>10} {e['t0_direct']:>9} "
                f"{e['t1_formula']:>10} {e['t1_direct']:>9} {e['hilbert']:>7}"
                + ("  !" if e["discrepancy"] else "")
            )
        if any(e["discrepancy"] for e in body["entries"]):
            lines.append("rows marked ! differ between formula and direct mode; see euler_note")
    else:
        lines.extend(_render_plain(body, indent=0))
    return "\n".join(lines) + "\n"


def _render_plain(value, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_plain(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_plain(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ranges look like '-3:3', got {text!r}")
    if not lo <= 0 <= hi:
        raise argparse.ArgumentTypeError(f"range must contain 0, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalcone",
        description="Exact section spaces, embeddings and cone deformations for nodal curves of projective lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON curve spec")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("info", "curve structure, genus, dual graph")
    p = add("sections", "h0/h1 and duality checks for the bundle")
    p.add_argument("--basis", action="store_true", help="include the section basis")
    for name, help_text in (
        ("ample", "global generation and very ampleness verdicts"),
        ("embed", "projective coordinates of sample points"),
        ("ideal", "multiplication maps, quadrics, singularity probe"),
    ):
        p = add(name, help_text)
        p.add_argument("--samples", type=int, default=5, help="extra sample points per component")
        p.add_argument("--seed", type=int, default=SAMPLE_SEED, help="sampling seed")
    p = add("deform", "graded deformation table of the affine cone")
    p.add_argument("--range", type=_parse_range, default=(-5, 5), dest="weight_range", help="weight range 'a:b' containing 0")
    p = add("verify", "run every check and exit nonzero on failure")
    p.add_argument("--samples", type=int, default=5, help="extra sample points per component")
    p.add_argument("--seed", type=int, default=SAMPLE_SEED, help="sampling seed")
    p.add_argument("--range", type=_parse_range, default=(-3, 3), dest="weight_range", help="weight range 'a:b' containing 0")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a leading '-' in '--range -3:3' as a new option; fold
    # the value into '--range=-3:3' so both spellings work.
    for i, token in enumerate(argv[:-1]):
        if token == "--range":
            argv[i : i + 2] = ["--range=" + argv[i + 1]]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.spec, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        spec = parse_spec(raw.decode("utf-8"))
        curve = spec.curve
        bundle = LineBundle(curve, spec.multidegree, spec.gluings)
        if hasattr(args, "samples"):
            try:
                sample_points(curve, args.samples, args.seed)
            except ValueError as exc:
                raise SpecError("samples", str(exc))
        if args.command == "info":
            body = run_info(curve, bundle)
        elif args.command == "sections":
            body = run_sections(curve, bundle, args.basis)
        elif args.command == "ample":
            body = run_ample(curve, bundle, args.samples, args.seed)
        elif args.command == "embed":
            body = run_embed(curve, bundle, args.samples, args.seed)
        elif args.command == "ideal":
            body = run_ideal(curve, bundle, args.samples, args.seed)
        elif args.command == "deform":
            body = run_deform(curve, bundle, args.weight_range[0], args.weight_range[1])
        else:
            body = run_verify(
                curve, bundle, args.samples, args.seed, args.weight_range[0], args.weight_range[1]
            )
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
            print(json.dumps(document, indent=2))
        else:
            print(_render_text(args.command, body), end="")
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
