"""CLI spec parsing, subcommands, exit codes, deterministic output."""

import contextlib
import copy
import hashlib
import io
import json
import os
import pickle
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nodalcone.cli as cli
from conftest import (
    SHORT_M3_SPEC,
    curve_with_infinity,
    random_curve,
    reference_dual,
    reference_power,
    reference_random_bundles,
    reference_rref,
    reference_tensor,
)
from nodalcone.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    SpecError,
    fmt_exact,
    _parse_range,
    main,
    parse_coordinate,
    parse_scalar,
    parse_spec,
)
from nodalcone.bundles import (
    LineBundle,
    cohomology,
    dual,
    dualizing_bundle,
    gluing_matrix,
    h0,
    power,
    section_basis,
    tensor,
    twisted_cohomology,
)
from nodalcone.curve import arithmetic_genus, validate
from nodalcone.embedding import SAMPLE_SEED
from nodalcone.jsontext import json_text

F = Fraction

REPO = Path(__file__).resolve().parents[1]
PAPER_SPEC = REPO / "curves" / "paper-x.json"
SPECS = REPO / "tests" / "specs"

MINIMAL = """
{
  "components": [
    {"name": "A", "points": ["0", "1"]},
    {"name": "B", "points": ["0", "1"]}
  ],
  "nodes": [
    {"a": "A.0", "b": "B.0"},
    {"a": "A.1", "b": "B.1"}
  ],
  "bundle": {"multidegree": [2, 2], "gluings": ["1", "3/2"]}
}
"""


def code_of(text):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    return err.value.code


def test_parse_coordinate_forms():
    assert parse_coordinate("1/2").coord == F(1, 2)
    assert parse_coordinate("-3").coord == F(-3)
    assert parse_coordinate("inf").is_infinity
    with pytest.raises(SpecError):
        parse_coordinate("one half")
    with pytest.raises(SpecError):
        parse_coordinate(1.5)
    with pytest.raises(SpecError):
        parse_coordinate("1/0")
    # only sign, ASCII digits and one '/': an exponent would expand into a
    # million-digit integer, and decimals, underscores and other digits
    # are outside the documented forms
    for text in ("1e1000000", "0.5", "1_000", "\u0663", "1/-2", "+-1", "1/2/3"):
        with pytest.raises(SpecError):
            parse_coordinate(text)


def test_parse_scalar_forms():
    assert parse_scalar("3/2") == F(3, 2)
    assert parse_scalar(4) == F(4)
    assert parse_scalar(" -7/3 ") == F(-7, 3)
    with pytest.raises(SpecError):
        parse_scalar(0.25)
    for text in ("1e1000000", "0.5", "1_000", "\u0663", "1/0"):
        with pytest.raises(SpecError):
            parse_scalar(text)


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("", "+", "-")), _DIGITS, st.none() | _DIGITS)
@example("-", "0", "3")
@example("+", "007", "0014")
@example("", "0", "0")
def test_rational_equals_fraction_on_the_grammar(sign, p, q):
    """``_rational`` builds from its match's groups what ``Fraction`` parses
    from the text: sign, leading zeros, -0/3, up to 60 digits each side,
    and ``ZeroDivisionError`` on a zero denominator."""
    text = sign + p + ("" if q is None else "/" + q)
    try:
        expected = Fraction(text)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            cli._rational(text)
        return
    got = cli._rational(text)
    assert type(got) is Fraction and got == expected
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def test_main_rejects_numbers_past_the_digit_limit(tmp_path, capsys):
    """A coordinate or gluing with 5000 digits in its numerator or its
    denominator, or a node branch index with 5000 digits, is past
    ``int``'s digit limit: a diagnostic and exit 2, with nothing on
    stdout and no traceback."""
    paper = json.loads(PAPER_SPEC.read_text())
    big = "7" * 5000
    cases = []
    for text in (big, "-" + big + "/3", "1/" + big):
        point, gluing = copy.deepcopy(paper), copy.deepcopy(paper)
        point["components"][1]["points"][2] = text
        gluing["bundle"]["gluings"][1] = text
        cases += [(point, "coordinate"), (gluing, "gluing")]
    branch = copy.deepcopy(paper)
    branch["nodes"][1]["b"] = "C2." + big
    cases.append((branch, "reference"))
    for doc, code in cases:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["sections", str(spec), "--json"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[{code}]: ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "points, shown",
    [(["1/2", "2/4"], "1/2"), (["0", "-0/3"], "0"), (["inf", "inf"], "inf")],
)
def test_marked_points_equal_as_rationals_are_duplicates(points, shown):
    doc = json.loads(MINIMAL)
    doc["components"][0]["points"] = points
    with pytest.raises(SpecError) as err:
        parse_spec(json.dumps(doc))
    assert err.value.code == "invariant"
    assert f"component A: marked point {shown} appears more than once" in err.value.message


def _edited(path, value):
    doc = json.loads(MINIMAL)
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path, value, code, message",
    [
        (("components", 0, "points"), "0", "schema", "component A: 'points' must be a list"),
        (("components", 0), {"name": "A{0}", "points": "0"}, "schema", "component A{0}: 'points' must be a list"),
        (("nodes", 1, "b"), "C.0", "reference", "node 1: branch b references unknown component 'C'"),
        (("nodes", 0, "a"), "A.7", "reference", "node 0: branch a references marked point index 7 outside component A (which has 2)"),
        (("bundle", "multidegree"), [2, 1.5], "schema", "multidegree entries are integers, got 1.5"),
        (("bundle", "multidegree"), ["2", 2], "schema", "multidegree entries are integers, got '2'"),
        (("bundle", "multidegree"), [True, 2], "schema", "multidegree entries are integers, got True"),
        (("bundle", "multidegree"), [2], "shape", "multidegree has 1 entries for 2 components"),
        (("bundle", "gluings"), ["1"], "shape", "1 gluing scalars for 2 nodes"),
        (("bundle", "gluings"), ["1", "0/7"], "gluing", "gluing scalar at node 1 must be nonzero"),
        (("nodes", 1, "a"), "A.2", "reference", "node 1: branch a references marked point index 2 outside component A (which has 2)"),
    ],
)
def test_parse_spec_messages_name_the_offending_entry(path, value, code, message):
    # each message is formatted only once its check fails, from the entry it names
    with pytest.raises(SpecError) as err:
        parse_spec(_edited(path, value))
    assert (err.value.code, err.value.message) == (code, message)


def test_parse_spec_minimal():
    spec = parse_spec(MINIMAL)
    curve = spec.curve
    assert arithmetic_genus(curve) == 1
    bundle = LineBundle(curve, spec.multidegree, spec.gluings)
    assert bundle.multidegree == (2, 2)
    assert bundle.gluings == (F(1), F(3, 2))


def test_parse_spec_defaults_gluings_to_one():
    text = MINIMAL.replace(', "gluings": ["1", "3/2"]', "")
    spec = parse_spec(text)
    bundle = LineBundle(spec.curve, spec.multidegree, spec.gluings)
    assert bundle.gluings == (F(1), F(1))


class _Pair(NamedTuple):
    first: object
    second: object


# what a document holds: text with escapes and non-ASCII, ints of any size
# and sign, booleans, None, and lists, tuples, named tuples and dicts of them
_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.tuples(inner, inner).map(lambda t: _Pair(*t))
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
@example({"a": [], "b": {}, "c": ["", "\u00e9\n\"\\", ["\ud800"]], "d": (True, False, None, -0, 2**70)})
def test_json_writer_matches_json_dumps_with_indent(document):
    """``jsontext.json_text`` writes the bytes of ``json.dumps(..., indent=2)``."""
    assert json_text(document) == json.dumps(document, indent=2)


def test_json_writer_refuses_what_json_cannot_write_exactly():
    """Floats, sets, Fractions and dict keys that are not str raise
    ``TypeError``, like any other type; ``json`` would write the float
    and turn the int key into a string."""
    for value in (0.5, {1, 2}, F(1, 2), b"x", [1, {"k": 0.25}], {1: "a"}, {None: 1}):
        with pytest.raises(TypeError):
            json_text(value)


def test_paper_spec_file_parses():
    spec = parse_spec(PAPER_SPEC.read_text())
    curve = spec.curve
    assert arithmetic_genus(curve) == 1
    assert LineBundle(curve, spec.multidegree, spec.gluings).multidegree == (4, 3, 3)


def test_diagnostic_code_syntax():
    assert code_of("{not json") == "syntax"
    # deeper than the nesting json.loads accepts on any supported Python
    assert code_of("[" * 100_000 + "]" * 100_000) == "syntax"
    # past the int string-conversion limit json.loads raises a plain
    # ValueError; json.dumps cannot write such an int, so the text is raw
    huge = MINIMAL.replace('"multidegree": [2, 2]', '"multidegree": [' + "7" * 5000 + ", 2]")
    assert huge != MINIMAL
    assert code_of(huge) == "syntax"


def test_diagnostic_code_schema():
    assert code_of("[]") == "schema"
    assert code_of('{"components": []}') == "schema"
    doc = json.loads(MINIMAL)
    del doc["bundle"]
    assert code_of(json.dumps(doc)) == "schema"
    doc = json.loads(MINIMAL)
    doc["bundle"]["multidegree"] = [2, 2.5]
    assert code_of(json.dumps(doc)) == "schema"


def test_diagnostic_code_coordinate():
    doc = json.loads(MINIMAL)
    doc["components"][0]["points"][0] = "zero"
    assert code_of(json.dumps(doc)) == "coordinate"


def test_diagnostic_code_reference():
    doc = json.loads(MINIMAL)
    doc["nodes"][0]["a"] = "A:0"
    assert code_of(json.dumps(doc)) == "reference"
    doc = json.loads(MINIMAL)
    doc["nodes"][0]["a"] = "Z.0"
    assert code_of(json.dumps(doc)) == "reference"
    doc = json.loads(MINIMAL)
    doc["nodes"][0]["a"] = "A.9"
    assert code_of(json.dumps(doc)) == "reference"
    for text in ("A.\u00b2", "A.\u0660", "A.\uff10", "A.+0", "A.0_0", "A. 0"):
        doc = json.loads(MINIMAL)
        doc["nodes"][0]["a"] = text
        assert code_of(json.dumps(doc)) == "reference"


def test_diagnostic_code_gluing():
    doc = json.loads(MINIMAL)
    doc["bundle"]["gluings"][1] = "0"
    assert code_of(json.dumps(doc)) == "gluing"


def test_diagnostic_code_shape():
    doc = json.loads(MINIMAL)
    doc["bundle"]["multidegree"] = [2]
    assert code_of(json.dumps(doc)) == "shape"
    doc = json.loads(MINIMAL)
    doc["bundle"]["gluings"] = ["1"]
    assert code_of(json.dumps(doc)) == "shape"


def test_diagnostic_code_invariant():
    doc = json.loads(MINIMAL)
    doc["components"][0]["points"] = ["0", "0"]
    assert code_of(json.dumps(doc)) == "invariant"
    doc = json.loads(MINIMAL)
    del doc["nodes"][1]
    doc["bundle"]["gluings"] = ["1"]
    assert code_of(json.dumps(doc)) == "invariant"  # A.1 and B.1 left unused


def test_fmt_exact():
    assert fmt_exact(F(4)) == 4
    assert fmt_exact(F(3, 2)) == "3/2"


def test_main_info(capsys):
    assert main(["info", str(PAPER_SPEC)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "genus" in out and "1" in out


def test_main_sections_json(capsys):
    assert main(["sections", str(PAPER_SPEC), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    body = doc["sections"]["sections"]
    assert body["h0"] == 10
    assert body["h1"] == 0
    assert body["riemann_roch_balanced"] is True
    assert body["serre_duality"] is True
    assert doc["tool"]["name"] == "nodalcone"
    assert len(doc["input"]["sha256"]) == 64


def test_main_sections_basis(capsys):
    assert main(["sections", str(PAPER_SPEC), "--json", "--basis"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["sections"]
    basis = body["basis"]
    assert len(basis) == 10
    for section in basis:
        assert [len(section[name]) for name in ("C1", "C2", "C3")] == [5, 4, 4]


def test_main_ample_json(capsys):
    assert main(["ample", str(PAPER_SPEC), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ample"]
    assert body["globally_generated"]["status"] == "criterion-satisfied"
    assert body["very_ample"]["status"] == "criterion-satisfied"
    assert body["very_ample"]["samples_checked"] == 174


def test_main_embed_json(capsys):
    assert main(["embed", str(PAPER_SPEC), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["embed"]
    assert body["target"] == "P^9"
    assert body["node_consistency"] is True
    assert len(body["points"]) == 18
    for entry in body["points"]:
        assert len(entry["coordinates"]) == 10


def test_main_ideal_json(capsys):
    assert main(["ideal", str(PAPER_SPEC), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ideal"]
    assert body["m2"] == {"source": 55, "target": 20, "rank": 20, "surjective": True}
    assert body["m3"] == {"source": 220, "target": 30, "rank": 30, "surjective": True}
    assert body["quadric_count"] == 35
    probe = body["singularity_probe"]
    assert probe["vertex_rank"] == 0
    assert probe["node_ranks"] == [7, 6, 7]
    assert probe["smooth_point_rank"] == 8
    assert "smoothness" in probe["note"]


def test_main_deform_json(capsys):
    assert main(["deform", str(PAPER_SPEC), "--json", "--range", "-2:2"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["deform"]
    entries = {e["m"]: e for e in body["entries"]}
    assert set(entries) == {-2, -1, 0, 1, 2}
    assert entries[-2]["t1_direct"] == 20
    assert entries[2]["t0_direct"] == 20
    assert entries[0]["discrepancy"] is True
    assert "euler_note" in entries[0]
    assert entries[1]["discrepancy"] is False


def test_main_ideal_reports_a_node_without_an_image(tmp_path, capsys):
    # C3 at degree -3 forces every section to vanish at node 0 (C1.0 ~ C3.0)
    doc = json.loads(PAPER_SPEC.read_text())
    doc["bundle"]["multidegree"] = [4, 3, -3]
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    assert main(["ideal", str(path), "--json"]) == EXIT_OK
    probe = json.loads(capsys.readouterr().out)["sections"]["ideal"]["singularity_probe"]
    assert probe["node_ranks"][0] is None
    assert all(isinstance(r, int) for r in probe["node_ranks"][1:])


def test_main_deform_equals_range_spelling(capsys):
    assert main(["deform", str(PAPER_SPEC), "--json", "--range=-1:1"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["deform"]
    assert [e["m"] for e in body["entries"]] == [-1, 0, 1]


def test_main_range_must_contain_zero():
    with pytest.raises(SystemExit) as err:
        main(["deform", str(PAPER_SPEC), "--range", "1:3"])
    assert err.value.code == 2


def test_main_range_endpoints_are_bounded():
    """An endpoint past 1000 is refused while the arguments are parsed,
    before any weight is computed, so even 10^9 returns at once."""
    assert _parse_range("-1000:1000") == (-1000, 1000)
    for command, text in (("deform", "0:1000000000"), ("deform", "-1001:0"), ("verify", "0:1001")):
        with pytest.raises(SystemExit) as err:
            main([command, str(PAPER_SPEC), "--range", text])
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ample", "--samples", "１"],  # a fullwidth 1
        ["verify", "--seed", "٣"],  # an Arabic-Indic 3
        ["deform", "--range=-1_0:3"],
        ["embed", "--samples", "1_0"],
        ["ideal", "--seed= 5"],
        ["verify", "--range=-1:٣"],
    ],
)
def test_option_integers_are_ascii_digits(argv, capsys):
    """``--samples``, ``--seed`` and the ``--range`` endpoints take ASCII
    digits with an optional sign, as a spec's numbers do: an underscore,
    a space or another script's digit is argparse's usage error, exit 2."""
    argv = [argv[0], str(PAPER_SPEC), *argv[1:]]
    assert cli._parse_argv(argv) is None
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2 and "usage:" in capsys.readouterr().err


def test_option_integer_grammar():
    assert [cli._integer(text) for text in ("7", "+7", "-0", "007")] == [7, 7, 0, 7]
    for text in ("", "+", "1_0", " 5", "5\n", "1e3", "１"):
        with pytest.raises(ValueError):
            cli._integer(text)


def _record_eliminations(monkeypatch):
    """Record ``(0, rows, width)`` of every elimination of dense rows, 0
    the characteristic of Q, over which every one runs, ``(rows, cols)``
    of every rank taken mod PRIME on sparse columns, of every matrix
    whose dense rows are built from sparse columns, and of every MatrixQ
    built."""
    from nodalcone import embedding, exactlin

    eliminations, column_ranks, dense, matrices = [], [], [], []
    eliminate, by_columns, to_rows = exactlin._forward_eliminate, exactlin._rank_mod_prime, exactlin._dense_rows
    init = exactlin.MatrixQ.__init__

    def counting_eliminate(rows):
        eliminations.append((0, len(rows), len(rows[0]) if rows else 0))
        return eliminate(rows)

    def counting_by_columns(columns, rows, stop):
        column_ranks.append((rows, len(columns)))
        return by_columns(columns, rows, stop)

    def counting_to_rows(columns, rows):
        dense.append((rows, len(columns)))
        return to_rows(columns, rows)

    def counting_init(self, rows, cols, entries):
        matrices.append((rows, cols))
        init(self, rows, cols, entries)

    monkeypatch.setattr(exactlin, "_forward_eliminate", counting_eliminate)
    monkeypatch.setattr(exactlin, "_rank_mod_prime", counting_by_columns)
    for module in (exactlin, embedding):
        monkeypatch.setattr(module, "_dense_rows", counting_to_rows)
    monkeypatch.setattr(exactlin.MatrixQ, "__init__", counting_init)
    return eliminations, column_ranks, dense, matrices


def _paper_curve_at(k: int) -> str:
    doc = json.loads(PAPER_SPEC.read_text())
    doc["bundle"]["multidegree"] = [k, k, k]
    return json.dumps(doc, indent=2) + "\n"


M3_GUARD_SPECS = [f"curves/{p.name}" for p in sorted((REPO / "curves").glob("*.json"))] + [
    f"ladder:{k}" for k in range(3, 7)
]


def _guard_spec(spec: str, tmp_path: Path) -> tuple[Path, LineBundle]:
    """The file of an ``M3_GUARD_SPECS`` entry and its bundle."""
    if spec.startswith("ladder:"):
        path = tmp_path / "ladder.json"
        path.write_text(_paper_curve_at(int(spec.split(":")[1])))
    else:
        path = REPO / spec
    parsed = parse_spec(path.read_text())
    return path, LineBundle(parsed.curve, parsed.multidegree, parsed.gluings)


@pytest.mark.parametrize("command", ["ideal", "verify"])
def test_quadrics_converted_once_per_command(command, tmp_path, monkeypatch, capsys):
    """On the shipped curves and the (k,k,k) ladder for k = 3..6, the
    quadrics are put in integer form once per command, straight from the
    integer m = 2 map, however many points the command tests them at;
    the dense Fraction conversion ``_quadric_form`` never runs. They are
    as many as the exact kernel of the rational map has vectors."""
    from nodalcone import embedding
    from nodalcone.exactlin import kernel_basis

    forms, dense = [], []
    build = embedding._quadric_forms

    def counting(columns, dens, rows, n):
        forms.append(build(columns, dens, rows, n))
        return forms[-1]

    monkeypatch.setattr(embedding, "_quadric_forms", counting)
    monkeypatch.setattr(embedding, "_quadric_form", lambda q, n: dense.append(q))
    for spec in M3_GUARD_SPECS:
        path, bundle = _guard_spec(spec, tmp_path)
        expected = len(kernel_basis(embedding.multiplication_map(section_basis(bundle), 2)))
        forms.clear()
        assert main([command, str(path), "--json"]) == EXIT_OK
        body = json.loads(capsys.readouterr().out)["sections"][command]
        assert [len(f) for f in forms] == [expected]
        if command == "ideal":
            assert body["quadric_count"] == expected
    assert dense == []


# the specs on which one point of ``ideal``'s probe, node 1 where C1
# meets C2, needs the gradients' rank over Q, and that matrix's nonzero
# columns: the quadrics cut out C2's whole plane there (ROADMAP item 1)
PROBE_SHORTFALL = {"curves/paper-x-333.json": 6, "curves/paper-x.json": 7, "ladder:3": 6}


def _pivot_cubics(space) -> set:
    """The cubics ``x_i * p``, i a basis index and p a monomial at a pivot
    column of the rational m = 2 map's rref: the columns of m3 whose rank
    ``cone_ideal`` takes."""
    from nodalcone.embedding import multiplication_map, sym_monomials

    n = len(space.integral_basis)
    monos = sym_monomials(n, 2)
    return {tuple(sorted((*monos[j], i))) for j in reference_rref(multiplication_map(space, 2))[1] for i in range(n)}


@pytest.mark.parametrize("command", ["ideal", "verify"])
@pytest.mark.parametrize("spec", M3_GUARD_SPECS)
def test_m3_rank_is_certified_mod_p(command, spec, tmp_path, monkeypatch, capsys):
    """On the shipped curves and the (k,k,k) ladder neither multiplication
    map becomes a MatrixQ, either way round. The pencil trick proves m3
    onto, so no cubic product is built, and no m3 column is ranked, built
    as dense rows or eliminated, at any width: not at the width of the
    cubics over m2's pivots (``_pivot_cubics``), nor at every cubic's;
    every rank taken mod PRIME with m3's row count is a probe's gradient
    matrix, at most h0 wide. The m = 2 kernel is eliminated exactly once,
    over Q, on m2's nonzero columns only, never at its full width and
    never mod a prime. Every gradient matrix of ``ideal``'s probe, one
    row per quadric, is ranked mod PRIME on its sparse columns and never
    eliminated, except where ``PROBE_SHORTFALL`` names the one matrix
    whose rank mod PRIME falls short of its bound and is taken over Q."""
    from nodalcone import embedding
    from nodalcone.embedding import multiplication_map

    path, bundle = _guard_spec(spec, tmp_path)
    space = section_basis(bundle)
    h0 = len(space.basis)
    rational_m2 = multiplication_map(space, 2)
    target2 = rational_m2.rows
    m2 = (target2, h0 * (h0 + 1) // 2)
    m2_nonzero = (target2, sum(1 for column in zip(*map(rational_m2.row, range(target2))) if any(column)))
    assert m2_nonzero[1] < m2[1]
    target3 = len(section_basis(power(bundle, 3)).basis)
    m3_full = (target3, h0 * (h0 + 1) * (h0 + 2) // 6)
    m3_pivots = (target3, len(_pivot_cubics(space)))
    assert h0 < m3_pivots[1] < m3_full[1]
    eliminations, column_ranks, dense, matrices = _record_eliminations(monkeypatch)
    cubics = []
    degree_map = embedding._degree_map

    def recording(space, target, prefixes, monos, kept=None):
        cubics.extend(mono for mono in monos if len(mono) == 3)
        return degree_map(space, target, prefixes, monos, kept)

    monkeypatch.setattr(embedding, "_degree_map", recording)
    assert main([command, str(path), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"][command]
    assert cubics == []
    for shape in (m2_nonzero, m2, m3_pivots, m3_full):
        assert shape not in matrices and shape[::-1] not in matrices
    assert eliminations.count((0, *m2_nonzero)) == 1
    assert m2_nonzero not in column_ranks
    assert (0, *m2) not in eliminations and m2 not in column_ranks
    assert all(cols <= h0 for rows, cols in column_ranks if rows == target3)
    for shape in (m3_pivots, m3_full):
        assert (0, *shape) not in eliminations and shape not in dense and shape not in column_ranks
    if command == "ideal":
        gradients = (body["quadric_count"], h0)  # the smooth sample's, every column nonzero
        assert gradients in column_ranks
        assert gradients not in matrices and gradients[::-1] not in matrices
        probe = [e for e in eliminations if e[1] == gradients[0] and e[2] <= h0]
        shortfall = [(0, gradients[0], PROBE_SHORTFALL[spec])] if spec in PROBE_SHORTFALL else []
        assert probe == shortfall


@pytest.mark.parametrize("command", ["ideal", "verify"])
@pytest.mark.parametrize("spec", M3_GUARD_SPECS)
def test_m3_by_the_pencil_trick_prints_what_the_exact_rank_prints(command, spec, tmp_path, monkeypatch, capsys):
    """On the shipped curves and the (k,k,k) ladder ``cone_ideal`` takes
    the pencil route once per command, and with ``_pencil_trick`` patched
    to fail, so that m3's rank is taken exactly over the pivot cubics, the
    command prints the same stdout and stderr with the same exit code."""
    from nodalcone import embedding

    path, _ = _guard_spec(spec, tmp_path)
    trick, routes = embedding._pencil_trick, []

    def recording(space, m2):
        routes.append(trick(space, m2))
        return routes[-1]

    monkeypatch.setattr(embedding, "_pencil_trick", recording)
    assert main([command, str(path), "--json"]) == EXIT_OK
    by_pencil = capsys.readouterr()
    assert routes == [True]
    monkeypatch.setattr(embedding, "_pencil_trick", lambda space, m2: False)
    assert main([command, str(path), "--json"]) == EXIT_OK
    assert capsys.readouterr() == by_pencil


# the paper curve at (3, 3, 3) with C2's branch of the node C1.1 - C2.1
# moved to a coordinate of 61 digits over 60
BIG_COORDINATE = "-" + "9" * 30 + "1" * 31 + "/" + "7" * 60

# stdout sha256 of ``ideal --json`` and ``ideal`` on that spec, written
# as ``big-coordinates.json`` and run from its directory; recorded while
# the quadrics and the probe's ranks were still taken over Q
PINNED_BIG_COORDINATES = {
    True: "bb096539062f4ee9cf5e4badb504c83ccbf73577f3e0500d474dde990a6c94bc",
    False: "a2029692a76716d95a2391cd4faa3f4c0d20a5fd425486c5107c8bcaa60984b8",
}


@pytest.mark.parametrize("as_json", [True, False])
def test_ideal_with_huge_coordinates_falls_back_to_q(as_json, tmp_path, monkeypatch, capsys):
    """Cone coordinates of 61 digits: the m = 2 kernel is taken over Q,
    once, on the 30 nonzero of m2's 45 columns, and never at full width;
    so is the one probe rank its known kernel vectors do not certify,
    node 1's gradients on their 6 nonzero columns. The output is the one
    pinned before any kernel or rank was found mod a prime."""
    doc = json.loads(_paper_curve_at(3))
    doc["components"][1]["points"][1] = BIG_COORDINATE
    (tmp_path / "big-coordinates.json").write_text(json.dumps(doc, indent=2) + "\n")
    monkeypatch.chdir(tmp_path)
    eliminations, *_ = _record_eliminations(monkeypatch)
    assert main(["ideal", "big-coordinates.json", *(["--json"] if as_json else [])]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_BIG_COORDINATES[as_json]
    assert [e for e in eliminations if e[1] == 27] == [(0, 27, 6)]
    assert eliminations.count((0, 18, 30)) == 1
    assert (0, 18, 45) not in eliminations


def test_ideal_takes_a_short_m3_rank_over_q(tmp_path, monkeypatch, capsys):
    """rank 10 of 12 mod PRIME on the sparse columns of the 16 of m3's 20
    cubics that ``_pivot_cubics`` names certifies nothing, so the rank
    printed is the exact rank of the same integers, taken over Q from
    their dense rows; the full 20 columns are never ranked."""
    from nodalcone.exactlin import PRIME

    path = tmp_path / "short.json"
    path.write_text(SHORT_M3_SPEC)
    parsed = parse_spec(SHORT_M3_SPEC)
    assert len(_pivot_cubics(section_basis(LineBundle(parsed.curve, parsed.multidegree, parsed.gluings)))) == 16
    eliminations, column_ranks, dense, matrices = _record_eliminations(monkeypatch)
    assert main(["ideal", str(path), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ideal"]
    assert body["m3"] == {"source": 20, "target": 12, "rank": 10, "surjective": False}
    assert column_ranks.count((12, 16)) == 1 and eliminations.count((0, 12, 16)) == 1
    assert (PRIME, 12, 16) not in eliminations and dense.count((12, 16)) == 1
    assert (12, 16) not in matrices
    assert (12, 20) not in column_ranks + dense + matrices and (0, 12, 20) not in eliminations
    assert main(["ideal", str(path)]) == EXIT_OK
    assert "m3:\n  source: 20\n  target: 12\n  rank: 10\n  surjective: False\n" in capsys.readouterr().out


def _record_probe(monkeypatch):
    """Wrap ``_jacobian_rank`` where ``embedding`` calls it and record,
    for each call, the point it names (``vertex`` for none) and the
    eliminations ``_record_eliminations`` records during it."""
    from nodalcone import embedding

    points = []
    eliminations, *_ = _record_eliminations(monkeypatch)
    jacobian = embedding._jacobian_rank

    def recording(forms, x, known=(), at=None):
        start = len(eliminations)
        rank = jacobian(forms, x, known, at)
        points.append(("vertex" if at is None else str(at), eliminations[start:]))
        return rank

    monkeypatch.setattr(embedding, "_jacobian_rank", recording)
    return points


@pytest.mark.parametrize("name", ["paper-x.json", "paper-x-333.json"])
def test_probe_falls_back_to_q_at_one_node(name, monkeypatch, capsys):
    """The probe's known kernel vectors certify the rank mod PRIME at the
    vertex, the smooth sample and two of the three nodes. Node 1, where
    C1 meets C2, is the one point whose rank mod PRIME falls short of its
    bound by one: the quadrics vanish on C2's whole plane, so their
    gradients there also kill a direction the bound does not know of
    (ROADMAP item 1). Its rank alone is taken over Q, on the gradients'
    nonzero columns, and no other probe matrix is eliminated."""
    points = _record_probe(monkeypatch)
    assert main(["ideal", str(REPO / "curves" / name), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ideal"]
    assert [at for at, _ in points] == ["vertex", "node:0", "node:1", "node:2", "C1:24"]
    q = body["quadric_count"]
    assert [(at, e) for at, done in points for e in done] == [("node:1", (0, q, PROBE_SHORTFALL[f"curves/{name}"]))]
    assert body["singularity_probe"]["node_ranks"][1] == body["h0"] - 4


BIG_14 = {"multidegree": [14, 14, 14], "gluings": ["5/3", "-2/7", "3"]}


@pytest.mark.parametrize("spec", [f"ladder:{k}" for k in range(4, 9)] + ["big:14"])
def test_probe_ranks_are_certified_without_elimination(spec, tmp_path, monkeypatch, capsys):
    """On the ladder at k = 4..8, and on the paper curve at (14,14,14)
    with gluings with denominators and C2's second point at the 61-digit
    ``BIG_COORDINATE``, every probe rank is certified mod PRIME by its
    known kernel vectors: no gradient matrix is eliminated."""
    if spec == "big:14":
        doc = json.loads(PAPER_SPEC.read_text())
        doc["components"][1]["points"][1] = BIG_COORDINATE
        doc["bundle"] = BIG_14
        text = json.dumps(doc)
    else:
        text = _paper_curve_at(int(spec.split(":")[1]))
    path = tmp_path / "spec.json"
    path.write_text(text)
    points = _record_probe(monkeypatch)
    assert main(["ideal", str(path), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ideal"]
    assert [at for at, _ in points] == ["vertex", "node:0", "node:1", "node:2", "C1:24"]
    assert [e for _, done in points for e in done] == []
    probe = body["singularity_probe"]
    h0 = body["h0"]
    assert probe["node_ranks"] == [h0 - 3] * 3 and probe["smooth_point_rank"] == h0 - 2


@pytest.mark.parametrize("samples", [0, 1, 5])
@pytest.mark.parametrize("seed", [1, 7, 1105])
def test_ideal_reads_the_first_smooth_sample_only(samples, seed, monkeypatch, capsys):
    """``ideal`` probes the first smooth point of ``embedding._samples``,
    which is the first smooth point of ``sample_points`` for the same
    arguments, and draws no point after it; with no smooth samples there
    is no ``smooth_point_rank``."""
    from nodalcone import embedding

    drawn = []
    samples_of = embedding._samples

    def counting(curve, extra, seed_):
        for x in samples_of(curve, extra, seed_):
            drawn.append(x)
            yield x

    monkeypatch.setattr(embedding, "_samples", counting)
    for path in sorted((REPO / "curves").glob("*.json")):
        curve = parse_spec(path.read_text()).curve
        smooth = [x for x in embedding.sample_points(curve, samples, seed) if not x.is_node]
        first = next((x for x in samples_of(curve, samples, seed) if not x.is_node), None)
        assert first == (smooth[0] if smooth else None)
        drawn.clear()
        assert main(["ideal", str(path), "--json", "--samples", str(samples), "--seed", str(seed)]) == EXIT_OK
        probe = json.loads(capsys.readouterr().out)["sections"]["ideal"]["singularity_probe"]
        assert [x for x in drawn if not x.is_node] == smooth[:1]
        assert ("smooth_point_rank" in probe) == bool(smooth)


@pytest.mark.parametrize("command", ["verify", "ample"])
def test_sampled_checks_draw_once_and_read_each_row_once(command, monkeypatch, capsys):
    """The sampled checks share one sample table: on the paper curve the
    samples are drawn once, and each of the 42 (point, row) pairs is read
    once: 18 samples' value rows, the three nodes' branch-1 value rows
    and 21 jet rows."""
    from nodalcone import embedding

    draws, reads = [], []
    draw, read = embedding.sample_points, embedding._branch_vector

    def counted_draw(*args):
        draws.append(args)
        return draw(*args)

    def counted_read(space, x, row):
        reads.append((x, row))
        return read(space, x, row)

    monkeypatch.setattr(embedding, "sample_points", counted_draw)
    monkeypatch.setattr(embedding, "_branch_vector", counted_read)
    assert main([command, str(PAPER_SPEC), "--json"]) == EXIT_OK
    capsys.readouterr()
    assert len(draws) == 1
    assert len(reads) == len(set(reads)) == 42


def test_main_verify_ok(capsys):
    assert main(["verify", str(PAPER_SPEC), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["verify"]
    assert body["passed"] is True
    statuses = {c["name"]: c["status"] for c in body["checks"]}
    assert statuses["deformation-weight-0"] == "info"
    assert all(s in ("ok", "info", "skip") for s in statuses.values())
    assert statuses["multiplication-m2-surjective"] == "ok"


def test_main_verify_with_too_few_sections(tmp_path, capsys):
    # two lines meeting in four points, multidegree (1, 1): genus 3, h0 = 0
    doc = {
        "components": [
            {"name": "A", "points": ["0", "1", "2", "3"]},
            {"name": "B", "points": ["0", "1", "2", "3"]},
        ],
        "nodes": [{"a": f"A.{k}", "b": f"B.{k}"} for k in range(4)],
        "bundle": {"multidegree": [1, 1], "gluings": ["2", "3", "5", "7"]},
    }
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    statuses = {c["name"]: c["status"] for c in json.loads(captured.out)["sections"]["verify"]["checks"]}
    assert statuses["riemann-roch"] == "ok"
    assert statuses["globally-generated"] == statuses["very-ample"] == "FAIL"
    assert statuses["randomized-serre"] == "ok"  # the checks after the verdicts still ran
    assert main(["ample", str(path), "--json"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["ample"]
    assert body["very_ample"] == {
        "status": "failed",
        "witness": "fewer than two global sections (h0 = 0)",
        "samples_checked": 0,
    }


def test_main_verify_without_sections_at_high_degree(tmp_path, capsys):
    # two lines meeting in eight points, multidegree (3, 3): genus 7 and no
    # sections, so no sample point has an image for the quadric check
    doc = {
        "components": [{"name": name, "points": [str(k) for k in range(8)]} for name in "AB"],
        "nodes": [{"a": f"A.{k}", "b": f"B.{k}"} for k in range(8)],
        "bundle": {"multidegree": [3, 3], "gluings": ["2", "3", "5", "7", "11", "13", "17", "19"]},
    }
    path = tmp_path / "g7.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json", "--samples", "1"]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["sections"]["verify"]["checks"]}
    assert checks["very-ample"]["status"] == "FAIL"
    assert checks["quadrics-vanish-on-curve"]["detail"].endswith("at 0 points, 0 nonzero values")


def test_main_rejects_bad_sample_counts(capsys):
    for command in ("ample", "embed", "ideal", "verify"):
        for samples in ("-3", "1000"):
            assert main([command, str(PAPER_SPEC), "--samples", samples]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[samples]: ")


def test_main_checks_the_sample_count_without_drawing(monkeypatch, capsys):
    # `ample` draws its samples inside `embedding`, so a draw through the
    # name bound in `cli` can only come from the `--samples` check
    def no_draw(*args):
        raise AssertionError("cli drew the sample points")

    monkeypatch.setattr(cli, "sample_points", no_draw)
    assert main(["ample", str(PAPER_SPEC), "--samples", "3"]) == EXIT_OK
    assert main(["ample", str(PAPER_SPEC), "--samples", "1000"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error[samples]: ")


def test_main_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(MINIMAL)
    doc["components"][0]["points"] = ["0", "0"]
    bad.write_text(json.dumps(doc))
    assert main(["info", str(bad)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error[invariant]")


def test_main_rejects_numbers_that_expand(tmp_path, capsys):
    """A few bytes of exponent or a JSON integer past the digit limit end
    in a diagnostic, not in a hang or a traceback."""
    paper = json.loads(PAPER_SPEC.read_text())
    point, gluing = copy.deepcopy(paper), copy.deepcopy(paper)
    point["components"][1]["points"][2] = "1e1000000"
    gluing["bundle"]["gluings"][1] = "1e1000000"
    texts = [json.dumps(point), json.dumps(gluing), PAPER_SPEC.read_text().replace("[4, 3, 3]", f"[{'4' * 5000}, 3, 3]")]
    for text, command, code in zip(texts, ("verify", "verify", "info"), ("coordinate", "gluing", "syntax")):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert main([command, str(spec)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[{code}]: ")


def test_main_missing_file(capsys):
    assert main(["info", "/no/such/file.json"]) == EXIT_INPUT_ERROR
    assert "cannot read" in capsys.readouterr().err


INFINITY_SPEC = {
    "components": [
        {"name": "A", "points": ["0", "inf"]},
        {"name": "B", "points": ["0", "1"]},
    ],
    "nodes": [{"a": "A.0", "b": "B.0"}, {"a": "A.1", "b": "B.1"}],
    "bundle": {"multidegree": [2, 2]},
}


def test_main_deform_accepts_infinity_points(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(INFINITY_SPEC))
    assert main(["deform", str(path), "--json", "--range", "-4:4"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    entries = json.loads(captured.out)["sections"]["deform"]["entries"]
    assert [e["m"] for e in entries] == list(range(-4, 5))
    for e in entries:  # Riemann-Roch for T (x) L^m: D = 4, g = 1
        assert e["t0_direct"] - e["t1_direct"] == 4 * e["m"] + 3 - 3 * 1
    assert main(["deform", str(path)]) == EXIT_OK


def test_main_runs_every_check_with_infinity_points(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(INFINITY_SPEC))
    assert main(["sections", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sections"]["sections"]["serre_duality"] is True
    assert main(["verify", str(path), "--json"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["sections"]["verify"]["checks"]
    statuses = {c["name"]: c["status"] for c in checks}
    # genus 1 and degree 4: the closed form holds at every nonzero weight
    for name in ("dualizing-h0-equals-genus", "serre-duality", "deformation-formula-vs-direct", "randomized-serre"):
        assert statuses[name] == "ok", name
    assert statuses["deformation-weight-0"] == "info"
    assert not any("infinity" in c["detail"] for c in checks)


OFF_GENUS_ONE = {
    # two lines meeting once, one of the branches at infinity
    0: {
        "components": [{"name": "A", "points": ["inf"]}, {"name": "B", "points": ["0"]}],
        "nodes": [{"a": "A.0", "b": "B.0"}],
        "bundle": {"multidegree": [1, 1]},
    },
    # two lines meeting in three points, multidegree (3, 3)
    2: {
        "components": [{"name": name, "points": ["0", "1", "2"]} for name in "AB"],
        "nodes": [{"a": f"A.{k}", "b": f"B.{k}"} for k in range(3)],
        "bundle": {"multidegree": [3, 3]},
    },
}


@pytest.mark.parametrize("genus", sorted(OFF_GENUS_ONE))
def test_main_verify_skips_the_closed_form_off_genus_one(genus, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(OFF_GENUS_ONE[genus]))
    assert main(["verify", str(path), "--json"]) == EXIT_OK
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["sections"]["verify"]["checks"]}
    assert checks["deformation-formula-vs-direct"]["status"] == "skip"
    assert f"genus {genus}" in checks["deformation-formula-vs-direct"]["detail"]
    assert checks["dualizing-h0-equals-genus"]["status"] == "ok"


def test_main_verify_skips_the_closed_form_when_not_very_ample(tmp_path, capsys):
    # the paper curve with multidegree (-2, 0, 2): genus 1, but the bundle
    # is not very ample, so the closed form does not apply at any weight
    doc = json.loads(PAPER_SPEC.read_text())
    doc["bundle"]["multidegree"] = [-2, 0, 2]
    path = tmp_path / "not-ample.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--json"]) == EXIT_CHECK_FAILED
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["sections"]["verify"]["checks"]}
    assert checks["very-ample"]["status"] == "FAIL"
    assert checks["deformation-formula-vs-direct"] == {
        "name": "deformation-formula-vs-direct",
        "status": "skip",
        "detail": "the closed form assumes a very ample bundle",
    }
    assert [name for name, c in checks.items() if c["status"] == "FAIL"] == ["globally-generated", "very-ample"]


def test_main_deform_paper_curve_in_coordinates_zero_one_infinity(tmp_path, capsys):
    # C1's points 0, 1 moved to 0, inf and C2's 0, 1, 2 to 0, 1, inf: an
    # isomorphic curve, and (4, 3, 3) fixes every h0 and h1 of the twists
    doc = json.loads(PAPER_SPEC.read_text())
    doc["components"][0]["points"] = ["0", "inf"]
    doc["components"][1]["points"] = ["0", "1", "inf"]
    path = tmp_path / "paper-inf.json"
    path.write_text(json.dumps(doc))
    tables = []
    for spec in (PAPER_SPEC, path):
        assert main(["deform", str(spec), "--json", "--range", "-4:4"]) == EXIT_OK
        tables.append(json.loads(capsys.readouterr().out)["sections"]["deform"])
    assert tables[0] == tables[1]


def test_verify_builds_the_dualizing_bundle_once(monkeypatch, capsys):
    from nodalcone import bundles, cli

    calls = []

    def counting(curve):
        calls.append(curve)
        return dualizing_bundle(curve)

    monkeypatch.setattr(bundles, "dualizing_bundle", counting)
    monkeypatch.setattr(cli, "dualizing_bundle", counting)
    assert main(["verify", str(PAPER_SPEC), "--json"]) == EXIT_OK
    # once for the duality checks, and not once per Serre duality check (14
    # of them); graded_report takes its dual as the tangent bundle
    assert len(calls) == 1


def _checked_curves():
    """The curves of every spec under curves/ and tests/specs/, and
    conftest's seeded random curves, affine and with points at infinity."""
    paths = sorted([*(REPO / "curves").glob("*.json"), *SPECS.glob("*.json")])
    rng = random.Random(36)
    return [
        *(parse_spec(p.read_text()).curve for p in paths),
        *(random_curve(rng) for _ in range(8)),
        *(curve_with_infinity(rng) for _ in range(8)),
    ]


@pytest.mark.parametrize("seed", [SAMPLE_SEED + 7, SAMPLE_SEED + 13, 0, 1, 12345])
def test_random_bundles_equal_the_fraction_reference(seed):
    """verify's randomized rows check the bundles they checked when each
    was a Fraction-built ``LineBundle``: every draw has the reference's
    degrees and, reduced, its scalars, in ints; its cohomology and its
    Serre twist's h0, read through the curve's one branch-row table as
    verify reads them, are the reference bundle's."""
    for curve in _checked_curves():
        omega = dualizing_bundle(curve)
        drawn = list(cli._random_bundles(curve, 25, seed))
        reference = list(reference_random_bundles(curve, 25, seed))
        assert len(drawn) == len(reference) == 25
        for (degrees, pairs), bundle in zip(drawn, reference):
            assert all(type(e) is int for e in (*degrees, *(e for pair in pairs for e in pair)))
            assert degrees == bundle.multidegree
            assert tuple(Fraction(num, den) for num, den in pairs) == bundle.gluings
            assert twisted_cohomology(curve, degrees, pairs, 1) == cohomology(bundle)
            assert twisted_cohomology(curve, degrees, pairs, -1, omega)[0] == h0(tensor(omega, dual(bundle)))


def test_a_wrong_random_result_fails_both_randomized_rows(monkeypatch, capsys):
    """With the h1 of the first bundle each randomized row draws off by
    one, the two rows read FAIL with one bad bundle each, every other row
    is unchanged, and verify exits 1."""
    assert main(["verify", str(PAPER_SPEC), "--json"]) == EXIT_OK
    before = json.loads(capsys.readouterr().out)["sections"]["verify"]["checks"]
    draw, computed = cli._random_bundles, cli.twisted_cohomology
    firsts = []

    def marking(curve, count, seed):
        drawn = list(draw(curve, count, seed))
        firsts.append(drawn[0][0])
        return iter(drawn)

    def off_by_one(curve, degrees, pairs, m, twist=None):
        h0_, h1_ = computed(curve, degrees, pairs, m, twist)
        first = twist is None and any(degrees is d for d in firsts)
        return h0_, h1_ + first

    monkeypatch.setattr(cli, "_random_bundles", marking)
    monkeypatch.setattr(cli, "twisted_cohomology", off_by_one)
    assert main(["verify", str(PAPER_SPEC), "--json"]) == EXIT_CHECK_FAILED
    body = json.loads(capsys.readouterr().out)["sections"]["verify"]
    assert len(firsts) == 2 and not body["passed"]
    expected = {
        "randomized-riemann-roch": "25 random bundles on this curve, 1 unbalanced",
        "randomized-serre": "10 random bundles on this curve, 1 mismatched",
    }
    for old, new in zip(before, body["checks"], strict=True):
        if old["name"] in expected:
            assert (old["status"], new["status"], new["detail"]) == ("ok", "FAIL", expected[old["name"]])
        else:
            assert new == old


def test_verify_builds_each_branch_row_once_across_its_duality_rows(monkeypatch, capsys):
    """One ``verify --json`` on a spec with a degree-0 line: its
    Riemann-Roch, dualizing and Serre rows read 52 cohomologies through
    the curve's one branch-row table, build the ``_homogeneous_row`` of
    each (component, marked point, width) their residual blocks use
    exactly once, and build no Fraction."""
    from nodalcone import bundles

    path = SPECS / "paper-x-degree-0.json"
    spec = parse_spec(path.read_text())
    curve, seed = spec.curve, SAMPLE_SEED
    bundle = LineBundle(curve, spec.multidegree, spec.gluings)
    omega = dualizing_bundle(curve)
    checked = [reference_power(bundle, m) for m in (1, 2, -1)] + [omega]
    checked += [reference_tensor(omega, reference_dual(b)) for b in checked[:3]]
    checked += reference_random_bundles(curve, 25, seed + 7)
    serre = list(reference_random_bundles(curve, 10, seed + 13))
    checked += serre + [reference_tensor(omega, reference_dual(b)) for b in serre]
    thresholds = [max(0, len(c.marked_points) - 1) for c in curve.components]
    expected = set()
    for b in checked:
        widths = [None if d >= n else max(0, d + 1) for d, n in zip(b.multidegree, thresholds)]
        for (ia, ka, _), (ib, kb, _) in curve.sites:
            if None not in (widths[ia], widths[ib]) and (widths[ia] or widths[ib]):
                expected |= {(ia, ka, widths[ia]), (ib, kb, widths[ib])}

    tables, built, fractions, inside = [], [], [], []
    computed, homogeneous_row, fraction = cli.twisted_cohomology, bundles._homogeneous_row, Fraction.__new__

    def recording(curve, degrees, pairs, m, twist=None):
        tables.append(curve.branch_rows)
        inside.append(True)
        try:
            return computed(curve, degrees, pairs, m, twist)
        finally:
            inside.pop()

    def counting_row(width, p):
        if inside:
            built.append((width, p))
        return homogeneous_row(width, p)

    def counting_fraction(cls, *args, **kwargs):
        if inside:
            fractions.append(args)
        return fraction(cls, *args, **kwargs)

    monkeypatch.setattr(cli, "twisted_cohomology", recording)
    monkeypatch.setattr(bundles, "_homogeneous_row", counting_row)
    monkeypatch.setattr(Fraction, "__new__", counting_fraction)
    assert main(["verify", str(path), "--json"]) == EXIT_CHECK_FAILED
    assert len(tables) == len(checked) == 52 and all(rows is tables[0] for rows in tables)
    assert len(built) == len(expected) > 0 and fractions == []
    assert Counter(built) == Counter((w, curve.components[i].marked_points[k]) for i, k, w in expected)


def _verify_curve(monkeypatch, path: Path):
    """Run ``verify --json`` on ``path`` and return the curve it parsed."""
    parsed, parse = [], cli.parse_spec

    def recording(text):
        parsed.append(parse(text))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_spec", recording)
    assert main(["verify", str(path), "--json"]) in (EXIT_OK, EXIT_CHECK_FAILED)
    [spec] = parsed
    return spec.curve


@pytest.mark.parametrize("path", [PAPER_SPEC, SPECS / "paper-x-degree-0.json"])
def test_verify_builds_each_node_branch_row_once_per_run(path, monkeypatch, capsys):
    """One ``verify --json`` builds each node branch row, a ``_branch_row``
    miss, exactly once across the whole run: its duality rows, its
    deformation table and every ``_node_rows`` (the section basis, the
    basis node check and the multiplication maps' targets) read the
    curve's one table."""
    from nodalcone import bundles

    built, homogeneous_row = [], bundles._homogeneous_row

    def counting_row(width, p):
        if sys._getframe(1).f_code is bundles._branch_row.__code__:
            built.append((width, p))
        return homogeneous_row(width, p)

    monkeypatch.setattr(bundles, "_homogeneous_row", counting_row)
    curve = _verify_curve(monkeypatch, path)
    table = curve.branch_rows
    assert len(built) == len(table) > 0
    assert Counter(built) == Counter((w, curve.components[i].marked_points[k]) for i, k, w in table)


def test_a_filled_branch_row_table_is_no_part_of_the_curve(monkeypatch, capsys):
    """After ``verify`` has filled its curve's branch-row table, the curve
    equals, hashes and reprs like a fresh one, and a pickle or a copy of
    it starts with an empty table."""
    curve = _verify_curve(monkeypatch, PAPER_SPEC)
    fresh = parse_spec(PAPER_SPEC.read_text()).curve
    assert curve.branch_rows and fresh.branch_rows == {}
    assert curve == fresh and hash(curve) == hash(fresh) and repr(curve) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(curve)), copy.copy(curve), copy.deepcopy(curve)):
        assert clone == curve and clone.branch_rows == {}


@pytest.mark.parametrize("path", [PAPER_SPEC, SPECS / "paper-x-degree-0.json"])
def test_verify_duality_rows_build_no_bundle(path, monkeypatch, capsys):
    """verify builds one ``LineBundle``, ``main``'s, and calls no
    ``tensor``. Its one ``dual``, with the ``power`` inside it, inverts the
    dualizing bundle into the tangent bundle its deformation table reads;
    no checked bundle is built by ``dual`` or ``power``."""
    from nodalcone import bundles

    built, called = [], []
    init = LineBundle.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(LineBundle, "__init__", counting_init)
    for name in ("tensor", "dual", "power"):

        def counting(*args, _name=name, _original=getattr(bundles, name)):
            called.append((_name, *args))
            return _original(*args)

        for module in (bundles, cli):
            monkeypatch.setattr(module, name, counting, raising=False)
    assert main(["verify", str(path), "--json"]) in (EXIT_OK, EXIT_CHECK_FAILED)
    omega = dualizing_bundle(parse_spec(path.read_text()).curve)
    assert len(built) == 1
    assert called == [("dual", omega), ("power", omega, -1)]


@pytest.mark.parametrize("command", ["verify", "ideal"])
def test_one_section_basis_per_bundle(command, monkeypatch, capsys):
    """L's section basis is built once, and its gluing matrix only there.
    L^2 and L^3 need only the free columns of their gluing rref, so no
    basis and no gluing matrix is built for them: L^2 is eliminated once,
    from its integer node rows, and so is L^3 on the exact route only,
    with ``_pencil_trick`` patched to fail; the pencil route reads
    h0(L^3) off ``twisted_cohomology``."""
    from nodalcone import bundles, cli, embedding, exactlin

    bases, glued, eliminated = [], [], []
    eliminate = exactlin._forward_eliminate

    def counting_basis(bundle):
        bases.append(bundle.multidegree)
        return section_basis(bundle)

    def counting_gluing(bundle):
        glued.append(bundle.multidegree)
        return gluing_matrix(bundle)

    def counting_eliminate(rows):
        eliminated.append([list(row) for row in rows])
        return eliminate(rows)

    for module in (bundles, cli):
        monkeypatch.setattr(module, "section_basis", counting_basis)
    # in every layer, bound there or not, so a gluing matrix built anywhere counts
    for module in (bundles, embedding, cli):
        monkeypatch.setattr(module, "gluing_matrix", counting_gluing, raising=False)
    monkeypatch.setattr(embedding, "_forward_eliminate", counting_eliminate)
    spec = parse_spec(PAPER_SPEC.read_text())
    expected = []
    for m in (2, 3):
        target = power(LineBundle(spec.curve, spec.multidegree, spec.gluings), m)
        offsets = tuple(accumulate(bundles.block_widths(target), initial=0))
        expected.append([bundles._flat_row(offsets, node) for node in bundles._node_rows(target)])
    for route, powers in (("pencil", 1), ("exact", 2)):
        if route == "exact":
            monkeypatch.setattr(embedding, "_pencil_trick", lambda space, m2: False)
        del bases[:], glued[:], eliminated[:]
        assert main([command, str(PAPER_SPEC), "--json"]) == EXIT_OK
        assert bases == glued == [(4, 3, 3)]
        assert eliminated == expected[:powers]


@pytest.mark.parametrize("command", [["sections", "--basis"], ["ideal"]])
def test_eliminations_over_q_take_integer_rows(command, monkeypatch, capsys):
    """On the paper curve at (4, 3, 3), the section basis and the free
    columns of L^2 and L^3 are read off fraction-free eliminations: the
    only MatrixQ built is L's gluing matrix, from the one
    ``gluing_matrix`` call, and every elimination over Q gets rows of ints."""
    from nodalcone import bundles, embedding, exactlin

    glued, matrices, over_q = [], [], []
    build, init, eliminate = gluing_matrix, exactlin.MatrixQ.__init__, exactlin._forward_eliminate

    def recording_gluing(bundle):
        g = build(bundle)
        glued.append((g.rows, g.cols))
        return g

    def recording_init(self, rows, cols, entries):
        matrices.append((rows, cols))
        init(self, rows, cols, entries)

    def recording_eliminate(rows):
        over_q.append(all(type(e) is int for row in rows for e in row))
        return eliminate(rows)

    for module in (bundles, embedding, cli):
        monkeypatch.setattr(module, "gluing_matrix", recording_gluing, raising=False)
    monkeypatch.setattr(exactlin.MatrixQ, "__init__", recording_init)
    for module in (exactlin, embedding):
        monkeypatch.setattr(module, "_forward_eliminate", recording_eliminate)
    assert main([command[0], str(PAPER_SPEC), "--json", *command[1:]]) == EXIT_OK
    capsys.readouterr()
    assert matrices == glued == [(3, 13)]
    assert over_q and all(over_q)


def test_deform_validates_the_curve_once(monkeypatch, capsys):
    from nodalcone import bundles, cli, cone, curve, embedding

    calls = []

    def counting(c):
        calls.append(c)
        return validate(c)

    # patch the name in every layer, bound there or not, so a re-check anywhere counts
    for module in (curve, bundles, embedding, cone, cli):
        monkeypatch.setattr(module, "validate", counting, raising=False)
    assert main(["deform", str(PAPER_SPEC), "--json", "--range", "-12:12"]) == EXIT_OK
    # the curve is checked when parse_spec builds it, not again per command or matrix
    assert len(calls) == 1


def test_deform_eliminates_only_the_residual_blocks(monkeypatch, capsys):
    from nodalcone import bundles, exactlin

    shapes = []

    def counting(rows, cols):
        shapes.append((len(rows), cols))
        return exactlin.certified_rank(rows, cols)

    monkeypatch.setattr(bundles, "certified_rank", counting)
    assert main(["deform", str(PAPER_SPEC), "--json", "--range", "-12:12"]) == EXIT_OK
    # F_m has degrees (4m, 3m - 1, 3m + 1): every component is onto or
    # negative except at m = 0, where C1 at degree 0 leaves its node with
    # C2 uncovered; L^0 leaves C1-C2 and C2's self-node over C1 and C2
    assert shapes == [(1, 1), (2, 2)]


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR) == (0, 1, 2)


def test_verify_json_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "nodalcone", "verify", str(PAPER_SPEC), "--json"]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_verify_json_into_a_closed_pipe_exits_cleanly():
    """``verify --json | head -1``: the reader is gone before the
    document is written. The read end is closed before the child has
    computed anything, so its write always meets a closed pipe."""
    cmd = [sys.executable, "-m", "nodalcone", "verify", str(PAPER_SPEC), "--json"]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO)
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 0
    assert b"Traceback" not in stderr


# stdout sha256 of each invocation, run from the repository root on the
# checked-in specs, keyed by the form of ``PINNED_FLAGS``: a command's own
# name is its --json form, "<command> text" its plain text. The deform and
# sections --json digests were recorded before h0/h1 moved to the
# branch-value rank and graded_report to one twist per weight; the embed
# and ideal --json digests before the quadrics moved to their integer
# form; the text digests before the subcommands moved into one table.
PINNED_STDOUT = {
    ("embed", "paper-x-333.json"): "943460b1258555403d7de42e993c07105ac5e2632b8031500cd08d26d71f2dea",
    ("ideal", "paper-x-333.json"): "71ed144ebf189f17ea677d0a057125396fb43d5b78256cfd413b55a8630b5f50",
    ("embed", "paper-x-443.json"): "0b38a7039a4cf59f90569f34631aba24e7e7b4b5273f4c12827a39511af0c551",
    ("ideal", "paper-x-443.json"): "a9fc10c4fe1fb2562fbbbf2d793be8fb5adfc93d62e018ddf1d7fcb8f6d22ac2",
    ("embed", "paper-x.json"): "683e22180502c71977c5ac88aa3f3630d83e09a5a1c51c2619a4181d381e7689",
    ("ideal", "paper-x.json"): "812decdacf0be4d803a61c0170c9f43c328f42e325d048bfbcdc917a4ae00aa6",
    ("deform", "paper-x-333.json"): "07899e8e5decaa5bcdfa7ab8dd2807a777f8c8f3d0ce7c5eab6ed3280807ea2c",
    ("sections", "paper-x-333.json"): "384c144bf02940ad9c1f64ce4118baddd2f67b342097cd5b186b5afa6e23549c",
    ("deform", "paper-x-443.json"): "e697632c5aa4c673a5773d41b80c1ba1292dba9eb142d050153ec9ab03580ef0",
    ("sections", "paper-x-443.json"): "ac806b737b7ee847a7290a20efed8cf1b9e9c69a5087afb582bd18bff6460e7a",
    ("deform", "paper-x.json"): "e4c93e6f5fb3e70dcdde893124c58807731631573f2efe4f368e8e1fbcb61f03",
    ("sections", "paper-x.json"): "92dd04265533d3594ab4741dc27c4badcfd29e3bd7c641959ea13f6e1371e88d",
    ("info text", "paper-x-333.json"): "a06a1f632e2be4eb1e410ce941465a3a64e985e579b5e9b608170b738a46368e",
    ("sections text", "paper-x-333.json"): "a963f4d1bd6c80502090676e30b7f26de57cfd15eac35fa8865875a656286981",
    ("ample text", "paper-x-333.json"): "4a1664693f089c17d8551b249af486b75ecbfc6236ff7265048d74a4b9edf711",
    ("embed text", "paper-x-333.json"): "3d61333c7a908d88cfa42b39c9a4d441bb58234fd1981a459287be98022f7717",
    ("ideal text", "paper-x-333.json"): "a2029692a76716d95a2391cd4faa3f4c0d20a5fd425486c5107c8bcaa60984b8",
    ("deform text", "paper-x-333.json"): "72a6a6e8fac28034e09b361439e3925b60d8051df4c8de50a028b30b695f59df",
    ("verify text", "paper-x-333.json"): "5398d631d3dcbcdbda0dd5aa1958984ee8b044507b787cfe60508e68379febfb",
    ("info text", "paper-x-443.json"): "5a534697b675a1dfef62e313ed6a87baa5b50580f0382873201c913033f99c1f",
    ("sections text", "paper-x-443.json"): "20e63a754511462fa4e9e8deb8a9db49e0bb024885eda050107911cc7f317811",
    ("ample text", "paper-x-443.json"): "4a1664693f089c17d8551b249af486b75ecbfc6236ff7265048d74a4b9edf711",
    ("embed text", "paper-x-443.json"): "ce6672191ea2ada6ad3aaec344dc0409f2dcd4c16bb4c1d498fd86e70f20a659",
    ("ideal text", "paper-x-443.json"): "5ca4246e07a9ca7b281925397e65af6d44e38685aef30ca30d3f83103d323dcb",
    ("deform text", "paper-x-443.json"): "b644bb5160fdf82367d0c36d1efdec0a25fca2c79a7b80af07c32c0911db80d9",
    ("verify text", "paper-x-443.json"): "3522d6ab8d604f5693e43bacffb9e804bbb9641d4c1ea87cfba063fe521b7e59",
    ("info text", "paper-x.json"): "b848867d998309ff3ef21855e541f469d5c4f44e05bed0b4a12ca59aa05160ca",
    ("sections text", "paper-x.json"): "66d57b44a50f06953f4cfea09a9d01382c0eb4e637b61adaa2d913e0257187d2",
    ("ample text", "paper-x.json"): "4a1664693f089c17d8551b249af486b75ecbfc6236ff7265048d74a4b9edf711",
    ("embed text", "paper-x.json"): "a137f1b73def51f148eb87558212e3ce5f5fb9437b4a02f685f1b2d2219a47be",
    ("ideal text", "paper-x.json"): "1721058b39316db08eeb5adae461df7c952af1d8aae246f6693d133a91bb1a65",
    ("deform text", "paper-x.json"): "66e41cceafb8a1de5112515334279ff7ad5ec08236f98a57c5a21f8922b1f0ba",
    ("verify text", "paper-x.json"): "a72cfec6dd27249cdd621730578df25266cc51a4f44c54c5a6744b199f56ab01",
}
PINNED_FLAGS = {
    "deform": ["--json", "--range", "-12:12"],
    "sections": ["--json", "--basis"],
    "embed": ["--json"],
    "ideal": ["--json"],
    "info text": [],
    "sections text": ["--basis"],
    "ample text": [],
    "embed text": [],
    "ideal text": [],
    "deform text": ["--range", "-12:12"],
    "verify text": [],
}


@pytest.mark.parametrize("form,name", sorted(PINNED_STDOUT))
def test_json_output_matches_pinned_digest(form, name, monkeypatch, capsys):
    assert sorted(p.name for p in (REPO / "curves").glob("*.json")) == sorted(
        {n for _, n in PINNED_STDOUT}
    )
    monkeypatch.chdir(REPO)
    assert main([form.split()[0], f"curves/{name}", *PINNED_FLAGS[form]]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_STDOUT[(form, name)]


# stdout sha256 and exit status of each invocation on the specs under
# tests/specs, run from the repository root and keyed as PINNED_STDOUT is;
# the text digests were recorded with it. Unlike curves/*.json, whose
# gluings are all 1, these glue by 5/3, -2/7 and 3 (one spec at a 30-digit
# scalar, one with branches at inf), and C1 has degree 0, so every weight's
# residual rows carry the scalars' powers. verify exits 1: degree 0 on C1
# is not very ample.
PINNED_SPEC_STDOUT = {
    ("deform", "paper-x-degree-0-big.json"): "738388b2856e59967edb627566fa29e7b5db7337b513411609bb5e120ca9f40a",
    ("sections", "paper-x-degree-0-big.json"): "df581503b26cfb2c01dcc45b743c23f49127a3ef8af21c04dfcad8ae72bb3080",
    ("verify", "paper-x-degree-0-big.json"): "d0454f608bad014ad7eb68f161c83326e2926980e7ca576aee115c2794ff5d31",
    ("deform", "paper-x-degree-0.json"): "3cdcc85ab5e9365f916a85a07c122df56110eaab563a28986f02406217e7e638",
    ("sections", "paper-x-degree-0.json"): "e2bfa6a5e01e71a31883abbe44ba12a265c02f02e03c17128e89881913461acc",
    ("verify", "paper-x-degree-0.json"): "6bba337f531b70871b31be611b1ceb90d82114349adace5457e562ad9a0ac936",
    ("deform", "paper-x-inf.json"): "e5a6591952aaf0c94e0d47df1139022c2d242c7ed16ed2746e18046daa0dab38",
    ("sections", "paper-x-inf.json"): "3fb8de1eb3caa4367012f14fbdd73d6672da74bf0ad21374741657e247b8d7e7",
    ("verify", "paper-x-inf.json"): "523b259a922f5d2f61611092bcacac0b7ce9357b3458da444c2bbee49b28a3ae",
    ("sections text", "paper-x-degree-0-big.json"): "f0aae5fe17b0c4444a6b51e2f71d3f721a91c2d74b58cea25179d3048006fd04",
    ("deform text", "paper-x-degree-0-big.json"): "dfa6004da4da8bf33c4d0da21501de8ffdbf795e9c8ea4e1e504fa3f2a114302",
    ("verify text", "paper-x-degree-0-big.json"): "5779f1b90ca17afdefd194481dc2cc323c9deec5f97218729bd2302f08d4c782",
    ("sections text", "paper-x-degree-0.json"): "a716258d9ff291abee9d2064d4c18b8a1d87150382d127be8a246a1e7edb18ac",
    ("deform text", "paper-x-degree-0.json"): "dfa6004da4da8bf33c4d0da21501de8ffdbf795e9c8ea4e1e504fa3f2a114302",
    ("verify text", "paper-x-degree-0.json"): "5779f1b90ca17afdefd194481dc2cc323c9deec5f97218729bd2302f08d4c782",
    ("sections text", "paper-x-inf.json"): "0077df1d6e1c9ca7be47e65dbe493bcddfbadf77c1a9a0be07ab55b06cfac9cb",
    ("deform text", "paper-x-inf.json"): "dfa6004da4da8bf33c4d0da21501de8ffdbf795e9c8ea4e1e504fa3f2a114302",
    ("verify text", "paper-x-inf.json"): "57ee30aa7a250f3ca87a7ec9038a9788c66adb68a5c6716d571bb248fe6e7ddb",
}
PINNED_SPEC_FLAGS = {
    "deform": (["--json", "--range", "-300:300"], EXIT_OK),
    "sections": (["--json", "--basis"], EXIT_OK),
    "verify": (["--json"], EXIT_CHECK_FAILED),
    "deform text": (["--range", "-300:300"], EXIT_OK),
    "sections text": (["--basis"], EXIT_OK),
    "verify text": ([], EXIT_CHECK_FAILED),
}


@pytest.mark.parametrize("form,name", sorted(PINNED_SPEC_STDOUT))
def test_nontrivial_gluings_match_pinned_digest(form, name, monkeypatch, capsys):
    assert sorted(p.name for p in SPECS.glob("*.json")) == sorted({n for _, n in PINNED_SPEC_STDOUT})
    monkeypatch.chdir(REPO)
    flags, status = PINNED_SPEC_FLAGS[form]
    assert main([form.split()[0], f"tests/specs/{name}", *flags]) == status
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_SPEC_STDOUT[(form, name)]


@pytest.mark.parametrize("path", sorted({f"curves/{n}" for _, n in PINNED_STDOUT} | {f"tests/specs/{n}" for _, n in PINNED_SPEC_STDOUT}))
def test_no_command_reads_the_fraction_gluings(path, monkeypatch, capsys):
    """Every command, plain and with --json, and ``sections --basis``, runs
    on the bundles' scalar pairs alone: with ``LineBundle.gluings`` patched
    to raise, each gives the exit status and stdout of an unpatched run,
    on every spec under curves/ and tests/specs/."""
    monkeypatch.chdir(REPO)
    runs = [[command, path, *flags] for command in cli._COMMANDS for flags in ([], ["--json"])]
    runs.append(["sections", path, "--basis", "--json"])
    expected = []
    for argv in runs:
        expected.append((main(argv), capsys.readouterr().out))

    def refuse(bundle):
        raise AssertionError("a command read LineBundle.gluings")

    monkeypatch.setattr(LineBundle, "gluings", property(refuse))
    for argv, (status, out) in zip(runs, expected):
        assert main(argv) == status in (EXIT_OK, EXIT_CHECK_FAILED), argv
        assert capsys.readouterr().out == out, argv


# stdout sha256 of ``ideal --json`` on the paper curve at (k,k,k), the
# spec written as ``paper-x-k<k>.json`` by ``_paper_curve_at`` and run
# from its directory; 7 and 8 recorded while the m = 3 rank was still
# taken over Q, 14 while m3 was still ranked on every cubic product.
PINNED_IDEAL_AT = {
    7: "9fb2cef8884436109591afb451a67037f0a465974624530743c837bac41fc444",
    8: "f6bd2cbb978b21fc0df221585bba062c8743f49b5e3b21cea0d6d40332769bc3",
    14: "fbca5c978ff4bcda1f477fc8f15a897b53a2f7a3bba0d126d5740a8491182162",
}


@pytest.mark.parametrize("k", sorted(PINNED_IDEAL_AT))
def test_ideal_at_large_degree_matches_pinned_digest(k, tmp_path, monkeypatch, capsys):
    name = f"paper-x-k{k}.json"
    (tmp_path / name).write_text(_paper_curve_at(k))
    monkeypatch.chdir(tmp_path)
    assert main(["ideal", name, "--json"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_IDEAL_AT[k]


# stdout sha256 of ``ideal --json`` on the spec of the CI step "Entry growth
# in exact elimination is bounded": the paper curve at (14,14,14) with
# gluings 5/3, -2/7, 3 and C2's second point at ``BIG_COORDINATE``, written
# as ``paper-x-14-big.json`` and run from its directory; recorded while m3
# was still ranked on every cubic product
PINNED_IDEAL_BIG_14 = "d88f073d5031e2efafa8755b4a21e09554a41e0d04802e5a42f16f9870e8d9e4"


def test_ideal_on_the_entry_growth_spec_matches_pinned_digest(tmp_path, monkeypatch, capsys):
    doc = json.loads(PAPER_SPEC.read_text())
    doc["components"][1]["points"][1] = BIG_COORDINATE
    doc["bundle"] = {"multidegree": [14, 14, 14], "gluings": ["5/3", "-2/7", "3"]}
    (tmp_path / "paper-x-14-big.json").write_text(json.dumps(doc, indent=2) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["ideal", "paper-x-14-big.json", "--json"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_IDEAL_BIG_14


SPEC_DOCS = [json.loads(p.read_text()) for p in sorted((REPO / "curves").glob("*.json"))]
FUZZ_VALUES = ["1/0", "x", "", "1e999999", 5, 1.5, None, True, [], {}]


@st.composite
def mutated_spec(draw):
    """A checked-in spec after up to three well-typed edits (a point moved
    or sent to infinity, a degree in -3..6, a gluing scalar, a node end
    rewired or a node dropped), then, one time in three, one field set to
    a value of the wrong kind or a top-level key dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(SPEC_DOCS)))
    comps, nodes, bundle = doc["components"], doc["nodes"], doc["bundle"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["inf", "inf", "point", "degree", "degree", "gluing", "branch", "node"]))
        if kind in ("inf", "point"):
            points = draw(st.sampled_from(comps))["points"]
            value = "inf" if kind == "inf" else draw(st.sampled_from(["0", "1", "-1/2", "5", "7/3"]))
            points[draw(st.integers(0, len(points) - 1))] = value
        elif kind == "degree":
            bundle["multidegree"][draw(st.integers(0, len(comps) - 1))] = draw(st.integers(-3, 6))
        elif kind == "gluing":
            bundle["gluings"][draw(st.integers(0, len(nodes) - 1))] = draw(st.sampled_from(["2", "-1/3", "0", 3]))
        elif kind == "branch":
            end = draw(st.sampled_from(["a", "b"]))
            draw(st.sampled_from(nodes))[end] = draw(st.sampled_from(["C1.0", "C2.2", "C3.0", "C9.0", "C1.9", "C1", ".0", "C1.\u00b2"]))
        elif len(nodes) > 1:
            nodes.pop(draw(st.integers(0, len(nodes) - 1)))
            bundle["gluings"].pop()
    if draw(st.integers(0, 2)) == 0:
        value = draw(st.sampled_from(FUZZ_VALUES))
        field = draw(st.sampled_from(["point", "degree", "gluing", "node", "key"]))
        if field == "point":
            draw(st.sampled_from(comps))["points"][0] = value
        elif field == "degree":
            bundle["multidegree"][0] = value
        elif field == "gluing":
            bundle["gluings"][0] = value
        elif field == "node":
            nodes[0]["a"] = value
        else:
            key = draw(st.sampled_from(["components", "nodes", "bundle"]))
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = value
    return doc


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["info", "sections", "ample", "embed", "ideal", "deform", "verify"]))
    flags = ["--json"] if draw(st.booleans()) else []
    if command == "sections" and draw(st.booleans()):
        flags.append("--basis")
    if command in ("ample", "embed", "ideal", "verify"):
        flags += ["--samples", str(draw(st.integers(0, 2))), "--seed", str(draw(st.integers(0, 9)))]
    if command in ("deform", "verify"):
        flags += ["--range", f"{draw(st.integers(-6, 0))}:{draw(st.integers(0, 6))}"]
    return command, flags


@settings(max_examples=60, deadline=None)
@given(mutated_spec(), fuzz_argv())
def test_main_fuzz_exits_cleanly(doc, argv):
    # hypothesis rules out function-scoped fixtures, so no tmp_path or capsys
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "spec.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1]])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR)
    if code == EXIT_INPUT_ERROR:
        assert err.getvalue().startswith("error")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == "" and out.getvalue()


# ------------------------------------------------------------ command line

SUBCOMMANDS = ["info", "sections", "ample", "embed", "ideal", "deform", "verify"]
OPTION_NAMES = ["--json", "--basis", "--samples", "--seed", "--range"]
GOOD_VALUES = ["2", "-1", "0:4", "-3:3"]
BAD_VALUES = ["x", "", "1:3", "0:1001", "1_0", "\u0663", "-1_0:3"]
ODD_TOKENS = ["", "-", "-5", "x.json", "--json=1", "--basis=", "--js", "-h", "--help", "--", "bogus", "1:3", "--seed"]


def _one_in(draw, n: int) -> bool:
    return draw(st.integers(0, n - 1)) == 0


@st.composite
def cli_argv(draw):
    """A subcommand (or not), options in both spellings with good and
    bad values, repeats, and odd tokens put anywhere: specs '', '-' and
    '-5', abbreviations, help, '--'. Options, values and tokens are
    drawn so that many argv parse; one spec is put in three times out
    of four."""
    head = draw(st.sampled_from([*SUBCOMMANDS, "bogus", "--help", "x.json"]))
    own = [option[0] for option in cli._COMMANDS.get(head, ("", ()))[1]]
    names = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    if _one_in(draw, 4):  # a repeat, or another subcommand's option
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(OPTION_NAMES)))
    argv = [head]
    for name in names:
        if name in ("--json", "--basis"):
            argv.append(name)
            continue
        value = draw(st.sampled_from(BAD_VALUES if _one_in(draw, 4) else GOOD_VALUES))
        argv += [name, value] if draw(st.booleans()) else [f"{name}={value}"]
    if _one_in(draw, 3):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(ODD_TOKENS)))
    if not _one_in(draw, 4):
        argv.insert(draw(st.integers(1, len(argv))), "x.json")
    return argv


def _argparse_namespace(argv):
    """``vars`` of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(cli_argv())
@example(["deform", "x.json", "--range", "-3:3"])
@example(["verify", "x.json", "--seed", "-1", "--range=-3:3"])
@example(["ample", "x.json", "--samples", "2", "--samples", "0"])
@example(["info", "x.json", "--json=1"])
@example(["deform", "--range=1:3", "x.json"])
def test_parse_argv_agrees_with_argparse(argv):
    """The walk returns argparse's namespace or defers to it, on argv as
    given and after the '--range' fold ``main`` applies."""
    for tokens in (argv, cli._fold_range(argv)):
        parsed = cli._parse_argv(tokens)
        assert parsed is None or vars(parsed) == _argparse_namespace(tokens), tokens


@settings(max_examples=60, deadline=None)
@given(fuzz_argv())
def test_parse_argv_takes_the_benchmark_and_fuzz_argv(argv):
    """Every argv shape of perfbench/run.py's workloads and of
    ``fuzz_argv`` takes the walk, so argparse is never built for them."""
    shapes = [
        ["verify", "spec.json", "--json"],
        ["ideal", "spec.json", "--json"],
        ["sections", "spec.json", "--json", "--basis"],
        ["deform", "spec.json", "--json", "--range", "-12:12"],
        [argv[0], "spec.json", *argv[1]],
    ]
    for shape in shapes:
        tokens = cli._fold_range(shape)
        parsed = cli._parse_argv(tokens)
        assert parsed is not None and vars(parsed) == _argparse_namespace(tokens), shape


CLI_USAGE = json.loads((REPO / "tests" / "cli_usage.json").read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != CLI_USAGE["python"],
    reason=f"argparse's wording differs between Python versions; the bytes were recorded under {CLI_USAGE['python']}",
)
@pytest.mark.parametrize("case", CLI_USAGE["cases"], ids=lambda case: " ".join(case["argv"]) or "no arguments")
def test_help_and_usage_errors_are_pinned(case, monkeypatch, capsys):
    """Help texts and usage errors, byte for byte as recorded in
    ``cli_usage.json``: at 80 columns, run from the repository root."""
    monkeypatch.setenv("COLUMNS", str(CLI_USAGE["columns"]))
    monkeypatch.chdir(REPO)
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def _run_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=REPO, env=env)


def test_plain_argv_skips_argparse_locale_and_dataclasses():
    """Neither parsing a plain argv nor the value types load these; the
    last four are what ``dataclasses`` would pull in."""
    script = (
        "import contextlib, io, sys\n"
        "from nodalcone.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['deform', 'curves/paper-x.json', '--json']),\n"
        "             main(['sections', 'curves/paper-x.json', '--basis'])]\n"
        "unused = {'argparse', 'locale', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(codes, sorted(unused & set(sys.modules)))\n"
    )
    done = _run_python("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0] []\n", "")


def test_module_help_exits_zero():
    done = _run_python("-m", "nodalcone", "--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: nodalcone")
