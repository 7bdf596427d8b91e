"""CLI spec parsing, subcommands, exit codes, deterministic output."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nodalcone.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    SpecError,
    build_bundle,
    build_curve,
    fmt_exact,
    main,
    parse_coordinate,
    parse_scalar,
    parse_spec,
    serialize_spec,
)
from nodalcone.curve import arithmetic_genus

F = Fraction

REPO = Path(__file__).resolve().parents[1]
PAPER_SPEC = REPO / "curves" / "paper-x.json"

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


def test_parse_scalar_forms():
    assert parse_scalar("3/2") == F(3, 2)
    assert parse_scalar(4) == F(4)
    with pytest.raises(SpecError):
        parse_scalar(0.25)


def test_parse_spec_minimal():
    spec = parse_spec(MINIMAL)
    curve = build_curve(spec)
    assert arithmetic_genus(curve) == 1
    bundle = build_bundle(spec)
    assert bundle.multidegree == (2, 2)
    assert bundle.gluings == (F(1), F(3, 2))


def test_parse_spec_defaults_gluings_to_one():
    text = MINIMAL.replace(', "gluings": ["1", "3/2"]', "")
    bundle = build_bundle(parse_spec(text))
    assert bundle.gluings == (F(1), F(1))


def test_roundtrip_through_serializer():
    spec = parse_spec(MINIMAL)
    again = parse_spec(serialize_spec(spec))
    assert again == spec


def test_paper_spec_file_parses():
    spec = parse_spec(PAPER_SPEC.read_text())
    curve = build_curve(spec)
    assert arithmetic_genus(curve) == 1
    assert build_bundle(spec).multidegree == (4, 3, 3)


def test_diagnostic_code_syntax():
    assert code_of("{not json") == "syntax"


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


def test_main_deform_equals_range_spelling(capsys):
    assert main(["deform", str(PAPER_SPEC), "--json", "--range=-1:1"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)["sections"]["deform"]
    assert [e["m"] for e in body["entries"]] == [-1, 0, 1]


def test_main_range_must_contain_zero():
    with pytest.raises(SystemExit) as err:
        main(["deform", str(PAPER_SPEC), "--range", "1:3"])
    assert err.value.code == 2


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


def test_main_rejects_bad_sample_counts(capsys):
    for command in ("ample", "embed", "ideal", "verify"):
        for samples in ("-3", "1000"):
            assert main([command, str(PAPER_SPEC), "--samples", samples]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error[samples]: ")


def test_main_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(MINIMAL)
    doc["components"][0]["points"] = ["0", "0"]
    bad.write_text(json.dumps(doc))
    assert main(["info", str(bad)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error[invariant]")


def test_main_missing_file(capsys):
    assert main(["info", "/no/such/file.json"]) == EXIT_INPUT_ERROR
    assert "cannot read" in capsys.readouterr().err


def test_main_deform_rejects_infinity_points(tmp_path, capsys):
    doc = {
        "components": [
            {"name": "A", "points": ["0", "inf"]},
            {"name": "B", "points": ["0", "1"]},
        ],
        "nodes": [{"a": "A.0", "b": "B.0"}, {"a": "A.1", "b": "B.1"}],
        "bundle": {"multidegree": [2, 2]},
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    assert main(["sections", str(path)]) == EXIT_OK  # sections still fine
    capsys.readouterr()
    assert main(["deform", str(path)]) == EXIT_INPUT_ERROR
    assert "error[infinity]" in capsys.readouterr().err


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT_ERROR) == (0, 1, 2)


def test_verify_json_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "nodalcone", "verify", str(PAPER_SPEC), "--json"]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


# stdout sha256 of each invocation, run from the repository root on the
# checked-in specs, as recorded before h0/h1 moved to the branch-value rank
# and graded_report to one twist per weight.
PINNED_STDOUT = {
    ("deform", "paper-x-333.json"): "07899e8e5decaa5bcdfa7ab8dd2807a777f8c8f3d0ce7c5eab6ed3280807ea2c",
    ("sections", "paper-x-333.json"): "384c144bf02940ad9c1f64ce4118baddd2f67b342097cd5b186b5afa6e23549c",
    ("deform", "paper-x-443.json"): "e697632c5aa4c673a5773d41b80c1ba1292dba9eb142d050153ec9ab03580ef0",
    ("sections", "paper-x-443.json"): "ac806b737b7ee847a7290a20efed8cf1b9e9c69a5087afb582bd18bff6460e7a",
    ("deform", "paper-x.json"): "e4c93e6f5fb3e70dcdde893124c58807731631573f2efe4f368e8e1fbcb61f03",
    ("sections", "paper-x.json"): "92dd04265533d3594ab4741dc27c4badcfd29e3bd7c641959ea13f6e1371e88d",
}
PINNED_FLAGS = {"deform": ["--json", "--range", "-12:12"], "sections": ["--json", "--basis"]}


@pytest.mark.parametrize("command,name", sorted(PINNED_STDOUT))
def test_json_output_matches_pinned_digest(command, name, monkeypatch, capsys):
    assert sorted(p.name for p in (REPO / "curves").glob("*.json")) == sorted(
        {n for _, n in PINNED_STDOUT}
    )
    monkeypatch.chdir(REPO)
    assert main([command, f"curves/{name}", *PINNED_FLAGS[command]]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_STDOUT[(command, name)]
