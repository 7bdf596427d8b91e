"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import signal
import sys
import time
from fractions import Fraction

import pytest

import check
import run
import specgen
import speed
from spans import NO_PARENT, Tracer, self_times

sys.path.insert(0, str(run.ROOT / "src"))

import nodalcone.cli as cli  # noqa: E402


@pytest.fixture
def in_root(tmp_path):
    """Run from the checkout root, with generated specs under ``tmp_path``."""
    old = os.getcwd()
    os.chdir(run.ROOT)
    try:
        yield tmp_path
    finally:
        os.chdir(old)


def _files(paths):
    return [p.read_bytes() for p in paths]


def test_generator_is_deterministic_per_seed(tmp_path):
    family = run.VERIFY_RANDOM
    first = _files(specgen.write_random(tmp_path / "a", family, "verify-sweep", 5))
    again = _files(specgen.write_random(tmp_path / "b", family, "verify-sweep", 5))
    other = _files(specgen.write_random(tmp_path / "c", family, "verify-sweep", 6))
    assert first == again
    assert first != other
    assert _files(specgen.write_ladder(tmp_path / "l1")) == _files(specgen.write_ladder(tmp_path / "l2"))


def test_seed_changes_numbers_not_structure(tmp_path):
    family = run.TWIST_RANDOM
    docs = [
        [json.loads(b) for b in _files(specgen.write_random(tmp_path / str(seed), family, "twist-sweep", seed))]
        for seed in (1, 2)
    ]
    for a, b in zip(*docs):
        assert a["bundle"]["multidegree"] == b["bundle"]["multidegree"]
        assert [len(c["points"]) for c in a["components"]] == [len(c["points"]) for c in b["components"]]
    assert docs[0] != docs[1]


def test_generated_specs_are_valid_and_in_range(tmp_path):
    for key, family in (("verify-sweep", run.VERIFY_RANDOM), ("twist-sweep", run.TWIST_RANDOM)):
        for path in specgen.write_random(tmp_path / key, family, key, 3):
            spec = cli.parse_spec(path.read_text())
            genus = len(spec.nodes) - len(spec.components) + 1
            assert family.components[0] <= len(spec.components) <= family.components[1]
            assert family.genus[0] <= genus <= family.genus[1]
            assert all(family.degrees[0] <= d <= family.degrees[1] for d in spec.multidegree)
            if family.inf_share == 0:
                assert "inf" not in path.read_text()


class FakeCli:
    def __init__(self, main):
        self.main = main


def test_checker_flags_one_byte_stdout_change():
    stdout = '{"x": 1}\n'
    expected = {"exit": 0, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    assert check.digest_check(expected)(0, stdout) is None
    assert check.digest_check(expected)(0, stdout.replace("1", "2")) is not None
    assert check.digest_check(expected)(1, stdout) is not None


def _doc(command, body):
    return json.dumps({"sections": {command: body}})


def test_checker_flags_broken_invariants():
    spec = {"components": [{}, {}], "nodes": [{}, {}], "bundle": {"multidegree": [2, 1]}}
    # D = 3, g = 1: t0 - t1 = 3m at every weight.
    rows = [{"m": m, "t0_direct": max(3 * m, 0), "t1_direct": max(-3 * m, 0)} for m in range(-2, 3)]
    deform = check.deform_check(spec, range(-2, 3))
    assert deform(0, _doc("deform", {"entries": rows})) is None
    rows[1] = dict(rows[1], t1_direct=rows[1]["t1_direct"] + 1)
    assert "m = -1" in deform(0, _doc("deform", {"entries": rows}))
    assert deform(0, _doc("deform", {"entries": rows[:2]})) is not None

    assert check.sections_check(0, _doc("sections", {"riemann_roch_balanced": True})) is None
    assert check.sections_check(0, _doc("sections", {"riemann_roch_balanced": False})) is not None

    checks = [{"name": n, "status": "ok"} for n in check.VERIFY_MUST_PASS]
    assert check.verify_check(1, _doc("verify", {"checks": checks})) is None
    checks[0]["status"] = "FAIL"
    assert check.verify_check(1, _doc("verify", {"checks": checks})) is not None
    assert check.verify_check(2, _doc("verify", {"checks": []})) is not None


def test_checker_flags_escaped_exception_and_bad_exit():
    def boom(argv):
        raise ValueError("boom")

    crashed = check.invoke(FakeCli(boom), check.Invocation(("x",), lambda code, out: None))
    assert crashed.failed and crashed.crash == "ValueError: boom" and crashed.problem is None
    odd = check.invoke(FakeCli(lambda argv: 3), check.Invocation(("x",), lambda code, out: None))
    assert odd.failed and odd.problem is not None
    garbled = check.invoke(FakeCli(lambda argv: print("not json") or 0), check.Invocation(("x",), check.sections_check))
    assert garbled.failed and garbled.problem.startswith("unreadable output")


def test_self_time_of_synthetic_nested_spans():
    spans = [
        ["a", 0.0, 10.0, NO_PARENT],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 7.0, 0],
        ["e", 6.0, 12.0, 0],  # overlaps d and runs past its parent
    ]
    assert self_times(spans) == [10.0 - 3.0 - 5.0, 2.0, 1.0, 2.0, 6.0]


def test_traced_stdout_equals_untraced_and_originals_return(in_root):
    invocations = run.twist_sweep(in_root / "twist", 1, {})[:6]
    digests = json.loads(check.DIGESTS.read_text())
    invocations.append(run.pinned(("verify", "curves/paper-x-333.json", "--json"), digests))
    plain = run.run_pass(cli, invocations)
    tracer = Tracer()
    traced = run.run_pass(cli, invocations, tracer)
    assert not any(o.failed for o in plain + traced)
    assert [o.stdout_sha256 for o in plain] == [o.stdout_sha256 for o in traced]
    calls, _ = tracer.summary()
    assert calls["cli.main"] == len(invocations)
    for name in ("exactlin.rank", "bundles.gluing_matrix", "cone.graded_report", "curve.validate", "embedding.very_ample"):
        assert calls[name] > 0

    root = importlib.import_module("nodalcone")
    bundles = importlib.import_module("nodalcone.bundles")
    original_rank = importlib.import_module("nodalcone.exactlin").rank
    with Tracer().installed():
        assert bundles.rank is not original_rank
        assert root.rank is bundles.rank
    assert bundles.rank is original_rank and root.rank is original_rank


def test_span_closes_when_the_call_raises():
    component_h0 = importlib.import_module("nodalcone.bundles").component_h0
    tracer = Tracer()
    with tracer.installed():
        bundles = importlib.import_module("nodalcone.bundles")
        with pytest.raises(TypeError):
            bundles.component_h0("x")
        bundles.component_h0(2)
    assert bundles.component_h0 is component_h0
    assert [s[0] for s in tracer.spans] == ["bundles.component_h0", "bundles.component_h0"]
    assert all(s[3] == NO_PARENT for s in tracer.spans)


def test_state_kept_in_memory_does_not_carry_between_invocations():
    seen = set()

    def main(argv):
        if argv[0] not in seen:
            time.sleep(0.05)
            seen.add(argv[0])
        return 0

    invocations = [check.Invocation(("same",), lambda code, out: None)] * 2
    passes = [run.run_pass(FakeCli(main), invocations) for _ in range(2)]
    assert all(o.seconds >= 0.05 and not o.failed for outcomes in passes for o in outcomes)
    assert not seen


def test_worker_that_dies_is_a_problem():
    outcome = run.invoke_isolated(FakeCli(lambda argv: os._exit(3)), check.Invocation(("x",), lambda code, out: None))
    assert outcome.problem is not None


def test_crash_where_a_digest_is_pinned_is_a_problem():
    def boom(argv):
        raise ValueError("boom")

    digest = {"exit": 0, "sha256": hashlib.sha256(b"").hexdigest()}
    outcome = check.invoke(FakeCli(boom), run.pinned(("x",), {"x": digest}))
    assert outcome.failed and outcome.problem is not None


def test_speed_sampler_counts_its_own_time_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler(interval_s=0.005)
    with sampler.running():
        start = time.perf_counter()
        while time.perf_counter() < start + 0.1:
            pass
        end = time.perf_counter()
    assert len(sampler.samples) > 5
    assert 0 < sampler.busy_between(start, end) < end - start
    assert sampler.busy_between(end, end + 1) == 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampled_invocation_reports_reference_time():
    def main(argv):
        sum(Fraction(i, 7) for i in range(20000))
        return 0

    invocation = check.Invocation(("x",), lambda code, out: None)
    sampled = run.invoke_isolated(FakeCli(main), invocation, sampled=True)
    plain = run.invoke_isolated(FakeCli(main), invocation)
    assert not sampled.failed and sampled.ref_seconds > 0
    assert plain.ref_seconds == 0
