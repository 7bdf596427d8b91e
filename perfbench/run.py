"""nodalcone benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's spec files are generated from ``--seed`` under
``.perfbench_work/`` and fed to ``nodalcone.cli.main``, each invocation
in a fork of this single-threaded process and starting after the
previous one returns. Passes over the whole workload repeat while
another pass fits in ``--seconds``; at least one runs.

The timing metrics (``*_ref_s``) are durations at a reference host
speed: while each invocation runs, its process times a fixed piece of
arithmetic every 20 ms and the invocation's time is divided by it (see
``speed.py``). The raw wall times are printed too, but on a shared
virtual machine they follow the host's speed more than the program's.
Each call is taken at its median over the passes.
``setup_s`` is the median of fresh interpreters started before each pass,
each timed between speed samples taken just before and just after it.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see ``spans.py``). Either way every
invocation's output is checked (see ``check.py``), and the last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import specgen
import speed
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
SETUP_SPAWNS_PER_PASS = 4

VERIFY_RANDOM = specgen.RandomSpecs(count=6, components=(2, 6), genus=(0, 4), degrees=(1, 3), inf_share=0.15)
TWIST_RANDOM = specgen.RandomSpecs(count=20, components=(2, 6), genus=(0, 4), degrees=(-3, 6), inf_share=0.0)
DEFORM_RANGE = "-12:12"


def pinned(argv: tuple[str, ...], digests: dict) -> check.Invocation:
    expected = digests.get(check.digest_key(argv))
    if expected is None:
        return check.Invocation(argv, lambda code, stdout: "no digest recorded for this invocation", pinned=True)
    return check.Invocation(argv, check.digest_check(expected), pinned=True)


def curve_argvs() -> list[tuple[str, ...]]:
    return [("verify", f"curves/{p.name}", "--json") for p in sorted(Path("curves").glob("*.json"))]


def ladder_argvs() -> list[tuple[str, ...]]:
    return [("ideal", str(p), "--json") for p in specgen.write_ladder(WORK / "ladder")]


def verify_sweep(run_dir: Path, seed: int, digests: dict) -> list[check.Invocation]:
    out = [pinned(argv, digests) for argv in curve_argvs()]
    for path in specgen.write_random(run_dir, VERIFY_RANDOM, "verify-sweep", seed):
        out.append(check.Invocation(("verify", str(path), "--json"), check.verify_check))
    return out


def ideal_ladder(run_dir: Path, seed: int, digests: dict) -> list[check.Invocation]:
    return [pinned(argv, digests) for argv in ladder_argvs()]


def twist_sweep(run_dir: Path, seed: int, digests: dict) -> list[check.Invocation]:
    lo, hi = (int(x) for x in DEFORM_RANGE.split(":"))
    out = []
    for path in specgen.write_random(run_dir, TWIST_RANDOM, "twist-sweep", seed):
        spec = json.loads(path.read_text())
        out.append(check.Invocation(("sections", str(path), "--json", "--basis"), check.sections_check))
        out.append(
            check.Invocation(
                ("deform", str(path), "--json", "--range", DEFORM_RANGE),
                check.deform_check(spec, range(lo, hi + 1)),
            )
        )
    return out


WORKLOADS = {
    "verify-sweep": (
        verify_sweep,
        {"curves": "curves/*.json", "random": dataclasses.asdict(VERIFY_RANDOM)},
    ),
    "ideal-ladder": (
        ideal_ladder,
        {"ladder": f"paper curve, multidegree (k,k,k), k in {list(specgen.LADDER)}"},
    ),
    "twist-sweep": (
        twist_sweep,
        {"random": dataclasses.asdict(TWIST_RANDOM), "deform_range": DEFORM_RANGE},
    ),
}


def measure_setup() -> list[tuple[float, float]]:
    """Raw and reference-speed times of fresh interpreters that import the
    CLI module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import nodalcone.cli"]
    return [speed.bracketed(lambda: subprocess.run(command, env=env, check=True)) for _ in range(SETUP_SPAWNS_PER_PASS)]


def invoke_isolated(
    cli, invocation: check.Invocation, tracer: Tracer | None = None, sampled: bool = False
) -> check.Outcome:
    """Run one invocation in a forked child of this process.

    The command line runs one invocation per process, so nothing the
    program keeps in memory (a memo, say) may carry from one timed
    invocation to the next, within a pass or across passes. Each child
    starts from the state of a process that has just imported the
    package, and its spans, if traced, are added to ``tracer``. If
    ``sampled``, the child also samples the host's speed and sets the
    outcome's ``ref_seconds``; tracing and sampling exclude each other,
    since the samples would fall into the spans.
    """
    read_fd, write_fd = os.pipe()
    gc.freeze()  # the child's collections then skip, and do not copy, inherited objects
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            child_tracer = Tracer() if tracer else None
            sampler = speed.Sampler() if sampled else None
            with child_tracer.installed() if child_tracer else contextlib.nullcontext():
                with sampler.running() if sampler else contextlib.nullcontext():
                    outcome = check.invoke(cli, invocation)
            outcome = dataclasses.replace(outcome, peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            if sampler:
                busy = sampler.busy_between(outcome.started, outcome.started + outcome.seconds)
                outcome = dataclasses.replace(outcome, ref_seconds=sampler.reference_seconds(outcome.seconds - busy))
            payload = pickle.dumps((outcome, child_tracer.state() if child_tracer else None))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        return check.Outcome(invocation.argv, 0.0, None, "", None, f"worker process died (wait status {status})", 0)
    outcome, state = pickle.loads(payload)
    if tracer:
        tracer.absorb(state)
    return outcome


def run_pass(cli, invocations, tracer: Tracer | None = None, sampled: bool = False) -> list[check.Outcome]:
    return [invoke_isolated(cli, inv, tracer, sampled) for inv in invocations]


def pass_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def per_call(passes, seconds) -> dict[str, float]:
    """Each call's median over the passes of ``seconds(outcome)``.

    ``passes`` holds one list of outcomes per pass, in invocation order.
    A call is everything run on one spec file: one invocation, except on
    twist-sweep, where it is ``sections`` then ``deform``. Taken per
    invocation, that median would fall between the two subcommands' times.
    """
    calls: dict[str, list[float]] = {}
    for outcomes in passes:
        totals: dict[str, float] = {}
        for o in outcomes:
            totals[o.argv[1]] = totals.get(o.argv[1], 0.0) + seconds(o)
        for spec, total in totals.items():
            calls.setdefault(spec, []).append(total)
    return {spec: statistics.median(times) for spec, times in calls.items()}


def end_to_end(passes, setup) -> dict[str, tuple[float, str]]:
    calls = per_call(passes, lambda o: o.ref_seconds)
    return {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "wall_ref_s": (sum(calls.values()), "s"),
        "call_p50_ref_s": (statistics.median(calls.values()), "s"),
        "call_max_ref_s": (max(calls.values()), "s"),
        "peak_rss_mb": (max(o.peak_rss_kb for outcomes in passes for o in outcomes) / 1024, "MB"),
    }


def raw_wall(passes) -> dict[str, float]:
    """The raw wall times behind the ``*_ref_s`` metrics, for reading only."""
    calls = per_call(passes, lambda o: o.seconds)
    return {"wall_s": sum(calls.values()), "call_p50_s": statistics.median(calls.values()), "call_max_s": max(calls.values())}


def measure(args, cli, invocations):
    """Returns the metrics, the sample count behind each, and every outcome.

    Set-up is timed before every pass rather than in one burst, so that its
    median, like the timings, spans the whole run.
    """
    if not args.trace:
        passes, setup = [], []
        begin = perf_counter()
        while not passes or perf_counter() - begin + last <= args.seconds:
            start = perf_counter()
            setup += measure_setup()
            passes.append(run_pass(cli, invocations, sampled=True))
            last = perf_counter() - start
        raw = {"setup_s": statistics.median(seconds for seconds, _ in setup), **raw_wall(passes)}
        for name, value in raw.items():
            print(f"raw {name} {value:.6f} s")
        counts = {"setup_spawns": len(setup), "passes": len(passes)}
        return end_to_end(passes, setup), counts, [o for outcomes in passes for o in outcomes]

    untraced = run_pass(cli, invocations)
    print(f"untraced wall_s {pass_seconds(untraced):.6f} s")
    tracer = Tracer()
    traced = run_pass(cli, invocations, tracer)
    traced = [
        b if a.stdout_sha256 == b.stdout_sha256 else dataclasses.replace(b, problem="traced stdout differs from untraced")
        for a, b in zip(untraced, traced)
    ]
    counts = {"untraced_passes": 1, "traced_passes": 1, "spans": len(tracer.spans)}
    return layer_metrics(tracer, pass_seconds(traced), pass_seconds(untraced)), counts, untraced + traced


def run_record(args, invocations: int, counts: dict) -> dict:
    git_sha = None
    if Path(".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(Path("src/nodalcone").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": WORKLOADS[args.workload][1],
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "invocations_per_pass": invocations,
        "samples": counts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/nodalcone/cli.py", "curves") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not a nodalcone checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import nodalcone.cli as cli

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        invocations = WORKLOADS[args.workload][0](run_dir, args.seed, check.load_digests())
        metrics, counts, outcomes = measure(args, cli, invocations)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [o for o in outcomes if o.failed]
    for line in dict.fromkeys(f"failed: {' '.join(o.argv)}: {o.crash or o.problem}" for o in failed):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6f} {unit}")
    print(f"failed_frac {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4f}")
    print("record " + json.dumps(run_record(args, len(invocations), counts), sort_keys=True))
    result = {
        "correct": not any(o.problem for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
