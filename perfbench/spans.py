"""Span tracing of nodalcone's layers from outside the package.

``Tracer.installed()`` wraps the public functions of each layer module
and rebinds every module attribute that refers to one, because the
modules import each other's functions with ``from .x import y`` and a
patch on the defining module alone would miss those calls. Each call
records a span (name, start, end, parent index) in memory; the
per-layer numbers are computed from the spans after the pass.

A layer's self time is its span's duration minus the part of that
interval covered by child spans. Argument and result inspection
(distinct bundles, matrix shapes, entry bit sizes) runs after the span
closes and is recorded as a ``trace.observe`` child of the caller, so
it is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("exactlin", "curve", "bundles", "embedding", "cone", "cli")

# Called once per matrix entry or coefficient: a span each would cost more
# than the work it times, so their time stays in the caller's self time.
UNWRAPPED = frozenset({"exactlin.as_scalar", "bundles.poly_value", "bundles.poly_jet", "cli.fmt_exact"})

OBSERVE = "trace.observe"
NO_PARENT = -1


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [NO_PARENT]
        self.distinct: dict[str, set[int]] = defaultdict(set)
        self.cells = 0
        self.max_cols = 0
        self.max_entry_bits = 0
        self.max_multiplication_cols = 0
        self._observers = {
            "bundles.section_basis": self._bundle_argument,
            "bundles.gluing_matrix": self._bundle_argument,
            "exactlin.rank": self._rank,
            "exactlin.rref": self._rref,
            "exactlin.solve_many": self._solve_many,
            "exactlin.kernel_basis": self._kernel_basis,
            "embedding.multiplication_map": self._multiplication_map,
        }

    # ------------------------------------------------------------ observers

    def _eliminated(self, rows: int, cols: int) -> None:
        self.cells += rows * cols
        self.max_cols = max(self.max_cols, cols)

    def _entries(self, values) -> None:
        self.max_entry_bits = max(self.max_entry_bits, _bits(values))

    def _bundle_argument(self, name: str, args, result) -> None:
        self.distinct[name].add(hash(args[0]))

    def _rank(self, name: str, args, result) -> None:
        self._eliminated(args[0].rows, args[0].cols)

    def _rref(self, name: str, args, result) -> None:
        self._eliminated(args[0].rows, args[0].cols)
        self._entries(result[0].entries)

    def _solve_many(self, name: str, args, result) -> None:
        self._eliminated(args[0].rows, args[0].cols + len(args[1]))
        for x in result:
            if x is not None:
                self._entries(x)

    def _kernel_basis(self, name: str, args, result) -> None:
        for v in result:
            self._entries(v)

    def _multiplication_map(self, name: str, args, result) -> None:
        self.max_multiplication_cols = max(self.max_multiplication_cols, result.cols)

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(name, args, result)
                spans.append([OBSERVE, span[2], perf_counter(), parent])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function at every module binding, and
        restore the originals on exit."""
        import nodalcone

        modules = [importlib.import_module(f"nodalcone.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(value)] = (value, self._wrap(name, value))
        patched = []
        for module in [nodalcone, *modules]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # ------------------------------------------------- across processes

    def state(self) -> dict:
        """What ``absorb`` needs, picklable, for a tracer in another process."""
        return {
            "spans": self.spans,
            "distinct": dict(self.distinct),
            "cells": self.cells,
            "max_cols": self.max_cols,
            "max_entry_bits": self.max_entry_bits,
            "max_multiplication_cols": self.max_multiplication_cols,
        }

    def absorb(self, state: dict) -> None:
        """Add the spans and counts of another tracer's ``state()``."""
        offset = len(self.spans)
        self.spans += [[n, s, e, p if p == NO_PARENT else p + offset] for n, s, e, p in state["spans"]]
        for name, hashes in state["distinct"].items():
            self.distinct[name] |= hashes
        self.cells += state["cells"]
        for field in ("max_cols", "max_entry_bits", "max_multiplication_cols"):
            setattr(self, field, max(getattr(self, field), state[field]))

    # --------------------------------------------------------------- results

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and total self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
        return calls, self_s


SELF_TIMED = (
    "bundles.section_basis",
    "bundles.gluing_matrix",
    "bundles.dualizing_bundle",
    "embedding.very_ample",
    "embedding.multiplication_map",
    "exactlin.rank",
    "exactlin.rref",
    "exactlin.kernel_basis",
    "exactlin.solve_many",
    "cone.graded_report",
    "curve.validate",
    "cli.parse_spec",
)
COUNTED = (
    "bundles.section_basis",
    "bundles.gluing_matrix",
    "bundles.h0",
    "bundles.h1_direct",
    "bundles.dualizing_bundle",
    "embedding.separates_points",
    "embedding.separates_jets",
    "embedding.multiplication_map",
    "embedding.quadric_ideal",
    "exactlin.rank",
    "exactlin.rref",
    "exactlin.kernel_basis",
    "exactlin.solve_many",
    "cone.graded_report",
    "cone.t0_dim",
    "cone.t1_dim",
    "curve.validate",
)
DISTINCT = ("bundles.section_basis", "bundles.gluing_matrix")


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``."""
    calls, self_s = tracer.summary()
    out: dict[str, tuple[float, str]] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in DISTINCT:
        distinct = len(tracer.distinct.get(name, ()))
        out[f"{name}.distinct"] = (distinct, "count")
        out[f"{name}.distinct_frac"] = (distinct / calls[name] if calls.get(name) else 0.0, "ratio")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        total = sum((t for name, t in self_s.items() if name.startswith(layer + ".")), 0.0)
        out[f"{layer}.self_s"] = (total, "s")
    out["embedding.multiplication_map.max_cols"] = (tracer.max_multiplication_cols, "count")
    out["exactlin.cells"] = (tracer.cells, "count")
    out["exactlin.max_cols"] = (tracer.max_cols, "count")
    out["exactlin.max_entry_bits"] = (tracer.max_entry_bits, "bits")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out
