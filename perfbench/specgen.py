"""Seeded curve specs for the benchmark workloads.

The program only ever sees the files written here. Two kinds of spec:

* the paper-curve ladder: the three-line genus-1 curve of the README
  with multidegree ``(k, k, k)``, the same for every seed so that its
  stdout digests can be pinned;
* random curves. Their structure (component count, dual graph, degree
  of each component, which components carry a point at infinity) comes
  from a table drawn once from the workload's ranges and is the same
  for every seed. The run seed draws the numbers: marked coordinates,
  which marked point of a component sits at infinity, node orientation
  and gluing scalars. How long ``verify`` runs depends on the structure
  (``very_ample`` stops at the first pair it cannot separate, and one
  spec of six degree-3 lines costs as much as twenty small ones), so
  drawing the structure per seed would make wall time follow the seed
  rather than the program.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PAPER_COMPONENTS = [
    {"name": "C1", "points": ["0", "1"]},
    {"name": "C2", "points": ["0", "1", "2"]},
    {"name": "C3", "points": ["0"]},
]
PAPER_NODES = [
    {"a": "C1.0", "b": "C3.0"},
    {"a": "C1.1", "b": "C2.1"},
    {"a": "C2.0", "b": "C2.2"},
]
LADDER = range(3, 7)

# Affine coordinates p/q with |p| <= 12 and q <= 4, distinct as rationals.
COORDINATES = sorted({Fraction(p, q) for p in range(-12, 13) for q in range(1, 5)})
GLUING_NUMERATORS = [n for n in range(-5, 6) if n != 0]


@dataclass(frozen=True)
class Structure:
    """The seed-independent part of one random spec."""

    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    infinite: tuple[int, ...]


@dataclass(frozen=True)
class RandomSpecs:
    """Generator parameters of one family of random specs (ranges inclusive)."""

    count: int
    components: tuple[int, int]
    genus: tuple[int, int]
    degrees: tuple[int, int]
    inf_share: float

    def structures(self, table_key: str) -> list[Structure]:
        """The fixed structure table, drawn from ``table_key`` alone.

        A random recursive tree keeps the dual graph connected; each
        extra edge (self-nodes allowed) adds one to the genus. Each
        component carries a point at infinity with chance ``inf_share``.
        """
        rng = random.Random(table_key)
        table = []
        for _ in range(self.count):
            n = rng.randint(*self.components)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(*self.genus))]
            rng.shuffle(edges)
            table.append(
                Structure(
                    edges=tuple(edges),
                    degrees=tuple(rng.randint(*self.degrees) for _ in range(n)),
                    infinite=tuple(c for c in range(n) if rng.random() < self.inf_share),
                )
            )
        return table


def spec_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def ladder_doc(k: int) -> dict:
    return {
        "components": PAPER_COMPONENTS,
        "nodes": PAPER_NODES,
        "bundle": {"multidegree": [k, k, k], "gluings": ["1", "1", "1"]},
    }


def random_doc(rng: random.Random, structure: Structure) -> dict:
    """A valid spec of the given structure with numbers drawn from ``rng``.

    Every node end is a fresh marked point, so every marked point lies on
    exactly one node.
    """
    n = len(structure.degrees)
    names = [f"L{i}" for i in range(n)]
    point_counts = [0] * n
    nodes = []
    for a, b in structure.edges:
        ends = []
        for c in (a, b):
            ends.append(f"{names[c]}.{point_counts[c]}")
            point_counts[c] += 1
        if rng.random() < 0.5:
            ends.reverse()
        nodes.append({"a": ends[0], "b": ends[1]})
    points = [[str(x) for x in rng.sample(COORDINATES, count)] for count in point_counts]
    for c in structure.infinite:
        points[c][rng.randrange(point_counts[c])] = "inf"
    gluings = [
        str(Fraction(rng.choice(GLUING_NUMERATORS), rng.randint(1, 3))) for _ in structure.edges
    ]
    return {
        "components": [{"name": name, "points": pts} for name, pts in zip(names, points)],
        "nodes": nodes,
        "bundle": {"multidegree": list(structure.degrees), "gluings": gluings},
    }


def write_ladder(directory: Path) -> list[Path]:
    """The ladder files, at fixed paths because their paths are part of the
    pinned stdout. Runs at the same time share them, so a file is replaced
    atomically and only when its bytes differ."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in LADDER:
        path = directory / f"paper-x-k{k}.json"
        text = spec_text(ladder_doc(k))
        if not path.exists() or path.read_text() != text:
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
        paths.append(path)
    return paths


def write_random(directory: Path, family: RandomSpecs, table_key: str, seed: int) -> list[Path]:
    """One spec per entry of the family's structure table, numbers drawn from ``seed``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{table_key}/{seed}")
    paths = []
    for i, structure in enumerate(family.structures(table_key)):
        path = directory / f"{table_key}-{i:03d}.json"
        path.write_text(spec_text(random_doc(rng, structure)))
        paths.append(path)
    return paths
