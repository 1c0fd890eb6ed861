"""Seeded, deterministic inputs for the benchmark workloads.

The generator never imports quador: it writes plain files (a lattice JSON
and point CSVs) that the program then reads, so the program sees only the
generated inputs and never the seed.  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

CUBIC_RADIUS = 1.0
CUBIC_SPACING = 4.0
CUBIC_K = 4.0
CUBIC_BETA_RANGE = (0.75, 1.5)


def cubic_lattice(shape: tuple[int, int, int], seed: int) -> dict:
    """An axis-aligned grid of unit hubs joined by axis beams, filleted.

    Every pair of orthogonal stubs at a hub gets a fillet whose ``beta`` is
    drawn from ``CUBIC_BETA_RANGE`` by the seed; opposite stubs get none.
    """
    rng = random.Random(f"lattice-{seed}")
    hub_ids = {}
    hubs = []
    for idx in itertools.product(*(range(n) for n in shape)):
        hub_id = "h" + "_".join(map(str, idx))
        hub_ids[idx] = hub_id
        center = [float(i * CUBIC_SPACING) for i in idx]
        hubs.append({"id": hub_id, "center": center, "radius": CUBIC_RADIUS})

    beams = []
    stubs: dict[str, list[tuple[str, int]]] = {}
    for idx, hub_id in hub_ids.items():
        for axis in range(3):
            other = tuple(i + (a == axis) for a, i in enumerate(idx))
            if other not in hub_ids:
                continue
            beam_id = f"b{'_'.join(map(str, idx))}{'xyz'[axis]}"
            beams.append({"id": beam_id, "hubs": [hub_id, hub_ids[other]], "k": CUBIC_K})
            stubs.setdefault(hub_id, []).append((beam_id, axis))
            stubs.setdefault(hub_ids[other], []).append((beam_id, axis))

    fillets = []
    for hub in hubs:
        for (bi, ai), (bj, aj) in itertools.combinations(stubs.get(hub["id"], []), 2):
            if ai != aj:
                beta = round(rng.uniform(*CUBIC_BETA_RANGE), 6)
                fillets.append({"hub": hub["id"], "beams": [bi, bj], "beta": beta})
    return {"hubs": hubs, "beams": beams, "fillets": fillets}


def lattice_box(doc: dict, margin: float = 0.25) -> tuple[list[float], list[float]]:
    """Box around every hub sphere, padded by ``margin`` times the largest radius."""
    r_max = max(h["radius"] for h in doc["hubs"])
    lo = [min(h["center"][i] - h["radius"] for h in doc["hubs"]) - margin * r_max
          for i in range(3)]
    hi = [max(h["center"][i] + h["radius"] for h in doc["hubs"]) + margin * r_max
          for i in range(3)]
    return lo, hi


def random_points(lo, hi, count: int, seed: int) -> list[tuple[float, float, float]]:
    rng = random.Random(f"points-{seed}")
    return [tuple(rng.uniform(lo[i], hi[i]) for i in range(3)) for _ in range(count)]


def points_csv(points) -> str:
    return "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in points)


def lattice_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_points(path: Path, doc: dict, n_points: int, seed: int) -> Path:
    """Write a CSV of ``n_points`` seeded points drawn over the lattice box."""
    lo, hi = lattice_box(doc)
    path.write_text(points_csv(random_points(lo, hi, n_points, seed)), encoding="utf-8")
    return path


def write_inputs(
    workdir: Path, doc: dict, n_points: int, seed: int
) -> tuple[Path, Path]:
    """Write ``lattice.json`` and ``points.csv`` (drawn over the lattice box)."""
    lattice_path = workdir / "lattice.json"
    lattice_path.write_text(lattice_json(doc), encoding="utf-8")
    return lattice_path, write_points(workdir / "points.csv", doc, n_points, seed)
