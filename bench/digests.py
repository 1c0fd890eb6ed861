"""Byte identity of the CLI outputs on the checked-in fixtures.

Each fixture goes through every command at small fixed settings, in
process.  An output is identified by the sha256 of its bytes, or by
``exit N`` when the command is expected to refuse (``conics`` on a lattice
without fillets exits 1).  ``reference_digests.json`` holds the values
recorded from a known-good tree; re-record it only for a change that means
to alter output bytes:

    python3 bench/digests.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from inputs import write_points

REFERENCE = Path(__file__).with_name("reference_digests.json")
FIXTURES = (
    "asymmetric_beam.json",
    "perpendicular_beta05.json",
    "perpendicular_beta1.json",
    "single_hub.json",
)


def cli_inprocess(main, argv: list[str]) -> tuple[int, str]:
    """Run ``quador`` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_digests(main, fixtures_dir: Path, workdir: Path) -> dict[str, str]:
    """``{"<fixture>/<output>": sha256 or "exit N"}`` for every fixture."""
    workdir.mkdir(parents=True, exist_ok=True)
    found = {}
    for name in FIXTURES:
        lattice = str(fixtures_dir / name)
        doc = json.loads(Path(lattice).read_text(encoding="utf-8"))
        points = write_points(workdir / "points.csv", doc, 256, seed=0)
        runs = {
            "mesh.stl": ["mesh", lattice, "--resolution", "32", "-o"],
            "mesh.obj": ["mesh", lattice, "--resolution", "32", "--format", "obj", "-o"],
            "conics.obj": ["conics", lattice, "-o"],
            "sample.csv": ["sample", lattice, "--points", str(points), "-o"],
            "report.json": ["verify", lattice, "--samples", "2000", "--report"],
            "classify.txt": ["classify", lattice],
        }
        for output, argv in runs.items():
            path = workdir / output
            path.unlink(missing_ok=True)
            if argv[0] != "classify":
                argv = [*argv, str(path)]
            rc, stdout = cli_inprocess(main, argv)
            if rc != 0:
                found[f"{name}/{output}"] = f"exit {rc}"
            elif argv[0] == "classify":
                found[f"{name}/{output}"] = sha256(stdout.encode("utf-8"))
            else:
                found[f"{name}/{output}"] = sha256(path.read_bytes())
    return found


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference_digests.json from this tree")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from quador.cli import main

    workdir = root / ".bench_work" / f"digests-{os.getpid()}"
    try:
        found = fixture_digests(main, root / "fixtures", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        REFERENCE.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(found)} digests -> {REFERENCE}")
        return 0
    reference = load_reference()
    bad = sorted(k for k in reference if found.get(k) != reference[k])
    for key in bad:
        print(f"MISMATCH {key}: {found.get(key)} != {reference[key]}")
    print(f"{len(reference) - len(bad)}/{len(reference)} fixture outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
