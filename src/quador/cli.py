"""Command-line interface.

Subcommands: ``verify`` (invariant suite + JSON report), ``mesh``
(STL/OBJ isosurface export), ``conics`` (tangency curves as OBJ
polylines), ``sample`` (point membership CSV) and ``classify``
(quadric/conic class table).

Exit codes: 0 success, 1 usage or validation failure, 2 I/O failure,
3 invariant failure from ``verify``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import classify_quadric
from .conics import ConicClass, sample_conic
from .errors import ParseError, QuadorError, ValidationError
from .fillet import PLANE_PAIR_CLASSES
from .latticefile import load_lattice
from .solid import auto_bounds, build_assembly, classify_point, marching_cubes
from .tolerances import UNBOUNDED_PARAM_RANGE
from .verify import run_verify
from .writers import (
    format_value,
    write_obj_mesh,
    write_obj_polylines,
    write_output,
    write_stl,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our contract reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _numbers(kind, count: int = 1, low: float = -math.inf, high: float = math.inf):
    """An argparse ``type=`` for ``count`` comma-separated finite ``kind``
    values in ``[low, high]``; one comes back bare, several as a list."""

    def parse(text: str):
        try:
            values = [kind(v) for v in text.split(",")]
        except ValueError:
            values = []
        # An int too large for a float compares exactly rather than overflowing.
        if len(values) != count or not all(low <= v <= high and abs(v) < math.inf
                                           for v in values):
            expected = f"{count} {kind.__name__} value(s), finite and in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values[0] if count == 1 else values

    return parse


def _bounds(text: str):
    return text if text == "auto" else _numbers(float, count=6)(text)


def _grid(text: str):
    # A grid point costs about 420 bytes of peak RSS: at most about 2 GiB.
    counts = _numbers(int, count=3, low=1)(text)
    if math.prod(counts) > 5_000_000:
        raise argparse.ArgumentTypeError(f"expected nx*ny*nz <= 5000000, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quador", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[], help="run the invariant suite")
    p.add_argument("lattice", help="lattice JSON file")
    p.add_argument("--tol", type=_numbers(float, low=0), default=1e-9, help="base tolerance")
    p.add_argument("--samples", type=_numbers(int, low=1, high=10**7), default=10000,
                   help="random sample count (1..10000000)")
    p.add_argument("--seed", type=_numbers(int, low=0), default=0, help="random seed")
    p.add_argument("--report", help="write the JSON report here")

    p = sub.add_parser("mesh", help="polygonize the solid and write STL/OBJ")
    p.add_argument("lattice")
    # The field grid is dense, about 12.5 bytes of peak RSS per grid point:
    # about 1.7 GB at 512.
    p.add_argument("--resolution", type=_numbers(int, low=2, high=512), default=64,
                   help="cells per axis (2..512)")
    p.add_argument("--bounds", type=_bounds, default="auto",
                   help="'auto' or x0,y0,z0,x1,y1,z1")
    p.add_argument("--format", choices=("stl", "obj"), default="stl")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("conics", help="export fillet tangency conics as OBJ polylines")
    p.add_argument("lattice")
    p.add_argument("--samples-per-curve", type=_numbers(int, low=2, high=100_000), default=128,
                   help="points per curve (2..100000)")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("sample", help="classify points from a CSV or grid")
    p.add_argument("lattice")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--points", help="CSV of x,y,z query points")
    source.add_argument("--grid", type=_grid,
                        help="nx,ny,nz uniform grid over auto bounds (nx*ny*nz <= 5000000)")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("classify", help="print quadric classes of beams and fillets")
    p.add_argument("lattice")
    return parser


def _read(path: str) -> bytes:
    """The bytes of ``path``; if reading fails, say so and exit 2."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        print(f"quador: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc


def _write(path: str, write, *args):
    """``write(*args)``, which writes ``path``; if that fails, say so and exit 2."""
    try:
        return write(*args)
    except OSError as exc:
        print(f"quador: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO) from exc


def _cmd_verify(args) -> int:
    lattice = load_lattice(_read(args.lattice))
    report = run_verify(lattice, tol=args.tol, samples=args.samples, seed=args.seed)
    if args.report:
        _write(args.report, write_output, args.report, report.to_json().encode("utf-8"))
    for check in report.checks:
        measured = "" if check.measured is None else f" measured={check.measured:.3e}"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"[{check.status.upper():4s}] {check.name}{measured}{detail}")
    summary = report.summary()
    print(
        f"{summary['pass']} passed, {summary['fail']} failed, {summary['warn']} warnings"
    )
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_mesh(args) -> int:
    lattice = load_lattice(_read(args.lattice))
    assembly = build_assembly(lattice)
    if args.bounds == "auto":
        bounds = auto_bounds(assembly)
    else:
        bounds = args.bounds[:3], args.bounds[3:]
    mesh = marching_cubes(assembly, bounds, args.resolution)
    write = write_stl if args.format == "stl" else write_obj_mesh
    count = _write(args.output, write, mesh, args.output)
    print(f"{count} triangles -> {args.output}")
    return EXIT_OK


def _cmd_conics(args) -> int:
    lattice = load_lattice(_read(args.lattice))
    if not lattice.fillets:
        print("quador: lattice has no fillets; nothing to export", file=sys.stderr)
        return EXIT_USAGE
    assembly = build_assembly(lattice)
    curves = []
    for p in assembly.fillets:
        for which, conic in (("stub1", p.conic1), ("stub2", p.conic2)):
            pts = sample_conic(conic, args.samples_per_curve)
            closed = conic.klass in (ConicClass.ELLIPSE, ConicClass.CIRCLE)
            comment = f"fillet {p.key} {which} class={conic.klass.value}"
            if not closed:
                r = UNBOUNDED_PARAM_RANGE
                comment += f" param_range=[{-r:g}, {r:g}] per branch"
            part = {ConicClass.HYPERBOLA: "branch", ConicClass.PARALLEL_LINES: "line",
                    ConicClass.CROSSING_LINES: "line"}.get(conic.klass)
            if part:
                # One polyline each; sample_conic gives the first n - n // 2 points.
                half = len(pts) - len(pts) // 2
                curves.append((pts[:half], False, comment + f" ({part} 1 of 2)"))
                curves.append((pts[half:], False, comment + f" ({part} 2 of 2)"))
            else:
                curves.append((pts, closed, comment))
    count = _write(args.output, write_obj_polylines, curves, args.output)
    print(f"{count} polylines -> {args.output}")
    return EXIT_OK


def _read_points_csv(path: str) -> list[tuple[float, float, float]]:
    try:  # dropping the byte-order mark that spreadsheet exports write
        text = _read(path).decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        print(f"quador: malformed point file {path}: not UTF-8 at byte {exc.start}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    points = []
    rows = list(csv.reader(text.splitlines()))
    for i, row in enumerate(rows):
        if not row or (i == 0 and [c.strip().lower() for c in row[:3]] == ["x", "y", "z"]):
            continue
        try:
            if len(row) != 3:
                raise ValueError("need exactly 3 fields")
            point = tuple(float(v) for v in row)
            if not all(map(math.isfinite, point)):
                raise ValueError("coordinates must be finite")
            points.append(point)
        except ValueError:
            print(f"quador: malformed point row {i + 1}: {row}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE) from None
    return points


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with its quotes doubled, if it
    holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_sample(args) -> int:
    lattice = load_lattice(_read(args.lattice))
    assembly = build_assembly(lattice)
    if args.points:
        pts = _read_points_csv(args.points)
    else:
        nx, ny, nz = args.grid
        lo, hi = auto_bounds(assembly)
        pts = [
            (x, y, z)
            for z in np.linspace(lo[2], hi[2], nz)
            for y in np.linspace(lo[1], hi[1], ny)
            for x in np.linspace(lo[0], hi[0], nx)
        ]
    lines = ["x,y,z,value,state,label"]
    for p in pts:
        res = classify_point(assembly, p)
        lines.append(
            ",".join(
                [format_value(p[0]), format_value(p[1]), format_value(p[2]),
                 format_value(res.value), res.state, _csv_field(str(res.label))]
            )
        )
    _write(args.output, write_output, args.output, "\n".join(lines).encode("utf-8"), b"\n")
    print(f"{len(pts)} points -> {args.output}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    lattice = load_lattice(_read(args.lattice))
    assembly = build_assembly(lattice)
    print(f"{'kind':8s} {'id':24s} {'class':24s} notes")
    for bg in assembly.beams:
        cls = classify_quadric(bg.stub_a.H)
        evals = ", ".join(f"{d:.6g}" for d in cls.diag)
        print(f"{'beam':8s} {bg.beam.id:24s} {cls.label.value:24s} eigenvalues [{evals}]")
    for p in assembly.fillets:
        cls = classify_quadric(p.Q)
        notes = []
        if cls.label in PLANE_PAIR_CLASSES:
            notes.append("degenerate (chamfer)")
        notes.append(
            f"conics {p.conic1.klass.value}/{p.conic2.klass.value}"
        )
        print(f"{'fillet':8s} {p.key:24s} {cls.label.value:24s} {'; '.join(notes)}")
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "mesh": _cmd_mesh,
    "conics": _cmd_conics,
    "sample": _cmd_sample,
    "classify": _cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A failing run ends in its coded error, so numpy's warnings add nothing.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"quador: parse error at {exc}", file=sys.stderr)  # exc starts with its location
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"quador: {exc}", file=sys.stderr)
        for entry in exc.report.errors:
            print(f"  [{entry.code}] {entry.subject}: {entry.message}", file=sys.stderr)
        return EXIT_USAGE
    except QuadorError as exc:
        print(f"quador: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
