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
import contextlib
import csv
import math
import re
import sys
from pathlib import Path

import numpy as np

from .algebra import classify_quadric
from .conics import CLOSED_CLASSES, ConicClass, conic_pieces, sample_conic
from .errors import ParseError, QuadorError, ValidationError
from .fillet import PLANE_PAIR_CLASSES
from .latticefile import load_lattice
from .solid import auto_bounds, build_assembly, classify_point, marching_cubes
from .tolerances import UNBOUNDED_PARAM_RANGE
from .verify import run_verify
from .writers import (
    _OBJ_ROWS,
    format_values,
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "--bounds -2,-2,-2,2,2,2" or "--tol -inf" as an option missing
        # its value: it takes only "-2" or "-.5" for a number.  No option here starts
        # "-<digit>", "-i" or "-n", so these reach the flag's type and its range message.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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
    # A grid point costs about 120 bytes of peak RSS, mostly its CSV row held
    # until the write: at most about 600 MiB.
    counts = _numbers(int, count=3, low=1)(text)
    if math.prod(counts) > 5_000_000:
        raise argparse.ArgumentTypeError(f"expected nx*ny*nz <= 5000000, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quador", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[], help="run the invariant suite")
    p.add_argument("lattice", help="lattice JSON file")
    p.add_argument("--tol", type=_numbers(float, low=0), default=1e-9, help="material check band")
    p.add_argument("--samples", type=_numbers(int, low=1, high=10**7), default=10000,
                   help="reported sample size; the material check is exact (1..10000000)")
    p.add_argument("--seed", type=_numbers(int, low=0), default=0, help="reported seed (>= 0)")
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
    p.add_argument("--samples-per-curve", type=_numbers(int, low=4, high=100_000), default=128,
                   help="points per curve, at least 2 per branch or line (4..100000)")
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
    stack = build_assembly(lattice).fillets
    samples = [sample_conic(sections, args.samples_per_curve)
               for sections in (stack.conic1, stack.conic2)]
    curves = []
    for p in stack:
        for which, conic, pts in zip(("stub1", "stub2"), (p.conic1, p.conic2),
                                     (s[p.row] for s in samples)):
            closed = conic.klass in CLOSED_CLASSES
            comment = f"fillet {p.key} {which} class={conic.klass.value}"
            if not closed:
                r = UNBOUNDED_PARAM_RANGE
                comment += f" param_range=[{-r:g}, {r:g}] per branch"
            pieces = conic_pieces(conic, pts)
            part = "branch" if conic.klass is ConicClass.HYPERBOLA else "line"
            labels = [""] if len(pieces) == 1 else [f" ({part} {i} of 2)" for i in (1, 2)]
            curves += [(piece, closed, comment + label) for piece, label in zip(pieces, labels)]
    count = _write(args.output, write_obj_polylines, curves, args.output)
    print(f"{count} polylines -> {args.output}")
    return EXIT_OK


def _read_points_csv(path: str) -> np.ndarray:
    """The points of a CSV of ``x,y,z`` rows, as an ``(n, 3)`` array."""
    try:  # dropping the byte-order mark that spreadsheet exports write
        text = _read(path).decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        print(f"quador: malformed point file {path}: not UTF-8 at byte {exc.start}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    # Each data row's CSV record number, and its values up to the first row
    # with a field count other than 3 or a field ``float`` rejects.
    lines, values = [], []
    with contextlib.suppress(ValueError):
        for i, row in enumerate(csv.reader(text.splitlines())):
            if not row or (i == 0 and [c.strip().lower() for c in row[:3]] == ["x", "y", "z"]):
                continue
            lines.append(i)
            if len(row) != 3:
                break
            values.extend(map(float, row))
    bad = len(values) // 3
    points = np.array(values[: 3 * bad], dtype=float).reshape(-1, 3)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
    if bad < len(lines):  # the first row that fails a check
        row = list(csv.reader(text.splitlines()))[lines[bad]]
        print(f"quador: malformed point row {lines[bad] + 1}: {row}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
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
        lo, hi = auto_bounds(assembly)
        xs, ys, zs = (np.linspace(lo[i], hi[i], n) for i, n in enumerate(args.grid))
        # z, then y, then x order: x varies fastest.
        pts = np.stack(np.broadcast_arrays(xs, ys[:, None], zs[:, None, None]), axis=-1)
        pts = pts.reshape(-1, 3)
    # Classified and formatted a chunk of rows at a time, so only the points
    # and the output bytes grow with the point count.
    chunks = [b"x,y,z,value,state,label\n"]
    for start in range(0, len(pts), _OBJ_ROWS):
        rows = pts[start : start + _OBJ_ROWS]
        res = classify_point(assembly, rows)
        values = iter(format_values(np.column_stack((rows, res.value))))
        labels = map(_csv_field, map(str, res.label))
        chunks.append("".join(map("{},{},{},{},{},{}\n".format, values, values, values, values,
                                  res.state.tolist(), labels)).encode("utf-8"))
    _write(args.output, write_output, args.output, *chunks)
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
