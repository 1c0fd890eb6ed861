"""Malformed inputs through every command: each run ends in an exit code.

Hypothesis mutates two kinds of input and runs them through ``cli.main``:

* lattice files: a fixture or a 2x1x1 cubic lattice with one to three values
  replaced (by an extreme number, a value of the wrong type, an integer
  literal past the float range or past ``int``'s digit limit, or arrays
  nested past the parser's depth) or deleted;
* point files: rows of malformed ``--points`` fields.

Every run returns 0, 1 or 3, nothing escapes ``main``, and stderr holds no
traceback.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import given, settings, strategies as st

from quador.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import cubic_lattice  # noqa: E402

BASES = [json.loads(p.read_text()) for p in sorted((ROOT / "fixtures").glob("*.json"))]
BASES.append(cubic_lattice((2, 1, 1), 1))


def _ulps(x: float, n: int) -> list[float]:
    """``x`` and the ``n`` floats on each side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


EXTREMES = [0, 0.0, -0.0, 1e-300, -1e-300, 1e160, -1e160, 1e300, -1e300,
            sys.float_info.max, -sys.float_info.max, 0.5 + 1e-12, *_ulps(0.5, 2), *_ulps(4.0, 3)]
WRONG_TYPES = ["", "x", "h0", "b1", True, None, [], {}, [1, 2], [0, 0, 0, 0], {"id": "h0"}]
# Literals json.dumps cannot write, put in place of their placeholder strings.
# Hypothesis raises the recursion limit while a test runs, so the nesting
# goes far past any limit.
RAW = {"@int400@": "1" + "0" * 400, "@int5000@": "-" + "9" * 5000,
       "@arrays@": "[" * 100_000 + "]" * 100_000,
       "@objects@": '{"a":' * 100_000 + "1" + "}" * 100_000}
DELETE = object()
REPLACEMENTS = st.sampled_from(EXTREMES + WRONG_TYPES + list(RAW) + [DELETE])


def _paths(node, path=()):
    """The path, as keys and indices, to every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


@st.composite
def lattice_files(draw) -> str:
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        numbers = [p for p in paths if type(reduce(getitem, p, doc)) in (int, float)]
        if numbers and draw(st.booleans()):  # half the time, an extreme number for a number
            path, value = draw(st.sampled_from(numbers)), draw(st.sampled_from(EXTREMES))
        else:
            path, value = draw(st.sampled_from(paths)), draw(REPLACEMENTS)
        parent = reduce(getitem, path[:-1], doc)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)  # a later mutation may edit it
    text = json.dumps(doc)
    for token, literal in RAW.items():
        text = text.replace(json.dumps(token), literal)
    return text


FIELDS = st.sampled_from(["0", "1.5", "-2", "", " ", "x", "nan", "-inf", "1e999", "1e-400",
                          "1" + "0" * 5000, "0x10", "1_0", '"1"', '"', '"1,2"', "\x00", "\ufeff1"])
ROWS = st.lists(st.lists(FIELDS, max_size=5).map(",".join), max_size=6)


@st.composite
def point_files(draw) -> bytes:
    rows = ["x,y,z"] * draw(st.booleans()) + draw(ROWS)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(rows)
    return text.encode() + draw(st.sampled_from([b"", b"\n", b"\xff", b"\n0,0,\xc3"]))


def _run(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _commands(lattice: Path, points: Path, out: Path) -> list[list[str]]:
    return [
        ["classify", str(lattice)],
        ["verify", str(lattice), "--samples", "20"],
        ["mesh", str(lattice), "--resolution", "6", "-o", str(out / "m.stl")],
        ["conics", str(lattice), "--samples-per-curve", "8", "-o", str(out / "c.obj")],
        ["sample", str(lattice), "--points", str(points), "-o", str(out / "s.csv")],
    ]


@settings(max_examples=200, deadline=None)
@given(lattice_files())
def test_mutated_lattices_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        lattice, points = Path(tmp, "lattice.json"), Path(tmp, "points.csv")
        lattice.write_text(text)
        points.write_text("x,y,z\n0,0,0\n1,2,3\n")
        for argv in _commands(lattice, points, Path(tmp)):
            code, err = _run(argv)
            assert code in (0, 1, 3) and "Traceback" not in err, (argv[0], code, err)


@settings(max_examples=100, deadline=None)
@given(point_files())
def test_malformed_point_files_end_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        points = Path(tmp, "points.csv")
        points.write_bytes(data)
        code, err = _run(_commands(ROOT / "fixtures" / "perpendicular_beta1.json", points,
                                   Path(tmp))[-1])
        assert code in (0, 1) and "Traceback" not in err, (code, err)
