"""Strict JSON lattice files.

Schema::

    {"hubs":    [{"id": str, "center": [x, y, z], "radius": num}],
     "beams":   [{"id": str, "hubs": [a, b], "k": num}],
     "fillets": [{"hub": str, "beams": [i, j], "beta": num}]}

Parsing is strict: unknown and duplicate keys are rejected with a
JSON-pointer-style location, numbers must be finite (booleans and
``NaN``/``Infinity`` are rejected), ids must be non-empty printable strings,
and fixed-length arrays must have exactly the declared length.
Missing top-level sections default to empty.  After parsing, the ids are
checked and every part of the lattice is built; any error raises
:class:`ValidationError` with the full report attached.  A valid lattice's
warnings are not computed here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ParseError, ValidationError
from .lattice import Beam, FilletSpec, Hub, Lattice, validate_lattice

__all__ = ["load_lattice", "load_lattice_path", "lattice_to_json"]


def _reject_constant(name: str):
    raise ParseError("/", f"non-finite number literal {name!r}")


_REPEATED = object()  # not a string, so no JSON key equals it


def _object(pairs: list) -> dict:
    """A JSON object; one that repeats a key holds the first it repeats under ``_REPEATED``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj[_REPEATED] = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(where, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ParseError(where, f"number must be finite, got {value!r}")
    return float(value)


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(where, "expected a non-empty string")
    if not value.isprintable():
        raise ParseError(where, f"string {value!r} has a non-printable character")
    return value


def _member(where: str, key: str) -> str:
    """The JSON pointer (RFC 6901) to ``key`` in the object at ``where``."""
    return f"{where}/{key.replace('~', '~0').replace('/', '~1')}"


def _require_obj(value, where: str, allowed: set[str], required: set[str]) -> dict:
    if not isinstance(value, dict):  # the document itself, at "", is reported at "/"
        raise ParseError(where or "/", f"expected an object, got {type(value).__name__}")
    if _REPEATED in value:
        key = value[_REPEATED]
        raise ParseError(_member(where, key), f"duplicate key {key!r}")
    for key in value:
        if key not in allowed:
            raise ParseError(_member(where, key), f"unknown key {key!r}")
    for key in required:
        if key not in value:
            raise ParseError(where, f"missing required key {key!r}")
    return value


def _require_list(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ParseError(where, f"expected an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ParseError(where, f"expected exactly {length} elements, got {len(value)}")
    return value


def load_lattice(text: str | bytes) -> Lattice:
    """Parse (strictly) a lattice document, check its ids and build its parts.

    A bad id or a part that fails to build raises :class:`ValidationError`
    with :func:`validate_lattice`'s report.  A valid lattice's warnings are
    not computed; :func:`validate_lattice` computes them on demand.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("/", f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"/ (line {exc.lineno}, col {exc.colno})", exc.msg) from exc

    _require_obj(doc, "", {"hubs", "beams", "fillets"}, set())

    hubs = []
    for i, item in enumerate(_require_list(doc.get("hubs", []), "/hubs")):
        where = f"/hubs/{i}"
        obj = _require_obj(item, where, {"id", "center", "radius"}, {"id", "center", "radius"})
        center = _require_list(obj["center"], f"{where}/center", 3)
        hubs.append(
            Hub(
                id=_require_str(obj["id"], f"{where}/id"),
                center=tuple(
                    _require_number(c, f"{where}/center/{j}") for j, c in enumerate(center)
                ),
                radius=_require_number(obj["radius"], f"{where}/radius"),
            )
        )

    beams = []
    for i, item in enumerate(_require_list(doc.get("beams", []), "/beams")):
        where = f"/beams/{i}"
        obj = _require_obj(item, where, {"id", "hubs", "k"}, {"id", "hubs", "k"})
        pair = _require_list(obj["hubs"], f"{where}/hubs", 2)
        beams.append(
            Beam(
                id=_require_str(obj["id"], f"{where}/id"),
                hub_a=_require_str(pair[0], f"{where}/hubs/0"),
                hub_b=_require_str(pair[1], f"{where}/hubs/1"),
                k=_require_number(obj["k"], f"{where}/k"),
            )
        )

    fillets = []
    for i, item in enumerate(_require_list(doc.get("fillets", []), "/fillets")):
        where = f"/fillets/{i}"
        obj = _require_obj(item, where, {"hub", "beams", "beta"}, {"hub", "beams", "beta"})
        pair = _require_list(obj["beams"], f"{where}/beams", 2)
        fillets.append(
            FilletSpec(
                hub=_require_str(obj["hub"], f"{where}/hub"),
                beam_i=_require_str(pair[0], f"{where}/beams/0"),
                beam_j=_require_str(pair[1], f"{where}/beams/1"),
                beta=_require_number(obj["beta"], f"{where}/beta"),
            )
        )

    lattice = Lattice(tuple(hubs), tuple(beams), tuple(fillets))
    if lattice._resolved.errors:
        raise ValidationError(validate_lattice(lattice))
    return lattice


def load_lattice_path(path: str | Path) -> Lattice:
    return load_lattice(Path(path).read_bytes())


def lattice_to_json(lattice: Lattice) -> str:
    """Serialize a lattice back to the interchange schema (round-trip safe)."""
    doc = {
        "hubs": [
            {"id": h.id, "center": list(h.center), "radius": h.radius}
            for h in lattice.hubs
        ],
        "beams": [
            {"id": b.id, "hubs": [b.hub_a, b.hub_b], "k": b.k} for b in lattice.beams
        ],
        "fillets": [
            {"hub": f.hub, "beams": [f.beam_i, f.beam_j], "beta": f.beta}
            for f in lattice.fillets
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
