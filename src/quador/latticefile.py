"""Strict JSON lattice files.

Schema, declared once as ``_SCHEMA``, which parses and serializes it::

    {"hubs":    [{"id": str, "center": [x, y, z], "radius": num}],
     "beams":   [{"id": str, "hubs": [a, b], "k": num}],
     "fillets": [{"hub": str, "beams": [i, j], "beta": num}]}

Parsing is strict: duplicate and unknown keys are rejected with their JSON
pointer, then each object's fields are checked in schema order, so a missing
key is the first one missing and an item with two faults reports the first.
Numbers must be finite (booleans and ``NaN``/``Infinity`` are rejected), ids
must be non-empty printable strings, and fixed-length arrays must have
exactly the declared length.  Missing top-level sections default to empty.
After parsing, the ids are checked and every part of the lattice is built;
any error raises :class:`ValidationError` with the full report attached.  A
valid lattice's warnings are not computed here.
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
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        raise ParseError(where, "number out of the float range") from None
    if not math.isfinite(number):
        raise ParseError(where, f"number must be finite, got {value!r}")
    return number


def _require_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ParseError(where, "expected a non-empty string")
    if not value.isprintable():
        raise ParseError(where, f"string {value!r} has a non-printable character")
    return value


def _member(where: str, key: str) -> str:
    """The JSON pointer (RFC 6901) to ``key`` in the object at ``where``."""
    return f"{where}/{key.replace('~', '~0').replace('/', '~1')}"


def _require_obj(value, where: str, keys: dict, required: bool) -> dict:
    """``value`` as an object of ``keys``; a missing key is the first in their order."""
    if not isinstance(value, dict):  # the document itself, at "", is reported at "/"
        raise ParseError(where or "/", f"expected an object, got {type(value).__name__}")
    if _REPEATED in value:
        key = value[_REPEATED]
        raise ParseError(_member(where, key), f"duplicate key {key!r}")
    for key in value:
        if key not in keys:
            raise ParseError(_member(where, key), f"unknown key {key!r}")
    for key in keys if required else ():
        if key not in value:
            raise ParseError(where, f"missing required key {key!r}")
    return value


def _require_list(value, where: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ParseError(where, f"expected an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ParseError(where, f"expected exactly {length} elements, got {len(value)}")
    return value


def _array(read, length: int):
    """The reader of an array of exactly ``length`` values, each read by ``read``."""
    def read_array(value, where: str) -> tuple:
        items = _require_list(value, where, length)
        return tuple(read(item, f"{where}/{j}") for j, item in enumerate(items))
    return read_array


_center = _array(_require_number, 3)
_id_pair = _array(_require_str, 2)  # fills two constructor fields

#: Each section's dataclass and its keys, in constructor order, with their readers.
_SCHEMA = {
    "hubs": (Hub, {"id": _require_str, "center": _center, "radius": _require_number}),
    "beams": (Beam, {"id": _require_str, "hubs": _id_pair, "k": _require_number}),
    "fillets": (FilletSpec, {"hub": _require_str, "beams": _id_pair, "beta": _require_number}),
}


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
        # ``int`` refuses a literal past its digit limit (at least 640 digits); a
        # literal cut to 400 characters is as far past the float range.
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_object,
                         parse_int=lambda literal: int(literal[:400]))
    except json.JSONDecodeError as exc:
        raise ParseError(f"/ (line {exc.lineno}, col {exc.colno})", exc.msg) from exc
    except RecursionError:
        raise ParseError("/", "arrays or objects nested too deeply") from None

    _require_obj(doc, "", _SCHEMA, required=False)
    sections = {}
    for name, (cls, keys) in _SCHEMA.items():
        parts = []
        for i, item in enumerate(_require_list(doc.get(name, []), f"/{name}")):
            where = f"/{name}/{i}"
            _require_obj(item, where, keys, required=True)
            args = []
            for key, read in keys.items():
                value = read(item[key], f"{where}/{key}")
                args += value if read is _id_pair else [value]
            parts.append(cls(*args))
        sections[name] = tuple(parts)

    lattice = Lattice(**sections)
    if lattice._resolved.errors:
        raise ValidationError(validate_lattice(lattice))
    return lattice


def load_lattice_path(path: str | Path) -> Lattice:
    return load_lattice(Path(path).read_bytes())


def lattice_to_json(lattice: Lattice) -> str:
    """Serialize a lattice back to the interchange schema (round-trip safe)."""
    doc = {}
    for name, (_, keys) in _SCHEMA.items():
        doc[name] = []
        for part in getattr(lattice, name):
            fields = iter(vars(part).values())
            doc[name].append({key: [next(fields), next(fields)] if read is _id_pair
                              else next(fields) for key, read in keys.items()})
    return json.dumps(doc, indent=2, sort_keys=True)
