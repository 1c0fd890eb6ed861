"""In-memory spans around the calls the CLI makes into each quador layer.

The tracer replaces module attributes (the names a calling module imported)
with timing wrappers, so the program itself stays untouched: a span is
recorded each time the CLI, or a layer below it, calls a wrapped function.
Spans stay in memory; :meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

# (module that makes the call, attribute it calls, span name as layer.function)
# Each span name is the module that defines the function.
WRAPPED = (
    ("quador.cli", "load_lattice", "latticefile.load_lattice"),
    ("quador.cli", "build_assembly", "solid.build_assembly"),
    ("quador.cli", "auto_bounds", "solid.auto_bounds"),
    ("quador.cli", "marching_cubes", "solid.marching_cubes"),
    ("quador.cli", "classify_point", "solid.classify_point"),
    ("quador.cli", "classify_quadric", "algebra.classify_quadric"),
    ("quador.cli", "sample_conic", "conics.sample_conic"),
    ("quador.cli", "run_verify", "verify.run_verify"),
    ("quador.cli", "write_stl", "writers.write_stl"),
    ("quador.cli", "write_obj_mesh", "writers.write_obj_mesh"),
    ("quador.cli", "write_obj_polylines", "writers.write_obj_polylines"),
    ("quador.latticefile", "validate_lattice", "lattice.validate_lattice"),
    ("quador.solid", "validate_lattice", "lattice.validate_lattice"),
    ("quador.solid", "build_fillet_for_spec", "fillet.build_fillet_for_spec"),
    ("quador.solid", "field_grid", "solid.field_grid"),
    # validate_lattice imports build_fillet_for_spec from quador.fillet at call time.
    ("quador.fillet", "build_fillet_for_spec", "fillet.build_fillet_for_spec"),
    ("quador.fillet", "stub_views_at_hub", "lattice.stub_views_at_hub"),
    ("quador.verify", "build_assembly", "solid.build_assembly"),
    ("quador.verify", "auto_bounds", "solid.auto_bounds"),
    ("quador.verify", "field_grid", "solid.field_grid"),
    ("quador.verify", "build_fillet_for_spec", "fillet.build_fillet_for_spec"),
    ("quador.verify", "stub_views_at_hub", "lattice.stub_views_at_hub"),
    ("quador.verify", "fillet_extent", "fillet.fillet_extent"),
    ("quador.verify", "fillet_min_curvature_radius", "fillet.fillet_min_curvature_radius"),
    ("quador.verify", "sample_conic", "conics.sample_conic"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request: str  # the CLI command this span belongs to
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self.last_result: dict[tuple[str, str | None], object] = {}
        self.last_args: dict[str, tuple] = {}
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object], wrapped=WRAPPED) -> None:
        for module_name, attr, span_name in wrapped:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span, e.g. a whole CLI command."""
        return self._wrap(fn, name)(*args)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else (None, None)
            self._stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent[0], self.request, name, start, end))
            # Keep the latest result per (function, caller) for counts taken
            # after the timed sequence, e.g. the mesh-grid field values.
            self.last_result[(name, parent[1])] = result
            self.last_args[name] = args
            return result

        return wrapper

    def totals(self, parent: str | None = None) -> dict[str, tuple[int, float]]:
        """(calls, inclusive seconds) per span name; with ``parent`` given,
        only spans whose direct caller span has that name."""
        names = {s.span_id: s.name for s in self.spans}
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            if parent is not None and names.get(s.parent_id) != parent:
                continue
            out[s.name][0] += 1
            out[s.name][1] += s.duration
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_times(self) -> dict[str, float]:
        """Seconds per span name minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent_id is not None:
                child_time[s.parent_id] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child_time[s.span_id]
        return dict(out)
