"""The stacked hub and beam construction, row by row.

A lattice builds its hub spheres in one stacked call and its beams in
another.  Each row must keep the bits that the one-object construction
(``beam_reference``) gives, and each failed row its first error's class and
message; ``sphere_quadric`` and ``beam_quador`` are one-row calls of the
same builders.
"""

import contextlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quador.errors import MissingIdError, QuadorError
from quador.lattice import Beam, Hub, Lattice, beam_quador, sphere_quadric
from quador.latticefile import load_lattice, load_lattice_path

from beam_reference import reference_beam, reference_sphere
from test_fillet import jittered_cubic
from test_random_lattices import _k, random_specs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import cubic_lattice, lattice_json  # noqa: E402


def _outcome(f, *args):
    try:
        return f(*args)
    except QuadorError as exc:
        return exc


def _error(exc) -> tuple:
    return type(exc), exc.code, str(exc)


def expected_beams(lattice: Lattice) -> list:
    """Per lattice beam, the reference beam or the first error it holds: a
    missing or failed hub's, in hub order, then the beam's own."""
    hubs = {}
    for h in lattice.hubs:
        hubs.setdefault(h.id, h)
    spheres = {hub_id: _outcome(reference_sphere, h) for hub_id, h in hubs.items()}
    out = []
    for b in lattice.beams:
        missing = [hub_id for hub_id in (b.hub_a, b.hub_b) if hub_id not in hubs]
        unknown = MissingIdError(f"beam {b.id!r} references unknown hub(s) {missing}")
        ends = [spheres.get(hub_id, unknown) for hub_id in (b.hub_a, b.hub_b)]
        failed = next((e for e in ends if isinstance(e, QuadorError)), None)
        out.append(failed or _outcome(reference_beam, b, hubs[b.hub_a], hubs[b.hub_b], *ends))
    return out


def reference_bits(ref) -> bytes:
    """A reference beam's numbers in the order of :func:`row_bits`."""
    G = [[*G.g, G.c0] for G in (ref.G_a, ref.G_b)]
    H = ([h.A for h in (ref.H_a, ref.H_b)], [h.b for h in (ref.H_a, ref.H_b)],
         [ref.H_a.c, ref.H_b.c])
    return b"".join(np.asarray(a, dtype=float).tobytes()
                    for a in (G, *H, [ref.axis, -ref.axis], ref.length, ref.lam, ref.g0))


def row_bits(stack, i: int) -> bytes:
    """Row ``i`` of a beam stack: both ends' G, H and axis, then length, lam and g0."""
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        stack.G[:, i], *(h[:, i] for h in stack.H), stack.axis[:, i],
        stack.length[i], stack.lam[i], stack.g0[i]))


def assert_row(expect, stack, i: int) -> None:
    got = stack.errors[i]
    if isinstance(expect, QuadorError):
        assert got is not None and _error(got) == _error(expect)
    else:
        assert got is None and row_bits(stack, i) == reference_bits(expect)


def assert_lattice_rows(lattice: Lattice) -> None:
    """Every hub sphere row and every beam row against the references."""
    resolved = lattice._resolved
    spheres = resolved.spheres
    for i, hub in enumerate(lattice.hubs):
        expect = _outcome(reference_sphere, hub)
        if isinstance(expect, QuadorError):
            assert _error(spheres.errors[i]) == _error(expect)
        else:
            assert spheres.errors[i] is None
            for got, want in zip(spheres.Q, (expect.A, expect.b, expect.c)):
                assert np.ascontiguousarray(got[i]).tobytes() == np.asarray(want).tobytes()
    stack = resolved.geometry
    expected = expected_beams(lattice)
    assert len(stack) == len(expected)
    for i, expect in enumerate(expected):
        assert_row(expect, stack, i)


def lattices() -> dict[str, Lattice]:
    """The fixtures, the seeded and the benchmark cubics, jittered cubics and
    random lattices."""
    out = {p.stem: load_lattice_path(p) for p in sorted((ROOT / "fixtures").glob("*.json"))}
    for shape, seeds in (((2, 2, 2), range(5)), ((3, 3, 3), (1,)), ((4, 4, 4), (0, 5))):
        for seed in seeds:
            out[f"cubic{shape[0]}_s{seed}"] = load_lattice(
                lattice_json(cubic_lattice(shape, seed)).encode())
    out.update((f"jittered_s{seed}", jittered_cubic(seed)) for seed in range(10))
    out.update((f"random_s{seed}", random_specs(seed)[0]) for seed in range(40))
    # Radii whose square by libm's pow, as Python's ** takes it, is not r * r.
    radii = (1.0215461344915457, 0.9322455407947218, 0.9841574665463432)
    assert all(r**2 != r * r for r in radii)
    centers = ((0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 4.0, 0.0))
    hubs = tuple(Hub(f"h{i}", c, r) for i, (c, r) in enumerate(zip(centers, radii)))
    out["pow_squares"] = Lattice(hubs, (Beam("b1", "h0", "h1", 4.0), Beam("b2", "h0", "h2", 4.0)))
    return out


LATTICES = lattices()


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_rows_equal_object_references(name):
    assert_lattice_rows(LATTICES[name])


def test_failed_hubs_and_missing_ids_keep_their_errors(perp_lattice):
    h0, h1, h2 = perp_lattice.hubs
    hubs = (Hub("h0", h0.center, -1.0), h1, Hub("h2", (1e200, 0.0, 0.0), 1.0),
            Hub("h3", h1.center, math.inf), Hub("h4", (0.0, 0.0, 4.0), 1.0))
    beams = (Beam("b1", "h0", "h1", 4.0), Beam("b2", "h1", "h2", 4.0),
             Beam("b3", "h3", "ghost", 4.0), Beam("b4", "ghost", "h4", 4.0),
             Beam("b5", "h1", "h4", 0.0), Beam("b6", "h4", "h4", 4.0),
             Beam("b7", "h1", "h4", 1e-320), Beam("b8", "h1", "h4", 0.1))
    lattice = Lattice(hubs, beams)
    assert_lattice_rows(lattice)
    codes = [e.code for e in lattice._resolved.geometry.errors]
    assert codes == ["NONPOSITIVE_RADIUS", "CENTER_OVERFLOW", "RADIUS_OVERFLOW", "MISSING_ID",
                     "DEGENERATE_K", "COINCIDENT_HUBS", "DEGENERATE_K", "PLANE_MISSES_SPHERE"]


def test_one_row_calls_keep_the_stacked_rows():
    lattice = LATTICES["jittered_s3"]
    stack = lattice._resolved.geometry
    hubs = {h.id: h for h in lattice.hubs}
    for i, b in enumerate(lattice.beams):
        geom = beam_quador(hubs[b.hub_a], hubs[b.hub_b], b.k)
        assert row_bits(geom.stack, 0) == row_bits(stack, i)
        bg = stack[i]
        assert (bg.length, bg.lam, bg.g0) == (geom.length, geom.lam, geom.g0)
        assert bg.stub_a.H.coeffs().tobytes() == geom.stub_a.H.coeffs().tobytes()
    for hub in lattice.hubs:
        assert sphere_quadric(hub).coeffs().tobytes() == reference_sphere(hub).coeffs().tobytes()


def test_views_read_their_row():
    stack = LATTICES["cubic2_s0"]._resolved.geometry
    bg = stack[-1]
    assert bg.row == len(stack) - 1 and bg.beam is stack.beams[-1]
    assert bg.stub_a is stack.stubs[-1][0] and bg.stub_a is stack[-1].stub_a
    for end, view in enumerate((bg.stub_a, bg.stub_b)):
        assert view.hub is stack.hubs[-1][end] and view.beam is bg.beam
        assert np.asarray([*view.G.g, view.G.c0]).tobytes() == stack.G[end, -1].tobytes()
        assert view.axis.tobytes() == stack.axis[end, -1].tobytes()
        assert not view.axis.flags.writeable
    with pytest.raises(TypeError, match="BeamStack takes integer indices, not str"):
        stack["0"]
    with pytest.raises(IndexError):
        stack[len(stack)]


MAGNITUDE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
SIGNED = st.builds(lambda s, m: s * m, st.sampled_from([-1.0, 1.0]), MAGNITUDE)
K = st.one_of(SIGNED, st.sampled_from([0.0, math.inf, -math.inf, math.nan, 1e-320]))


@st.composite
def four_hub_lattices(draw) -> Lattice:
    """Four hubs with centers at 10^-3 to 10^3 and radii 10^-2 to 10^1, and up
    to eight beams between them, self-loops included: most at ``k =
    +-10^+-3`` or an edge value, where they mostly fail, the others at a
    ``k`` where both tangency planes cut their spheres."""
    hubs = tuple(Hub(f"h{i}", tuple(draw(st.lists(SIGNED, min_size=3, max_size=3))),
                     10.0 ** draw(st.floats(-2.0, 1.0))) for i in range(4))
    beams = []
    for n, (i, j) in enumerate(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                             min_size=1, max_size=8))):
        a, b = hubs[i], hubs[j]
        k = draw(K)
        if i != j and draw(st.booleans()):
            with contextlib.suppress(ValueError):  # no k cuts both spheres
                k = math.copysign(_k(a.center, a.radius, b.center, b.radius,
                                     draw(st.floats(0.0, 1.0))), k)
        beams.append(Beam(f"b{n}", a.id, b.id, k))
    return Lattice(hubs, tuple(beams))


@settings(max_examples=150, deadline=None)
@given(four_hub_lattices())
def test_rows_keep_the_reference_bits_or_its_first_error(lattice):
    assert_lattice_rows(lattice)
    errors = lattice._resolved.errors
    hubs = {h.id: h for h in lattice.hubs}
    for i, b in enumerate(lattice.beams):
        reports = [e.code for e in errors if e.subject == b.id]
        if b.hub_a == b.hub_b:
            assert reports == ["SELF_LOOP"]
        geom = _outcome(beam_quador, hubs[b.hub_a], hubs[b.hub_b], b.k)
        if isinstance(geom, QuadorError):
            assert_row(geom, lattice._resolved.geometry, i)
        else:
            assert row_bits(geom.stack, 0) == row_bits(lattice._resolved.geometry, i)
