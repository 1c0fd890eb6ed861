"""The stacked fillet construction, row by row.

``build_fillet_for_spec`` builds a sequence of specs as one
:class:`FilletStack`, and ``fillet_extent`` and
``fillet_min_curvature_radius`` read a stack in one call.  Each row must
give the bits, and the coded error, that the row on its own gives; the
frozen digests pin those bits to the ones the per-object construction gave
before the stack replaced it.
"""

import dataclasses
import hashlib
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import quador.conics
import quador.fillet
from quador.algebra import Quadric, classify_quadric
from quador.errors import QuadorError
from quador.fillet import (
    PLANE_PAIR_CLASSES,
    FilletPatch,
    FilletStack,
    _plane_pairs,
    build_fillet,
    build_fillet_for_spec,
    fillet_extent,
    fillet_min_curvature_radius,
)
from quador.lattice import Beam, FilletSpec, Hub, Lattice, stub_views_at_hub
from quador.latticefile import load_lattice, load_lattice_path
from quador.verify import BETA_GRID, run_verify

from test_fillet import jittered_cubic
from test_random_lattices import random_lattice, random_specs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from inputs import cubic_lattice, lattice_json  # noqa: E402


def moved(lattice: Lattice, offset) -> Lattice:
    """The lattice with every hub center moved by ``offset``."""
    hubs = tuple(Hub(h.id, tuple(c + d for c, d in zip(h.center, offset)), h.radius)
                 for h in lattice.hubs)
    return Lattice(hubs, lattice.beams, lattice.fillets)


def lattices() -> dict[str, Lattice]:
    """The filleted fixtures, the seeded cubics and random valid lattices."""
    perpendicular = load_lattice_path(ROOT / "fixtures" / "perpendicular_beta1.json")
    out = {
        "perpendicular_beta1": perpendicular,
        "perpendicular_beta05": load_lattice_path(ROOT / "fixtures" / "perpendicular_beta05.json"),
        "jittered_cubic5": jittered_cubic(5),
        "perpendicular_beta1_moved": moved(perpendicular, (1e4, 1e4, 1e4)),
    }
    for seed in range(5):
        out[f"cubic_s{seed}"] = load_lattice(lattice_json(cubic_lattice((2, 2, 2), seed)).encode())
    for seed in range(10):
        out[f"random_s{seed}"] = random_lattice(seed)[0]
    return out


def _update(h, *arrays):
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())


def _patch_bits(h, p) -> None:
    """Every number a patch holds, and its conics' classes, into ``h``."""
    _update(h, [p.alpha, p.beta], p.bisector)
    for f in (p.F_plus, p.F_minus, p.E1, p.E2):
        _update(h, f.g, [f.c0])
    _update(h, p.Q.A, p.Q.b, [p.Q.c])
    for c in (p.conic1, p.conic2):
        h.update(c.klass.value.encode())
        _update(h, c.frame.origin, c.frame.u, c.frame.v, c.frame.normal, c.coeffs, c.radii)
        for a in (c.center, c.axes):
            h.update(b"-" if a is None else np.asarray(a, dtype=float).tobytes())
        for base, d in c.lines:
            _update(h, base, d)


def patch_digest(lattice: Lattice) -> str:
    """The bits of each row of the lattice's fillet stack, ``b"none"`` for a failed one."""
    h = hashlib.sha256()
    stack = lattice._resolved.fillets
    for i, error in enumerate(stack.errors):
        if error is None:
            _patch_bits(h, stack[i])
        else:
            h.update(b"none")
    return h.hexdigest()


def grid_digest(lattice: Lattice) -> str:
    """Every (fillet, beta) row's extent and radius bits or coded errors, and
    the beta-grid checks of ``run_verify``."""
    h = hashlib.sha256()
    for spec in lattice.fillets:
        for beta in BETA_GRID:
            try:
                patch = build_fillet_for_spec(lattice, dataclasses.replace(spec, beta=beta))
            except QuadorError as exc:
                h.update(exc.code.encode())
                continue
            for f in (fillet_extent, fillet_min_curvature_radius):
                try:
                    h.update(struct.pack("<d", f(patch)))
                except QuadorError as exc:
                    h.update(exc.code.encode())
    for c in run_verify(lattice, samples=200).checks:
        if c.name in ("extent_monotonicity", "curvature_radius_monotonicity"):
            h.update(f"{c.name} {c.status} {c.detail}\n".encode())
    return h.hexdigest()


# Betas that are not positive and finite, and some far off the grid, where
# the tangency conic or the wedge orientation fails.
ODD_BETAS = (0.0, -1.0, math.inf, math.nan, 0.01, 0.1, 10.0)


def drawn_rows(seed: int) -> tuple[Lattice, list[FilletSpec]]:
    """Every spec drawn for a random lattice, rejected ones kept, at its own
    beta, at every beta of the grid and at the odd betas."""
    bare, specs = random_specs(seed)
    return bare, [dataclasses.replace(s, beta=b)
                  for s in specs for b in (s.beta, *BETA_GRID, *ODD_BETAS)]


def collinear_rows() -> tuple[Lattice, list[FilletSpec]]:
    """Two opposite stubs at the middle hub of three in a row: parallel stub
    planes, at every beta of the grid and at the odd betas."""
    hubs = tuple(Hub(name, (4.0 * i, 0.0, 0.0), 1.0) for i, name in enumerate("abc"))
    lattice = Lattice(hubs, (Beam("b1", "a", "b", 4.0), Beam("b2", "b", "c", 4.0)), ())
    return lattice, [FilletSpec("b", "b1", "b2", b) for b in (*BETA_GRID, *ODD_BETAS)]


def drawn_digest(seeds) -> str:
    h = hashlib.sha256()
    for bare, specs in [*map(drawn_rows, seeds), collinear_rows()]:
        for spec in specs:
            try:
                patch = build_fillet_for_spec(bare, spec)
            except QuadorError as exc:
                h.update(exc.code.encode())
                continue
            _update(h, patch.Q.A, patch.E1.g, [patch.E1.c0, patch.E2.c0])
            h.update(patch.conic1.klass.value.encode() + patch.conic2.klass.value.encode())
            for f in (fillet_extent, fillet_min_curvature_radius):
                try:
                    h.update(struct.pack("<d", f(patch)))
                except QuadorError as exc:
                    h.update(exc.code.encode())
    return h.hexdigest()


# Recorded with the per-object construction that the stack replaced; each
# pair is (loaded patches, beta-grid rows).  The cubic seeds differ only in
# beta, so their grids agree, and so do the two perpendicular fixtures'.
CUBIC_GRID = "7f5f59f7b8a391a63930bc9db4dc09c704c42c6432b27557346f41fb2558cc26"
PERPENDICULAR_GRID = "bada1137eb1eedcec8da962af3c83e611f0d0759a74b50c1612efb885ec4ebc4"
FROZEN = {
    "perpendicular_beta1": ("47801f77357784858566ad98184e34f7b444cfa028fcbc00ba1b43bb0a3b1012",
                            PERPENDICULAR_GRID),
    "perpendicular_beta05": ("0c399b721566c69e0e40c1a21bd087de27e2d26d79011dd0b08703c41a8ecbcb",
                             PERPENDICULAR_GRID),
    "jittered_cubic5": ("757edd632fd480563e4d1e7c3a8d47d3e09cd4dd4e3e19eef0dc94b582def7c9",
                        "6ab294ff6905e9c98e789dd81294fdf825d4309a53bf18f0b46188cd8306b7fe"),
    "perpendicular_beta1_moved": (
        "e2dff4182de35adea34e9942c7f05e03f9ae122ef5481ea411300f4ea8284b85",
        "5368b2b79ae04cbceef209f6c823f091a60346310dfdad160ffcd0717b6de171"),
    "cubic_s0": ("ad5c6e126f91a7e5aeef41122e429cc03441fe2d6a7aed266004cdd70afdb6f6", CUBIC_GRID),
    "cubic_s1": ("13ab8d63ec2f85949bbcff78d9bedff284735435b89ecf25bc71f8a91db98a25", CUBIC_GRID),
    "cubic_s2": ("47a7c1a628618d991363586380696624da76afde5fd2dc15659f5eedb443f320", CUBIC_GRID),
    "cubic_s3": ("e1e5252239775c42dcc4ba68aed3af09953654ba77ce592d09ead5e51bfbedbd", CUBIC_GRID),
    "cubic_s4": ("bd534644e23b4c9823339bb9ecd28d806dc4246e6fe255d7e5f4a2a1338604ec", CUBIC_GRID),
    "random_s0": ("f181d984aec6a5583b3d8621d7133b4aca22cf267ad04ca815f048e3ece4440a",
                  "97c154b15a3c75271d24cd31e99db2fd360c0c89bb4e688d4622844db1258d29"),
    "random_s1": ("76df78e60130da1f2473adc1786362a8ffe026777d5a1f9573a46e858e9a9459",
                  "c8d01378cd4cbc9f40be896d4075b47394cf49da089a8783695230ac37f6cb06"),
    "random_s2": ("c03fec9293b6f512c8674e96dac12f408035d505deabaca781cfa3b4546afc11",
                  "dc3ad78e5bc446b98b07b6362a792987fc32ff3483d41ce089681b4223772861"),
    "random_s3": ("63979e7f08ff6c8c16f8b092e83402c68d011e1b44597a0c1af71a5670f3a877",
                  "010396c8ca06d79f071e3c77b1417024790749d78bf716fb949a8103d24d986a"),
    "random_s4": ("a2f50eff4841904aa51e1042d294105208dd594a1ec6b1f71d5cef173e1c3190",
                  "38dbf28236a5786ef4d167df8a0ceb0c42bd69889d979bbc4d203c59e10c7541"),
    "random_s5": ("c0fd2059614a71ef30b3fa3072262d95916e39fe6687c4088f768f72ec7ad26d",
                  "3a25928204f1f5168e71f96d71d1ce4a4e174cb0132a5052328842ab0e5e930c"),
    "random_s6": ("cdee7bbd8dbcf0c34124ce0b516e2a90074e75fe73d1eaed227453c10270eac9",
                  "b594164d5ec81f7202a83d0189f42da8b1894464e2dd68803e73ca6a3c37bdbf"),
    "random_s7": ("2302d7ac62f935a38ec608a494678a3a0dbb8aa9a8496f3a5452ad1c21696ec8",
                  "f3985b353e0bb197753083d9a777376d41aa936d1c7873baf1c716f8a2fba615"),
    "random_s8": ("665389257a7380477664919e5f5f7832a6c61262dfcd98d564546010cd0b3251",
                  "f0f8982d623ebfaa54688490cba60eec89df81f1c8265d8bc3cdf9d4140e4d93"),
    "random_s9": ("c20e201121550edadc3c4524517bc1e6f8cbbe3b83c88d55752a2310b5c11441",
                  "ef19568253d496b18ece6843167037d5f28ab539ce8c0055dc94f69b62947c2d"),
}
DRAWN = "715a1263662a8395fb031876be43e0b3baa9428d6c3d6a53dcf16daa4d41eb83"  # seeds 0-4, collinear


LATTICES = lattices()


class TestFrozenDigests:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_patches_and_beta_grid(self, name):
        lattice = LATTICES[name]
        assert (patch_digest(lattice), grid_digest(lattice)) == FROZEN[name]

    def test_drawn_specs_rejected_ones_kept(self):
        assert drawn_digest(range(5)) == DRAWN


def stacks():
    """(lattice, specs) per case: every fillet at every beta of the grid on
    the fixtures and cubic seeds, and the drawn random specs, rejected ones
    kept."""
    for name in ["perpendicular_beta1", "perpendicular_beta05", "jittered_cubic5",
                 "perpendicular_beta1_moved", *(f"cubic_s{s}" for s in range(5))]:
        lattice = LATTICES[name]
        yield name, lattice, [dataclasses.replace(spec, beta=beta)
                              for spec in lattice.fillets for beta in (spec.beta, *BETA_GRID)]
    for seed in range(5):
        yield (f"drawn_s{seed}", *drawn_rows(seed))
    yield ("collinear", *collinear_rows())


STACKS = list(stacks())


def _outcome(f, *args):
    try:
        return f(*args)
    except QuadorError as exc:
        return exc


def _same(a, b) -> bool:
    """Same coded error, or the same float bits."""
    if isinstance(a, QuadorError) or isinstance(b, QuadorError):
        return type(a) is type(b) and a.code == b.code and str(a) == str(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _bits(patch) -> str:
    h = hashlib.sha256()
    _patch_bits(h, patch)
    return h.hexdigest()


class TestRowAgainstStack:
    @pytest.mark.parametrize("name, lattice, specs", STACKS, ids=[s[0] for s in STACKS])
    def test_each_row_alone_gives_the_stack_row(self, name, lattice, specs):
        stack = build_fillet_for_spec(lattice, specs)
        assert isinstance(stack, FilletStack) and len(stack) == len(specs)
        extents, radii = fillet_extent(stack), fillet_min_curvature_radius(stack)
        codes = set()
        for i, spec in enumerate(specs):
            alone = _outcome(build_fillet_for_spec, lattice, spec)
            row = _outcome(stack.__getitem__, i)
            if isinstance(alone, QuadorError):
                codes.add(alone.code)
                assert _same(row, alone) and _same(stack.errors[i], alone)
                assert _same(extents[i], alone) and _same(radii[i], alone)
                continue
            assert stack.errors[i] is None
            assert _bits(row) == _bits(alone)
            assert _bits(build_fillet(alone.stub1, alone.stub2, spec.beta)) == _bits(alone)
            assert _same(extents[i], fillet_extent(alone))
            assert _same(radii[i], _outcome(fillet_min_curvature_radius, alone))
        if name.startswith("drawn"):
            assert {"NONPOSITIVE_BETA", "WEDGE_ORIENTATION"} <= codes
        if name == "collinear":
            assert codes == {"NONPOSITIVE_BETA", "PARALLEL_STUBS"}

    def test_drawn_rows_reach_each_rejection(self):
        codes = {e.code for _, lattice, specs in STACKS if lattice.fillets == ()
                 for e in build_fillet_for_spec(lattice, specs).errors if e is not None}
        assert codes == {"NONPOSITIVE_BETA", "PARALLEL_STUBS", "WEDGE_ORIENTATION", "EMPTY_CONIC"}

    def test_rejected_rows_keep_their_precedence(self):
        # One stack holding a row for each check, each failing at its own
        # first check: beta, then the stub planes, then the wedge.
        bare, specs = random_specs(0)
        wedge = next(s for s, e in zip(specs, build_fillet_for_spec(bare, specs).errors)
                     if e is not None and e.code == "WEDGE_ORIENTATION")
        view = next(v for v in stub_views_at_hub(bare, wedge.hub)
                    if v.beam.id == wedge.beam_i)
        rows = [dataclasses.replace(wedge, beta=0.0), dataclasses.replace(wedge, beta=math.nan),
                wedge, dataclasses.replace(wedge, beam_j=wedge.beam_i),
                dataclasses.replace(wedge, hub="nowhere")]
        stack = build_fillet_for_spec(bare, rows)
        assert [e.code for e in stack.errors] == [
            "NONPOSITIVE_BETA", "NONPOSITIVE_BETA", "WEDGE_ORIENTATION",
            "FILLET_PAIR_MISMATCH", "MISSING_ID"]
        assert str(stack.errors[0]) == "fillet beta=0.0"
        # Parallel stubs: a stub against itself fails at the planes, before the
        # identity or the wedge.
        with pytest.raises(QuadorError) as raised:
            build_fillet(view, view, 0.0)
        assert raised.value.code == "NONPOSITIVE_BETA"
        with pytest.raises(QuadorError) as raised:
            build_fillet(view, view, 1.0)
        assert raised.value.code == "PARALLEL_STUBS"

    def test_a_stack_takes_integer_indices(self):
        lattice = LATTICES["jittered_cubic5"]
        stack = build_fillet_for_spec(lattice, lattice.fillets)
        assert _bits(stack[np.int64(1)]) == _bits(stack[1]) == _bits(stack[1 - len(stack)])
        for index in (slice(0, 1), 1.0, "0"):
            with pytest.raises(TypeError, match="^FilletStack takes integer indices, not "):
                stack[index]
        with pytest.raises(IndexError):
            stack[len(stack)]

    def test_a_patch_is_a_read_only_view_of_its_row(self, monkeypatch):
        lattice = LATTICES["jittered_cubic5"]
        stack = build_fillet_for_spec(lattice, lattice.fillets)
        assert [f.name for f in dataclasses.fields(FilletPatch)] == ["stack", "row"]
        for module, name in ((quador.fillet, "LinearForm"), (quador.fillet, "Quadric"),
                             (quador.conics, "Conic"), (quador.conics, "PlaneFrame")):
            monkeypatch.setattr(module, name, None)  # building one raises TypeError
        patch = stack[-1]
        assert (patch.stack, patch.row) == (stack, len(stack) - 1)
        assert repr(patch) == f"FilletPatch(row={len(stack) - 1})"
        with pytest.raises(TypeError):
            patch.Q
        monkeypatch.undo()
        assert _bits(patch) == _bits(build_fillet(patch.stub1, patch.stub2, patch.beta))
        for array in (patch.bisector, patch.Q.A, patch.Q.b, patch.E1.g, patch.F_minus.g):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            patch.Q = None
        # A fillet changes with its stack's arrays: a new stack's row reads them.
        A, b, c = stack.Q
        edited = dataclasses.replace(stack, Q=(A, b, c + 1.0))[patch.row]
        assert edited.Q.c == patch.Q.c + 1.0 and _bits(stack[-1]) == _bits(patch)

    def test_a_list_of_patches_reads_like_the_stack(self):
        lattice = LATTICES["jittered_cubic5"]
        stack = build_fillet_for_spec(lattice, lattice.fillets)
        patches = list(stack)
        assert _bits(stack[-1]) == _bits(patches[-1])
        for f in (fillet_extent, fillet_min_curvature_radius):
            assert all(_same(a, b) for a, b in zip(f(patches), f(stack)))


class TestChamferDecision:
    """The stacked plane-pair flag skips the Jacobi sweep only where it proves
    rank 3, and gives classify_quadric's answer on every row."""

    @staticmethod
    def flags_match(stack) -> int:
        """Assert the flags; return how many rows fell back to classify_quadric."""
        live = [i for i, e in enumerate(stack.errors) if e is None]
        A, b, c = stack.Q
        expect = [classify_quadric(Quadric(A[i], b[i], c[i])).label in PLANE_PAIR_CLASSES
                  for i in live]
        calls = []
        original = quador.fillet.classify_quadric
        quador.fillet.classify_quadric = lambda q: calls.append(q) or original(q)
        try:
            flags = _plane_pairs(stack.Q, stack.errors)
        finally:
            quador.fillet.classify_quadric = original
        assert [flags[i] for i in live] == expect
        return len(calls)

    @pytest.mark.parametrize("name, lattice, specs", STACKS, ids=[s[0] for s in STACKS])
    def test_flag_is_classify_quadric_label(self, name, lattice, specs):
        fallbacks = self.flags_match(build_fillet_for_spec(lattice, specs))
        if name.startswith("cubic"):
            assert fallbacks == 0  # every cubic row is proven rank 3

    def test_all_zero_quadric_is_its_error(self):
        # Subnormal coefficients: not proven rank 3, and classify_quadric
        # raises ALL_ZERO, which the flag holds in the row's place.
        A = np.diag([1e-310, 1e-310, 0.0])[None]
        flags = _plane_pairs((A, np.zeros((1, 3)), np.zeros(1)), (None,))
        assert [f.code for f in flags] == ["ALL_ZERO"]

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (1e4, 1e4, 1e4)])
    def test_at_and_near_beta_half(self, offset):
        lattice = moved(load_lattice_path(ROOT / "fixtures" / "perpendicular_beta1.json"), offset)
        spec = lattice.fillets[0]
        betas = [0.5 + s * d for d in (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1) for s in (-1, 1)]
        stack = build_fillet_for_spec(lattice, [dataclasses.replace(spec, beta=b) for b in betas])
        assert self.flags_match(stack) >= 2  # beta 0.5 itself is a plane pair
        assert stack[0].is_chamfer is True and stack[-1].is_chamfer is False
        assert fillet_min_curvature_radius(stack)[0] == math.inf
