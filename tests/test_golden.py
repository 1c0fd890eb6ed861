"""Byte identity of every CLI output on the checked-in fixtures.

The reference digests and the function that recomputes them live with the
benchmark (``bench/digests.py``, ``bench/reference_digests.json``); this
test runs that function so tier-1 fails on any change to an output byte.
"""

import sys
from pathlib import Path

from quador.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from digests import fixture_digests, load_reference  # noqa: E402


def test_fixture_outputs_match_reference_digests(tmp_path):
    reference = load_reference()
    assert len(reference) == 24
    assert fixture_digests(main, ROOT / "fixtures", tmp_path) == reference
