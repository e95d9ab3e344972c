"""Every output byte of the golden run (tests/golden.py), against this host's pinned digests."""

import json

import pytest

import golden


def test_outputs_match_pinned_digests():
    key, digests = golden.run_in_child()
    pinned = json.loads(golden.GOLDEN.read_text())
    if key not in pinned:
        pytest.skip(f"no golden digests pinned for host key {key!r}; "
                    f"`python tests/golden.py --write` pins them")
    expected = pinned[key]
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if expected.get(name) != digests.get(name))
    assert not moved, f"{len(moved)} output files moved from the pinned digests: {moved}"
