"""Every output byte of the golden run (tests/golden.py), against this host's pinned digests."""

import json

import numpy as np
import pytest

import golden
from gradsense import runner


def test_outputs_match_pinned_digests():
    key, digests = golden.run_in_child()
    pinned = json.loads(golden.GOLDEN.read_text())
    if key not in pinned:
        pytest.skip(f"no golden digests pinned for host key {key!r}; "
                    f"`python tests/golden.py --write` pins them")
    moved = golden.moved(pinned[key], digests)
    assert not moved, f"{len(moved)} output files moved from the pinned digests: {moved}"


def test_forced_kernel_outputs_match_pinned_digests():
    # numpy's SIMD loops differ between host families, so a forced-kernel entry
    # holds only on the native kernel it was recorded on
    native = f"{runner.blas_core()}/{np.__version__}"
    pinned = json.loads(golden.GOLDEN.read_text())
    if not any(key.endswith(f"@{native}") for key in pinned):
        pytest.skip(f"no forced-kernel golden digests pinned for host key {native!r}")
    forced = golden.run_forced(native)
    if forced is None:
        pytest.skip(f"OPENBLAS_CORETYPE={golden.FORCED_CORETYPE} is this host's own kernel")
    key, digests = forced
    if key not in pinned:
        pytest.skip(f"no golden digests pinned for forced-kernel key {key!r}")
    moved = golden.moved(pinned[key], digests)
    assert not moved, (f"{len(moved)} output files moved from the {key!r} digests "
                       f"under OPENBLAS_CORETYPE={golden.FORCED_CORETYPE}: {moved}")
