"""Output digests of one small run, pinned per host in tests/golden_digests.json.

The run is test_runner's tiny config with every ablation mode, patches 1, 3
and 5, and a second target at the grid's south-west corner, so the grid edge
clips its influence window and its noise patches.  A second run is the
benchmark's bench-desk config (perfbench/run.py) at seed 7; its digests carry
the prefix "bench-desk/".  Both run in a child interpreter with one BLAS
thread.  The digests are the sha256 of every file under data/, tables/ and
results/, keyed by "{blas core}/{numpy version}": the model's GEMMs round
differently under another OpenBLAS kernel.

Each x86 host also pins the same runs under OPENBLAS_CORETYPE=Prescott, the
lowest x86-64 kernel (blas_core() names it "Katmai").  That entry's key names
both kernels, "{forced core}@{native key}", e.g. "Katmai@SkylakeX/2.4.6": the
forced kernel fixes the GEMMs' rounding, but numpy's own SIMD loops (np.tanh,
np.exp) still dispatch on the host's CPU, so an entry holds only for the
native kernel it was recorded on.  A change that keeps every byte under the
forced kernel but moves the native kernel's last bits is checked exactly by
this entry.  Where the forced kernel is the native one (non-x86 hosts) there
is no second entry.

Rewrite this host's entries after a deliberate change of the outputs:

    python tests/golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
HASHED_DIRS = ("data", "tables", "results")
BENCH_DESK_SEED = 7
FORCED_CORETYPE = "Prescott"


def _digests(cfg, prefix: str = "") -> dict[str, str]:
    """Run `cfg` into its empty out_dir; the digest of every hashed output file."""
    from gradsense import runner

    manifest = runner.run_full(cfg)
    if not manifest["ok"]:
        raise RuntimeError(f"the golden run failed: {manifest.get('failures')}")
    root = Path(cfg.out_dir)
    return {prefix + str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for d in HASHED_DIRS for p in sorted((root / d).rglob("*")) if p.is_file()}


def _run_here() -> dict:
    """Run the golden configs in this process; the host key and the output digests."""
    from dataclasses import replace

    import numpy as np

    from gradsense import config, runner
    from run import bench_desk  # perfbench/run.py, imported read-only
    from test_runner import tiny_config

    with tempfile.TemporaryDirectory() as tmp:
        base = tiny_config(Path(tmp) / "tiny")
        digests = _digests(replace(
            base, targets=base.targets + (config.TargetConfig("corner", 35.5, -9.5),),
            modes=("mean_replace", "scale_bias", "additive_noise"), patches=(1, 3, 5)))
        desk = config.config_from_dict(bench_desk(BENCH_DESK_SEED, str(Path(tmp) / "desk")))
        digests.update(_digests(desk, prefix="bench-desk/"))
    return {"key": f"{runner.blas_core()}/{np.__version__}", "digests": digests}


def run_in_child(coretype: str | None = None) -> tuple[str, dict[str, str]]:
    """The golden run in a child interpreter with one BLAS thread: (host key, digests).

    With `coretype` the child runs under OPENBLAS_CORETYPE=coretype, and the
    key is the child's, which names the kernel it got.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE),
                                           str(HERE.parent / "perfbench")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--print"], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"the golden run exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["key"], result["digests"]


def run_forced(native_key: str) -> tuple[str, dict[str, str]] | None:
    """The golden run under FORCED_CORETYPE: ("{forced core}@{native key}", digests).

    None when the forced kernel is the native one, so there is nothing to pin.
    """
    key, digests = run_in_child(FORCED_CORETYPE)
    core = key.split("/")[0]
    if core == native_key.split("/")[0]:
        return None
    return f"{core}@{native_key}", digests


def moved(expected: dict[str, str], digests: dict[str, str]) -> list[str]:
    """The output files whose digest differs from, or is missing in, either set."""
    return sorted(name for name in expected.keys() | digests.keys()
                  if expected.get(name) != digests.get(name))


def main(argv: list[str]) -> None:
    if argv == ["--print"]:
        print(json.dumps(_run_here()))
    elif argv == ["--write"]:
        key, digests = run_in_child()
        entries = {key: digests}
        forced = run_forced(key)
        if forced is not None:
            entries[forced[0]] = forced[1]
        pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        pinned.update(entries)
        GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        for key, digests in entries.items():
            print(f"wrote {len(digests)} digests under {key!r} to {GOLDEN}")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
