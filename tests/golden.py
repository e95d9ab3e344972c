"""Output digests of one small run, pinned per host in tests/golden_digests.json.

The run is test_runner's tiny config with every ablation mode, patches 1, 3
and 5, and a second target at the grid's south-west corner, so the grid edge
clips its influence window and its noise patches.  A second run is the
benchmark's bench-desk config (perfbench/run.py) at seed 7; its digests carry
the prefix "bench-desk/".  Both run in a child interpreter with one BLAS
thread.  The digests are the sha256 of every file under data/, tables/ and
results/, keyed by "{blas core}/{numpy version}": the model's GEMMs round
differently under another OpenBLAS kernel.

Rewrite this host's entry after a deliberate change of the outputs:

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


def run_in_child() -> tuple[str, dict[str, str]]:
    """The golden run in a child interpreter with one BLAS thread: (host key, digests)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE),
                                           str(HERE.parent / "perfbench")]))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--print"], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"the golden run exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["key"], result["digests"]


def main(argv: list[str]) -> None:
    if argv == ["--print"]:
        print(json.dumps(_run_here()))
    elif argv == ["--write"]:
        key, digests = run_in_child()
        pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        pinned[key] = digests
        GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests under {key!r} to {GOLDEN}")
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
