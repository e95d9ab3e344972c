"""One gradsense call in a fresh interpreter, started by perfbench/run.py.

Usage: python3 perfbench/child.py JOB.json

The job names the repository root, the config dict, the stage filter and
whether to trace.  The child imports gradsense from `<root>/src` (and refuses
any other copy), validates the config, and notes the moment it is ready; the
driver subtracts its own spawn time from that to get `setup_s`.  In "run" mode
it then times `runner.run_full` and writes wall time, CPU time, peak RSS, the
manifest's stage status and file digests, and the spans of a traced run to the
job's result path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    src = (Path(job["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import gradsense
    from gradsense import runner
    if Path(gradsense.__file__).resolve().parent != src / "gradsense":
        raise SystemExit(f"gradsense was imported from {gradsense.__file__}, not from {src}")
    cfg = runner.config_from_dict(job["config"])
    result: dict = {"ready": time.monotonic()}
    if job["mode"] == "run":
        tracer = None
        if job["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(gradsense)
        stages = tuple(job["stages"]) if job["stages"] else None
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            manifest = runner.run_full(cfg, stage_filter=stages)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(wall_s=wall, cpu_s=_cpu_s(after) - _cpu_s(before),
                      stages=manifest["stages"], files=manifest["files"],
                      grid_cells=len(cfg.variables) * cfg.n_lat * cfg.n_lon)
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
