"""Benchmark driver: times gradsense.runner.run_full on the bench-desk workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analysis-resume --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30

Every measured run is its own child process (perfbench/child.py) with the
BLAS/OpenMP thread caps in THREAD_CAPS.  With `--trace 0` the driver prints
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
runs and prints the per-layer metrics of the traced ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch output goes to `.perfbench_work/` under the root and is removed at exit.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

ANALYSIS_STAGES = ("fidelity", "methods", "calibrate", "select", "pay", "converge", "report")
# stage filter per workload; None runs every stage into an empty directory
WORKLOADS = {"full-fresh": None, "analysis-resume": ANALYSIS_STAGES}

# bench-desk input size: the smallest the pay and fidelity stages accept
# (README.md explains the time budget that forces it)
N_TIMESTAMPS = 10
BOOTSTRAP_RESAMPLES = 1000

THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_SAMPLES = 3  # setup-only children top up the samples the runs give
DEADLINE_S = 160.0  # start no run that would end later; an invocation must end by 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("output_mb", "MB")]


class BenchError(RuntimeError):
    """A child process crashed or ran out of time, so nothing was measured."""


def bench_desk(seed: int, out_dir: str) -> dict:
    """The bench-desk config as overrides of the built-in ExperimentConfig."""
    return {
        "seed": seed,
        "out_dir": out_dir,
        "targets": [{"name": "zurich", "lat": 47.4, "lon": 8.6},
                    {"name": "london", "lat": 51.5, "lon": -0.1}],
        "target_variables": ["t2m", "u10m"],
        "n_timestamps": N_TIMESTAMPS,
        "bootstrap_resamples": BOOTSTRAP_RESAMPLES,
        # the seed counts of the CLI's --fast variant
        "gaming": {"n_seeds": 3, "extended_seeds": 1, "scope_seeds": 1, "spoof_seeds": 3},
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


class Session:
    """One driver invocation: its scratch directory, children and checks."""

    def __init__(self, seed: int, deadline: float):
        self.seed = seed
        self.deadline = deadline
        self.work = WORK / f"s{seed}-p{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, **THREAD_CAPS)
        self.env.pop("PYTHONPATH", None)
        self.setup_s: list[float] = []
        self.checks: dict[str, list[int]] = {}  # owner -> [attempted, failed]
        self.problems: list[str] = []
        self._jobs = 0

    def check(self, owner: str, ok: bool, what: str) -> None:
        counts = self.checks.setdefault(owner, [0, 0])
        counts[0] += 1
        if not ok:
            counts[1] += 1
            self.problems.append(f"{owner}: {what}")

    def child(self, slot: Path, mode: str, stages=None, trace: bool = False) -> dict:
        """Run one child in `slot` (its cwd; output goes to `slot/out`)."""
        self._jobs += 1
        job_path = self.work / f"job{self._jobs}.json"
        result_path = self.work / f"result{self._jobs}.json"
        job = {"root": str(ROOT), "mode": mode, "config": bench_desk(self.seed, "out"),
               "stages": list(stages) if stages else None, "trace": trace,
               "result": str(result_path)}
        job_path.write_text(json.dumps(job))
        timeout = max(1.0, self.deadline + 15.0 - time.monotonic())
        spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  cwd=slot, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - spawn
        self.setup_s.append(result["setup_s"])
        return result

    def run(self, name: str, tag: str, prepared: Path | None, trace: bool) -> dict:
        """One measured run of workload `name` from a pristine copy of `prepared`."""
        stages = WORKLOADS[name]
        slot = self.work / tag
        if prepared is not None:
            shutil.copytree(prepared, slot / "out")
        else:
            (slot / "out").mkdir(parents=True)
        result = self.child(slot, "run", stages, trace)
        out = slot / "out"
        self._check_stages(name, tag, result, stages)
        written = [rel for rel in result["files"] if rel.startswith("results/")]
        self.check(name, bool(written), f"{tag}: wrote no results/ files")
        hashes = {rel: _sha256(out / rel) for rel in written}
        for rel, digest in hashes.items():
            self.check(name, result["files"][rel] == digest,
                       f"{tag}: {rel} does not match its manifest digest")
        if prepared is not None:
            for rel, digest in hashes.items():
                ref = prepared / rel
                self.check(name, ref.is_file() and _sha256(ref) == digest,
                           f"{tag}: {rel} differs from the set-up full-fresh run")
        result["digest"] = hashlib.sha256(
            "".join(f"{rel}\0{h}\n" for rel, h in sorted(hashes.items())).encode()).hexdigest()
        result["n_results"] = len(hashes)
        result["output_mb"] = _dir_mb(out)
        outcomes = out / "results" / "gaming_outcomes.csv"
        if outcomes.is_file():
            with open(outcomes, newline="") as fh:
                flags = [row["attack_reached_model"] for row in csv.DictReader(fh)]
            result["reached_frac"] = flags.count("True") / len(flags) if flags else 0.0
        shutil.rmtree(slot)
        return result

    def prepare(self) -> Path:
        """A full-fresh run of the code under test, made outside the timed region."""
        slot = self.work / "prepared"
        (slot / "out").mkdir(parents=True)
        self._check_stages("set-up", "prepared", self.child(slot, "run"), None)
        return slot / "out"

    def _check_stages(self, owner: str, tag: str, result: dict, stages) -> None:
        for stage in stages or tracing.STAGES:
            status = result["stages"].get(stage)
            self.check(owner, status == "completed", f"{tag}: stage {stage} is {status!r}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(session: Session, names: list[str], seconds: float, trace: bool) -> dict:
    """Alternate the workloads (and traced/untraced runs) until `seconds` have passed."""
    prepared = session.prepare() if any(WORKLOADS[n] for n in names) else None
    runs: dict[str, dict[str, list[dict]]] = {n: {"plain": [], "traced": []} for n in names}
    start = time.monotonic()
    rounds, longest = 0, 0.0
    while rounds == 0 or time.monotonic() - start < seconds * len(names):
        if time.monotonic() + longest > session.deadline:
            break
        t_round = time.monotonic()
        order = names if rounds % 2 == 0 else names[::-1]
        for name in order:
            kinds = [False, True] if trace else [False]
            if rounds % 2:
                kinds.reverse()
            for traced in kinds:
                tag = f"{name}-r{rounds}-{'t' if traced else 'u'}"
                runs[name]["traced" if traced else "plain"].append(
                    session.run(name, tag, prepared if WORKLOADS[name] else None, traced))
        rounds += 1
        longest = max(longest, time.monotonic() - t_round)
    while len(session.setup_s) < SETUP_SAMPLES:
        session.child(session.work, "setup")
    for name in names:
        every = runs[name]["plain"] + runs[name]["traced"]
        for r in every[1:]:
            session.check(name, r["digest"] == every[0]["digest"],
                          "results digest differs between runs")
    return runs


def end_to_end(runs: list[dict], setup_s: list[float]) -> dict:
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setup_s,
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in runs],
        "output_mb": [r["output_mb"] for r in runs],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    samples: dict[str, list[float]] = {}
    for r in traced:
        values = tracing.layer_metrics(r["spans"], r["grid_cells"])
        values["run.cpu_s"] = r["cpu_s"]
        values["gaming.reached_frac"] = r.get("reached_frac", 0.0)
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    samples["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain)]
    return samples


def report(names: list[str], runs: dict, session: Session, trace: bool):
    """Human-readable lines and the final JSON payload for a finished session."""
    lines, metrics = [], {}
    prefix = len(names) > 1
    for name in names:
        plain, traced = runs[name]["plain"], runs[name]["traced"]
        lines.append(f"{name}: results digest {plain[0]['digest']} "
                     f"({plain[0]['n_results']} files)")
        if trace:
            table, units = per_layer(plain, traced), {m: u for m, u, _ in tracing.PER_LAYER}
            for span, sizes in sorted(tracing.batch_histogram(traced[0]["spans"]).items()):
                lines.append(f"{name}: batch sizes {span}: "
                             + " ".join(f"{k}:{v}" for k, v in sizes.items()))
        else:
            table, units = end_to_end(plain, session.setup_s), dict(END_TO_END)
        for metric, unit in units.items():
            values = table[metric]
            value = statistics.median(values)
            lines.append(f"{name}: {metric} {value:.6g} {unit} (median of n={len(values)}, "
                         f"min {min(values):.6g}, max {max(values):.6g})")
            metrics[f"{name}.{metric}" if prefix else metric] = {"value": value, "unit": unit}
    for owner, (attempted, failed) in session.checks.items():
        lines.append(f"{owner}: fail_frac {failed / attempted:g} ratio "
                     f"({failed} failed of {attempted} stage and output checks)")
    lines += [f"FAILED: {problem}" for problem in session.problems]
    attempted = sum(a for a, _ in session.checks.values())
    failed = sum(f for _, f in session.checks.values())
    return lines, {"correct": failed == 0 and attempted > 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradsense" / "__init__.py").is_file():
        print(f"perfbench: no gradsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    session = Session(args.seed, time.monotonic() + DEADLINE_S)
    try:
        runs = measure(session, names, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    lines, payload = report(names, runs, session, bool(args.trace))
    caps = " ".join(f"{k}={v}" for k, v in THREAD_CAPS.items())
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"n_timestamps={N_TIMESTAMPS} bootstrap_resamples={BOOTSTRAP_RESAMPLES}")
    print(f"threads: {caps} (nproc {os.cpu_count()})")
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
