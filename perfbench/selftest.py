"""Tests of the benchmark itself (not of gradsense).

Run from the repository root:

    python3 perfbench/selftest.py

The smoke tests drive the real driver on a tiny config, so they take about a
minute; the span arithmetic test needs no gradsense at all.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402


def tiny_desk(seed: int, out_dir: str) -> dict:
    """A small config with both depths, two gaming configs and every stage."""
    return {
        "seed": seed, "out_dir": out_dir, "n_lat": 16, "n_lon": 20, "n_timestamps": 10,
        "n_clim_draws": 40, "variables": ["t2m", "u10m", "msl"],
        "targets": [{"name": "zurich", "lat": 47.4, "lon": 8.6}],
        "target_variables": ["t2m"], "model_depths": [1, 3],
        "ig_steps": 8, "ig_step_grid": [1, 8], "patches": [1, 3],
        "modes": ["mean_replace", "scale_bias"], "selection_budgets": [3, 5],
        "bootstrap_resamples": 1000,
        "gaming": {"combos": [["zurich", "t2m"]], "extended_combo": ["zurich", "t2m"],
                   "n_seeds": 2, "extended_seeds": 1, "scope_seeds": 1, "spoof_seeds": 2},
    }


def _span(name, start, end, parent, rows=0):
    return [name, start, end, parent, rows]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_merged_child_coverage(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0),    # overlaps a: union of a and b is [1, 6]
            _span("leaf", 2.0, 3.0, 1),
            _span("c", 9.0, 12.0, 0),   # runs past its parent: only [9, 10] counts
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_layer_metrics_counts_nested_same_name_once(self):
        spans = [
            _span("metrics.spearman", 0.0, 4.0, -1),
            _span("metrics.spearman", 1.0, 2.0, 0),
            _span("model.forward_many.d3", 5.0, 6.0, -1, rows=7),
            _span("model.gradient_many.d1", 6.0, 6.5, -1, rows=2),
            _span("model.forward_values", 7.0, 7.25, -1),
        ]
        out = tracing.layer_metrics(spans, grid_cells=1000)
        self.assertEqual(out["metrics.spearman.calls"], 2)
        self.assertEqual(out["metrics.spearman.s"], 4.0)
        self.assertEqual(out["metrics.spearman.self_s"], 4.0)
        self.assertEqual(out["model.forward_many.d3.rows"], 7)
        self.assertEqual(out["model.forward_many.d1.calls"], 0)
        self.assertEqual(out["model.forward_values.s"], 0.25)
        self.assertAlmostEqual(out["model.input_mb"], (7 + 2 + 1) * 1000 * 8 / 1e6)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracing.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         dict(run.END_TO_END))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class TinySmoke(unittest.TestCase):
    """One traced and one untraced session of every workload on tiny_desk."""

    @classmethod
    def setUpClass(cls):
        cls._saved = run.bench_desk
        run.bench_desk = tiny_desk
        cls.sessions = {}
        try:
            for trace in (True, False):
                session = run.Session(seed=3, deadline=time.monotonic() + 170)
                try:
                    runs = run.measure(session, list(run.WORKLOADS), 0, trace)
                finally:
                    session.close()
                cls.sessions[trace] = (runs, session,
                                       run.report(list(run.WORKLOADS), runs, session, trace))
        finally:
            run.bench_desk = cls._saved

    def _metrics(self, trace):
        _, session, (_, payload) = self.sessions[trace]
        self.assertTrue(payload["correct"], session.problems)
        self.assertEqual(payload["failed"], 0)
        return payload["metrics"]

    def test_untraced_run_emits_every_end_to_end_metric(self):
        metrics = self._metrics(False)
        for name in run.WORKLOADS:
            for metric, unit in run.END_TO_END:
                self.assertEqual(metrics[f"{name}.{metric}"]["unit"], unit)
                self.assertGreater(metrics[f"{name}.{metric}"]["value"], 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        metrics = self._metrics(True)
        for name in run.WORKLOADS:
            for metric, unit, _ in tracing.PER_LAYER:
                self.assertEqual(metrics[f"{name}.{metric}"]["unit"], unit)
        self.assertGreater(metrics["full-fresh.runner.stage.gen.s"]["value"], 0)
        self.assertGreater(metrics["full-fresh.model.forward_values.calls"]["value"], 0)
        self.assertEqual(metrics["analysis-resume.runner.stage.game.s"]["value"], 0)

    def test_traced_and_untraced_runs_write_identical_results(self):
        runs = self.sessions[True][0]
        for name in run.WORKLOADS:
            self.assertEqual(runs[name]["plain"][0]["digest"], runs[name]["traced"][0]["digest"])
        untraced = self.sessions[False][0]
        for name in run.WORKLOADS:
            self.assertEqual(untraced[name]["plain"][0]["digest"],
                             runs[name]["plain"][0]["digest"])

    def test_wrappers_are_removed_after_a_traced_run(self):
        # the driver never imports gradsense; install and restore in-process here
        sys.path.insert(0, str(run.ROOT / "src"))
        import gradsense
        from gradsense import metrics, model, runner
        before = (runner.run_stage, model.DeskModel.forward_many, metrics.spearman,
                  runner.make_desk_model)
        tracer = tracing.Tracer()
        tracer.install(gradsense)
        self.assertIsNot(runner.run_stage, before[0])
        tracer.restore()
        self.assertEqual((runner.run_stage, model.DeskModel.forward_many, metrics.spearman,
                          runner.make_desk_model), before)


if __name__ == "__main__":
    unittest.main(verbosity=2)
