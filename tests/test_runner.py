import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from gradsense import cli, config, fieldio, gaming, metrics, runner
from gradsense.model import DeskModel, TruthGenerator


def tiny_config(out_dir, **overrides) -> config.ExperimentConfig:
    base = dict(
        n_lat=16, n_lon=20, n_timestamps=12, n_clim_draws=40,
        variables=("t2m", "u10m", "msl"),
        targets=(config.TargetConfig("zurich", 47.4, 8.6),),
        target_variables=("t2m",),
        model_depths=(1, 3),
        ig_steps=8, ig_step_grid=(1, 8),
        patches=(1, 3), modes=("mean_replace", "scale_bias"),
        selection_budgets=(3, 5), bootstrap_resamples=1000,
        gaming=replace(config.GamingDesign(),
                       combos=(("zurich", "t2m"),), extended_combo=("zurich", "t2m"),
                       n_seeds=2, extended_seeds=1, scope_seeds=1, spoof_seeds=2),
        out_dir=str(out_dir))
    base.update(overrides)
    return replace(config.ExperimentConfig(), **base)


def test_a_run_loads_no_scipy(tmp_path):
    """SciPy is a test dependency only: the CLI and a full run import none of it."""
    config.save_config(tiny_config(tmp_path / "run"), tmp_path / "tiny.yaml")
    probe = ("import sys\n"
             "import gradsense, gradsense.cli\n"
             f"code = gradsense.cli.main(['full', '--config', {str(tmp_path / 'tiny.yaml')!r}])\n"
             "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_text_artifacts_do_not_depend_on_the_locale(tmp_path):
    """A target name outside ASCII gives the same bytes under a C locale as under UTF-8."""
    base = tiny_config(tmp_path / "unused", model_depths=(1,))
    combo = ("zürich", "t2m")
    cfg = replace(base, targets=(config.TargetConfig(combo[0], 47.4, 8.6),),
                  gaming=replace(base.gaming, combos=(combo,), extended_combo=combo))
    config.save_config(cfg, tmp_path / "zurich.yaml")
    src = str(Path(__file__).resolve().parents[1] / "src")
    trees = {}
    for name, locale in (("c", dict(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")),
                         ("utf8", dict(PYTHONUTF8="1"))):
        out = tmp_path / name
        probe = ("import gradsense.cli\n"
                 f"raise SystemExit(gradsense.cli.main(['full', '--config', "
                 f"{str(tmp_path / 'zurich.yaml')!r}, '--out', {str(out)!r}]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src, **locale)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees[name] = _hash_tree(out / "results")
    assert "d1-zürich-t2m" in (tmp_path / "c/results/selection.csv").read_text(encoding="utf-8")
    assert trees["c"] == trees["utf8"]
    assert len(trees["c"]) == sum(rel.startswith("results/")
                                  for stage in runner.STAGE_TABLE for rel in stage.writes)


def _hash_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


_STAGE = {stage.name: stage for stage in runner.STAGE_TABLE}

# the stores each store is computed from; the models are never stored, so they
# always load the data
STORE_PREREQUISITES = {"data": (), "models": ("data",), "tables": ("models",),
                       "gaming": ("models",)}


def _store_files(cfg) -> dict[str, set[str]]:
    """The files each store a stage reads leaves in the run directory of `cfg`."""
    state = runner.RunState(cfg)
    return {"data": {runner.DATA_STORE}, "models": {"data/models.json"},
            "tables": {runner.config_store("tables", cid) for cid in state.config_ids()},
            "gaming": {runner.config_store("gaming", cid)
                       for cid in state.config_ids(cfg.gaming.combos)}}


def _read_files(cfg, reads, computed: bool) -> set[str]:
    """The store files behind `reads`: computed into an empty directory, or loaded."""
    files, todo, store_files = set(), list(reads), _store_files(cfg)
    while todo:
        store = todo.pop()
        files |= store_files[store]
        if computed or store == "models":
            todo += STORE_PREREQUISITES[store]
    return files


def _replace_runs(monkeypatch, **runs) -> None:
    """Swap the named stages' functions in `runner.STAGE_TABLE` for this test."""
    monkeypatch.setattr(runner, "STAGE_TABLE", tuple(
        replace(stage, run=runs.get(stage.name, stage.run)) for stage in runner.STAGE_TABLE))


def test_child_seed_stable_and_distinct():
    assert runner.child_seed(7, "model", "a") == runner.child_seed(7, "model", "a")
    assert runner.child_seed(7, "model", "a") != runner.child_seed(7, "model", "b")
    assert runner.child_seed(7, "model", "a") != runner.child_seed(8, "model", "a")


def test_subadditivity_matches_per_case_joint_ablation_loop(tmp_path, monkeypatch):
    # a second target in the grid's corner clips its window and covers the configs after
    # the first; the stage makes one forward pass per (configuration, timestamp)
    base = tiny_config(tmp_path / "sub")
    state = runner.RunState(replace(
        base, targets=base.targets + (config.TargetConfig("corner", 35.5, -9.5),)))
    state.ensure_models()
    expected = oracles.subadditivity_rows(state)
    rows, forward = [], DeskModel.forward_window

    def counted(self, window):
        rows.append(len(window))
        return forward(self, window)

    monkeypatch.setattr(DeskModel, "forward_window", counted)
    pairs = list(runner.stage_subadditivity(state))
    assert {rel for rel, _ in pairs} == {"results/subadditivity.csv"}
    got = [row for _, row in pairs]
    assert len(rows) == 2 * state.cfg.n_timestamps
    assert sum(rows) == state.cfg.n_timestamps * (1 + 4 * (5 + 3) + 1 + 2 * (5 + 3))
    assert len(got) == len(expected) == 3 * 4 + 3 * 2
    for a, b in zip(got, expected):
        assert a[:5] == b[:5] and a[6:] == b[6:]
        assert a[5] == b[5] or (math.isnan(a[5]) and math.isnan(b[5])), (a, b)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyrun")
    cfg = tiny_config(out)
    manifest = runner.run_full(cfg)
    return cfg, Path(out), manifest


class TestRunFull:
    def test_all_stages_complete(self, tiny_run):
        _, _, manifest = tiny_run
        assert manifest["ok"]
        assert all(v == "completed" for v in manifest["stages"].values())
        assert "failures" not in manifest

    def test_manifest_lists_every_file(self, tiny_run):
        _, out, manifest = tiny_run
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert set(manifest["files"]) | {"manifest.json"} == on_disk

    def test_declared_writes_cover_the_results(self, tiny_run):
        # the full run's results and stations are each declared by one stage
        _, out, manifest = tiny_run
        declared = [rel for stage in runner.STAGE_TABLE for rel in stage.writes]
        assert len(declared) == len(set(declared))
        assert set(declared) == {str(p.relative_to(out)) for p in (out / "results").iterdir()
                                 } | {"data/stations.csv"}
        assert set(declared) <= set(manifest["files"])
        assert all(hasattr(runner.RunState, f"ensure_{store}")
                   for stage in runner.STAGE_TABLE for store in stage.reads)

    @pytest.mark.parametrize("stage", runner.STAGE_TABLE, ids=runner.STAGES)
    def test_stage_contract(self, stage, tiny_run, tmp_path, monkeypatch):
        cfg, out, _ = tiny_run
        # alone in an empty directory, the stage writes its files and its stores'
        alone = tmp_path / "alone"
        run = runner.run_full(replace(cfg, out_dir=str(alone)), stage_filter=(stage.name,))
        assert run["ok"]
        expected = {"config.yaml", *stage.writes} | _read_files(cfg, stage.reads, computed=True)
        on_disk = {str(p.relative_to(alone)) for p in alone.rglob("*") if p.is_file()}
        assert on_disk == expected | {"manifest.json"}
        assert set(run["files"]) == expected
        state = runner.RunState(replace(cfg, out_dir=str(alone)))
        for rel, columns in stage.writes.items():  # each CSV under its declared columns
            if columns is None:
                assert not rel.endswith(".csv"), rel
                continue
            with open(alone / rel, newline="", encoding="utf-8") as fh:
                header = next(csv.reader(fh))
            assert tuple(header) == (columns(state) if callable(columns) else columns), rel
        compared = set(expected)
        if stage.name == "report":  # it summarises the results beside it, and here are none
            compared -= set(stage.writes)
        for rel in compared:
            assert (alone / rel).read_bytes() == (out / rel).read_bytes(), rel

        # over a complete directory, the stage computes no store it does not read
        copy = tmp_path / "complete"
        shutil.copytree(out, copy)
        for rel in stage.writes:
            (copy / rel).unlink()

        def boom(*args, **kwargs):
            raise AssertionError(f"{stage.name} computes a store or builds models")

        for name in ("_synth_arrays", "_compute_tables", "_compute_gaming"):
            monkeypatch.setattr(runner.RunState, name, boom)
        if "models" not in stage.reads:
            monkeypatch.setattr(runner.RunState, "ensure_models", boom)
        run = runner.run_full(replace(cfg, out_dir=str(copy)), stage_filter=(stage.name,))
        assert run["ok"], run["stages"][stage.name]
        for rel in stage.writes:
            assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel
        assert set(run["files"]) == ({"config.yaml", *stage.writes}
                                     | _read_files(cfg, stage.reads, computed=False))

    def test_manifest_hashes_match_disk(self, tiny_run):
        _, out, manifest = tiny_run
        for rel, digest in manifest["files"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        cfg, out, _ = tiny_run
        before = _hash_tree(out)
        runner.run_full(cfg)
        assert _hash_tree(out) == before

    def test_loaded_tables_match_memory(self, tiny_run):
        cfg, _, _ = tiny_run
        loaded = dict(runner.RunState(cfg).tables())
        recomputed_state = runner.RunState(cfg)
        recomputed_state.ws.files.clear()
        assert list(loaded) == recomputed_state.config_ids() and len(loaded) == 2
        # each config's arrays under the names the stages read, in store order
        names = ["gi/ig@1", "gi/ig@8", "gi/gti", "gi/vg", f"gi/ig-zero@{cfg.cheap_steps()}",
                 f"gi/ig-pers@{cfg.cheap_steps()}", "si_u/ig@8", "si_u/gti", "si_u/vg", "gu",
                 *(f"su/{mode}/{patch}" for mode in cfg.modes for patch in cfg.patches)]
        for cid, tables in loaded.items():
            recomputed = recomputed_state._compute_tables(cid)
            assert list(tables) == list(recomputed) == names, cid
            for name, arr in tables.items():
                assert np.array_equal(arr, recomputed[name], equal_nan=True), (cid, name)

    def test_loaded_gaming_matches_computed(self, tiny_run, tmp_path, monkeypatch):
        cfg, out, _ = tiny_run
        copy = tmp_path / "nogaming"
        shutil.copytree(out, copy)
        cids = runner.RunState(cfg).config_ids(cfg.gaming.combos)
        for cid in cids:
            (copy / runner.config_store("gaming", cid)).unlink()
        raw, real = [], gaming.run_gaming_experiment

        def recording(*args, **kwargs):
            raw.append(real(*args, **kwargs))
            return raw[-1]

        monkeypatch.setattr(gaming, "run_gaming_experiment", recording)
        state = runner.RunState(replace(cfg, out_dir=str(copy)))
        computed = state.ensure_gaming()
        monkeypatch.undo()
        loaded = runner.RunState(cfg).ensure_gaming()
        assert list(loaded) == list(computed) == cids
        assert len(raw) == len(loaded) > 0
        for cid, run in zip(loaded, raw):
            (scs_l, b), (scs_c, c) = loaded[cid], computed[cid]
            assert scs_l == scs_c == runner.build_scenarios(state, cid)
            assert len(scs_l) == len(run.attack) > 0
            for f in dataclasses.fields(gaming.GamingRun):
                x, y, z = getattr(run, f.name), getattr(b, f.name), getattr(c, f.name)
                assert np.array_equal(x, y) and np.array_equal(x, z), (cid, f.name)
                assert x.dtype == y.dtype == z.dtype == np.float64, (cid, f.name)
                assert x.shape[0] == (state.stations.n_stations if f.name == "baseline"
                                      else len(scs_l)), (cid, f.name)
        for rel in (runner.config_store("gaming", cid) for cid in cids):
            assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_game_reuses_matching_gaming_store(self, tiny_run, tmp_path, monkeypatch):
        cfg, out, _ = tiny_run
        copy = tmp_path / "regame"
        shutil.copytree(out, copy)
        for rel in ("gaming_outcomes.csv", "gaming_scenarios.json"):
            (copy / "results" / rel).unlink()

        def boom(*args, **kwargs):
            raise AssertionError("a matching gaming store runs no experiment")

        monkeypatch.setattr(gaming, "run_gaming_experiment", boom)
        state = runner.RunState(replace(cfg, out_dir=str(copy)))
        runner.run_stage(state, "game")
        runner.run_stage(state, "detect")
        for rel in [*_STAGE["game"].writes, *_STAGE["detect"].writes]:
            assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_gaming_store_layout(self, tiny_run):
        # criterion 11 and resumed directories read these names, so they are the format
        cfg, out, _ = tiny_run
        cids = runner.RunState(cfg).config_ids(cfg.gaming.combos)
        assert len(cids) == 2
        for cid in cids:
            store = fieldio.load_store(out / runner.config_store("gaming", cid),
                                       f"{config.config_hash(cfg)}/{cid}")
            assert list(store) == ["baseline", "attack", "inflation_ratio", "mae_clean",
                                   "mae_change", "honest_share_change_pp",
                                   "attack_reached_model"], cid

    def test_results_csvs_rectangular(self, tiny_run):
        # headers are written apart from their rows, and csv.writer checks neither
        _, out, _ = tiny_run
        tables = sorted((out / "results").glob("*.csv"))
        assert len(tables) == sum(rel.startswith("results/") and rel.endswith(".csv")
                                  for stage in runner.STAGE_TABLE for rel in stage.writes)
        for path in tables:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert rows, path.name
            assert all(len(row) == len(header) for row in rows), path.name

    def test_report_matches_the_csvs(self, tiny_run):
        # an oracle built from the written tables with csv and statistics alone
        _, out, _ = tiny_run
        report = (out / "results/report.md").read_text()

        def table(name):
            with open(out / "results" / f"{name}.csv", newline="") as fh:
                return list(csv.DictReader(fh))

        def mean(rows, col, **match):
            cells = [float(r[col]) for r in rows if all(r[k] == v for k, v in match.items())]
            cells = [x for x in cells if not math.isnan(x)]
            return statistics.fmean(cells) if cells else math.nan

        def section(title):
            """The cells of each body row of the markdown table under `## {title}`."""
            lines = report.split(f"## {title}", 1)[1].split("\n## ", 1)[0].splitlines()
            rows = [[c.strip() for c in ln.strip("|").split("|")]
                    for ln in lines if ln.startswith("|")]
            return rows[0], rows[2:]

        def shown(text, value):  # the report prints 3 decimals
            return text == "nan" if math.isnan(value) else abs(float(text) - value) <= 5e-4

        methods = table("methods_summary")
        header, body = section("Attribution methods")
        topcol = header[-1]  # the mean_top{k} column of the largest k
        assert [row[0] for row in body] == [r["method"] for r in methods]
        for (_, rho, agg, wilcoxon, top), r in zip(body, methods):
            assert shown(rho, float(r["mean_rho"]))
            assert agg == f"{r['agg_sig']}/{r['n_configs']}"
            assert wilcoxon == f"{r['wilcoxon_sig']}/{r['n_configs']}"
            assert abs(float(top) - float(r[topcol])) <= 5e-3  # printed with 2 decimals
        selection = table("selection")
        header, body = section("Captured utility by strategy")
        strategies = header[1:-1]
        assert [row[0] for row in body] == sorted({r["k"] for r in selection}, key=int)
        for k, *cells in body:
            for strategy, cell in zip(strategies, cells):
                assert shown(cell, mean(selection, "captured", strategy=strategy, k=k))
            assert shown(cells[-1], mean(selection, "optimality_ratio", strategy="ig", k=k))
        calibration = table("calibration_summary")
        _, body = section("Payment calibration")
        assert [row[0] for row in body] == sorted({r["proxy"] for r in calibration})
        for proxy, gini, over in body:
            assert shown(gini, mean(calibration, "gini_ratio", proxy=proxy))
            assert shown(over, mean(calibration, "overpayment", proxy=proxy))
        ci_line = re.search(r"^- mean CI-to-share ratio \(top-\d+\): (\S+)$", report, re.M)
        assert shown(ci_line.group(1), mean(table("payment_stability"), "ci_to_share"))
        _, body = section("Gaming detection")
        d7 = [row for row in body if row[2] == "d7"]
        assert d7 and all(row[4] == "-" for row in d7)
        assert all(row[4] != "-" for row in body if row[2] != "d7")
        spatial = [r["converge_n"] for r in table("convergence") if r["scope"] == "spatial"]
        ns = [int(n) for n in spatial if n != "never"]
        line = re.search(r"^- spatial convergence: median N = (\d+) \((\d+) configurations "
                         r"never reach significance\)$", report, re.M)
        assert ns and int(line.group(1)) == int(statistics.median(ns))
        assert int(line.group(2)) == spatial.count("never")

    def test_intermediate_stores_layout(self, tiny_run):
        cfg, out, manifest = tiny_run
        assert sorted(p.name for p in (out / "tables").iterdir()) == [
            "gaming-d1-zurich-t2m.gsa", "gaming-d3-zurich-t2m.gsa",
            "tables-d1-zurich-t2m.gsa", "tables-d3-zurich-t2m.gsa"]
        assert sorted(p.name for p in (out / "data").iterdir()) == [
            "fields.gsa", "models.json", "stations.csv"]
        for rel in _read_files(cfg, ("tables", "gaming"), computed=True):
            assert rel in manifest["files"], rel

    def test_truncated_store_raises(self, tiny_run, tmp_path):
        cfg, out, _ = tiny_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        store = copy / runner.config_store("tables", runner.RunState(cfg).config_ids()[0])
        raw = store.read_bytes()
        store.write_bytes(raw[:len(raw) - 8 * 17])
        with pytest.raises(ValueError, match="truncated"):
            runner.RunState(replace(cfg, out_dir=str(copy))).ensure_tables()

    def test_tables_resume_from_the_last_saved_config(self, tiny_run, tmp_path, monkeypatch):
        # a run that stops in the second config's tables keeps the first config's store
        cfg, out, _ = tiny_run
        copy = tmp_path / "resumed"
        shutil.copytree(out, copy)
        cfg = replace(cfg, out_dir=str(copy))
        cids = runner.RunState(cfg).config_ids()
        for cid in cids:
            (copy / runner.config_store("tables", cid)).unlink()
        computed, real = [], runner.RunState._compute_tables

        def crash_on_second(state, cid):
            computed.append(cid)
            if cid == cids[1]:
                raise RuntimeError("stopped")
            return real(state, cid)

        monkeypatch.setattr(runner.RunState, "_compute_tables", crash_on_second)
        with pytest.raises(RuntimeError, match="stopped"):
            runner.RunState(cfg).ensure_tables()
        assert computed == cids[:2]
        assert (copy / runner.config_store("tables", cids[0])).exists()
        assert not (copy / runner.config_store("tables", cids[1])).exists()
        computed.clear()
        monkeypatch.setattr(runner.RunState, "_compute_tables",
                            lambda state, cid: computed.append(cid) or real(state, cid))
        runner.RunState(cfg).ensure_tables()
        assert computed == cids[1:]
        for cid in cids:
            rel = runner.config_store("tables", cid)
            assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_store_under_another_config_name_is_recomputed(self, tiny_run, tmp_path,
                                                           monkeypatch):
        # each store is stamped with its config id, so a copied or case-folded file is
        # not taken for another config's
        cfg, out, _ = tiny_run
        copy = tmp_path / "swapped"
        shutil.copytree(out, copy)
        cfg = replace(cfg, out_dir=str(copy))
        first, second = runner.RunState(cfg).config_ids()
        shutil.copyfile(copy / runner.config_store("tables", first),
                        copy / runner.config_store("tables", second))
        computed, real = [], runner.RunState._compute_tables
        monkeypatch.setattr(runner.RunState, "_compute_tables",
                            lambda state, cid: computed.append(cid) or real(state, cid))
        tables = dict(runner.RunState(cfg).tables())
        assert computed == [second]
        assert not np.array_equal(tables[first]["gu"], tables[second]["gu"])
        rel = runner.config_store("tables", second)
        assert (copy / rel).read_bytes() == (out / rel).read_bytes()

    def test_a_dropped_target_leaves_no_store(self, tmp_path):
        # a rerun with one target fewer keeps only the remaining configs' stores
        two = tiny_config(tmp_path / "run", n_timestamps=10, model_depths=(1,),
                          targets=(config.TargetConfig("zurich", 47.4, 8.6),
                                   config.TargetConfig("london", 51.5, -0.1)))
        stages = ("converge", "game")
        assert runner.run_full(two, stage_filter=stages)["ok"]
        assert len(list((tmp_path / "run/tables").iterdir())) == 3
        one = replace(two, targets=two.targets[:1])
        assert runner.run_full(one, stage_filter=stages)["ok"]
        assert sorted(p.name for p in (tmp_path / "run/tables").iterdir()) == [
            "gaming-d1-zurich-t2m.gsa", "tables-d1-zurich-t2m.gsa"]

    def test_a_slash_in_a_target_name_makes_no_subdirectory(self, tmp_path):
        base = tiny_config(tmp_path / "slash", n_timestamps=10, model_depths=(1,))
        combo = ("a/b", "t2m")
        cfg = replace(base, targets=(config.TargetConfig(combo[0], 47.4, 8.6),),
                      gaming=replace(base.gaming, combos=(combo,), extended_combo=combo))
        state = runner.RunState(cfg)
        state.ensure_tables()
        state.ensure_gaming()
        assert sorted(p.name for p in (tmp_path / "slash/tables").iterdir()) == [
            "gaming-d1-a%2Fb-t2m.gsa", "tables-d1-a%2Fb-t2m.gsa"]
        assert runner.config_store("tables", "d1-a/b-t2m") == "tables/tables-d1-a%2Fb-t2m.gsa"

    def test_fidelity_without_a_reaching_station(self, tmp_path):
        # at stride 8 no station's patch 1 or 3 reaches the d1 window: the case's utility
        # is constant, its rho undefined, and its primary row gets NaN bounds
        cfg = tiny_config(tmp_path / "unreached", n_lat=36, n_lon=50, station_stride=8,
                          n_timestamps=10, model_depths=(1,))
        manifest = runner.run_full(cfg, stage_filter=("fidelity",))
        assert manifest["ok"], manifest.get("failures")
        with open(tmp_path / "unreached/results/fidelity_spatial.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        primary = [r for r in rows if r["method"] == f"ig@{cfg.ig_steps}"]
        assert len(primary) == len(cfg.modes) * len(cfg.patches)
        unreached = [r for r in primary if math.isnan(float(r["rho"]))]
        assert unreached
        assert all(r["ci_lower"] == r["ci_upper"] == "nan" for r in unreached)

    def test_stale_config_artifacts_recomputed(self, tmp_path):
        # seed 7, then seed 8 into the same directory: every seed-8 result must
        # equal a fresh seed-8 run's, standalone stages included
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        runner.run_full(tiny_config(reused, seed=7))
        runner.run_full(tiny_config(fresh, seed=8))
        manifest = runner.run_full(tiny_config(reused, seed=8), stage_filter=("detect",))
        assert manifest["ok"]
        for rel in ("results/gaming_results.csv", "results/detection_summary.csv"):
            assert (reused / rel).read_bytes() == (fresh / rel).read_bytes(), rel
        assert runner.run_full(tiny_config(reused, seed=8))["ok"]
        for sub in ("results", "tables", "data"):
            assert _hash_tree(reused / sub) == _hash_tree(fresh / sub), sub

    def test_run_directory_independent_of_location(self, tiny_run, tmp_path):
        # the saved config.yaml names no directory, so the manifest hashes the same bytes
        cfg, out, _ = tiny_run
        elsewhere = tmp_path / "elsewhere"
        assert runner.run_full(replace(cfg, out_dir=str(elsewhere)))["ok"]
        assert _hash_tree(elsewhere) == _hash_tree(out)
        assert config.load_config(out / "config.yaml") == replace(
            cfg, out_dir=config.ExperimentConfig().out_dir)

    def test_manifest_names_the_blas_core(self, tiny_run, tmp_path):
        # the gradient digests depend on the OpenBLAS kernel, so the manifest names it
        cfg, out, _ = tiny_run
        host = json.loads((out / "manifest.json").read_text())["host"]
        assert host == {"blas_core": runner.blas_core(), "numpy": np.__version__}
        if list((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
                "libscipy_openblas*")):  # a numpy wheel bundles scipy-openblas
            assert host["blas_core"] != "unknown"
        assert runner.blas_core(tmp_path) == "unknown"  # no library to ask
        again = tmp_path / "again"
        assert runner.run_full(replace(cfg, out_dir=str(again)))["ok"]
        assert (again / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()

    def test_overlapping_extended_grid_builds_each_scenario_once(self, tmp_path):
        # the extended grid's (uniform, 50 %, seed 0) scenarios are main-grid ones
        cfg = tiny_config(tmp_path / "overlap")
        cfg = replace(cfg, gaming=replace(cfg.gaming, extended_placements=("uniform",),
                                          extended_magnitudes=(50.0,)))
        assert runner.run_full(cfg, stage_filter=("game", "detect"))["ok"]
        results = tmp_path / "overlap" / "results"

        def read(name):
            with open(results / name, newline="") as fh:
                return list(csv.DictReader(fh))

        outcomes = read("gaming_outcomes.csv")
        ids = [r["scenario_id"] for r in outcomes]
        scenarios = json.loads((results / "gaming_scenarios.json").read_text())
        assert len(ids) == len(set(ids)) == len(scenarios) == 60
        assert len(read("gaming_results.csv")) == 4 * 60
        summary = read("detection_summary.csv")
        assert {r["detector"] for r in summary} == {"d3", "d4", "d5", "u1", "d7"}
        for r in summary:
            assert int(r["n_scenarios"]) == sum(
                o["config_id"] == r["config_id"] and o["kind"] == r["kind"]
                for o in outcomes), r

    def test_gaming_design_without_scenarios(self, tmp_path):
        cfg = tiny_config(tmp_path / "none")
        cfg = replace(cfg, gaming=replace(cfg.gaming, n_seeds=0, extended_seeds=0,
                                          scope_seeds=0, spoof_seeds=0))
        assert runner.run_full(cfg, stage_filter=("game", "detect"))["ok"]
        assert (tmp_path / "none/results/gaming_outcomes.csv").read_text().count("\n") == 1
        # each config still stores its baseline; every per-scenario array is empty
        state = runner.RunState(cfg)
        n = state.stations.n_stations
        for cid in state.config_ids(cfg.gaming.combos):
            store = fieldio.load_store(tmp_path / "none" / runner.config_store("gaming", cid),
                                       f"{state.stamp}/{cid}")
            assert store["baseline"].shape == (n,)
            assert store["attack"].shape == (0, n)
            assert store["mae_change"].shape == (0,)

    def test_config_change_clears_other_artifacts(self, tiny_run, tmp_path):
        cfg, out, _ = tiny_run

        def on_disk(root):
            return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

        def rerun(name, stages, **changes):
            copy = tmp_path / name
            shutil.copytree(out, copy)
            if name == "garbled":
                (copy / "config.yaml").write_text("seed: [unclosed\n")
            if name == "foreign":  # a directory gradsense never ran in, with files of its own
                (copy / "config.yaml").unlink()
                (copy / "data/mine.csv").write_text("a,b\n")
                for rel in foreign_legacy:  # named like the intermediates of the old layout
                    (copy / rel).write_text("mine\n")
            (copy / "data/own").mkdir()
            (copy / "data/own/notes.txt").write_text("kept\n")
            manifest = runner.run_full(replace(cfg, out_dir=str(copy), **changes),
                                       stage_filter=stages)
            assert manifest["ok"], name
            return copy, manifest

        # the same config keeps the files of the stages this run skips
        same, _ = rerun("same", ("report",))
        assert on_disk(same) == on_disk(out) | {"data/own/notes.txt"}
        assert (same / "results/report.md").read_bytes() == (out / "results/report.md").read_bytes()
        # without a config.yaml nothing is cleared, so a foreign file survives a new config
        foreign_legacy = {"tables/spatial_utility.csv", "data/climatology.bin"}
        foreign, _ = rerun("foreign", ("report",), seed=8)
        assert on_disk(foreign) == on_disk(out) | {"data/own/notes.txt",
                                                   "data/mine.csv"} | foreign_legacy
        assert all((foreign / rel).read_text() == "mine\n" for rel in foreign_legacy)
        # another config, or an unreadable config.yaml, leaves only what this run wrote
        for name, stages, changes, results in (
                ("garbled", ("report",), {}, ["report.md"]),
                ("reseeded", ("detect",), {"seed": 8},
                 ["detection_summary.csv", "gaming_results.csv"])):
            copy, manifest = rerun(name, stages, **changes)
            # files in subdirectories are never gradsense's and stay
            assert on_disk(copy) == set(manifest["files"]) | {"manifest.json",
                                                                "data/own/notes.txt"}, name
            assert sorted(p.name for p in (copy / "results").iterdir()) == results, name

    def test_stage_failure_recorded(self, tmp_path, monkeypatch):
        def no_room(*args, **kwargs):
            raise ValueError("cannot place the attackers")

        monkeypatch.setattr(gaming, "sample_attackers", no_room)
        manifest = runner.run_full(tiny_config(tmp_path / "fail", n_timestamps=10),
                                   stage_filter=("gen", "game"))
        assert not manifest["ok"]
        assert manifest["stages"]["gen"] == "completed"
        assert manifest["stages"]["game"].startswith("failed")

    def test_stage_failure_keeps_traceback(self, tmp_path, monkeypatch):
        ran = []

        def exploding_stage(state):
            raise RuntimeError("boom")

        _replace_runs(monkeypatch, gen=exploding_stage,
                      report=lambda state: ran.append(1) or [("results/report.md", "")])
        out = tmp_path / "tb"
        manifest = runner.run_full(tiny_config(out), stage_filter=("gen", "report"))
        assert not manifest["ok"]
        assert manifest["stages"]["gen"] == "failed: boom"
        assert manifest["stages"]["report"] == "completed" and ran == [1]
        assert set(manifest["failures"]) == {"gen"}
        trace = manifest["failures"]["gen"]
        assert trace.startswith("Traceback") and "in exploding_stage" in trace
        assert trace.rstrip().endswith("RuntimeError: boom")
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["failures"] == manifest["failures"]

    @pytest.mark.parametrize("returned,named", [
        ([("results/report.md", ""), ("results/extra.md", "")], "results/extra.md"),
        ([], "results/report.md")])
    def test_stage_returns_exactly_its_declared_files(self, returned, named, tmp_path,
                                                      monkeypatch):
        _replace_runs(monkeypatch, report=lambda state: returned)
        state = runner.RunState(tiny_config(tmp_path / "undeclared"))
        with pytest.raises(ValueError, match=re.escape(repr(named))):
            runner.run_stage(state, "report")
        assert not state.ws.files and not state.ws.root.exists()

    def test_failed_stage_keeps_all_its_previous_files(self, tiny_run, tmp_path, monkeypatch):
        # pay raises in its last step, after its first configuration's payments.csv rows
        # have streamed into a temp file
        cfg, out, _ = tiny_run
        copy = tmp_path / "failing"
        shutil.copytree(out, copy)
        writes = _STAGE["pay"].writes
        for rel in writes:
            (copy / rel).write_text("previous\n")

        def boom(*args, **kwargs):
            raise RuntimeError("shrinkage fails")

        monkeypatch.setattr(runner.incentive, "shrinkage_fits", boom)
        manifest = runner.run_full(replace(cfg, out_dir=str(copy)), stage_filter=("pay",))
        assert manifest["stages"]["pay"] == "failed: shrinkage fails"
        assert all((copy / rel).read_text() == "previous\n" for rel in writes)
        assert not set(writes) & set(manifest["files"])
        assert not list((copy / "results").glob(".*.tmp"))

    def test_methods_with_under_20_stations(self, tmp_path):
        # the unit-scale experiment compares top-20 sets, clipped to the station count
        cfg = tiny_config(tmp_path / "few", n_lon=16, model_depths=(1,))
        assert runner.RunState(cfg).stations.n_stations < 20
        manifest = runner.run_full(cfg, stage_filter=("methods",))
        assert manifest["stages"]["methods"] == "completed"
        with open(tmp_path / "few/results/scale_invariance.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["selections_unchanged"] in ("True", "False")

    def test_progress_lines_on_stderr(self, tiny_run, tmp_path, capsys, monkeypatch):
        cfg, out, _ = tiny_run
        copy = tmp_path / "progress"
        shutil.copytree(out, copy)

        def exploding_stage(state):
            raise RuntimeError("boom")

        _replace_runs(monkeypatch, report=exploding_stage)
        ran = runner.STAGES[1:]
        runner.run_full(replace(cfg, out_dir=str(copy)), stage_filter=ran)
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0::2] == [f"gradsense: {name}: started" for name in ran]
        assert len(lines[1::2]) == len(ran)
        for name, line in zip(ran, lines[1::2]):
            status = "failed" if name == "report" else "completed"
            assert re.fullmatch(rf"gradsense: {name}: {status} in \d+\.\d\d s, "
                                rf"max RSS \d+\.\d MB", line), line

    def test_unknown_stage_filter_rejected(self, tmp_path):
        out = tmp_path / "typo"
        with pytest.raises(ValueError, match="fidelty"):
            runner.run_full(tiny_config(out), stage_filter=("fidelty",))
        with pytest.raises(ValueError, match="empty"):  # not "run every stage"
            runner.run_full(tiny_config(out), stage_filter=())
        assert not out.exists()

    def test_fresh_run_derives_truth_and_scenarios_once(self, tmp_path, monkeypatch):
        # y* once per (config, timestamp), one scenario list per gaming config
        verify, build = TruthGenerator.verify, runner.build_scenarios
        n_verify, built = [0], []

        def counting_verify(self, x, t):
            n_verify[0] += 1
            return verify(self, x, t)

        def counting_build(state, cid):
            built.append(cid)
            return build(state, cid)

        monkeypatch.setattr(TruthGenerator, "verify", counting_verify)
        monkeypatch.setattr(runner, "build_scenarios", counting_build)
        cfg = tiny_config(tmp_path / "fresh")
        assert runner.run_full(cfg)["ok"]
        state = runner.RunState(cfg)
        assert n_verify[0] == len(state.config_ids()) * cfg.n_timestamps
        assert built == state.config_ids(cfg.gaming.combos)

    def test_budget_clipping_warns(self, tiny_run):
        cfg, _, _ = tiny_run
        state = runner.RunState(replace(cfg, selection_budgets=(3, 999)))
        with pytest.warns(UserWarning, match="clipped"):
            runner.run_stage(state, "select")


def oracle_fidelity_stats(imp, util, ks, q):
    """The per-timestamp loop `_agreements` replaced in fidelity and methods."""
    imp_mean = np.nanmean(imp, axis=0)
    util_mean = util.mean(axis=0)
    agg = metrics.spearman(imp_mean, util_mean)
    overlaps = [metrics.topk_overlap(imp_mean, util_mean, k) for k in ks]
    per_t_rho, per_t_p = [], []
    for t in range(imp.shape[0]):
        if np.any(np.isnan(imp[t])):
            continue
        rc = metrics.spearman(imp[t], util[t])
        if not rc.undefined:
            per_t_rho.append(rc.rho)
            per_t_p.append(rc.p_value)
    try:
        wil_p = metrics.wilcoxon_signed_rank(np.asarray(per_t_rho))
    except ValueError:
        wil_p = np.nan
    bh_count = int(metrics.bh_fdr(np.asarray(per_t_p), q).sum()) if per_t_p else 0
    mean_cycle_rho = float(np.mean(per_t_rho)) if per_t_rho else np.nan
    return agg, overlaps, wil_p, bh_count, mean_cycle_rho


def oracle_converge(imp, util):
    """The per-timestamp loop `_agreements` replaced in converge."""
    util_mean = util.mean(axis=0)
    agg = metrics.spearman(np.nanmean(imp, axis=0), util_mean)
    per_t_agg, per_t_cyc = [], []
    for t in range(imp.shape[0]):
        if np.any(np.isnan(imp[t])):
            continue
        a = metrics.spearman(imp[t], util_mean)
        c = metrics.spearman(imp[t], util[t])
        per_t_agg.append(np.nan if a.undefined else a.rho)
        per_t_cyc.append(np.nan if c.undefined else c.rho)
    recovery = (float(np.nanmean(per_t_agg) / agg.rho)
                if agg.rho and not math.isnan(agg.rho) and agg.rho != 0 else np.nan)
    return agg.rho, recovery, np.asarray([r for r in per_t_cyc if not math.isnan(r)])


def _same(x, y) -> bool:
    return np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                          equal_nan=True)


class TestAgreement:
    def _pairs(self, cfg):
        state = runner.RunState(cfg)
        tables = dict(state.tables())
        gks = runner._global_ks(state)
        ks = tuple(k for k in (5, 10, 20) if k <= state.stations.n_stations)
        for cid, arrays in tables.items():
            for name, imp in arrays.items():
                if name.startswith("gi/"):
                    yield imp, arrays["gu"], gks
        for cid, arrays in tables.items():
            for mode, patch in itertools.product(cfg.modes, cfg.patches):
                for key in state.scored_methods():
                    yield arrays[f"si_u/{key}"], np.abs(arrays[f"su/{mode}/{patch}"]), ks

    def _check(self, imp, util, ks, q=0.05):
        ag = runner._agreements([imp], util, ks, q)[0]
        agg, overlaps, wil_p, bh, cyc = oracle_fidelity_stats(imp, util, ks, q)
        assert ag.agg == agg
        assert list(ag.overlaps) == overlaps
        assert _same(ag.wilcoxon_p, wil_p) and ag.bh_count == bh
        assert _same(ag.mean_cycle_rho, cyc)
        rho, recovery, cycle_rho = oracle_converge(imp, util)
        assert _same(ag.agg.rho, rho) and _same(ag.recovery, recovery)
        assert np.array_equal(ag.cycle_rho, cycle_rho)
        return ag

    def test_matches_loop_oracles_on_every_table_pair(self, tiny_run):
        cfg, _, _ = tiny_run
        n_pairs = n_pers = 0
        for imp, util, ks in self._pairs(cfg):
            ag = self._check(imp, util, ks)
            n_pairs += 1
            if np.isnan(imp[0]).any():  # ig-pers has no persistence baseline at t = 0
                n_pers += 1
                assert ag.cycle_rho.size <= imp.shape[0] - 1
        assert n_pers == len(cfg.model_depths) and n_pairs > 30

    def test_tables_of_one_case_match_one_at_a_time(self, tiny_run):
        # every importance table of a config at once, ig-pers's NaN first row among them
        cfg, _, _ = tiny_run
        for cid, arrays in runner.RunState(cfg).tables():
            util = arrays["gu"]
            imps = [imp for name, imp in arrays.items() if name.startswith("gi/")]
            assert any(np.isnan(imp[0]).any() for imp in imps)
            for imp, ag in zip(imps, runner._agreements(imps, util, (1, 3), 0.05)):
                one = runner._agreements([imp], util, (1, 3), 0.05)[0]
                assert ag.agg == one.agg and ag.overlaps == one.overlaps
                assert np.array_equal(ag.cycle_rho, one.cycle_rho)
                assert _same(ag.wilcoxon_p, one.wilcoxon_p) and ag.bh_count == one.bh_count
                assert _same(ag.mean_cycle_rho, one.mean_cycle_rho)
                assert _same(ag.recovery, one.recovery)

    def _count_agreements(self, monkeypatch) -> list:
        """A list that gains one entry per importance table `runner._agreements` is given."""
        calls, agreements = [], runner._agreements

        def counting(imps, *args):
            calls.extend(range(len(imps)))
            return agreements(imps, *args)

        monkeypatch.setattr(runner, "_agreements", counting)
        return calls

    def _case_counts(self, cfg) -> dict[str, int]:
        state = runner.RunState(cfg)
        n_configs, methods = len(state.config_ids()), len(state.scored_methods())
        n_spatial = n_configs * len(cfg.modes) * len(cfg.patches)
        return {"global": n_configs * methods, "spatial": n_spatial * methods}

    def test_built_once_per_run(self, tiny_run, tmp_path, monkeypatch):
        cfg, out, _ = tiny_run
        counts = self._case_counts(cfg)
        copy = tmp_path / "shared"
        shutil.copytree(out, copy)
        calls = self._count_agreements(monkeypatch)
        state = runner.RunState(replace(cfg, out_dir=str(copy)))
        for name in ("fidelity", "methods", "converge"):
            before = len(calls)
            runner.run_stage(state, name)
            assert len(calls) - before == (0 if name != "fidelity" else sum(counts.values()))
        assert state.agreements("global") is state.agreements("global")
        with pytest.raises(ValueError, match="scope"):
            state.agreements("local")

    @pytest.mark.parametrize("stage,scopes", [("methods", ("global",)),
                                              ("converge", ("global", "spatial"))])
    def test_stage_alone_builds_what_it_reads(self, stage, scopes, tiny_run, tmp_path,
                                              monkeypatch):
        # alone over a prepared directory, the stage builds the memo it reads cold and
        # writes the bytes of the full run, where fidelity built it first
        cfg, out, _ = tiny_run
        counts = self._case_counts(cfg)
        copy = tmp_path / "prepared"
        shutil.copytree(out, copy)
        writes = runner.STAGE_TABLE[runner.STAGES.index(stage)].writes
        for rel in writes:
            (copy / rel).unlink()
        calls = self._count_agreements(monkeypatch)
        assert runner.run_full(replace(cfg, out_dir=str(copy)), stage_filter=(stage,))["ok"]
        assert len(calls) == sum(counts[scope] for scope in scopes)
        for rel in writes:
            assert (copy / rel).read_bytes() == (out / rel).read_bytes(), rel

    def test_constant_rows_left_out(self, tiny_run):
        cfg, _, _ = tiny_run
        imp, util, ks = next(self._pairs(cfg))
        imp, util = imp.copy(), util.copy()
        imp[2] = 1.5  # constant importance row
        util[5] = -0.0  # constant utility row
        ag = self._check(imp, util, ks)
        assert ag.cycle_rho.size == imp.shape[0] - 2


def three_config(out_dir) -> config.ExperimentConfig:
    return tiny_config(out_dir, n_timestamps=10, model_depths=(1,),
                       target_variables=("t2m", "u10m", "msl"))


@pytest.fixture(scope="module")
def three_config_run(tmp_path_factory):
    cfg = three_config(tmp_path_factory.mktemp("threerun"))
    assert runner.run_full(cfg, stage_filter=("fidelity",))["ok"]
    return cfg


ANALYSIS_STAGES = [stage.name for stage in runner.STAGE_TABLE if "tables" in stage.reads]


def _watch_table_stores(monkeypatch) -> list[tuple[str, list, list[str]]]:
    """Per `Workspace.store` call on a tables store: the store, weakrefs to its arrays,
    and the earlier calls' stores, the last one aside, whose arrays were alive at it.

    A pass holds one config's tables while it loads the next, so that last list
    stays empty when at most one config's tables are in memory at a time.
    """
    returned, real = [], runner.Workspace.store

    def store(ws, rel, stamp, compute):
        if not rel.startswith("tables/tables-"):
            return real(ws, rel, stamp, compute)
        alive = [earlier for earlier, refs, _ in returned[:-1]
                 if any(ref() is not None for ref in refs)]
        arrays = real(ws, rel, stamp, compute)
        returned.append((rel, [weakref.ref(arr) for arr in arrays.values()], alive))
        return arrays

    monkeypatch.setattr(runner.Workspace, "store", store)
    return returned


class TestOneConfigAtATime:
    """The analysis stages read each configuration's tables in its turn."""

    @pytest.mark.parametrize("stage", ANALYSIS_STAGES)
    def test_at_most_one_config_alive(self, stage, three_config_run, tmp_path, monkeypatch):
        copy = tmp_path / "prepared"
        shutil.copytree(three_config_run.out_dir, copy)
        state = runner.RunState(replace(three_config_run, out_dir=str(copy)))
        returned = _watch_table_stores(monkeypatch)
        runner.run_stage(state, stage)
        assert len(returned) >= 2 * len(state.config_ids()) == 6
        assert [(rel, alive) for rel, _, alive in returned if alive] == []
        assert all(ref() is None for _, refs, _ in returned for ref in refs)

    @pytest.mark.parametrize("stage", ANALYSIS_STAGES)
    def test_each_store_opened_at_most_twice(self, stage, three_config_run, tmp_path,
                                             monkeypatch):
        # the preload, then the stage's one pass: the agreements and the scale-invariance
        # row come from that pass, not from passes of their own
        copy = tmp_path / "prepared"
        shutil.copytree(three_config_run.out_dir, copy)
        state = runner.RunState(replace(three_config_run, out_dir=str(copy)))
        returned = _watch_table_stores(monkeypatch)
        runner.run_stage(state, stage)
        opened = [rel for rel, _, _ in returned]
        stores = [runner.config_store("tables", cid) for cid in state.config_ids()]
        assert sorted(set(opened)) == sorted(stores)
        assert max(opened.count(rel) for rel in stores) <= 2, opened

    @pytest.mark.parametrize("stage", ["fidelity", "methods", "calibrate", "select", "pay"])
    def test_rows_stream_config_by_config(self, stage, three_config_run, tmp_path, monkeypatch):
        # every row of a configuration is handed to its file's writer before the next
        # configuration's tables load; rows handed over are counted, since the file
        # buffer delays the bytes on disk
        copy = tmp_path / "prepared"
        shutil.copytree(three_config_run.out_dir, copy)
        state = runner.RunState(replace(three_config_run, out_dir=str(copy)))
        state.ensure_tables()  # the preload, before the stage's one pass
        handed, loads = [], []  # each row's first cell; per load, the rows handed so far
        csv_writer, store = runner._csv_writer, runner.Workspace.store

        def counting_writer(fh, rel, header):
            write = csv_writer(fh, rel, header)

            def counted(row):
                handed.append(row[0])
                write(row)
            return counted

        def watched_store(ws, rel, stamp, compute):
            if rel.startswith("tables/tables-"):
                loads.append((rel, Counter(handed)))
            return store(ws, rel, stamp, compute)

        monkeypatch.setattr(runner, "_csv_writer", counting_writer)
        monkeypatch.setattr(runner.Workspace, "store", watched_store)
        runner.run_stage(state, stage)
        cids, total = state.config_ids(), Counter(handed)
        assert [rel for rel, _ in loads] == [runner.config_store("tables", c) for c in cids]
        assert all(total[cid] > 0 for cid in cids), total
        for previous, (rel, so_far) in zip(cids, loads[1:]):
            assert so_far[previous] == total[previous], (rel, so_far)

    def test_run_state_keeps_no_table_array(self, tmp_path, monkeypatch):
        states, init = [], runner.RunState.__init__

        def keep(state, *args, **kwargs):
            init(state, *args, **kwargs)
            states.append(state)

        monkeypatch.setattr(runner.RunState, "__init__", keep)
        returned = _watch_table_stores(monkeypatch)
        assert runner.run_full(three_config(tmp_path / "fresh"))["ok"]
        (state,) = states  # still alive here, so nothing it holds has been freed
        assert len(returned) >= 3 and state.models
        assert all(ref() is None for _, refs, _ in returned for ref in refs)


class TestFieldData:
    """Fields enter a run in `RunState.ensure_data`, which checks and freezes them."""

    def test_fields_read_only_fresh_and_resumed(self, tiny_run, tmp_path):
        cfg, _, _ = tiny_run
        fresh = runner.RunState(replace(cfg, out_dir=str(tmp_path / "fresh")))
        resumed = runner.RunState(cfg)  # over the tiny run's data store
        for state in (fresh, resumed):
            state.ensure_data()
            assert state.fields.shape == (cfg.n_timestamps,) + state.grid.shape
            assert state.clim.shape == state.grid.shape
            for arr in (state.fields, state.clim):
                assert arr.dtype == np.float64
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0, 0] = 1.0
        assert np.array_equal(fresh.fields, resumed.fields)
        assert np.array_equal(fresh.clim, resumed.clim)

    @pytest.mark.parametrize("name,bad", [("fields", np.nan), ("fields", np.inf),
                                          ("climatology", -np.inf)])
    def test_non_finite_store_raises_before_the_model(self, tiny_run, tmp_path, monkeypatch,
                                                      name, bad):
        cfg, out, _ = tiny_run
        stamp = config.config_hash(cfg)
        arrays = fieldio.load_store(out / runner.DATA_STORE, stamp)
        arrays[name][(1,) * arrays[name].ndim] = bad
        copy = tmp_path / "bad"
        (copy / "data").mkdir(parents=True)
        fieldio.save_store(copy / runner.DATA_STORE, stamp, arrays)

        def boom(*args, **kwargs):
            raise AssertionError("a non-finite field reached the model")

        for attr in ("forward_values", "gradient_values", "forward_many", "gradient_many",
                     "forward_window", "value_and_gradient_window"):
            monkeypatch.setattr(DeskModel, attr, boom)
        state = runner.RunState(replace(cfg, out_dir=str(copy)))
        with pytest.raises(ValueError, match=runner.DATA_STORE):
            state.ensure_models()
        assert state.fields is None and not state.models


class TestWorkspace:
    def test_failed_writes_leave_previous_content_or_nothing(self, tmp_path):
        ws = runner.Workspace(tmp_path / "ws")
        ws.write_csv("results/a.csv", ["x"], [["1"]])
        ws.write_text("results/r.md", "report\n")
        before = {rel: ws.path(rel).read_bytes() for rel in ("results/a.csv", "results/r.md")}

        def rows():
            yield ["2"]
            raise RuntimeError("crash mid-write")

        for rel in ("results/a.csv", "results/b.csv"):
            with pytest.raises(RuntimeError):
                ws.write_csv(rel, ["x"], rows())
            for ragged in ([["2"], []], [["2"], ["3", "4"]]):  # a short row, a long row
                with pytest.raises(ValueError, match=f"{rel}: row 1 has {len(ragged[1])} cells"):
                    ws.write_csv(rel, ["x"], ragged)
        with pytest.raises(TypeError):  # the payload does not serialise
            ws.write_json("results/c.json", {"a": 1, "b": object()})
        with pytest.raises(UnicodeEncodeError):
            ws.write_text("results/r.md", "new\ud800")
        assert ws.files == set(before)
        config.save_config(tiny_config(ws.root), ws.path("config.yaml"))
        before["config.yaml"] = ws.path("config.yaml").read_bytes()
        with pytest.raises(yaml.representer.RepresenterError):
            config.save_config(tiny_config(ws.root, seed=object()), ws.path("config.yaml"))
        assert {rel: ws.path(rel).read_bytes() for rel in before} == before
        assert sorted(p.name for p in (ws.root / "results").iterdir()) == ["a.csv", "r.md"]
        assert sorted(p.name for p in ws.root.iterdir()) == ["config.yaml", "results"]

    def test_read_of_a_missing_file_creates_no_directory(self, tmp_path):
        ws = runner.Workspace(tmp_path / "ws")
        with pytest.raises(FileNotFoundError):
            ws.read_rows("results/missing.csv")
        assert not ws.root.exists()

    def test_config_only_state_creates_no_directory(self, tmp_path):
        # config ids and scenarios come from the config alone, so nothing is written
        out = tmp_path / "never"
        state = runner.RunState(tiny_config(out))
        for cid in state.config_ids():
            assert runner.build_scenarios(state, cid)
        assert not out.exists()


class TestCli:
    def test_full_with_stage_filter(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "cli")
        cfg_path = tmp_path / "c.yaml"
        config.save_config(cfg, cfg_path)
        rc = cli.main(["full", "--config", str(cfg_path), "--stage-filter", "gen"])
        assert rc == 0
        assert "gen: completed" in capsys.readouterr().out
        assert (tmp_path / "cli" / "data" / "stations.csv").exists()

    def test_single_stage_then_dependent_stage(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "cli2")
        cfg_path = tmp_path / "c2.yaml"
        config.save_config(cfg, cfg_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        for rel in (runner.DATA_STORE, "data/models.json", "data/stations.csv"):
            assert (tmp_path / "cli2" / rel).exists(), rel  # fields, models and stations
        assert cli.main(["fidelity", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cli2" / "results" / "fidelity_global.csv").exists()

    def test_seed_and_out_override(self, tmp_path):
        cfg_path = tmp_path / "c3.yaml"
        config.save_config(tiny_config(tmp_path / "orig"), cfg_path)
        rc = cli.main(["gen", "--config", str(cfg_path), "--seed", "123",
                       "--out", str(tmp_path / "override")])
        assert rc == 0
        saved = config.load_config(tmp_path / "override" / "config.yaml")
        assert saved.seed == 123

    def test_readme_quick_start_keeps_the_run(self, tmp_path, monkeypatch):
        # the stage commands after `full --config my.yaml --out runs/exp1 --fast` run
        # under the run's saved config, so they leave its files in place
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
        commands = [shlex.split(line)[1:] for line in section.splitlines()
                    if line.startswith("gradsense ") and "runs/exp1" in line]
        assert commands[0][:3] == ["full", "--config", "my.yaml"] and len(commands) > 1
        monkeypatch.chdir(tmp_path)
        config.save_config(tiny_config("unused"), "my.yaml")
        assert cli.main(commands[0]) == 0
        run = Path("runs/exp1")
        before = _hash_tree(run)
        for argv in commands[1:]:
            assert cli.main(argv) == 0
        after = _hash_tree(run)
        del before["manifest.json"], after["manifest.json"]  # it records the stages run
        assert after == before and "tables/tables-d1-zurich-t2m.gsa" in before

    def test_invalid_override_raises_before_the_directory(self, tmp_path):
        # run_full checks the config the flags built before it touches the directory
        cfg_path = tmp_path / "c6.yaml"
        config.save_config(tiny_config(tmp_path / "never"), cfg_path)
        with pytest.raises(ValueError, match=r"\bseed\b"):
            cli.main(["gen", "--config", str(cfg_path), "--seed", "-1"])
        assert not (tmp_path / "never").exists()

    def test_every_stage_parses(self):
        parser = cli.build_parser()
        for name in runner.STAGES + ("full",):
            assert parser.parse_args([name]).command == name

    def test_subadditivity_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "c4.yaml"
        config.save_config(tiny_config(tmp_path / "sub"), cfg_path)
        assert cli.main(["subadditivity", "--config", str(cfg_path)]) == 0
        assert "subadditivity: completed" in capsys.readouterr().out
        assert (tmp_path / "sub" / "results" / "subadditivity.csv").exists()
        manifest = json.loads((tmp_path / "sub" / "manifest.json").read_text())
        assert "results/subadditivity.csv" in manifest["files"]
        assert {s for n, s in manifest["stages"].items() if n != "subadditivity"} == {
            "skipped"}

    def test_failed_stage_writes_traceback(self, tmp_path, monkeypatch):
        def exploding_stage(state):
            raise RuntimeError("boom")

        _replace_runs(monkeypatch, report=exploding_stage)
        cfg_path = tmp_path / "c5.yaml"
        config.save_config(tiny_config(tmp_path / "fails"), cfg_path)
        assert cli.main(["report", "--config", str(cfg_path)]) == 1
        manifest = json.loads((tmp_path / "fails" / "manifest.json").read_text())
        assert manifest["stages"]["report"] == "failed: boom"
        assert manifest["failures"]["report"].rstrip().endswith("RuntimeError: boom")

    def test_unknown_stage_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["explode"])
