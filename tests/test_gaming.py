import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from gradsense import ablation, config, gaming, runner
from gradsense import attribution as attr
from gradsense.model import DeskModel
from gradsense.metrics import topk_indices


def scenario(attackers, kind="inflate", pct=50.0, scope_vars=(0, 1, 2, 3, 4, 5),
             placement="uniform"):
    return gaming.AttackScenario(
        scenario_id=f"test-{kind}-{pct}", kind=kind, attackers=tuple(attackers),
        magnitude_pct=pct, scope="all_surface", scope_variables=tuple(scope_vars),
        placement=placement)


def truth_values(truth, fields):
    """The (T,) truth values `run_gaming_experiment` takes, one per field."""
    return np.array([truth.verify(x, t) for t, x in enumerate(fields)])


def attacked(x, sc, clim, stations):
    """A copy of field x under scenario sc."""
    out = x.copy()
    gaming._attack_in_place(out, sc, clim, stations, (slice(None), slice(None)))
    return out


def oracle_attack(values, sc, clim, stations):
    """The per-cell loop the attack ran before it was vectorised."""
    vals = values.copy()
    sv = list(sc.scope_variables)
    for g in sc.attackers:
        i, j = stations.cell(g)
        if sc.kind == "inflate":
            factor = 1.0 + sc.magnitude_pct / 100.0
            vals[sv, i, j] = clim[sv, i, j] + factor * (vals[sv, i, j] - clim[sv, i, j])
        else:
            vals[sv, i, j] = clim[sv, i, j]
    return vals


def oracle_scenarios(stations, target):
    close = gaming.sample_attackers(stations, target, 5, "close", 3)
    mixed = gaming.sample_attackers(stations, target, 3, "mixed", 4)
    far = gaming.sample_attackers(stations, target, 2, "uniform", 9)
    return [scenario(close, pct=30.0), scenario(mixed, pct=200.0, scope_vars=(1,)),
            scenario(close[:1], pct=50.0, scope_vars=(0, 3)),
            scenario(far, kind="spoof", pct=0.0), scenario(close, kind="spoof", pct=0.0,
                                                           scope_vars=(2, 5)),
            scenario(mixed, pct=0.0)]


class TestApplyAttack:
    def test_sparsity_exact(self, desk_data, desk_stations):
        fields, clim = desk_data
        sc = scenario([10, 40], scope_vars=(0, 2))
        out = attacked(fields[0], sc, clim, desk_stations)
        changed = np.nonzero(out != fields[0])
        cells = set(zip(changed[1].tolist(), changed[2].tolist()))
        assert cells <= {desk_stations.cell(10), desk_stations.cell(40)}
        assert set(changed[0].tolist()) <= {0, 2}

    def test_zero_pct_identity(self, desk_data, desk_stations):
        fields, clim = desk_data
        sc = scenario([40], pct=0.0)
        out = attacked(fields[0], sc, clim, desk_stations)
        assert np.array_equal(out, fields[0])

    def test_spoof_identity_on_climatology(self, desk_data, desk_stations):
        _, clim = desk_data
        sc = scenario([40], kind="spoof", pct=0.0)
        assert np.array_equal(attacked(clim, sc, clim, desk_stations), clim)

    def test_inflation_factor_exact(self, desk_data, desk_stations):
        fields, clim = desk_data
        sc = scenario([40], pct=50.0, scope_vars=(1,))
        out = attacked(fields[0], sc, clim, desk_stations)
        i, j = desk_stations.cell(40)
        old = fields[0][1, i, j] - clim[1, i, j]
        new = out[1, i, j] - clim[1, i, j]
        assert new == pytest.approx(1.5 * old, rel=1e-12)
        diff = np.sum(out != fields[0])
        assert diff == 1

    def test_matches_per_cell_loop(self, desk_data, desk_stations, desk_target):
        fields, clim = desk_data
        for sc in oracle_scenarios(desk_stations, desk_target):
            for f in fields[:3]:
                out = attacked(f, sc, clim, desk_stations)
                assert np.array_equal(out, oracle_attack(f, sc, clim, desk_stations)), sc

    def test_invalid_inputs_rejected(self, desk_data, desk_stations):
        fields, clim = desk_data
        with pytest.raises(ValueError, match="scope variable"):
            attacked(fields[0], scenario([3], scope_vars=(0, 6)), clim, desk_stations)
        for bad in (-1, desk_stations.n_stations):  # -1 would wrap to the last station
            with pytest.raises(IndexError, match="station id"):
                attacked(fields[0], scenario([3, bad]), clim, desk_stations)

    def test_scope_resolution(self, desk_grid, desk_target):
        assert gaming.resolve_scope("single_target_var", desk_grid.variables,
                                    desk_target) == (desk_target.variable_idx,)
        other = gaming.resolve_scope("single_other_var", desk_grid.variables, desk_target)
        assert other != (desk_target.variable_idx,) and len(other) == 1
        assert gaming.resolve_scope("all_surface", desk_grid.variables,
                                    desk_target) == tuple(range(6))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            scenario([])
        with pytest.raises(ValueError):
            scenario([1, 1])
        with pytest.raises(ValueError):
            scenario([1], pct=-5.0)


class TestPlacement:
    def test_strata_respected(self, desk_stations, desk_target):
        d = desk_stations.distances_to(desk_target.lat, desk_target.lon)
        close = gaming.sample_attackers(desk_stations, desk_target, 3, "close", 5)
        assert all(d[g] < gaming.CLOSE_KM for g in close)
        mid = gaming.sample_attackers(desk_stations, desk_target, 5, "mid", 5)
        assert all(gaming.CLOSE_KM <= d[g] < gaming.MID_KM for g in mid)

    def test_deterministic(self, desk_stations, desk_target):
        a = gaming.sample_attackers(desk_stations, desk_target, 5, "uniform", 42)
        b = gaming.sample_attackers(desk_stations, desk_target, 5, "uniform", 42)
        assert a == b

    def test_mixed_spans_strata(self, desk_stations, desk_target):
        d = desk_stations.distances_to(desk_target.lat, desk_target.lon)
        picks = gaming.sample_attackers(desk_stations, desk_target, 3, "mixed", 3)
        bands = {0 if d[g] < gaming.CLOSE_KM else (1 if d[g] < gaming.MID_KM else 2)
                 for g in picks}
        assert len(bands) == 3

    def test_small_pool_fill(self, small_stations, small_grid):
        from gradsense.grid import make_target
        target = make_target(small_grid, "t", 46.2, 8.1, "t2m")
        picks = gaming.sample_attackers(small_stations, target, 5, "close", 1)
        assert len(set(picks)) == 5

    def test_too_many_attackers(self, desk_stations, desk_target):
        with pytest.raises(ValueError):
            gaming.sample_attackers(desk_stations, desk_target, 200, "uniform", 1)


class TestExperiment:
    def test_null_scenario_exact_identity(self, desk_model, desk_truth, desk_data,
                                          desk_stations):
        fields, clim = desk_data
        sc = scenario([60], pct=0.0)
        run = gaming.run_gaming_experiment(desk_model, truth_values(desk_truth, fields),
                                           fields, clim, desk_stations, [sc])
        assert run.inflation_ratio[0] == 1.0
        assert run.mae_change[0] == 0.0
        assert not run.attack_reached_model[0]

    def test_out_of_window_attack_copies_baseline(self, desk_model, desk_truth,
                                                  desk_data, desk_stations):
        fields, clim = desk_data
        sc = scenario([0], pct=200.0)  # far corner station
        run = gaming.run_gaming_experiment(desk_model, truth_values(desk_truth, fields),
                                           fields, clim, desk_stations, [sc])
        assert not run.attack_reached_model[0]
        assert np.array_equal(run.attack[0], run.baseline)

    def test_inflation_increases_attacker_score(self, desk_model, desk_truth, desk_data,
                                                desk_stations, desk_target):
        fields, clim = desk_data
        close = gaming.sample_attackers(desk_stations, desk_target, 1, "close", 2)
        sc = scenario(close, pct=100.0)
        run = gaming.run_gaming_experiment(desk_model, truth_values(desk_truth, fields),
                                           fields, clim, desk_stations, [sc])
        assert run.attack_reached_model[0]
        assert run.inflation_ratio[0] > 1.0
        assert run.honest_share_change_pp[0] < 100.0 * (run.inflation_ratio[0] - 1.0)

    def test_matches_per_field_oracle(self, desk_model, desk_model_d1, desk_truth, desk_data,
                                      desk_stations, desk_target):
        fields, clim = desk_data
        scs = oracle_scenarios(desk_stations, desk_target)
        for model in (desk_model, desk_model_d1):
            window = (..., *model.influence_window())
            base_uns, base_preds = gaming._period_scores(model, fields[window], clim[window],
                                                         desk_stations)
            y_star = truth_values(desk_truth, fields)
            run = gaming.run_gaming_experiment(model, y_star, fields, clim,
                                               desk_stations, scs)
            assert np.array_equal(run.baseline, base_uns)
            n_reached = 0
            for i, sc in enumerate(scs):
                if not run.attack_reached_model[i]:
                    assert np.array_equal(run.attack[i], base_uns)
                    continue
                n_reached += 1
                stack = np.stack([oracle_attack(f, sc, clim, desk_stations)
                                  for f in fields])
                atk_uns, atk_preds = gaming._period_scores(model, stack[window], clim[window],
                                                           desk_stations)
                assert np.array_equal(run.attack[i], atk_uns), sc
                mae_change = (float(np.abs(atk_preds - y_star).mean())
                              - float(np.abs(base_preds - y_star).mean()))
                assert run.mae_change[i] == mae_change, sc
            assert 0 < n_reached < len(scs)

    def test_period_scores_match_full_grid_composition(self, desk_model, desk_model_d1,
                                                       desk_data, desk_stations, desk_target,
                                                       monkeypatch):
        # one forward pass per period, and the scores of the full-grid composition it
        # replaced: gradient_many, forward_many and spatial_importance on full-grid maps,
        # also when some attackers lie outside the window
        fields, clim = desk_data
        passes = []
        forward = DeskModel._forward_cached

        def counted(self, canvas):
            passes.append(len(canvas))
            return forward(self, canvas)

        monkeypatch.setattr(DeskModel, "_forward_cached", counted)
        close = gaming.sample_attackers(desk_stations, desk_target, 3, "close", 3)
        for model in (desk_model, desk_model_d1):
            window = (..., *model.influence_window())
            in_reach = ablation.stations_in_reach(model, desk_stations, 1)
            straddling = (int(in_reach[0]), 0, 1)  # one attacker in the window, two far out
            assert not set(in_reach.tolist()) & {0, 1}
            for sc in (None, scenario(close, pct=80.0),
                       scenario(straddling, kind="spoof", pct=0.0, scope_vars=(0, 4))):
                stack = fields if sc is None else np.stack(
                    [oracle_attack(f, sc, clim, desk_stations) for f in fields])
                passes.clear()
                scores, preds = gaming._period_scores(model, stack[window], clim[window],
                                                      desk_stations)
                assert passes == [len(fields)]
                maps = (stack - clim[None]) * model.gradient_many(stack)
                assert np.array_equal(
                    scores, attr.spatial_importance(maps, desk_stations).mean(axis=0))
                assert np.array_equal(preds, model.forward_many(stack))
                if sc is not None:  # the window-space attack equals the full-grid one
                    attacked = fields[window].copy()
                    gaming._attack_in_place(attacked, sc, clim[window], desk_stations,
                                            model.influence_window())
                    assert np.array_equal(attacked, stack[window])


class TestDetectors:
    def test_d4_zero_on_no_change(self, rng):
        b = rng.random(50) + 0.1
        assert np.all(gaming.detector_d4_proxy_log_ratio(b, b) == 0.0)

    def test_d4_log2_on_doubling(self, rng):
        b = rng.random(50) + 0.1
        a = b.copy()
        a[7] *= 2.0
        s = gaming.detector_d4_proxy_log_ratio(b, a)
        assert s[7] == pytest.approx(np.log(2.0))
        assert np.all(np.delete(s, 7) == 0.0)

    def test_d3_zero_on_same_ranking(self, rng):
        b = rng.random(30)
        assert np.all(gaming.detector_d3_rank_jump(b, b) == 0.0)

    def test_d3_jump_magnitude(self):
        b = np.arange(50, dtype=float)  # station 0 is rank 50 (lowest)
        a = b.copy()
        a[0] = 100.0  # now rank 1
        s = gaming.detector_d3_rank_jump(b, a)
        assert s[0] == 49.0

    def test_d3_naive_oracle(self, rng):
        b = rng.random(25)
        a = rng.random(25)

        def naive_rank(v):
            order = sorted(range(25), key=lambda i: (-v[i], i))
            r = np.empty(25)
            for pos, i in enumerate(order, start=1):
                r[i] = pos
            return r

        expected = naive_rank(b) - naive_rank(a)
        assert np.array_equal(gaming.detector_d3_rank_jump(b, a), expected)

    def test_d5_constant_scores(self, desk_stations):
        s = gaming.detector_d5_spatial_residual(np.full(desk_stations.n_stations, 2.0),
                                                desk_stations)
        assert np.allclose(s, 0.0, atol=1e-9)

    def test_d5_zeroed_station_most_suspicious(self, desk_stations, rng):
        s = rng.random(desk_stations.n_stations) + 1.0
        s[40] = 0.0
        susp = gaming.detector_d5_spatial_residual(s, desk_stations)
        assert np.argmax(susp) == 40

    def test_d5_smooth_field_low_suspicion(self, desk_stations, desk_target):
        d = desk_stations.distances_to(desk_target.lat, desk_target.lon)
        scores = 1.0 / (1.0 + d / 500.0)
        susp = gaming.detector_d5_spatial_residual(scores, desk_stations)
        assert np.median(susp) < 0.1

    def test_u1_constant_flagged(self):
        susp, defined = gaming.detector_u1_baseline_free(np.full(20, 3.0))
        assert not defined
        assert np.all(susp == 0.0)

    def test_u1_outlier_max(self, rng):
        s = rng.normal(size=40)
        s[11] = 50.0
        susp, defined = gaming.detector_u1_baseline_free(s)
        assert defined
        assert np.argmax(susp) == 11

    def test_detector_permutation_equivariance(self, rng):
        b = rng.random(30) + 0.1
        a = b * (1 + rng.random(30))
        perm = rng.permutation(30)
        for det in (gaming.detector_d4_proxy_log_ratio, gaming.detector_d3_rank_jump):
            direct = det(b, a)[perm]
            permuted = det(b[perm], a[perm])
            if det is gaming.detector_d3_rank_jump:
                # rank ties break by station id, so require equality only
                # where scores are unique, which they are here
                assert np.array_equal(direct, permuted)
            else:
                assert np.allclose(direct, permuted)


class TestSupervised:
    def _planted(self, rng, n_scenarios, separable=True):
        data = []
        for _ in range(n_scenarios):
            f = rng.normal(size=(60, 5))
            y = np.zeros(60, dtype=int)
            attackers = rng.choice(60, size=2, replace=False)
            y[attackers] = 1
            if separable:
                f[attackers, 0] += 10.0
            data.append((f, y))
        return data

    def test_separable_features(self, rng):
        data = {"a": self._planted(rng, 6), "b": self._planted(rng, 6),
                "c": self._planted(rng, 6)}
        res = gaming.detector_d7_supervised(data)
        for aucs in res.values():
            assert np.mean(aucs) == pytest.approx(1.0, abs=1e-9)

    def test_shuffled_labels_near_prevalence(self, rng):
        data = {"a": self._planted(rng, 10, separable=False),
                "b": self._planted(rng, 10, separable=False)}
        res = gaming.detector_d7_supervised(data)
        pooled = [a for aucs in res.values() for a in aucs]
        assert np.mean(pooled) == pytest.approx(2 / 60, abs=0.06)

    def test_deterministic(self, rng):
        data = {"a": self._planted(rng, 4), "b": self._planted(rng, 4)}
        assert gaming.detector_d7_supervised(data) == gaming.detector_d7_supervised(data)

    def test_needs_two_configs(self, rng):
        with pytest.raises(ValueError):
            gaming.detector_d7_supervised({"a": self._planted(rng, 3)})


class TestEvaluation:
    @staticmethod
    def _desk_runs(models, truth, desk_data, stations, target):
        """Two inflate scenarios and one spoof per model, keyed by the default config's ids."""
        fields, clim = desk_data
        scs = [scenario(gaming.sample_attackers(stations, target, 1, "close", seed), pct=100.0)
               for seed in (7, 8)]
        scs.append(scenario(scs[0].attackers, kind="spoof", pct=0.0))
        runs = {}
        for model in models:
            cid = f"d{model.depth}-{target.name}-{target.variable}"
            cid_scs = [replace(sc, scenario_id=f"{cid}:{i}") for i, sc in enumerate(scs)]
            runs[cid] = (cid_scs, gaming.run_gaming_experiment(
                model, truth_values(truth, fields), fields, clim, stations, cid_scs))
        return runs

    @staticmethod
    def _detect(out, monkeypatch, runs):
        """The detect stage over `runs`: the D7 input it builds and its two result tables."""
        state = runner.RunState(replace(config.ExperimentConfig(), out_dir=str(out)))
        monkeypatch.setattr(state, "ensure_gaming", lambda: runs)
        d7_input, real = {}, gaming.detector_d7_supervised

        def recording(config_data, **kwargs):
            d7_input.update(config_data)
            return real(config_data, **kwargs)

        monkeypatch.setattr(gaming, "detector_d7_supervised", recording)
        runner.run_stage(state, "detect")

        def rows(rel):
            with open(out / rel, newline="") as fh:
                return list(csv.DictReader(fh))

        return d7_input, rows("results/gaming_results.csv"), rows("results/detection_summary.csv")

    def test_score_scenario_and_summary(self, desk_model, desk_model_d1, desk_truth, desk_data,
                                        desk_stations, desk_target, tmp_path, monkeypatch):
        runs = self._desk_runs((desk_model, desk_model_d1), desk_truth, desk_data,
                               desk_stations, desk_target)
        d7_input, results, summary = self._detect(tmp_path, monkeypatch, runs)
        assert sorted(d7_input) == sorted(runs)
        dist = desk_stations.distances_to(desk_target.lat, desk_target.lon)
        per_scenario = {}  # (config id, kind, detector) -> per-scenario PR-AUCs
        for cid, (scs, run) in runs.items():
            b = run.baseline
            inflate = iter(d7_input[cid])
            for i, sc in enumerate(scs):
                a = run.attack[i]
                suspicions, scored, _ = gaming.score_scenario(sc, b, a, desk_stations)
                u1, _ = gaming.detector_u1_baseline_free(a)
                fresh = [gaming.detector_d3_rank_jump(b, a),
                         gaming.detector_d4_proxy_log_ratio(b, a),
                         gaming.detector_d5_spatial_residual(a, desk_stations), u1]
                assert np.array_equal(suspicions, np.array(fresh))
                for det, row in zip(gaming.DETECTORS, scored):
                    per_scenario.setdefault((cid, sc.kind, det), []).append(row[0])
                if sc.kind == "inflate":
                    # the D7 features reuse the d3/d4/d5 suspicions; oracle: recomputing them
                    features, labels = next(inflate)
                    assert np.array_equal(features, np.column_stack([*fresh[:3], b / b.sum(),
                                                                     dist]))
                    assert np.flatnonzero(labels).tolist() == sorted(sc.attackers)
            assert next(inflate, None) is None
        # the stage writes each score_scenario row: configs sorted, then scenario, detector
        assert [(r["scenario_id"], r["detector"]) for r in results] == [
            (sc.scenario_id, det) for cid in sorted(runs) for sc in runs[cid][0]
            for det in gaming.DETECTORS]
        kinds = {(s["kind"], s["detector"]) for s in summary}
        assert ("inflate", "d4") in kinds and ("spoof", "d4") in kinds
        for s in summary:
            assert 0.0 <= float(s["mean_pr_auc"]) <= 1.0
            if s["detector"] == "d7":
                continue
            # aggregation matches the per-scenario mean
            rows = per_scenario[(s["config_id"], s["kind"], s["detector"])]
            assert int(s["n_scenarios"]) == len(rows)
            assert float(s["mean_pr_auc"]) == pytest.approx(np.mean(rows))

    def test_zero_baseline_share_feature(self, desk_model, desk_model_d1, desk_truth, desk_data,
                                         desk_stations, desk_target, tmp_path, monkeypatch):
        # an all-zero baseline has no shares; the D7 share feature is 0 there, not NaN
        runs = {cid: (scs, replace(run, baseline=np.zeros_like(run.baseline)))
                for cid, (scs, run) in self._desk_runs((desk_model, desk_model_d1), desk_truth,
                                                       desk_data, desk_stations,
                                                       desk_target).items()}
        d7_input, _, summary = self._detect(tmp_path, monkeypatch, runs)
        assert sorted(d7_input) == sorted(runs)
        for rows in d7_input.values():
            for features, _ in rows:
                assert np.all(features[:, 3] == 0.0)
                assert np.isfinite(features).all()
        assert all(not math.isnan(float(s["mean_pr_auc"])) for s in summary)

    def test_perfect_detector_metrics(self, desk_stations):
        labels_pos = {40}
        suspicion = np.zeros(desk_stations.n_stations)
        suspicion[40] = 5.0
        top1 = set(topk_indices(suspicion, 1).tolist())
        assert top1 == labels_pos
