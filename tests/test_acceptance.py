"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria 3, 5, 6, 7, 11, 12 and 13 read the artifacts of a single full
default-configuration run (executed once per session and re-executed for the
byte-identity check); the rest compute directly against oracles.
"""

import csv
import hashlib
import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from gradsense import (ablation, attribution as attr, config, fieldio, gaming, incentive, metrics,
                       runner, synth)
from gradsense.grid import GridSpec, make_station_grid, make_target
from gradsense.model import make_desk_model, make_truth
from oracles import gradient_times_input, make_linear_model, perturb_patch, vanilla_gradient


def report(num: int, text: str) -> None:
    print(f"\n[criterion {num:02d}] PASS: {text}")


def _hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = replace(config.ExperimentConfig(), out_dir=str(out))
    t0 = time.time()
    manifest = runner.run_full(cfg)
    elapsed = time.time() - t0
    first = _hash_tree(out)
    runner.run_full(cfg)
    second = _hash_tree(out)
    return {"cfg": cfg, "out": out, "manifest": manifest, "elapsed": elapsed,
            "first": first, "second": second}


def _rows(run, rel):
    with open(run["out"] / rel, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_01_gradient_correctness(desk_grid, desk_target, desk_data, rng):
    fields, _ = desk_data
    x = fields[0]
    t0 = time.time()
    models = [make_desk_model(1, desk_grid, desk_target, depth=3),
              make_desk_model(4, desk_grid, desk_target, depth=1),
              make_linear_model(2, desk_grid, desk_target)]
    for model in models:
        g = model.gradient_values(x)
        rw, cw = model.influence_window()
        for _ in range(100):
            if rng.random() < 0.6:
                v = rng.integers(0, desk_grid.n_variables)
                i = rng.integers(rw.start, rw.stop)
                j = rng.integers(cw.start, cw.stop)
            else:
                v, i, j = (rng.integers(0, s) for s in desk_grid.shape)
            h = 1e-4 * (abs(x[v, i, j]) + 1.0)
            xp = x.copy(); xp[v, i, j] += h
            xm = x.copy(); xm[v, i, j] -= h
            fp, fm = model.forward_values(xp), model.forward_values(xm)
            fd = (fp - fm) / (2 * h)
            err = abs(fd - g[v, i, j])
            # Rounding floor of the central difference: F(x +/- h) each carry
            # about eps*|F| of rounding, so fd cannot resolve differences below
            # eps*|F|/h.  The linear model's F is a dot product over raw
            # fields (msl ~ 1013 everywhere), about 5.3e5, so its floor (~1e-6)
            # exceeds 1e-5*|fd| where the weight is small.  The desk models
            # have |F| < 1 and a negligible floor.  This is not a loosening:
            # the 1e-5 relative gate applies wherever the oracle can resolve
            # it, and a gradient scaled by (1 + 1e-4) is still rejected at most
            # coordinates of every model.
            floor = np.finfo(float).eps * max(abs(fp), abs(fm)) / h
            assert err <= 1e-5 * abs(fd) + floor or err <= 1e-9, (model.model_id, v, i, j)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"reverse-mode gradient matches central differences at 100 coords "
              f"per model ({elapsed:.1f} s)")


def test_criterion_02_ig_axioms(desk_model, linear_model, desk_data):
    fields, clim = desk_data
    for f in fields[:5]:
        ig = attr.integrated_gradients(desk_model, f, clim, 50)
        delta = desk_model.forward_values(f) - desk_model.forward_values(clim)
        assert abs(ig.sum() - delta) <= 1e-3 * abs(delta) + 1e-9
        igl = attr.integrated_gradients(linear_model, f, clim, 1)
        delta_l = linear_model.forward_values(f) - linear_model.forward_values(clim)
        assert abs(igl.sum() - delta_l) <= 1e-12 * abs(delta_l)
    zero = attr.integrated_gradients(desk_model, fields[0], fields[0], 50)
    assert np.all(zero == 0.0)
    report(2, "signed-IG completeness holds (1e-3 desk at K=50, 1e-12 linear at K=1); "
              "input-at-baseline gives the zero map")


def test_criterion_03_k_convergence(full_run):
    rows = _rows(full_run, "results/k_sensitivity.csv")
    checked = 0
    for r in rows:
        if r["steps"] == "8" and r["reference_steps"] == "50":
            assert float(r["rank_rho"]) == 1.0, r["config_id"]
            checked += 1
    assert checked == 18
    report(3, f"K=8 and K=50 variable rankings identical (rho = 1.0) "
              f"on all {checked} desk configurations")


def test_criterion_04_method_identities(desk_model, linear_model, desk_data):
    fields, clim = desk_data
    for f in fields[:5]:
        vg = vanilla_gradient(desk_model, f)
        gti = gradient_times_input(desk_model, f, clim)
        assert np.array_equal(vg * (f - clim), gti)
        gti_l = gradient_times_input(linear_model, f, clim)
        for steps in (1, 7):
            ig_l = attr.integrated_gradients(linear_model, f, clim, steps)
            assert np.allclose(ig_l, gti_l, rtol=1e-12, atol=1e-15)
    report(4, "GTI = VG (x - baseline) exactly; IG = GTI on the linear model to 1e-12")


def test_criterion_05_scale_invariance(full_run, desk_model, desk_stations, desk_data):
    rows = _rows(full_run, "results/scale_invariance.csv")
    assert len(rows) == 1
    r = rows[0]
    assert float(r["ig_max_rel_dev"]) <= 1e-9
    assert float(r["gti_max_rel_dev"]) <= 1e-9
    assert r["vg_ranking_changed"] == "True"
    assert r["selections_unchanged"] == "True"

    # direct check on the session model as well
    fields, clim = desk_data
    f = fields[0]
    vg_imp = attr.variable_importance(vanilla_gradient(desk_model, f))
    var = int(np.argmax(vg_imp))
    scaled = desk_model.with_rescaled_variable(var, 1000.0)
    xs = f.copy(); xs[var] *= 1000.0
    cs = clim.copy(); cs[var] *= 1000.0
    gti0 = gradient_times_input(desk_model, f, clim)
    gti1 = gradient_times_input(scaled, xs, cs)
    scale = np.abs(gti0).max()
    assert np.abs(gti1 - gti0).max() <= 1e-9 * scale
    sel0 = metrics.topk_indices(attr.spatial_importance(gti0, desk_stations), 20)
    sel1 = metrics.topk_indices(attr.spatial_importance(gti1, desk_stations), 20)
    assert np.array_equal(sel0, sel1)
    vg1 = vanilla_gradient(scaled, xs)
    rank0 = np.argsort(-vg_imp)
    rank1 = np.argsort(-attr.variable_importance(vg1))
    assert not np.array_equal(rank0, rank1)
    report(5, "1000x unit change: IG/GTI values and selections invariant, "
              "VG ranking moves")


def test_criterion_06_selection_suite(full_run, rng):
    rows = _rows(full_run, "results/selection.csv")
    by_case = {}
    for r in rows:
        key = (r["config_id"], r["mode"], r["patch"], r["k"])
        by_case.setdefault(key, {})[r["strategy"]] = float(r["captured"])
    assert len(by_case) > 500
    for key, caps in by_case.items():
        for strategy, c in caps.items():
            assert caps["oracle"] >= c - 1e-12, (key, strategy)

    u = rng.random(117)
    k = 20
    caps = np.array([incentive.select("uniform", k, u, seed=s).captured
                     for s in range(1000)])
    se = caps.std() / math.sqrt(caps.size)
    assert abs(caps.mean() - k / 117) <= 2 * se

    for _ in range(50):
        util = rng.random(60)
        s = set(rng.choice(60, 12, replace=False).tolist())
        t = set(rng.choice(sorted(set(range(60)) - s), 12, replace=False).tolist())
        lhs = incentive.captured_utility(s | t, util)
        rhs = incentive.captured_utility(s, util) + incentive.captured_utility(t, util)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    report(6, f"oracle dominates in all {len(by_case)} selection cases; uniform "
              f"E[C] = K/N within 2 SE; disjoint-set additivity exact")


def test_criterion_07_payment_suite(full_run, rng):
    budget = full_run["cfg"].budget
    rows = _rows(full_run, "results/payments.csv")
    by_alloc = {}
    for r in rows:
        key = (r["config_id"], r["method"])
        by_alloc.setdefault(key, []).append(float(r["amount"]))
        assert float(r["amount"]) >= 0.0 and float(r["share"]) >= 0.0
    assert by_alloc
    for key, amounts in by_alloc.items():
        assert abs(sum(amounts) - budget) <= 1e-9 * budget, key

    u = rng.random(117) + 0.01
    rep = incentive.decile_calibration(u, u)
    assert rep.overpayment_total <= 1e-12
    assert rep.gini_ratio == pytest.approx(1.0, abs=1e-9)
    report(7, f"budget balance to 1e-9 B and nonnegativity on {len(by_alloc)} "
              f"allocations; self-calibration gives overpayment 0, Gini ratio 1")


def test_criterion_08_statistics_oracles(rng):
    # spearman vs scipy (rank math incl. ties)
    done = 0
    while done < 100:
        n = int(rng.integers(5, 25))
        a = rng.integers(0, 8, n).astype(float)
        b = rng.normal(size=n)
        if np.all(a == a[0]):
            continue
        ours = metrics.spearman(a, b)
        ref_rho, ref_p = sps.spearmanr(a, b)
        assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
        assert ours.p_value == pytest.approx(ref_p, abs=1e-9)
        done += 1

    for _ in range(100):  # top-k overlap: exact set arithmetic
        n = int(rng.integers(3, 20))
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        k = int(rng.integers(1, n + 1))
        ta = set(sorted(range(n), key=lambda i: (-a[i], i))[:k])
        tb = set(sorted(range(n), key=lambda i: (-b[i], i))[:k])
        assert metrics.topk_overlap(a, b, k) == len(ta & tb) / k

    for _ in range(100):  # gini vs O(n^2) pairwise oracle
        v = rng.random(int(rng.integers(2, 30))) + 0.01
        n = v.size
        expected = sum(abs(p - q) for p in v for q in v) / (2 * n * n * v.mean())
        assert metrics.gini(v) == pytest.approx(expected, abs=1e-12)

    for _ in range(100):  # PR-AUC vs brute curve construction
        n = int(rng.integers(4, 20))
        s = rng.integers(0, 5, n).astype(float)
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            continue
        pos = y.sum()
        pts = []
        for thr in sorted(set(s), reverse=True):
            sel = s >= thr
            tp = int(y[sel].sum())
            pts.append((tp / pos, tp / sel.sum()))
        area, (r0, p0) = 0.0, (0.0, pts[0][1])
        for r, p in pts:
            area += (r - r0) * (p + p0) / 2
            r0, p0 = r, p
        assert metrics.pr_auc(s, y) == pytest.approx(area, abs=1e-12)

    for _ in range(100):  # BH step-up vs brute scan
        m = int(rng.integers(1, 15))
        p = np.round(rng.random(m), 3)
        q = 0.1
        order = np.argsort(p, kind="stable")
        cutoff = 0
        for rank, idx in enumerate(order, start=1):
            if p[idx] <= rank * q / m:
                cutoff = rank
        expected = np.zeros(m, dtype=bool)
        expected[order[:cutoff]] = True
        assert np.array_equal(metrics.bh_fdr(p, q), expected)

    for _ in range(50):  # wilcoxon exact vs sign-pattern enumeration
        d = rng.normal(size=int(rng.integers(6, 11)))
        ranks = metrics.average_ranks(np.abs(d))
        t_obs = ranks[d > 0].sum()
        count = sum(1 for signs in itertools.product([0, 1], repeat=d.size)
                    if sum(r for sgn, r in zip(signs, ranks) if sgn) >= t_obs - 1e-12)
        assert metrics.wilcoxon_signed_rank(d) == pytest.approx(count / 2 ** d.size)
    for _ in range(50):  # wilcoxon approx vs scipy with tie correction
        d = np.round(rng.normal(0.2, 1.0, size=30), 1)
        d = d[d != 0]
        if d.size < 14:
            continue
        ref = sps.wilcoxon(d, alternative="greater", method="approx",
                           correction=False).pvalue
        assert metrics.wilcoxon_signed_rank(d) == pytest.approx(ref, abs=1e-10)
    report(8, "spearman/top-k/gini/PR-AUC/BH-FDR/wilcoxon all match independent "
              "brute-force oracles on 100 random instances each")


def test_criterion_09_bootstrap_behaviour(rng):
    t0 = time.time()

    def mean_stat(values, counts):
        return counts @ values / counts.sum(axis=1)

    hits = 0
    for i in range(500):
        sample = rng.normal(size=60)
        ci = metrics.bootstrap_iid(sample, mean_stat, 1000, seed=i)
        hits += ci.lower <= 0.0 <= ci.upper
    coverage = hits / 500
    assert abs(coverage - 0.95) <= 0.03

    grid = GridSpec(36, 50, variables=("a",))
    st = make_station_grid(grid, 4)
    blocks = metrics.station_blocks(st, 2)
    draws = synth.sample_fields(777, grid, 120, slope=-2.2)
    wider = 0
    for i in range(120):
        vals = draws[i, 0][st.lat_idx, st.lon_idx]
        ci_i = metrics.bootstrap_iid(vals, mean_stat, 1000, seed=1000 + i)
        ci_b = metrics.bootstrap_block_spatial(vals, blocks, mean_stat, 1000,
                                               seed=1000 + i)
        wider += ci_b.width >= ci_i.width
    elapsed = time.time() - t0
    assert wider / 120 >= 0.8
    assert elapsed < 120.0
    report(9, f"iid coverage {coverage:.1%} (95% +/- 3pp); block CI wider on "
              f"{wider}/120 correlated trials; {elapsed:.0f} s")


def test_criterion_10_linear_fidelity_oracle(desk_grid, desk_target, desk_stations,
                                             desk_data):
    fields, clim = desk_data
    lm = make_linear_model(2, desk_grid, desk_target)
    truth = make_truth(lm, 31, noise_std=0.0, weight_jitter=0.0)
    spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
    imps, utils = [], []
    for t, f in enumerate(fields[:20]):
        gti = gradient_times_input(lm, f, clim)
        imps.append(attr.spatial_importance(gti, desk_stations))
        utils.append(np.abs(ablation.spatial_utility(lm, f, t, truth.verify(f, t),
                                                     desk_stations, spec, clim)))
    rho = metrics.spearman(np.asarray(imps, dtype=np.float64).mean(axis=0),
                           np.asarray(utils, dtype=np.float64).mean(axis=0)).rho
    assert rho >= 0.95
    report(10, f"linear-model spatial fidelity rho = {rho:.3f} >= 0.95 "
               f"(noiseless truth, mean replacement)")


def _manifest_scenarios(run):
    with open(run["out"] / "results/gaming_scenarios.json") as fh:
        return json.load(fh)


def _gaming_scores(run):
    """Baseline and attack station scores per scenario, from the gaming stores.

    A config's store keeps one attack row per scenario, in the order
    results/gaming_outcomes.csv lists that config's scenarios.
    """
    stores, out, seen = {}, {}, {}
    for r in _rows(run, "results/gaming_outcomes.csv"):
        cid = r["config_id"]
        if cid not in stores:
            stores[cid] = fieldio.load_store(run["out"] / runner.config_store("gaming", cid),
                                             f"{config.config_hash(run['cfg'])}/{cid}")
            assert stores[cid] is not None, cid
        i = seen[cid] = seen.get(cid, -1) + 1
        out[r["scenario_id"]] = (stores[cid]["baseline"], stores[cid]["attack"][i])
    return out


def test_criterion_11_gaming_suite(full_run, desk_model, desk_truth, desk_data,
                                   desk_stations, desk_target):
    fields, clim = desk_data
    # null scenarios: exact identity
    null = gaming.AttackScenario("null", "inflate", (60,), 0.0, "all_surface",
                                 tuple(range(6)), "uniform")
    y_star = np.array([desk_truth.verify(x, t) for t, x in enumerate(fields)])
    run = gaming.run_gaming_experiment(desk_model, y_star, fields, clim, desk_stations, [null])
    assert run.inflation_ratio[0] == 1.0 and run.mae_change[0] == 0.0

    scen = _manifest_scenarios(full_run)
    scores = _gaming_scores(full_run)

    # D4 attacker suspicion nondecreasing in magnitude (close placement strata)
    sus_by_pct = {}
    for sid, meta in scen.items():
        if meta["kind"] == "inflate" and meta["placement"] == "close" \
                and meta["scope"] == "all_surface":
            b, a = scores[sid]
            s = gaming.detector_d4_proxy_log_ratio(b, a)
            sus_by_pct.setdefault(meta["magnitude_pct"], []).append(
                float(s[meta["attackers"]].mean()))
    pcts = sorted(sus_by_pct)
    assert pcts == [10.0, 30.0, 50.0, 100.0, 200.0]
    means = [np.mean(sus_by_pct[p]) for p in pcts]
    assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1)), means

    det_rows = _rows(full_run, "results/gaming_results.csv")
    by_det = {}
    for r in det_rows:
        by_det.setdefault((r["scenario_id"], r["detector"]), r)

    def rows_for(detector, want):
        return [by_det[(sid, detector)] for sid, meta in scen.items()
                if want(meta) and (sid, detector) in by_det]

    # scenarios whose attack never reaches the model leave every score at its
    # baseline exactly (run_gaming_experiment's documented property), so D4 is
    # 0 for every station there
    reached = {r["scenario_id"]: r["attack_reached_model"] == "True"
               for r in _rows(full_run, "results/gaming_outcomes.csv")}
    unreached = [sid for sid, hit in reached.items() if not hit]
    assert unreached
    for sid in unreached:
        b, a = scores[sid]
        assert np.array_equal(a, b), sid
        assert np.all(gaming.detector_d4_proxy_log_ratio(b, a) == 0.0), sid

    # D4 top-5 hit rate at 50% magnitude, close placement, over the scenarios
    # whose attack reaches the model.  "Close" is a km stratum (< 500 km), but
    # a surrogate sees only its cell-defined influence window: at depth 1 that
    # window holds few of the close stations, and an attack outside it cannot
    # move any score (checked above), so no proxy detector can see it.  The
    # reached rows are the stratum where the attack is visible at all; both
    # depths must contribute to it.
    d4 = [r for r in rows_for("d4", lambda m: m["kind"] == "inflate"
                              and m["placement"] == "close" and m["magnitude_pct"] == 50.0)
          if reached[r["scenario_id"]]]
    assert len(d4) >= 9
    depths = {scen[r["scenario_id"]]["config_id"].split("-")[0] for r in d4}
    assert {"d1", "d3"} <= depths, depths
    hit5 = np.mean([float(r["hit_at_5"]) for r in d4])
    assert hit5 >= 0.8

    # baseline-free detection stays at chance on uniform placement
    u1 = rows_for("u1", lambda m: m["kind"] == "inflate" and m["placement"] == "uniform")
    prev = np.mean([len(scen[r["scenario_id"]]["attackers"]) / desk_stations.n_stations
                    for r in u1])
    u1_auc = np.mean([float(r["pr_auc"]) for r in u1])
    assert abs(u1_auc - prev) <= 0.05

    # spoof: attacker D4 suspicion nonpositive on average; D5 catches the gap
    spoof_sus = []
    for sid, meta in scen.items():
        if meta["kind"] == "spoof":
            b, a = scores[sid]
            s = gaming.detector_d4_proxy_log_ratio(b, a)
            spoof_sus.append(float(s[meta["attackers"]].mean()))
    assert np.mean(spoof_sus) <= 0.0
    d5 = rows_for("d5", lambda m: m["kind"] == "spoof")
    d5_hit = np.mean([float(r["hit_at_5"]) for r in d5])
    assert d5_hit >= 0.5
    report(11, f"null scenarios exact; D4 suspicion monotone over magnitudes; "
               f"unreached scenarios score D4 = 0 exactly; D4 hit@5 {hit5:.2f} >= 0.8 "
               f"(close, 50%, attack reaches the model); U1 PR-AUC {u1_auc:.3f} "
               f"within 0.05 of prevalence {prev:.3f} (uniform); spoof D4 "
               f"{np.mean(spoof_sus):.2f} <= 0, D5 hit@5 {d5_hit:.2f} >= 0.5")


def test_criterion_12_subadditivity(full_run, linear_model, desk_data, desk_stations):
    fields, clim = desk_data
    truth = make_truth(linear_model, 9, noise_std=0.0, weight_jitter=0.05)
    spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
    x = fields[0]
    y_star = truth.verify(x, 0)
    base_pred = linear_model.forward_values(x)
    sign = np.sign(base_pred - y_star)
    chosen = []
    for g in range(desk_stations.n_stations):
        pert = perturb_patch(x, 0, desk_stations, g, spec, clim)
        if sign * (linear_model.forward_values(pert) - base_pred) > 0:
            chosen.append(g)
        if len(chosen) == 5:
            break
    res = ablation.joint_ablation(linear_model, x, 0, y_star, desk_stations, chosen,
                                  spec, clim)
    assert res.ratio_defined
    assert res.ratio == pytest.approx(1.0, abs=1e-9)

    rows = _rows(full_run, "results/subadditivity.csv")
    assert rows
    for r in rows:
        if int(r["n_defined"]) > 0:
            assert math.isfinite(float(r["median_ratio"])), r
        assert int(r["n_defined"]) + int(r["n_flagged"]) == full_run["cfg"].n_timestamps
    report(12, f"linear disjoint same-sign ratio 1.0 +/- 1e-9; "
               f"{len(rows)} desk joint-ablation cases all guarded and finite")


def test_criterion_13_end_to_end(full_run):
    assert full_run["manifest"]["ok"]
    assert all(v == "completed" for v in full_run["manifest"]["stages"].values())
    assert full_run["elapsed"] < 600.0
    assert full_run["first"] == full_run["second"]
    report(13, f"run_full completed every stage in {full_run['elapsed']:.0f} s "
               f"(< 600 s) and a rerun is byte-identical "
               f"({len(full_run['first'])} files)")
