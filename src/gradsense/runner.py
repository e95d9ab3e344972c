"""Configuration-driven experiment orchestration.

A single seeded `config.ExperimentConfig` drives the whole desk matrix:
synthetic data, a grid of surrogate models (depth x target x target variable),
attribution and ablation passes, fidelity/method/calibration/selection/
payment/convergence analyses, the gaming campaign, and detector evaluation.
Every stage writes deterministic CSV/JSON results under the output directory;
the manifest records the config hash and a content hash for every emitted
file, so a rerun with the same config is byte-identical.  Intermediate arrays
(fields, per-timestamp tables, gaming runs) live in `fieldio` array stores
stamped with the config hash, and every store goes through `Workspace.store`:
loaded when the stamp matches the config, else computed and saved.  Either
way the `RunState.ensure_*` entry points decode the arrays it returns, so a
fresh and a resumed run share all code after that point.  Stages can run
standalone; a stage writes only its own results, and its prerequisites go
into stores.  `run_full` under a config other than the directory's saved
`config.yaml` first removes the artifacts of the old one.

`STAGE_TABLE` declares the pipeline in run order: each `Stage` names its
function, its CLI help, the stores it reads and the files it writes.
`STAGES`, the CLI subcommands and the manifest's stage statuses come from
it; `run_stage` loads the stores a stage declares before running it, and a
contract test holds each stage to its declaration.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import traceback
import warnings
from dataclasses import asdict, dataclass, fields as dataclass_fields
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import __version__, ablation, attribution as attr, fieldio, gaming, incentive, metrics
# config_from_dict stays bound here: perfbench/child.py reads its jobs with it
from .config import (SCHEMA_VERSION, ExperimentConfig, _dump_yaml, _identity, config_from_dict,
                     config_hash, load_config)
from .fieldio import fmt
from .grid import StationGrid, TargetSpec, make_station_grid, make_target
from .model import DeskModel, make_desk_model, make_truth
from . import synth

DATA_STORE = "data/fields.gsa"
TABLES_STORE = "tables/tables.gsa"
GAMING_STORE = "tables/gaming.gsa"
# each gaming config's arrays in the gaming store, as "{name}/{config id}", in this order
_GAMING_ARRAYS = tuple(f.name for f in dataclass_fields(gaming.GamingRun))


def child_seed(master: int, *tags) -> int:
    """Stable per-purpose integer seed derived from the master seed."""
    blob = f"{master}|" + "|".join(str(t) for t in tags)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "little")


# -- workspace --------------------------------------------------------------


# intermediates of the layout before the config-stamped stores; nothing reads
# them, and left in place they would sit outside the manifest, so `run_full`
# removes them from a directory with a config.yaml (one gradsense ran in)
_LEGACY_INTERMEDIATES = ("data/field_*.bin", "data/climatology.bin",
                         "tables/global_importance.csv", "tables/spatial_importance.csv",
                         "tables/global_utility.csv", "tables/spatial_utility.csv",
                         "tables/gaming_scores.csv")


class Workspace:
    """Output directory handle that tracks every file written for the manifest."""

    def __init__(self, out_dir: str | Path):
        self.root = Path(out_dir)
        self.files: set[str] = set()

    def path(self, rel: str) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def write_csv(self, rel: str, header: tuple[str, ...], rows) -> None:
        """Write `rows` of raw cells: `fmt` for a float, `str` for anything else.

        A row whose width is not the header's raises ValueError and leaves `rel` as it was.
        """
        with fieldio.atomic_open(self.path(rel), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, row in enumerate(rows):
                if len(row) != len(header):
                    raise ValueError(f"{rel}: row {i} has {len(row)} cells for "
                                     f"{len(header)} columns")
                w.writerow([fmt(v) if isinstance(v, float) else str(v) for v in row])
        self.files.add(rel)

    def write_json(self, rel: str, payload) -> None:
        self.write_text(rel, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_text(self, rel: str, text: str) -> None:
        with fieldio.atomic_open(self.path(rel)) as fh:
            fh.write(text)
        self.files.add(rel)

    def store(self, rel: str, stamp: str, compute) -> dict[str, np.ndarray]:
        """The arrays of store `rel` under `stamp`; on a miss, `compute()` them and save."""
        arrays = fieldio.load_store(self.path(rel), stamp)
        if arrays is None:
            arrays = compute()
            fieldio.save_store(self.path(rel), stamp, arrays)
        self.files.add(rel)
        return arrays

    def read_rows(self, rel: str) -> list[dict[str, str]]:
        with open(self.root / rel, newline="") as fh:
            return list(csv.DictReader(fh))

    def clear(self) -> None:
        """Remove the files directly in data/, tables/ and results/, and the manifest."""
        stale = [p for sub in ("data", "tables", "results") for p in (self.root / sub).glob("*")]
        for p in stale + [self.root / "manifest.json"]:
            if p.is_file():
                p.unlink()


def _store_name(kind: str, key) -> str:
    """Array name of one table in the tables store, e.g. "su/d1-zurich-t2m/mean_replace/3"."""
    return "/".join([kind, *map(str, key if isinstance(key, tuple) else (key,))])


# -- run state ---------------------------------------------------------------


class RunState:
    """Shared context: data, models, and the per-timestamp tables and gaming runs."""

    def __init__(self, cfg: ExperimentConfig, workspace: Workspace | None = None):
        cfg.validate()
        self.cfg = cfg
        self.stamp = config_hash(cfg)
        self.ws = workspace or Workspace(cfg.out_dir)
        self.grid = cfg.grid()
        self.stations: StationGrid = make_station_grid(self.grid, cfg.station_stride)
        self.fields: np.ndarray | None = None  # (T, V, n_lat, n_lon); row t is timestamp t
        self.clim: np.ndarray | None = None  # (V, n_lat, n_lon)
        self.var_std: np.ndarray | None = None
        self.models: dict[str, tuple[DeskModel, np.ndarray]] = {}  # with (T,) truth values
        self._tables: dict = {}
        self._gaming: dict[str, tuple[list[gaming.AttackScenario], gaming.GamingRun]] = {}
        self.stage_status: dict[str, str] = {}
        self.failures: dict[str, str] = {}  # stage -> traceback

    # -- constituents ------------------------------------------------------

    def config_ids(self, combos=None) -> list[str]:
        """Ids d{depth}-{name}-{variable} of every model, or of the (name, variable) `combos`."""
        if combos is None:
            combos = [(t.name, tv) for t in self.cfg.targets for tv in self.cfg.target_variables]
        return [f"d{depth}-{name}-{tv}" for depth in self.cfg.model_depths
                for name, tv in combos]

    def target_of(self, cid: str) -> TargetSpec:
        """The target of a config id d{depth}-{name}-{variable}, from the config alone."""
        _, name, variable = cid.split("-", 2)
        tc = next(t for t in self.cfg.targets if t.name == name)
        return make_target(self.grid, tc.name, tc.lat, tc.lon, variable)

    def ensure_data(self) -> None:
        """Load or generate the field stack and climatology, checked finite and made read-only."""
        if self.fields is not None:
            return
        stored = self.ws.store(DATA_STORE, self.stamp, self._synth_arrays)
        fields, clim = stored["fields"], stored["climatology"]
        if not (np.isfinite(fields).all() and np.isfinite(clim).all()):
            raise ValueError(f"{DATA_STORE}: fields or climatology hold non-finite values")
        fields.flags.writeable = clim.flags.writeable = False
        self.fields, self.clim = fields, clim
        self.var_std = synth.field_std(fields)

    def _synth_arrays(self) -> dict[str, np.ndarray]:
        cfg = self.cfg
        fields, clim = synth.synth_fields(cfg.seed, self.grid, cfg.n_timestamps,
                                          n_clim_draws=cfg.n_clim_draws)
        return {"fields": fields, "climatology": clim}

    def make_model(self, cid: str) -> DeskModel:
        """The surrogate of config id d{depth}-{name}-{variable}; reuses an `ensure_models` one."""
        if cid in self.models:
            return self.models[cid][0]
        cfg = self.cfg
        return make_desk_model(child_seed(cfg.seed, "model", cid), self.grid,
                               self.target_of(cid), depth=int(cid.split("-")[0][1:]),
                               channels=cfg.channels, stencil_radius=cfg.stencil_radius)

    def ensure_models(self) -> None:
        if self.models:
            return
        self.ensure_data()
        cfg = self.cfg
        model_cfgs = {}
        for cid in self.config_ids():
            model = self.make_model(cid)
            noise_std = cfg.truth_noise_frac * float(model.forward_many(self.fields).std())
            truth = make_truth(model, child_seed(cfg.seed, "truth", cid),
                               noise_std=noise_std, weight_jitter=cfg.truth_weight_jitter)
            self.models[cid] = (model, np.array([truth.verify(x, t)
                                                 for t, x in enumerate(self.fields)]))
            model_cfgs[cid] = {"model": model.to_config(), "noise_std": noise_std,
                               "truth_seed": child_seed(cfg.seed, "truth", cid)}
        self.ws.write_json("data/models.json", model_cfgs)

    # -- per-timestamp tables -----------------------------------------------

    def _method_keys(self) -> list[str]:
        cheap = self.cfg.cheap_steps()
        return [*(f"ig@{k}" for k in sorted(self.cfg.ig_step_grid)), "gti", "vg",
                f"ig-zero@{cheap}", f"ig-pers@{cheap}"]

    def primary_key(self) -> str:
        return f"ig@{self.cfg.ig_steps}"

    def scored_methods(self) -> list[str]:
        return [self.primary_key(), "gti", "vg"]

    def _table_keys(self) -> dict[str, list]:
        """Every key of each table kind, in store order."""
        cfg, cids = self.cfg, self.config_ids()
        return {"gi": [(cid, key) for cid in cids for key in self._method_keys()],
                "si_u": [(cid, key) for cid in cids for key in self.scored_methods()],
                "gu": cids,
                "su": [(cid, mode, patch) for cid in cids
                       for mode in cfg.modes for patch in cfg.patches]}

    def ensure_tables(self) -> dict:
        if not self._tables:
            stored = self.ws.store(TABLES_STORE, self.stamp, self._compute_tables)
            self._tables = {kind: {key: stored[_store_name(kind, key)] for key in keys}
                            for kind, keys in self._table_keys().items()}
        return self._tables

    def _compute_tables(self) -> dict[str, np.ndarray]:
        """Every table array, keyed by its store name, in store order."""
        self.ensure_models()
        cfg = self.cfg
        T, V, N = cfg.n_timestamps, self.grid.n_variables, self.stations.n_stations
        keys = self._table_keys()
        gi = {key: np.full((T, V), np.nan) for key in keys["gi"]}
        si_u = {key: np.zeros((T, N)) for key in keys["si_u"]}
        gu = {key: np.zeros((T, V)) for key in keys["gu"]}
        su = {key: np.zeros((T, N)) for key in keys["su"]}
        step_grid = sorted(cfg.ig_step_grid)
        zp_steps = cfg.cheap_steps()
        zero_base = np.zeros(self.grid.shape)
        for cid in self.config_ids():
            model, y_stars = self.models[cid]
            specs = [ablation.PerturbationSpec(
                mode=mode, patch=patch, magnitude=cfg.perturb_magnitude,
                seed=child_seed(cfg.seed, "perturb", cid, mode, patch))
                for mode in cfg.modes for patch in cfg.patches]
            for t, (x, y_star) in enumerate(zip(self.fields, y_stars)):
                # every quadrature node of every path variant in one gradient batch;
                # GTI and VG use the alpha = 1 gradient of the first path, taken at
                # clim + (x - clim), which equals x only within rounding
                paths = [(f"ig@{s}", self.clim, s) for s in step_grid]
                paths.append((f"ig-zero@{zp_steps}", zero_base, zp_steps))
                if t >= 1:
                    paths.append((f"ig-pers@{zp_steps}",
                                  attr.persistence_baseline(self.fields, t), zp_steps))
                maps, grad_at_x = attr.integrated_gradients_paths(
                    model, x, [(base, steps) for _, base, steps in paths])
                map_keys = [key for key, _, _ in paths] + ["gti", "vg"]
                stack = np.stack([*maps, (x - self.clim) * grad_at_x, grad_at_x])
                for key, var_imp, st_imp in zip(map_keys, attr.variable_importance(stack),
                                                attr.spatial_importance(stack, self.stations)):
                    gi[(cid, key)][t] = var_imp
                    if (cid, key) in si_u:
                        si_u[(cid, key)][t] = st_imp
                gu[cid][t] = ablation.global_ablation(model, x, y_star, self.clim)
                for spec, u in zip(specs, ablation.spatial_utility_multi(
                        model, x, t, y_star, self.stations, specs, self.clim, self.var_std)):
                    su[(cid, spec.mode, spec.patch)][t] = u
        tables = {"gi": gi, "si_u": si_u, "gu": gu, "su": su}
        return {_store_name(kind, key): tables[kind][key]
                for kind, kind_keys in keys.items() for key in kind_keys}

    # -- gaming runs ----------------------------------------------------------

    def ensure_gaming(self) -> dict[str, tuple[list[gaming.AttackScenario], gaming.GamingRun]]:
        """Per gaming config id, its build_scenarios list and the GamingRun over it.

        The store holds each run field as `{field}/{config id}`, so a loaded and
        a computed run hold the same arrays; with no scenario, only the baseline
        is nonempty.
        """
        if not self._gaming:
            scenarios = {cid: build_scenarios(self, cid)
                         for cid in self.config_ids(self.cfg.gaming.combos)}
            stored = self.ws.store(GAMING_STORE, self.stamp, lambda: self._gaming_arrays(scenarios))
            self._gaming = {cid: (scs, gaming.GamingRun(
                **{name: stored[f"{name}/{cid}"] for name in _GAMING_ARRAYS}))
                for cid, scs in scenarios.items()}
        return self._gaming

    def _gaming_arrays(self, scenarios: dict[str, list]) -> dict[str, np.ndarray]:
        self.ensure_models()
        arrays = {}
        for cid, scs in scenarios.items():
            model, y_stars = self.models[cid]
            run = gaming.run_gaming_experiment(model, y_stars, self.fields, self.clim,
                                               self.stations, scs)
            arrays.update({f"{name}/{cid}": getattr(run, name) for name in _GAMING_ARRAYS})
        return arrays

    # -- shared small helpers ------------------------------------------------

    def distances(self, cid: str) -> np.ndarray:
        target = self.target_of(cid)
        return self.stations.distances_to(target.lat, target.lon)


def _global_ks(state: RunState) -> tuple[int, ...]:
    return tuple(k for k in (1, 3, 5) if k <= state.grid.n_variables)


def _spatial_cases(tables: dict):
    """Each spatial ablation case (cid, mode, patch) with its (T, N) |utility|."""
    for (cid, mode, patch), util in tables["su"].items():  # in `_table_keys` order
        yield cid, mode, patch, np.abs(util)


def _valued_cases(tables: dict):
    """The spatial cases whose time-mean |utility| is positive somewhere, with that mean."""
    for cid, mode, patch, util in _spatial_cases(tables):
        util_mean = util.mean(axis=0)
        if util_mean.sum() > 0:
            yield cid, mode, patch, util_mean


@dataclass(frozen=True)
class Agreement:
    """Rank agreement between an importance and a utility table, both (T, n)."""
    agg: metrics.RankCorrelation  # time-mean importance vs time-mean utility
    overlaps: tuple[float, ...]  # top-k overlap of the time means, one per k
    cycle_rho: np.ndarray  # defined per-timestamp rhos, in timestamp order
    wilcoxon_p: float
    bh_count: int
    mean_cycle_rho: float
    recovery: float  # mean per-timestamp rho against the mean utility, over agg.rho


def _agreement(imp: np.ndarray, util: np.ndarray, ks: tuple[int, ...], q: float) -> Agreement:
    """Aggregate and per-timestamp agreement; timestamps with NaN importance are left out."""
    imp_mean = np.nanmean(imp, axis=0)
    util_mean = util.mean(axis=0)
    agg = metrics.spearman(imp_mean, util_mean)
    ok = ~np.isnan(imp).any(axis=1)
    cycles = imp[ok]
    cyc_rho, cyc_p = metrics.spearman_rows(cycles, util[ok])
    vs_mean, _ = metrics.spearman_rows(cycles, np.broadcast_to(util_mean, cycles.shape))
    defined = ~np.isnan(cyc_rho)
    cycle_rho, cycle_p = cyc_rho[defined], cyc_p[defined]
    try:
        wil_p = metrics.wilcoxon_signed_rank(cycle_rho)
    except ValueError:
        wil_p = np.nan
    return Agreement(
        agg=agg,
        overlaps=tuple(metrics.topk_overlap(imp_mean, util_mean, k) for k in ks),
        cycle_rho=cycle_rho, wilcoxon_p=wil_p,
        bh_count=int(metrics.bh_fdr(cycle_p, q).sum()),
        mean_cycle_rho=float(np.mean(cycle_rho)) if cycle_rho.size else np.nan,
        recovery=(float(np.nanmean(vs_mean) / agg.rho)
                  if not math.isnan(agg.rho) and agg.rho != 0 else np.nan))


def _global_agreements(state: RunState, tables: dict) -> dict[tuple[str, str], Agreement]:
    """Per (cid, scored method), the agreement of variable importance with ablation utility."""
    return {(cid, key): _agreement(tables["gi"][(cid, key)], tables["gu"][cid],
                                   _global_ks(state), state.cfg.bh_q)
            for cid in state.config_ids() for key in state.scored_methods()}


# -- stages -----------------------------------------------------------------


STATIONS_COLUMNS = ("station_id", "lat_idx", "lon_idx", "lat", "lon")


def stage_gen(state: RunState) -> None:
    st = state.stations
    rows = [(g, int(st.lat_idx[g]), int(st.lon_idx[g]), st.lats[g], st.lons[g])
            for g in range(st.n_stations)]
    state.ws.write_csv("data/stations.csv", STATIONS_COLUMNS, rows)


def fidelity_columns(spatial: bool, ks: tuple[int, ...]) -> tuple[str, ...]:
    """The header of fidelity_spatial.csv, or of fidelity_global.csv (no mode or patch)."""
    case = ("config_id", "mode", "patch", "method") if spatial else ("config_id", "method")
    return (*case, "rho", "p_value", "ci_lower", "ci_upper", *(f"top{k}" for k in ks),
            "wilcoxon_p", "bh_rejections", "mean_cycle_rho")


def _fidelity_cells(ag: Agreement, ci_lower: float, ci_upper: float) -> tuple:
    """The cells of a fidelity row after its case columns."""
    return (ag.agg.rho, ag.agg.p_value, ci_lower, ci_upper, *ag.overlaps, ag.wilcoxon_p,
            ag.bh_count, ag.mean_cycle_rho)


def stage_fidelity(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, si_u, gu = tables["gi"], tables["si_u"], tables["gu"]
    boot_n, level, q = cfg.bootstrap_resamples, cfg.bootstrap_level, cfg.bh_q

    g_rows = []
    gks = _global_ks(state)
    for (cid, key), ag in _global_agreements(state, tables).items():
        pairs = np.column_stack([np.nanmean(gi[(cid, key)], axis=0), gu[cid].mean(axis=0)])
        ci = metrics.bootstrap_iid(pairs, metrics.paired_spearman, boot_n, level,
                                   seed=child_seed(cfg.seed, "gci", cid, key))
        g_rows.append((cid, key, *_fidelity_cells(ag, ci.lower, ci.upper)))
    state.ws.write_csv("results/fidelity_global.csv", fidelity_columns(False, gks), g_rows)

    s_rows = []
    blocks = metrics.station_blocks(state.stations)
    ks = tuple(k for k in (5, 10, 20) if k <= state.stations.n_stations)
    for cid, mode, patch, util_abs in _spatial_cases(tables):
        for key in state.scored_methods():
            imp = si_u[(cid, key)]
            ag = _agreement(imp, util_abs, ks, q)
            if key == state.primary_key():
                pairs = np.column_stack([imp.mean(axis=0), util_abs.mean(axis=0)])
                ci = metrics.bootstrap_block_spatial(
                    pairs, blocks, metrics.paired_spearman, boot_n, level,
                    seed=child_seed(cfg.seed, "sci", cid, mode, patch))
                lo, hi = ci.lower, ci.upper
            else:
                lo = hi = np.nan
            s_rows.append((cid, mode, patch, key, *_fidelity_cells(ag, lo, hi)))
    state.ws.write_csv("results/fidelity_spatial.csv", fidelity_columns(True, ks), s_rows)


def methods_summary_columns(ks: tuple[int, ...]) -> tuple[str, ...]:
    """The header of methods_summary.csv; index 4 is the top-k overlap at the largest k."""
    return ("method", "mean_rho", "agg_sig", "wilcoxon_sig", f"mean_top{ks[-1]}", "n_configs")


METHODS_PAIRWISE_COLUMNS = ("method_a", "method_b", "wins_a", "n_configs")
K_SENSITIVITY_COLUMNS = ("config_id", "steps", "reference_steps", "rank_rho")
BASELINE_SENSITIVITY_COLUMNS = ("config_id", "baseline", "steps", "rho",
                                "delta_vs_climatology")
SCALE_INVARIANCE_COLUMNS = ("config_id", "variable", "factor", "ig_max_rel_dev",
                            "gti_max_rel_dev", "vg_ranking_changed", "selections_unchanged")


def stage_methods(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, gu = tables["gi"], tables["gu"]
    display, cids = state.scored_methods(), state.config_ids()
    ags = _global_agreements(state, tables)
    rows = []
    for key in display:
        col = [ags[(cid, key)] for cid in cids]  # a NaN p-value is never significant
        rows.append((key, float(np.nanmean([ag.agg.rho for ag in col])),
                     sum(int(ag.agg.p_value < 0.05) for ag in col),
                     sum(int(ag.wilcoxon_p < 0.05) for ag in col),
                     float(np.mean([ag.overlaps[-1] for ag in col])), len(cids)))
    state.ws.write_csv("results/methods_summary.csv",
                       methods_summary_columns(_global_ks(state)), rows)

    pair_rows = [(a, b, sum(int(ags[(c, a)].agg.rho > ags[(c, b)].agg.rho) for c in cids),
                  len(cids))
                 for a in display for b in display if a < b]
    state.ws.write_csv("results/methods_pairwise.csv", METHODS_PAIRWISE_COLUMNS, pair_rows)

    # quadrature sensitivity: do coarse step grids change the variable ranking?
    k_rows = []
    for cid in state.config_ids():
        ref_rank = np.nanmean(gi[(cid, state.primary_key())], axis=0)
        for s in sorted(cfg.ig_step_grid):
            rc = metrics.spearman(np.nanmean(gi[(cid, f"ig@{s}")], axis=0), ref_rank)
            k_rows.append((cid, s, cfg.ig_steps, rc.rho))
    state.ws.write_csv("results/k_sensitivity.csv", K_SENSITIVITY_COLUMNS, k_rows)

    # baseline sensitivity: zero and persistence baselines vs climatology
    b_rows = []
    zp = cfg.cheap_steps()
    for cid in state.config_ids():
        util_mean = gu[cid].mean(axis=0)
        rhos = {base: metrics.spearman(np.nanmean(gi[(cid, key)], axis=0), util_mean).rho
                for base, key in (("climatology", f"ig@{zp}"), ("zero", f"ig-zero@{zp}"),
                                  ("persistence", f"ig-pers@{zp}"))}
        for base, rho in rhos.items():
            delta = rho - rhos["climatology"] if not math.isnan(rho) else np.nan
            b_rows.append((cid, base, zp, rho, delta))
    state.ws.write_csv("results/baseline_sensitivity.csv", BASELINE_SENSITIVITY_COLUMNS,
                       b_rows)

    _scale_invariance_table(state)


def _scale_invariance_table(state: RunState) -> None:
    """Plant a unit change in one variable and record which proxies move."""
    cid = state.config_ids()[len(state.config_ids()) // 2]
    model = state.make_model(cid)
    var = int(np.argmax(np.nanmean(state.ensure_tables()["gi"][(cid, "vg")], axis=0)))
    factor = 1000.0
    unit = np.ones((state.grid.n_variables, 1, 1))
    unit[var] = factor
    clim = state.clim
    stack = state.fields[:10]  # 10 cycles suffice to see a move
    maps = []  # in the original, then the rescaled units: the IG, GTI and VG map stacks
    for m, xs, base in ((model, stack, clim),
                        (model.with_rescaled_variable(var, factor), stack * unit, clim * unit)):
        grads = m.gradient_many(xs)
        ig = np.stack([attr.integrated_gradients(m, x, base, 8) for x in xs])
        maps.append((ig, (xs - base) * grads, grads))
    (ig0, gti0, vg0), (ig1, gti1, vg1) = maps

    def max_rel_dev(a0, a1):
        dev = np.abs(a1 - a0).max(axis=(1, 2, 3))
        return float((dev / np.maximum(np.abs(a0).max(axis=(1, 2, 3)), 1e-300)).max())

    def top20(a):
        return [metrics.topk_indices(s, 20) for s in attr.spatial_importance(a, state.stations)]

    sel_same = all(np.array_equal(r0, r1) for a0, a1 in ((ig0, ig1), (gti0, gti1))
                   for r0, r1 in zip(top20(a0), top20(a1)))
    vg_ranks = [np.argsort(-attr.variable_importance(vg), axis=-1) for vg in (vg0, vg1)]
    state.ws.write_csv("results/scale_invariance.csv", SCALE_INVARIANCE_COLUMNS,
                       [(cid, state.grid.variables[var], factor, max_rel_dev(ig0, ig1),
                         max_rel_dev(gti0, gti1), not np.array_equal(*vg_ranks), sel_same)])


CALIBRATION_DECILES_COLUMNS = ("config_id", "mode", "patch", "proxy", "decile",
                               "mean_utility")
CALIBRATION_SUMMARY_COLUMNS = ("config_id", "mode", "patch", "proxy", "gini_ratio",
                               "overpayment", "share_spearman")


def stage_calibrate(state: RunState) -> None:
    tables = state.ensure_tables()
    si_u = tables["si_u"]
    dec_rows, sum_rows = [], []
    for cid, mode, patch, util in _valued_cases(tables):
        proxies = {key: si_u[(cid, key)].mean(axis=0) for key in state.scored_methods()}
        proxies["distance"] = incentive.distance_scores(state.distances(cid))
        proxies["uniform"] = np.ones(state.stations.n_stations)
        for name in sorted(proxies):
            proxy = proxies[name]
            if proxy.sum() <= 0:
                continue
            rep = incentive.decile_calibration(proxy, util)
            dec_rows += [(cid, mode, patch, name, b + 1, u)
                         for b, u in enumerate(rep.decile_mean_utility)]
            sum_rows.append((cid, mode, patch, name, rep.gini_ratio,
                             rep.overpayment_total, rep.share_spearman))
    state.ws.write_csv("results/calibration_deciles.csv", CALIBRATION_DECILES_COLUMNS,
                       dec_rows)
    state.ws.write_csv("results/calibration_summary.csv", CALIBRATION_SUMMARY_COLUMNS,
                       sum_rows)


SELECTION_COLUMNS = ("config_id", "mode", "patch", "strategy", "k", "captured",
                     "efficiency_ratio", "optimality_ratio")


def stage_select(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    si_u = tables["si_u"]
    n = state.stations.n_stations
    for k in cfg.selection_budgets:
        if k > n:
            warnings.warn(f"selection budget {k} clipped to station count {n}")
    budgets = list(dict.fromkeys(min(k, n) for k in cfg.selection_budgets))
    rows = []
    for cid, mode, patch, util in _valued_cases(tables):
        dist = state.distances(cid)
        for k in budgets:
            for strategy in incentive.STRATEGIES:
                kwargs = {}
                if strategy in ("ig", "gti", "vg"):
                    key = state.primary_key() if strategy == "ig" else strategy
                    kwargs["scores"] = si_u[(cid, key)].mean(axis=0)
                elif strategy == "distance":
                    kwargs["distances_km"] = dist
                elif strategy == "uniform":
                    kwargs["seed"] = child_seed(cfg.seed, "uniform", cid, mode, patch, k)
                res = incentive.select(strategy, k, util, **kwargs)
                rows.append((cid, mode, patch, strategy, k, res.captured,
                             res.efficiency_ratio, res.optimality_ratio))
    state.ws.write_csv("results/selection.csv", SELECTION_COLUMNS, rows)


PAYMENTS_COLUMNS = ("config_id", "method", "station_id", "share", "amount",
                    "share_ci_lower", "share_ci_upper")
PAYMENT_STABILITY_COLUMNS = ("config_id", "method", "ci_to_share", "top_k", "resamples")
SHRINKAGE_COLUMNS = ("config_id", "mode", "patch", "objective", "fold", "lambda",
                     "lambda_mean", "delta_rho")


def stage_pay(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    si_u = tables["si_u"]
    pay_rows, stab_rows = [], []
    for cid in state.config_ids():
        for key in state.scored_methods():
            scores = si_u[(cid, key)]
            if scores.mean(axis=0).sum() <= 0:
                continue
            stab = incentive.payment_stability(
                scores, n_resamples=cfg.bootstrap_resamples, level=cfg.bootstrap_level,
                top_k=cfg.stability_top_k, seed=child_seed(cfg.seed, "stab", cid, key))
            alloc = incentive.payment(scores.mean(axis=0), cfg.budget)
            for g in range(state.stations.n_stations):
                pay_rows.append((cid, key, g, alloc.shares[g], alloc.amounts[g],
                                 stab.lower[g], stab.upper[g]))
            stab_rows.append((cid, key, stab.ci_to_share, stab.top_k, stab.resamples))
    state.ws.write_csv("results/payments.csv", PAYMENTS_COLUMNS, pay_rows)
    state.ws.write_csv("results/payment_stability.csv", PAYMENT_STABILITY_COLUMNS, stab_rows)

    # shrinkage toward the distance prior, both inner objectives
    sh_rows = []
    key = state.primary_key()
    for cid, mode, patch, util in _valued_cases(tables):
        scores = si_u[(cid, key)]
        totals = scores.sum(axis=1)
        ok = totals > 0
        if ok.sum() < 3:
            continue
        proxy_shares = scores[ok] / totals[ok, None]
        dist = incentive.distance_scores(state.distances(cid))
        dist_shares = dist / dist.sum()
        for objective in ("mse", "captured_utility"):
            fit = incentive.shrinkage_fit(proxy_shares, dist_shares, util,
                                          objective=objective, k=cfg.stability_top_k)
            for fold, lam in enumerate(fit.per_fold):
                sh_rows.append((cid, mode, patch, objective, fold, lam,
                                fit.lam, fit.delta_rho))
    state.ws.write_csv("results/shrinkage.csv", SHRINKAGE_COLUMNS, sh_rows)


SUBADDITIVITY_COLUMNS = ("config_id", "mode", "patch", "set_size", "station_ids",
                         "median_ratio", "n_defined", "n_flagged")


def stage_subadditivity(state: RunState) -> None:
    cfg = state.cfg
    rows = []
    depth = max(cfg.model_depths)
    cids = [c for c in state.config_ids() if c.startswith(f"d{depth}-")]
    for ci, cid in enumerate(cids):
        model, y_stars = state.models[cid]
        order = np.argsort(state.distances(cid), kind="stable")
        modes = ("mean_replace", "scale_bias") if ci == 0 else ("mean_replace",)
        for size, mode, patch in product((2, 3, 5), modes, (1, 3)):
            ids = [int(g) for g in order[:size]]
            spec = ablation.PerturbationSpec(
                mode=mode, patch=patch, magnitude=cfg.perturb_magnitude,
                seed=child_seed(cfg.seed, "subadd", cid, mode, patch))
            ratios, flagged = [], 0
            for t, (x, y_star) in enumerate(zip(state.fields, y_stars)):
                res = ablation.joint_ablation(model, x, t, y_star, state.stations, ids,
                                              spec, state.clim, state.var_std)
                if res.ratio_defined:
                    ratios.append(res.ratio)
                else:
                    flagged += 1
            med = float(np.median(ratios)) if ratios else np.nan
            rows.append((cid, mode, patch, size, ";".join(str(g) for g in ids), med,
                         len(ratios), flagged))
    state.ws.write_csv("results/subadditivity.csv", SUBADDITIVITY_COLUMNS, rows)


def build_scenarios(state: RunState, cid: str) -> list[gaming.AttackScenario]:
    """The desk scenario grid for one gaming configuration.

    An id the grid repeats (an extended grid overlapping the main one) is built once.
    """
    cfg = state.cfg
    g = cfg.gaming
    target = state.target_of(cid)
    scenarios, built = [], set()

    def add(kind, n, pct, scope, placement, seed_idx):
        sid = f"{cid}:{kind}:n{n}:p{fmt(pct)}:{scope}:{placement}:{seed_idx}"
        if sid in built:
            return
        built.add(sid)
        attackers = gaming.sample_attackers(state.stations, target, n, placement,
                                            child_seed(cfg.seed, "placement", cid, n,
                                                       placement, seed_idx))
        scenarios.append(gaming.AttackScenario(
            scenario_id=sid, kind=kind, attackers=attackers, magnitude_pct=float(pct),
            scope=scope, scope_variables=gaming.resolve_scope(scope, state.grid.variables,
                                                              target),
            placement=placement))

    for n, pct, s in product(g.n_attackers, g.magnitudes_pct, range(g.n_seeds)):
        add("inflate", n, pct, "all_surface", "uniform", s)
    if (target.name, target.variable) == tuple(g.extended_combo):
        for n, pct, placement, s in product(g.n_attackers, g.extended_magnitudes,
                                            g.extended_placements, range(g.extended_seeds)):
            add("inflate", n, pct, "all_surface", placement, s)
        for scope, n, s in product(("single_target_var", "single_other_var"), g.n_attackers,
                                   range(g.scope_seeds)):
            add("inflate", n, 50.0, scope, "close", s)
    for n, s in product(g.n_attackers, range(g.spoof_seeds)):
        add("spoof", n, 0.0, "all_surface", "close", s)
    return scenarios


GAMING_OUTCOMES_COLUMNS = ("scenario_id", "config_id", "kind", "n_attackers",
                           "magnitude_pct", "scope", "placement", "attackers",
                           "inflation_ratio", "mae_clean", "mae_change",
                           "honest_share_change_pp", "attack_reached_model")


def stage_game(state: RunState) -> None:
    manifest, outcome_rows = {}, []
    for cid, (scenarios, run) in state.ensure_gaming().items():
        for i, sc in enumerate(scenarios):
            manifest[sc.scenario_id] = {k: v for k, v in asdict(sc).items()
                                        if k != "scenario_id"} | {"config_id": cid}
            outcome_rows.append((
                sc.scenario_id, cid, sc.kind, len(sc.attackers), sc.magnitude_pct,
                sc.scope, sc.placement, ";".join(str(a) for a in sc.attackers),
                run.inflation_ratio[i], run.mae_clean[i], run.mae_change[i],
                run.honest_share_change_pp[i], bool(run.attack_reached_model[i])))
    state.ws.write_json("results/gaming_scenarios.json", manifest)
    state.ws.write_csv("results/gaming_outcomes.csv", GAMING_OUTCOMES_COLUMNS, outcome_rows)


GAMING_RESULTS_COLUMNS = ("scenario_id", "detector", "pr_auc", "hit_at_1", "hit_at_5",
                          "inflation_ratio", "mae_change", "flagged")
DETECTION_SUMMARY_COLUMNS = ("config_id", "kind", "detector", "n_scenarios", "mean_pr_auc",
                             "hit_at_1", "hit_at_5", "prevalence")


def stage_detect(state: RunState) -> None:
    st = state.stations
    nbrs = gaming.neighbor_model(st)
    results_rows, summary_rows = [], []
    d7_data: dict[str, list] = {}
    for cid, (scenarios, run) in sorted(state.ensure_gaming().items()):
        # PR-AUC, hit@1 and hit@5 of each detector on each scenario
        scored = np.empty((len(scenarios), len(gaming.DETECTORS), 3))
        total = run.baseline.sum()
        share = run.baseline / total if total > 0 else np.zeros_like(run.baseline)
        dist = state.distances(cid)
        for i, sc in enumerate(scenarios):
            suspicions, scored[i], u1_zero_mad = gaming.score_scenario(
                sc, run.baseline, run.attack[i], st, nbrs)
            for det, row in zip(gaming.DETECTORS, scored[i].tolist()):
                results_rows.append((sc.scenario_id, det, *row, run.inflation_ratio[i],
                                     run.mae_change[i], det == "u1" and u1_zero_mad))
            if sc.kind == "inflate":  # D7 features: d3, d4, d5, baseline share, distance
                d7_data.setdefault(cid, []).append((
                    np.column_stack([*suspicions[:3], share, dist]),
                    gaming.attacker_labels(sc, st.n_stations)))
        prevalence = np.array([len(sc.attackers) for sc in scenarios]) / st.n_stations
        for kind in gaming.KINDS:
            mine = np.array([sc.kind == kind for sc in scenarios], dtype=bool)
            if not mine.any():
                continue
            for d, det in enumerate(gaming.DETECTORS):
                summary_rows.append((cid, kind, det, int(mine.sum()),
                                     *(scored[mine, d, m].mean() for m in range(3)),
                                     prevalence[mine].mean()))
    state.ws.write_csv("results/gaming_results.csv", GAMING_RESULTS_COLUMNS, results_rows)

    if len(d7_data) >= 2:
        d7 = gaming.detector_d7_supervised(d7_data)
        for cid in sorted(d7):
            summary_rows.append((cid, "inflate", "d7", len(d7[cid]),
                                 float(np.mean(d7[cid])), np.nan, np.nan,
                                 float(np.mean([y.sum() / y.size
                                                for _, y in d7_data[cid]]))))
    state.ws.write_csv("results/detection_summary.csv", DETECTION_SUMMARY_COLUMNS,
                       summary_rows)


CONVERGENCE_COLUMNS = ("config_id", "scope", "mode", "patch", "rho_aggregate",
                       "recovery_ratio", "converge_n")


def stage_converge(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, si_u, gu = tables["gi"], tables["si_u"], tables["gu"]
    key = state.primary_key()

    def analyse(cid, scope, mode, patch, imp: np.ndarray, util: np.ndarray) -> tuple:
        ag = _agreement(imp, util, (), cfg.bh_q)
        converge_n = "never"
        for n in range(6, ag.cycle_rho.size + 1):
            try:
                if metrics.wilcoxon_signed_rank(ag.cycle_rho[:n]) < 0.05:
                    converge_n = str(n)
                    break
            except ValueError:
                continue
        return (cid, scope, mode, patch, ag.agg.rho, ag.recovery, converge_n)

    rows = {cid: [analyse(cid, "global", "", "", gi[(cid, key)], gu[cid])]
            for cid in state.config_ids()}  # each config's spatial rows follow its global row
    for cid, mode, patch, util in _spatial_cases(tables):
        rows[cid].append(analyse(cid, "spatial", mode, patch, si_u[(cid, key)], util))
    state.ws.write_csv("results/convergence.csv", CONVERGENCE_COLUMNS,
                       [row for cid_rows in rows.values() for row in cid_rows])


def _mean(rows: list[dict[str, str]], col: str, **match) -> float:
    """Mean of column `col` over the rows whose cells equal `match`, NaN cells left out."""
    cells = [float(r[col]) for r in rows if all(r[c] == str(v) for c, v in match.items())]
    vals = [x for x in cells if not math.isnan(x)]
    return float(np.mean(vals)) if vals else math.nan


def stage_report(state: RunState) -> None:
    cfg, ws = state.cfg, state.ws

    def table(name: str) -> list[dict[str, str]] | None:
        """The rows of results/{name}.csv, or None when its stage has not run."""
        rel = f"results/{name}.csv"
        return ws.read_rows(rel) if (ws.root / rel).exists() else None

    lines = ["# Desk run report", "", f"- config hash: `{config_hash(cfg)}`",
             f"- stations: {state.stations.n_stations}, timestamps: {cfg.n_timestamps}", ""]
    if (rows := table("methods_summary")) is not None:
        topcol = methods_summary_columns(_global_ks(state))[4]
        lines += ["## Attribution methods (global fidelity)", "",
                  f"| method | mean rho | agg sig | wilcoxon sig | {topcol} |",
                  "|---|---|---|---|---|"]
        lines += [f"| {r['method']} | {float(r['mean_rho']):.3f} | "
                  f"{r['agg_sig']}/{r['n_configs']} | {r['wilcoxon_sig']}/{r['n_configs']} | "
                  f"{float(r[topcol]):.2f} |" for r in rows] + [""]
    if (rows := table("selection")) is not None:
        lines += ["## Captured utility by strategy (mean over configurations)", "",
                  "| K | " + " | ".join(incentive.STRATEGIES) + " | ig/oracle |",
                  "|" + "---|" * (len(incentive.STRATEGIES) + 2)]
        for k in sorted({int(r["k"]) for r in rows}):
            vals = [_mean(rows, "captured", strategy=s, k=k) for s in incentive.STRATEGIES]
            vals.append(_mean(rows, "optimality_ratio", strategy="ig", k=k))
            lines.append(f"| {k} | " + " | ".join(f"{v:.3f}" for v in vals) + " |")
        lines.append("")
    if (rows := table("calibration_summary")) is not None:
        lines += ["## Payment calibration (mean over configurations)", "",
                  "| proxy | gini ratio | overpayment |", "|---|---|---|"]
        lines += [f"| {p} | {_mean(rows, 'gini_ratio', proxy=p):.3f} | "
                  f"{_mean(rows, 'overpayment', proxy=p):.3f} |"
                  for p in sorted({r["proxy"] for r in rows})] + [""]
    if (rows := table("payment_stability")) is not None:
        lines += [f"- mean CI-to-share ratio (top-{cfg.stability_top_k}): "
                  f"{_mean(rows, 'ci_to_share'):.3f}", ""]
    if (rows := table("detection_summary")) is not None:
        lines += ["## Gaming detection (mean PR-AUC / top-5 hit rate)", "",
                  "| config | kind | detector | PR-AUC | hit@5 | prevalence |",
                  "|---|---|---|---|---|---|"]
        for r in rows:
            h5 = float(r["hit_at_5"])  # NaN for d7, which ranks no top 5
            h5s = "-" if math.isnan(h5) else f"{h5:.2f}"
            lines.append(f"| {r['config_id']} | {r['kind']} | {r['detector']} | "
                         f"{float(r['mean_pr_auc']):.3f} | {h5s} | {float(r['prevalence']):.4f} |")
        lines.append("")
    if (rows := table("convergence")) is not None:
        spatial = [r["converge_n"] for r in rows if r["scope"] == "spatial"]
        if ns := [int(n) for n in spatial if n != "never"]:
            lines.append(f"- spatial convergence: median N = {int(np.median(ns))} "
                         f"({spatial.count('never')} configurations never reach significance)")
        lines.append("")
    lines += ["All tables are plot-ready CSVs under `results/`.", ""]
    ws.write_text("results/report.md", "\n".join(lines))


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and its contract.

    `reads` names the `RunState.ensure_*` stores (`data`, `models`, `tables`,
    `gaming`) that `run_stage` loads before the stage runs; `writes` lists the
    files the stage writes itself, relative to the run directory.  The files
    of a store, and of the stores it is computed from, are not in `writes`.
    """
    name: str
    run: Callable[[RunState], None]
    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]


STAGE_TABLE = (  # in run order
    Stage("gen", stage_gen, "generate fields, climatology, stations and models",
          ("models",), ("data/stations.csv",)),
    Stage("fidelity", stage_fidelity, "attribution vs ablation fidelity tables",
          ("tables",), ("results/fidelity_global.csv", "results/fidelity_spatial.csv")),
    Stage("methods", stage_methods,
          "method comparison, quadrature and baseline sensitivity, unit-scale experiment",
          ("data", "tables"),
          ("results/methods_summary.csv", "results/methods_pairwise.csv",
           "results/k_sensitivity.csv", "results/baseline_sensitivity.csv",
           "results/scale_invariance.csv")),
    Stage("calibrate", stage_calibrate, "decile calibration, Gini ratios, overpayment",
          ("tables",), ("results/calibration_deciles.csv", "results/calibration_summary.csv")),
    Stage("select", stage_select, "sensor selection strategies across budgets",
          ("tables",), ("results/selection.csv",)),
    Stage("pay", stage_pay, "payments, stability intervals, shrinkage fits",
          ("tables",), ("results/payments.csv", "results/payment_stability.csv",
                        "results/shrinkage.csv")),
    Stage("subadditivity", stage_subadditivity,
          "joint-ablation ratios of the nearest station sets",
          ("models",), ("results/subadditivity.csv",)),
    Stage("game", stage_game, "adversarial scenario campaign",
          ("gaming",), ("results/gaming_scenarios.json", "results/gaming_outcomes.csv")),
    Stage("detect", stage_detect, "detector evaluation over gaming outcomes",
          ("gaming",), ("results/gaming_results.csv", "results/detection_summary.csv")),
    Stage("converge", stage_converge, "cycle-vs-aggregate recovery and convergence",
          ("tables",), ("results/convergence.csv",)),
    Stage("report", stage_report, "markdown summary over existing results",
          (), ("results/report.md",)),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def run_stage(state: RunState, name: str) -> None:
    """Load the stores the stage `name` of `STAGE_TABLE` reads, then run it on `state`."""
    stage = next((s for s in STAGE_TABLE if s.name == name), None)
    if stage is None:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
    for store in stage.reads:
        getattr(state, f"ensure_{store}")()
    stage.run(state)


def blas_core(libs: Path = Path(np.__file__).resolve().parent.parent / "numpy.libs") -> str:
    """The kernel that numpy's bundled OpenBLAS (in `libs`) picked for this CPU, or "unknown".

    The model's GEMMs round differently under different kernels, so the
    gradient-derived digests of two hosts agree only when this name does.
    """
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or another build's symbols
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def write_manifest(state: RunState) -> dict:
    ws = state.ws
    files = {rel: hashlib.sha256(ws.path(rel).read_bytes()).hexdigest()
             for rel in sorted(ws.files)}
    manifest = {
        "config_hash": config_hash(state.cfg),
        "package_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "stages": {name: state.stage_status.get(name, "not run") for name in STAGES},
        "files": files,
        "host": {"blas_core": blas_core(), "numpy": np.__version__},
    }
    if state.failures:  # absent on success, so a clean manifest keeps its bytes
        manifest["failures"] = dict(state.failures)
    ws.write_json("manifest.json", manifest)
    return manifest


def run_full(cfg: ExperimentConfig, stage_filter: tuple[str, ...] | None = None) -> dict:
    """Run every stage (or a filtered subset), write the manifest, and report.

    Stage failures are recorded and do not stop later stages; the returned
    manifest carries per-stage status, the traceback of each failed stage
    under `failures`, and `ok` is False if anything failed.  A `stage_filter`
    name outside `STAGES`, or an empty one, raises ValueError before the
    directory is touched.
    """
    if stage_filter is not None and not stage_filter:
        raise ValueError(f"stage_filter is empty; pass None to run all of {STAGES}")
    if unknown := set(stage_filter or ()) - set(STAGES):
        raise ValueError(f"unknown stages {sorted(unknown)} in stage_filter; expected {STAGES}")
    state = RunState(cfg)
    saved = state.ws.path("config.yaml")
    if saved.exists():  # else gradsense never ran here, and nothing is its to clear
        try:  # saved before any stage runs, config.yaml names the last config run here
            old = config_hash(load_config(saved))
        except (OSError, yaml.YAMLError, ValueError):
            old = None  # unreadable
        if old != state.stamp:  # one directory never mixes the artifacts of two configs
            state.ws.clear()
        for pattern in _LEGACY_INTERMEDIATES:
            for stale in state.ws.root.glob(pattern):
                stale.unlink()
    _dump_yaml(_identity(cfg), saved)  # the directory's name is no part of its contents
    state.ws.files.add("config.yaml")
    wanted = stage_filter or STAGES
    for name in STAGES:
        if name not in wanted:
            state.stage_status[name] = "skipped"
            continue
        try:
            run_stage(state, name)  # by name: perfbench/tracing.py times each stage here
            state.stage_status[name] = "completed"
        except Exception as exc:  # record and continue with later stages
            state.stage_status[name] = f"failed: {exc}"
            state.failures[name] = traceback.format_exc()
    manifest = write_manifest(state)
    manifest["ok"] = not state.failures
    return manifest
