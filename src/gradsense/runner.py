"""Configuration-driven experiment orchestration.

A single seeded config drives the whole desk matrix: synthetic data, a grid
of surrogate models (depth x target x target variable), attribution and
ablation passes, fidelity/method/calibration/selection/payment/convergence
analyses, the gaming campaign, and detector evaluation.  Every stage writes
deterministic CSV/JSON results under the output directory; the manifest
records the config hash and a content hash for every emitted file, so a
rerun with the same config is byte-identical.  Intermediate arrays (fields,
per-timestamp tables, gaming outcomes) live in `fieldio` array stores stamped
with the config hash, and every store goes through `Workspace.store`: loaded
when the stamp matches the config, else computed and saved.  Either way the
`RunState.ensure_*` entry points decode the arrays it returns, so a fresh and
a resumed run share all code after that point.  Stages can run standalone; a
stage writes only its own results, and its prerequisites go into stores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, ablation, attribution as attr, fieldio, gaming, incentive, metrics
from .fieldio import fmt
from .grid import (Climatology, FieldTensor, GridConfig, GridSpec, StationGrid, TargetSpec,
                   make_grid, make_station_grid, make_target)
from .model import DeskModel, TruthGenerator, make_desk_model, make_truth
from . import synth

SCHEMA_VERSION = 1

STAGES = ("gen", "fidelity", "methods", "calibrate", "select", "pay",
          "subadditivity", "game", "detect", "converge", "report")

DATA_STORE = "data/fields.gsa"
TABLES_STORE = "tables/tables.gsa"
GAMING_STORE = "tables/gaming.gsa"
# per-scenario GamingOutcome scalars kept in the gaming store
_OUTCOME_FLOATS = ("inflation_ratio", "mae_clean", "mae_change", "honest_share_change_pp")


@dataclass(frozen=True)
class TargetConfig:
    name: str
    lat: float
    lon: float


@dataclass(frozen=True)
class GamingDesign:
    combos: tuple[tuple[str, str], ...] = (("zurich", "t2m"), ("zurich", "u10m"),
                                           ("london", "t2m"))
    n_attackers: tuple[int, ...] = (1, 3, 5)
    magnitudes_pct: tuple[float, ...] = (10.0, 30.0, 50.0)
    n_seeds: int = 10
    extended_combo: tuple[str, str] = ("zurich", "t2m")
    extended_magnitudes: tuple[float, ...] = (10.0, 30.0, 50.0, 100.0, 200.0)
    extended_placements: tuple[str, ...] = ("close", "mid", "mixed")
    extended_seeds: int = 3
    scope_seeds: int = 3
    spoof_seeds: int = 10


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 7
    out_dir: str = "runs/default"
    n_lat: int = 36
    n_lon: int = 50
    lat_min: float = 35.0
    lat_max: float = 70.0
    lon_min: float = -10.0
    lon_max: float = 40.0
    variables: tuple[str, ...] = ("t2m", "u10m", "v10m", "msl", "q2m", "tp")
    n_timestamps: int = 60
    n_clim_draws: int = 1000
    station_stride: int = 4
    targets: tuple[TargetConfig, ...] = (TargetConfig("zurich", 47.4, 8.6),
                                         TargetConfig("london", 51.5, -0.1),
                                         TargetConfig("berlin", 52.5, 13.4))
    target_variables: tuple[str, ...] = ("t2m", "u10m", "msl")
    model_depths: tuple[int, ...] = (1, 3)
    channels: int = 4
    stencil_radius: int = 2
    truth_noise_frac: float = 0.02
    truth_weight_jitter: float = 0.05
    ig_steps: int = 50
    ig_step_grid: tuple[int, ...] = (1, 8, 50)
    patches: tuple[int, ...] = (1, 3, 5)
    modes: tuple[str, ...] = ("mean_replace", "scale_bias", "additive_noise")
    perturb_magnitude: float = 0.10
    selection_budgets: tuple[int, ...] = (5, 10, 20, 50, 100)
    budget: float = 10000.0
    bootstrap_resamples: int = 10000
    bootstrap_level: float = 0.95
    stability_top_k: int = 20
    bh_q: float = 0.05
    gaming: GamingDesign = field(default_factory=GamingDesign)

    def validate(self) -> None:
        make_grid(GridConfig(self.n_lat, self.n_lon, self.lat_min, self.lat_max,
                             self.lon_min, self.lon_max, self.variables))
        for tv in self.target_variables:
            if tv not in self.variables:
                raise ValueError(f"target variable {tv!r} not in grid variables")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise ValueError("target names must be unique")
        if any("-" in name for name in names):  # config ids are d{depth}-{name}-{var}
            raise ValueError("target names must not contain '-'")
        for combo in self.gaming.combos + (self.gaming.extended_combo,):
            if combo[0] not in names or combo[1] not in self.target_variables:
                raise ValueError(f"gaming combo {combo} not in the target matrix")
        if self.ig_steps not in self.ig_step_grid:
            raise ValueError("ig_steps must be part of ig_step_grid")
        if any(s < 1 for s in self.ig_step_grid):
            raise ValueError("ig_step_grid entries must be >= 1")
        if any(p < 1 or p % 2 == 0 for p in self.patches):
            raise ValueError("patches must be odd positive cell counts")
        if any(m not in ablation.MODES for m in self.modes):
            raise ValueError(f"modes must be drawn from {ablation.MODES}")
        if self.stability_top_k < 1:
            raise ValueError("stability_top_k must be >= 1")
        if any(k < 1 for k in self.selection_budgets):
            raise ValueError("selection_budgets entries must be >= 1")
        if self.n_timestamps < 2:
            raise ValueError("need at least 2 timestamps")
        if self.bootstrap_resamples < 1000:
            raise ValueError("bootstrap_resamples must be at least 1000")
        if not 0 < self.bootstrap_level < 1:
            raise ValueError("bootstrap_level must be in (0, 1)")


def fast_variant(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reduced-cost variant: coarse quadrature, fewer resamples and seeds."""
    return replace(cfg, ig_steps=8, ig_step_grid=(1, 8), bootstrap_resamples=1000,
                   n_clim_draws=200,
                   gaming=replace(cfg.gaming, n_seeds=3, extended_seeds=1,
                                  scope_seeds=1, spoof_seeds=3))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)

    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    return clean(d)


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    if d.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    if "targets" in d:
        d["targets"] = tuple(TargetConfig(**t) for t in d["targets"])
    if "gaming" in d:
        g = dict(d["gaming"])
        if "combos" in g:
            g["combos"] = [tuple(c) for c in g["combos"]]
        d["gaming"] = GamingDesign(**{k: tuple(v) if isinstance(v, list) else v
                                      for k, v in g.items()})
    for key, val in list(d.items()):
        if isinstance(val, list):
            d[key] = tuple(val)
    cfg = ExperimentConfig(**d)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(yaml.safe_load(fh))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with fieldio.atomic_open(path) as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment identity (the output location does not count)."""
    d = config_to_dict(cfg)
    d.pop("out_dir", None)
    blob = json.dumps(d, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def child_seed(master: int, *tags) -> int:
    """Stable per-purpose integer seed derived from the master seed."""
    blob = f"{master}|" + "|".join(str(t) for t in tags)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "little")


# -- workspace --------------------------------------------------------------


# intermediates of the layout before the config-stamped stores; nothing reads
# them, and left in place they would sit outside the manifest
_LEGACY_INTERMEDIATES = ("data/field_*.bin", "data/climatology.bin",
                         "tables/global_importance.csv", "tables/spatial_importance.csv",
                         "tables/global_utility.csv", "tables/spatial_utility.csv",
                         "tables/gaming_scores.csv")


class Workspace:
    """Output directory handle that tracks every file written for the manifest."""

    def __init__(self, out_dir: str | Path):
        self.root = Path(out_dir)
        for sub in ("data", "tables", "results"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        for pattern in _LEGACY_INTERMEDIATES:
            for stale in self.root.glob(pattern):
                stale.unlink()
        self.files: set[str] = set()

    def path(self, rel: str) -> Path:
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def register(self, rel: str) -> None:
        self.files.add(rel)

    def write_csv(self, rel: str, header: list[str], rows) -> None:
        with fieldio.atomic_open(self.path(rel), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        self.register(rel)

    def write_json(self, rel: str, payload) -> None:
        with fieldio.atomic_open(self.path(rel)) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.register(rel)

    def write_text(self, rel: str, text: str) -> None:
        with fieldio.atomic_open(self.path(rel)) as fh:
            fh.write(text)
        self.register(rel)

    def store(self, rel: str, stamp: str, compute) -> dict[str, np.ndarray]:
        """The arrays of store `rel` under `stamp`; on a miss, `compute()` them and save."""
        arrays = fieldio.load_store(self.path(rel), stamp)
        if arrays is None:
            arrays = compute()
            fieldio.save_store(self.path(rel), stamp, arrays)
        self.register(rel)
        return arrays

    def read_rows(self, rel: str) -> list[dict[str, str]]:
        with open(self.path(rel), newline="") as fh:
            return list(csv.DictReader(fh))

    def has(self, rel: str) -> bool:
        return self.path(rel).exists()


def _cell(value) -> str:
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _row(*values) -> list[str]:
    return [_cell(v) for v in values]


def _store_name(kind: str, key) -> str:
    """Array name of one table in the tables store, e.g. "su/d1-zurich-t2m/mean_replace/3"."""
    return "/".join([kind, *map(str, key if isinstance(key, tuple) else (key,))])


# -- run state ---------------------------------------------------------------


class RunState:
    """Shared context: data, models, and the per-timestamp tables and gaming outcomes."""

    def __init__(self, cfg: ExperimentConfig, workspace: Workspace | None = None):
        cfg.validate()
        self.cfg = cfg
        self.stamp = config_hash(cfg)
        self.ws = workspace or Workspace(cfg.out_dir)
        self.grid: GridSpec = make_grid(GridConfig(
            cfg.n_lat, cfg.n_lon, cfg.lat_min, cfg.lat_max, cfg.lon_min, cfg.lon_max,
            cfg.variables))
        self.stations: StationGrid = make_station_grid(self.grid, cfg.station_stride)
        self.targets: dict[str, TargetSpec] = {}
        self.fields: list | None = None
        self.clim = None
        self.var_std: np.ndarray | None = None
        self.models: dict[str, tuple[DeskModel, TruthGenerator]] = {}
        self._tables: dict = {}
        self._outcomes: dict[str, list[gaming.GamingOutcome]] = {}
        self.stage_status: dict[str, str] = {}
        self.failures: dict[str, str] = {}  # stage -> traceback

    # -- constituents ------------------------------------------------------

    def config_ids(self) -> list[str]:
        return [f"d{depth}-{t.name}-{tv}"
                for depth in self.cfg.model_depths
                for t in self.cfg.targets
                for tv in self.cfg.target_variables]

    def target_of(self, cid: str) -> TargetSpec:
        """The target of a config id d{depth}-{name}-{variable}, from the config alone."""
        _, name, variable = cid.split("-", 2)
        return self._target(name, variable)

    def _target(self, name: str, variable: str) -> TargetSpec:
        key = f"{name}-{variable}"
        if key not in self.targets:
            tc = next(t for t in self.cfg.targets if t.name == name)
            self.targets[key] = make_target(self.grid, tc.name, tc.lat, tc.lon, variable)
        return self.targets[key]

    def ensure_data(self) -> None:
        if self.fields is not None:
            return
        stored = self.ws.store(DATA_STORE, self.stamp, self._synth_arrays)
        self.fields = [FieldTensor(grid=self.grid, values=v, timestamp=t)
                       for t, v in enumerate(stored["fields"])]
        self.clim = Climatology(grid=self.grid, values=stored["climatology"])
        self.var_std = synth.field_std(self.fields)

    def _synth_arrays(self) -> dict[str, np.ndarray]:
        cfg = self.cfg
        fields, clim = synth.synth_fields(cfg.seed, self.grid, cfg.n_timestamps,
                                          n_clim_draws=cfg.n_clim_draws)
        return {"fields": np.stack([f.values for f in fields]), "climatology": clim.values}

    def make_model(self, cid: str) -> DeskModel:
        """The surrogate of config id d{depth}-{name}-{variable}, from the config alone."""
        cfg = self.cfg
        return make_desk_model(child_seed(cfg.seed, "model", cid), self.grid,
                               self.target_of(cid), depth=int(cid.split("-")[0][1:]),
                               channels=cfg.channels, stencil_radius=cfg.stencil_radius)

    def ensure_models(self) -> None:
        if self.models:
            return
        self.ensure_data()
        cfg = self.cfg
        stack = np.stack([f.values for f in self.fields])
        model_cfgs = {}
        for cid in self.config_ids():
            model = self.make_model(cid)
            noise_std = cfg.truth_noise_frac * float(model.forward_many(stack).std())
            truth = make_truth(model, child_seed(cfg.seed, "truth", cid),
                               noise_std=noise_std, weight_jitter=cfg.truth_weight_jitter)
            self.models[cid] = (model, truth)
            model_cfgs[cid] = {"model": model.to_config(), "noise_std": noise_std,
                               "truth_seed": child_seed(cfg.seed, "truth", cid)}
        self.ws.write_json("data/models.json", model_cfgs)

    # -- per-timestamp tables -----------------------------------------------

    def _method_keys(self) -> list[str]:
        keys = [f"ig@{k}" for k in sorted(set(self.cfg.ig_step_grid))]
        keys += ["gti", "vg", f"ig-zero@{min(8, self.cfg.ig_steps)}",
                 f"ig-pers@{min(8, self.cfg.ig_steps)}"]
        return keys

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
        li, lj = self.stations.lat_idx, self.stations.lon_idx

        def record(cid, key, t, values):
            gi[(cid, key)][t] = np.abs(values).sum(axis=(1, 2))
            if (cid, key) in si_u:
                si_u[(cid, key)][t] = np.abs(values).sum(axis=0)[li, lj]

        step_grid = sorted(set(cfg.ig_step_grid))
        zp_steps = min(8, cfg.ig_steps)
        zero_base = np.zeros(self.grid.shape)
        for cid in self.config_ids():
            model, truth = self.models[cid]
            specs = [ablation.PerturbationSpec(
                mode=mode, patch=patch, magnitude=cfg.perturb_magnitude,
                seed=child_seed(cfg.seed, "perturb", cid, mode, patch))
                for mode in cfg.modes for patch in cfg.patches]
            for t, f in enumerate(self.fields):
                y_star = truth.verify(f)
                # every quadrature node of every path variant in one gradient batch;
                # the first path starts at climatology, so its alpha = 1 gradient
                # is the gradient at x that GTI and VG use
                paths = [(f"ig@{s}", self.clim.values, s) for s in step_grid]
                paths.append((f"ig-zero@{zp_steps}", zero_base, zp_steps))
                if t >= 1:
                    paths.append((f"ig-pers@{zp_steps}",
                                  attr.persistence_baseline(self.fields, t), zp_steps))
                maps, grad_at_x = attr.integrated_gradients_paths(
                    model, f.values, [(base, steps) for _, base, steps in paths])
                for (key, _, _), values in zip(paths, maps):
                    record(cid, key, t, values)
                record(cid, "gti", t, (f.values - self.clim.values) * grad_at_x)
                record(cid, "vg", t, grad_at_x)
                gu[cid][t] = ablation.global_ablation(model, f, y_star, self.clim).values
                for smap in ablation.spatial_utility_multi(model, f, y_star,
                                                           self.stations, specs,
                                                           self.clim, self.var_std):
                    su[(cid, smap.spec.mode, smap.spec.patch)][t] = smap.u_signed
        tables = {"gi": gi, "si_u": si_u, "gu": gu, "su": su}
        return {_store_name(kind, key): tables[kind][key]
                for kind, kind_keys in keys.items() for key in kind_keys}

    # -- gaming outcomes -----------------------------------------------------

    def ensure_gaming(self) -> dict[str, list[gaming.GamingOutcome]]:
        """Per gaming config id, the outcome of each scenario in build_scenarios order."""
        if not self._outcomes:
            stored = self.ws.store(GAMING_STORE, self.stamp, self._gaming_arrays)
            self._outcomes = {cid: [gaming.GamingOutcome(
                scenario=sc, baseline_unsigned=stored[f"baseline/{cid}"].copy(),
                attack_unsigned=stored[f"attack/{cid}"][i],
                attack_reached_model=bool(stored[f"attack_reached_model/{cid}"][i]),
                **{name: float(stored[f"{name}/{cid}"][i]) for name in _OUTCOME_FLOATS})
                for i, sc in enumerate(build_scenarios(self, cid))]
                for cid in _gaming_config_ids(self)}
        return self._outcomes

    def _gaming_arrays(self) -> dict[str, np.ndarray]:
        self.ensure_models()
        si_u = self.ensure_tables()["si_u"]
        stack = np.stack([f.values for f in self.fields])
        arrays = {}
        for cid in _gaming_config_ids(self):
            model, truth = self.models[cid]
            base_uns = si_u[(cid, "gti")].mean(axis=0)
            outcomes = gaming.run_gaming_experiment(
                model, truth, self.fields, self.clim, self.stations,
                build_scenarios(self, cid), baseline_cache=(base_uns, model.forward_many(stack)))
            # one row per scenario, in build_scenarios order
            arrays[f"baseline/{cid}"] = base_uns
            arrays[f"attack/{cid}"] = np.array(
                [o.attack_unsigned for o in outcomes]).reshape(-1, self.stations.n_stations)
            for name in _OUTCOME_FLOATS + ("attack_reached_model",):
                arrays[f"{name}/{cid}"] = np.array([float(getattr(o, name)) for o in outcomes])
        return arrays

    # -- shared small helpers ------------------------------------------------

    def distances(self, cid: str) -> np.ndarray:
        target = self.target_of(cid)
        return self.stations.distances_to(target.lat, target.lon)


_spearman_stat = metrics.PairedSpearmanStat()


def _global_ks(state: RunState) -> tuple[int, ...]:
    return tuple(k for k in (1, 3, 5) if k <= state.grid.n_variables)


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


# -- stages -----------------------------------------------------------------


def stage_gen(state: RunState) -> None:
    state.ensure_models()
    st = state.stations
    rows = [_row(g, int(st.lat_idx[g]), int(st.lon_idx[g]), st.lats[g], st.lons[g])
            for g in range(st.n_stations)]
    state.ws.write_csv("data/stations.csv",
                       ["station_id", "lat_idx", "lon_idx", "lat", "lon"], rows)


def stage_fidelity(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, si_u, gu, su = tables["gi"], tables["si_u"], tables["gu"], tables["su"]
    boot_n, level, q = cfg.bootstrap_resamples, cfg.bootstrap_level, cfg.bh_q

    g_rows = []
    display = state.scored_methods()
    gks = _global_ks(state)
    for cid in state.config_ids():
        util = gu[cid]
        for key in display:
            imp = gi[(cid, key)]
            ag = _agreement(imp, util, gks, q)
            pairs = np.column_stack([np.nanmean(imp, axis=0), util.mean(axis=0)])
            ci = metrics.bootstrap_iid(pairs, _spearman_stat, boot_n, level,
                                       seed=child_seed(cfg.seed, "gci", cid, key))
            g_rows.append(_row(cid, key, ag.agg.rho, ag.agg.p_value, ci.lower, ci.upper,
                               *ag.overlaps, ag.wilcoxon_p, ag.bh_count, ag.mean_cycle_rho))
    state.ws.write_csv(
        "results/fidelity_global.csv",
        ["config_id", "method", "rho", "p_value", "ci_lower", "ci_upper"]
        + [f"top{k}" for k in gks] + ["wilcoxon_p", "bh_rejections", "mean_cycle_rho"],
        g_rows)

    s_rows = []
    blocks = metrics.station_blocks(state.stations)
    n = state.stations.n_stations
    ks = tuple(k for k in (5, 10, 20) if k <= n)
    for cid, mode, patch in _spatial_cases(state):
        util_abs = np.abs(su[(cid, mode, patch)])
        for key in display:
            imp = si_u[(cid, key)]
            ag = _agreement(imp, util_abs, ks, q)
            if key == state.primary_key():
                pairs = np.column_stack([imp.mean(axis=0), util_abs.mean(axis=0)])
                ci = metrics.bootstrap_block_spatial(
                    pairs, blocks, _spearman_stat, boot_n, level,
                    seed=child_seed(cfg.seed, "sci", cid, mode, patch))
                lo, hi = ci.lower, ci.upper
            else:
                lo = hi = np.nan
            s_rows.append(_row(cid, mode, patch, key, ag.agg.rho, ag.agg.p_value, lo, hi,
                               *ag.overlaps, ag.wilcoxon_p, ag.bh_count, ag.mean_cycle_rho))
    header = (["config_id", "mode", "patch", "method", "rho", "p_value",
               "ci_lower", "ci_upper"] + [f"top{k}" for k in ks]
              + ["wilcoxon_p", "bh_rejections", "mean_cycle_rho"])
    state.ws.write_csv("results/fidelity_spatial.csv", header, s_rows)


def stage_methods(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, gu = tables["gi"], tables["gu"]
    display = state.scored_methods()
    gks = _global_ks(state)
    per_config: dict[str, dict[str, float]] = {}
    summary = {key: {"rho": [], "agg_sig": 0, "wil_sig": 0, "topk": []} for key in display}
    for cid in state.config_ids():
        util = gu[cid]
        per_config[cid] = {}
        for key in display:
            ag = _agreement(gi[(cid, key)], util, gks, cfg.bh_q)
            per_config[cid][key] = ag.agg.rho
            s = summary[key]
            s["rho"].append(ag.agg.rho)
            s["topk"].append(ag.overlaps[-1])
            s["agg_sig"] += int((not math.isnan(ag.agg.p_value)) and ag.agg.p_value < 0.05)
            s["wil_sig"] += int((not math.isnan(ag.wilcoxon_p)) and ag.wilcoxon_p < 0.05)
    n_cfg = len(state.config_ids())
    rows = [_row(key, float(np.nanmean(s["rho"])), s["agg_sig"], s["wil_sig"],
                 float(np.mean(s["topk"])), n_cfg)
            for key, s in summary.items()]
    state.ws.write_csv("results/methods_summary.csv",
                       ["method", "mean_rho", "agg_sig", "wilcoxon_sig",
                        f"mean_top{gks[-1]}", "n_configs"], rows)

    pair_rows = []
    for a in display:
        for b in display:
            if a >= b:
                continue
            wins = sum(per_config[c][a] > per_config[c][b] for c in per_config)
            pair_rows.append(_row(a, b, wins, n_cfg))
    state.ws.write_csv("results/methods_pairwise.csv",
                       ["method_a", "method_b", "wins_a", "n_configs"], pair_rows)

    # quadrature sensitivity: do coarse step grids change the variable ranking?
    k_rows = []
    steps = sorted(set(cfg.ig_step_grid))
    ref = f"ig@{cfg.ig_steps}"
    for cid in state.config_ids():
        ref_rank = np.nanmean(gi[(cid, ref)], axis=0)
        for s in steps:
            key = f"ig@{s}"
            rc = metrics.spearman(np.nanmean(gi[(cid, key)], axis=0), ref_rank)
            k_rows.append(_row(cid, s, cfg.ig_steps, rc.rho))
    state.ws.write_csv("results/k_sensitivity.csv",
                       ["config_id", "steps", "reference_steps", "rank_rho"], k_rows)

    # baseline sensitivity: zero and persistence baselines vs climatology
    b_rows = []
    zp = min(8, cfg.ig_steps)
    for cid in state.config_ids():
        util_mean = gu[cid].mean(axis=0)
        rhos = {base: metrics.spearman(np.nanmean(gi[(cid, key)], axis=0), util_mean).rho
                for base, key in (("climatology", f"ig@{zp}"), ("zero", f"ig-zero@{zp}"),
                                  ("persistence", f"ig-pers@{zp}"))}
        for base, rho in rhos.items():
            delta = rho - rhos["climatology"] if not math.isnan(rho) else np.nan
            b_rows.append(_row(cid, base, zp, rho, delta))
    state.ws.write_csv("results/baseline_sensitivity.csv",
                       ["config_id", "baseline", "steps", "rho", "delta_vs_climatology"],
                       b_rows)

    _scale_invariance_table(state)


def _scale_invariance_table(state: RunState) -> None:
    """Plant a unit change in one variable and record which proxies move."""
    cfg = state.cfg
    state.ensure_data()
    cid = state.config_ids()[len(state.config_ids()) // 2]
    model = state.make_model(cid)
    tables = state.ensure_tables()
    vg_imp = np.nanmean(tables["gi"][(cid, "vg")], axis=0)
    var = int(np.argmax(vg_imp))
    factor = 1000.0
    scaled_model = model.with_rescaled_variable(var, factor)
    n_check = min(10, cfg.n_timestamps)
    max_dev = {"ig": 0.0, "gti": 0.0}
    vg_rank_changed = False
    sel_same = True
    for t in range(n_check):
        f = state.fields[t]
        sv = f.values.copy()
        sv[var] *= factor
        scl = state.clim.values.copy()
        scl[var] *= factor
        sf = type(f)(grid=f.grid, values=sv, timestamp=f.timestamp)
        maps = {"ig": (attr.integrated_gradients(model, f, state.clim.values, 8),
                       attr.integrated_gradients(scaled_model, sf, scl, 8)),
                "gti": (attr.gradient_times_input(model, f, state.clim.values),
                        attr.gradient_times_input(scaled_model, sf, scl))}
        for method, (a0, a1) in maps.items():
            scale = np.abs(a0.values).max()
            d = float(np.abs(a1.values - a0.values).max() / max(scale, 1e-300))
            max_dev[method] = max(max_dev[method], d)
            r0 = metrics.topk_indices(attr.spatial_importance(a0, state.stations), 20)
            r1 = metrics.topk_indices(attr.spatial_importance(a1, state.stations), 20)
            sel_same = sel_same and bool(np.array_equal(r0, r1))
        v0 = attr.vanilla_gradient(model, f)
        v1 = attr.vanilla_gradient(scaled_model, sf)
        rank0 = np.argsort(-attr.variable_importance(v0))
        rank1 = np.argsort(-attr.variable_importance(v1))
        vg_rank_changed = vg_rank_changed or not np.array_equal(rank0, rank1)
    state.ws.write_csv("results/scale_invariance.csv",
                       ["config_id", "variable", "factor", "ig_max_rel_dev",
                        "gti_max_rel_dev", "vg_ranking_changed", "selections_unchanged"],
                       [_row(cid, state.grid.variables[var], factor, max_dev["ig"],
                             max_dev["gti"], vg_rank_changed, sel_same)])


def _spatial_cases(state: RunState):
    for cid in state.config_ids():
        for mode in state.cfg.modes:
            for patch in state.cfg.patches:
                yield cid, mode, patch


def stage_calibrate(state: RunState) -> None:
    tables = state.ensure_tables()
    si_u, su = tables["si_u"], tables["su"]
    dec_rows, sum_rows = [], []
    for cid, mode, patch in _spatial_cases(state):
        util = np.abs(su[(cid, mode, patch)]).mean(axis=0)
        if util.sum() <= 0:
            continue
        proxies = {key: si_u[(cid, key)].mean(axis=0) for key in state.scored_methods()}
        proxies["distance"] = incentive.distance_scores(state.distances(cid))
        proxies["uniform"] = np.ones(state.stations.n_stations)
        for name in sorted(proxies):
            proxy = proxies[name]
            if proxy.sum() <= 0:
                continue
            rep = incentive.decile_calibration(proxy, util)
            for b in range(10):
                dec_rows.append(_row(cid, mode, patch, name, b + 1,
                                     rep.decile_mean_utility[b]))
            sum_rows.append(_row(cid, mode, patch, name, rep.gini_ratio,
                                 rep.overpayment_total, rep.share_spearman))
    state.ws.write_csv("results/calibration_deciles.csv",
                       ["config_id", "mode", "patch", "proxy", "decile", "mean_utility"],
                       dec_rows)
    state.ws.write_csv("results/calibration_summary.csv",
                       ["config_id", "mode", "patch", "proxy", "gini_ratio",
                        "overpayment", "share_spearman"], sum_rows)


def stage_select(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    si_u, su = tables["si_u"], tables["su"]
    n = state.stations.n_stations
    budgets = []
    for k in cfg.selection_budgets:
        if k > n:
            warnings.warn(f"selection budget {k} clipped to station count {n}")
            k = n
        if k not in budgets:
            budgets.append(k)
    rows = []
    for cid, mode, patch in _spatial_cases(state):
        util = np.abs(su[(cid, mode, patch)]).mean(axis=0)
        if util.sum() <= 0:
            continue
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
                rows.append(_row(cid, mode, patch, strategy, k, res.captured,
                                 res.efficiency_ratio, res.optimality_ratio))
    state.ws.write_csv("results/selection.csv",
                       ["config_id", "mode", "patch", "strategy", "k", "captured",
                        "efficiency_ratio", "optimality_ratio"], rows)


def stage_pay(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    si_u, su = tables["si_u"], tables["su"]
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
                pay_rows.append(_row(cid, key, g, alloc.shares[g], alloc.amounts[g],
                                     stab.lower[g], stab.upper[g]))
            stab_rows.append(_row(cid, key, stab.ci_to_share, stab.top_k, stab.resamples))
    state.ws.write_csv("results/payments.csv",
                       ["config_id", "method", "station_id", "share", "amount",
                        "share_ci_lower", "share_ci_upper"], pay_rows)
    state.ws.write_csv("results/payment_stability.csv",
                       ["config_id", "method", "ci_to_share", "top_k", "resamples"],
                       stab_rows)

    # shrinkage toward the distance prior, both inner objectives
    sh_rows = []
    key = state.primary_key()
    for cid, mode, patch in _spatial_cases(state):
        util = np.abs(su[(cid, mode, patch)]).mean(axis=0)
        if util.sum() <= 0:
            continue
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
                sh_rows.append(_row(cid, mode, patch, objective, fold, lam,
                                    fit.lam, fit.delta_rho))
    state.ws.write_csv("results/shrinkage.csv",
                       ["config_id", "mode", "patch", "objective", "fold", "lambda",
                        "lambda_mean", "delta_rho"], sh_rows)


def stage_subadditivity(state: RunState) -> None:
    cfg = state.cfg
    state.ensure_models()
    rows = []
    depth = max(cfg.model_depths)
    cids = [c for c in state.config_ids() if c.startswith(f"d{depth}-")]
    for ci, cid in enumerate(cids):
        model, truth = state.models[cid]
        y_stars = [truth.verify(f) for f in state.fields]
        order = np.argsort(state.distances(cid), kind="stable")
        modes = ("mean_replace", "scale_bias") if ci == 0 else ("mean_replace",)
        for size in (2, 3, 5):
            ids = [int(g) for g in order[:size]]
            for mode in modes:
                for patch in (1, 3):
                    spec = ablation.PerturbationSpec(
                        mode=mode, patch=patch, magnitude=cfg.perturb_magnitude,
                        seed=child_seed(cfg.seed, "subadd", cid, mode, patch))
                    ratios, flagged = [], 0
                    for f, y_star in zip(state.fields, y_stars):
                        res = ablation.joint_ablation(model, f, y_star, state.stations, ids,
                                                      spec, state.clim, state.var_std)
                        if res.ratio_defined:
                            ratios.append(res.ratio)
                        else:
                            flagged += 1
                    med = float(np.median(ratios)) if ratios else np.nan
                    rows.append(_row(cid, mode, patch, size,
                                     ";".join(str(g) for g in ids), med,
                                     len(ratios), flagged))
    state.ws.write_csv("results/subadditivity.csv",
                       ["config_id", "mode", "patch", "set_size", "station_ids",
                        "median_ratio", "n_defined", "n_flagged"], rows)


def _gaming_config_ids(state: RunState) -> list[str]:
    out = []
    for depth in state.cfg.model_depths:
        for name, tv in state.cfg.gaming.combos:
            out.append(f"d{depth}-{name}-{tv}")
    return out


def build_scenarios(state: RunState, cid: str) -> list[gaming.AttackScenario]:
    """The desk scenario grid for one gaming configuration."""
    cfg = state.cfg
    g = cfg.gaming
    target = state.target_of(cid)
    scenarios = []

    def add(kind, n, pct, scope, placement, seed_idx):
        seed = child_seed(cfg.seed, "scenario", cid, kind, n, pct, scope, placement, seed_idx)
        attackers = gaming.sample_attackers(state.stations, target, n, placement,
                                            child_seed(cfg.seed, "placement", cid, n,
                                                       placement, seed_idx))
        sid = f"{cid}:{kind}:n{n}:p{fmt(pct)}:{scope}:{placement}:{seed_idx}"
        scenarios.append(gaming.AttackScenario(
            scenario_id=sid, kind=kind, attackers=attackers, magnitude_pct=float(pct),
            scope=scope, scope_variables=gaming.resolve_scope(scope, state.grid.variables,
                                                              target),
            placement=placement, seed=seed))

    for n in g.n_attackers:
        for pct in g.magnitudes_pct:
            for s in range(g.n_seeds):
                add("inflate", n, pct, "all_surface", "uniform", s)
    if (target.name, target.variable) == tuple(g.extended_combo):
        for n in g.n_attackers:
            for pct in g.extended_magnitudes:
                for placement in g.extended_placements:
                    for s in range(g.extended_seeds):
                        add("inflate", n, pct, "all_surface", placement, s)
        for scope in ("single_target_var", "single_other_var"):
            for n in g.n_attackers:
                for s in range(g.scope_seeds):
                    add("inflate", n, 50.0, scope, "close", s)
    for n in g.n_attackers:
        for s in range(g.spoof_seeds):
            add("spoof", n, 0.0, "all_surface", "close", s)
    return scenarios


def stage_game(state: RunState) -> None:
    manifest, outcome_rows = {}, []
    for cid, outcomes in state.ensure_gaming().items():
        for o in outcomes:
            sc = o.scenario
            manifest[sc.scenario_id] = {
                "kind": sc.kind, "attackers": list(sc.attackers),
                "magnitude_pct": sc.magnitude_pct, "scope": sc.scope,
                "scope_variables": list(sc.scope_variables),
                "placement": sc.placement, "seed": sc.seed, "config_id": cid,
            }
            outcome_rows.append(_row(
                sc.scenario_id, cid, sc.kind, len(sc.attackers), sc.magnitude_pct,
                sc.scope, sc.placement, ";".join(str(a) for a in sc.attackers),
                o.inflation_ratio, o.mae_clean, o.mae_change, o.honest_share_change_pp,
                o.attack_reached_model))
    state.ws.write_json("results/gaming_scenarios.json", manifest)
    state.ws.write_csv("results/gaming_outcomes.csv",
                       ["scenario_id", "config_id", "kind", "n_attackers", "magnitude_pct",
                        "scope", "placement", "attackers", "inflation_ratio", "mae_clean",
                        "mae_change", "honest_share_change_pp", "attack_reached_model"],
                       outcome_rows)


def stage_detect(state: RunState) -> None:
    outcomes_by_cid = state.ensure_gaming()
    nbrs = gaming.neighbor_model(state.stations)
    results_rows, summary_rows = [], []
    d7_data: dict[str, list] = {}
    for cid in sorted(outcomes_by_cid):
        outcomes = outcomes_by_cid[cid]
        per_scenario: dict[str, list[gaming.DetectionResult]] = {}
        target = state.target_of(cid)
        d7_data[cid] = []
        for o in outcomes:
            res = gaming.score_scenario(o, state.stations, neighbors=nbrs)
            per_scenario[o.scenario.scenario_id] = res
            for r in res:
                results_rows.append(_row(r.scenario_id, r.detector, r.pr_auc, r.hit_at_1,
                                         r.hit_at_5, o.inflation_ratio, o.mae_change,
                                         r.flagged))
            if o.scenario.kind == "inflate":
                labels = np.zeros(state.stations.n_stations, dtype=int)
                labels[list(o.scenario.attackers)] = 1
                d7_data[cid].append((gaming.scenario_features(o, state.stations, target,
                                                              neighbors=nbrs), labels))
        for s in gaming.evaluate_detection(per_scenario, outcomes,
                                           state.stations.n_stations):
            summary_rows.append(_row(cid, s.kind, s.detector, s.n_scenarios,
                                     s.mean_pr_auc, s.hit_at_1, s.hit_at_5, s.prevalence))
    state.ws.write_csv("results/gaming_results.csv",
                       ["scenario_id", "detector", "pr_auc", "hit_at_1", "hit_at_5",
                        "inflation_ratio", "mae_change", "flagged"], results_rows)

    d7_data = {cid: rows for cid, rows in d7_data.items() if rows}
    if len(d7_data) >= 2:
        d7 = gaming.detector_d7_supervised(d7_data)
        for cid in sorted(d7):
            summary_rows.append(_row(cid, "inflate", "d7", len(d7[cid]),
                                     float(np.mean(d7[cid])), np.nan, np.nan,
                                     float(np.mean([y.sum() / y.size
                                                    for _, y in d7_data[cid]]))))
    state.ws.write_csv("results/detection_summary.csv",
                       ["config_id", "kind", "detector", "n_scenarios", "mean_pr_auc",
                        "hit_at_1", "hit_at_5", "prevalence"], summary_rows)


def stage_converge(state: RunState) -> None:
    cfg = state.cfg
    tables = state.ensure_tables()
    gi, si_u, gu, su = tables["gi"], tables["si_u"], tables["gu"], tables["su"]
    key = state.primary_key()
    rows = []

    def analyse(cid, scope, mode, patch, imp: np.ndarray, util: np.ndarray) -> list[str]:
        ag = _agreement(imp, util, (), cfg.bh_q)
        converge_n = "never"
        for n in range(6, ag.cycle_rho.size + 1):
            try:
                if metrics.wilcoxon_signed_rank(ag.cycle_rho[:n]) < 0.05:
                    converge_n = str(n)
                    break
            except ValueError:
                continue
        return _row(cid, scope, mode, patch, ag.agg.rho, ag.recovery, converge_n)

    for cid in state.config_ids():
        rows.append(analyse(cid, "global", "", "", gi[(cid, key)], gu[cid]))
        rows += [analyse(cid, "spatial", mode, patch, si_u[(cid, key)],
                         np.abs(su[(cid, mode, patch)]))
                 for mode in cfg.modes for patch in cfg.patches]
    state.ws.write_csv("results/convergence.csv",
                       ["config_id", "scope", "mode", "patch", "rho_aggregate",
                        "recovery_ratio", "converge_n"], rows)


def _mean_of(rows, col, where=None) -> float:
    vals = [float(r[col]) for r in rows
            if (where is None or where(r)) and r[col] not in ("", "nan")]
    return float(np.mean(vals)) if vals else math.nan


def stage_report(state: RunState) -> None:
    ws = state.ws
    lines = ["# Desk run report", ""]
    lines.append(f"- config hash: `{config_hash(state.cfg)}`")
    lines.append(f"- stations: {state.stations.n_stations}, "
                 f"timestamps: {state.cfg.n_timestamps}")
    lines.append("")
    if ws.has("results/methods_summary.csv"):
        rows = ws.read_rows("results/methods_summary.csv")
        topcol = next(c for c in rows[0] if c.startswith("mean_top"))
        lines.append("## Attribution methods (global fidelity)")
        lines.append("")
        lines.append(f"| method | mean rho | agg sig | wilcoxon sig | {topcol} |")
        lines.append("|---|---|---|---|---|")
        for r in rows:
            lines.append(f"| {r['method']} | {float(r['mean_rho']):.3f} | "
                         f"{r['agg_sig']}/{r['n_configs']} | "
                         f"{r['wilcoxon_sig']}/{r['n_configs']} | "
                         f"{float(r[topcol]):.2f} |")
        lines.append("")
    if ws.has("results/selection.csv"):
        rows = ws.read_rows("results/selection.csv")
        lines.append("## Captured utility by strategy (mean over configurations)")
        lines.append("")
        ks = sorted({int(r["k"]) for r in rows})
        lines.append("| K | " + " | ".join(incentive.STRATEGIES) + " | ig/oracle |")
        lines.append("|" + "---|" * (len(incentive.STRATEGIES) + 2))
        for k in ks:
            vals = []
            for strat in incentive.STRATEGIES:
                vals.append(_mean_of(rows, "captured",
                                     lambda r, s=strat, kk=k: r["strategy"] == s
                                     and int(r["k"]) == kk))
            ig_or = _mean_of(rows, "optimality_ratio",
                             lambda r, kk=k: r["strategy"] == "ig" and int(r["k"]) == kk)
            lines.append(f"| {k} | " + " | ".join(f"{v:.3f}" for v in vals)
                         + f" | {ig_or:.3f} |")
        lines.append("")
    if ws.has("results/calibration_summary.csv"):
        rows = ws.read_rows("results/calibration_summary.csv")
        lines.append("## Payment calibration (mean over configurations)")
        lines.append("")
        lines.append("| proxy | gini ratio | overpayment |")
        lines.append("|---|---|---|")
        for proxy in sorted({r["proxy"] for r in rows}):
            gr = _mean_of(rows, "gini_ratio", lambda r, p=proxy: r["proxy"] == p)
            op = _mean_of(rows, "overpayment", lambda r, p=proxy: r["proxy"] == p)
            lines.append(f"| {proxy} | {gr:.3f} | {op:.3f} |")
        lines.append("")
    if ws.has("results/payment_stability.csv"):
        rows = ws.read_rows("results/payment_stability.csv")
        lines.append(f"- mean CI-to-share ratio (top-{state.cfg.stability_top_k}): "
                     f"{_mean_of(rows, 'ci_to_share'):.3f}")
        lines.append("")
    if ws.has("results/detection_summary.csv"):
        rows = ws.read_rows("results/detection_summary.csv")
        lines.append("## Gaming detection (mean PR-AUC / top-5 hit rate)")
        lines.append("")
        lines.append("| config | kind | detector | PR-AUC | hit@5 | prevalence |")
        lines.append("|---|---|---|---|---|---|")
        for r in rows:
            h5 = r["hit_at_5"]
            h5s = f"{float(h5):.2f}" if h5 not in ("", "nan") else "-"
            lines.append(f"| {r['config_id']} | {r['kind']} | {r['detector']} | "
                         f"{float(r['mean_pr_auc']):.3f} | {h5s} | "
                         f"{float(r['prevalence']):.4f} |")
        lines.append("")
    if ws.has("results/convergence.csv"):
        rows = ws.read_rows("results/convergence.csv")
        ns = [int(r["converge_n"]) for r in rows
              if r["scope"] == "spatial" and r["converge_n"] != "never"]
        never = sum(1 for r in rows if r["scope"] == "spatial" and r["converge_n"] == "never")
        if ns:
            lines.append(f"- spatial convergence: median N = {int(np.median(ns))} "
                         f"({never} configurations never reach significance)")
        lines.append("")
    lines.append("All tables are plot-ready CSVs under `results/`.")
    lines.append("")
    ws.write_text("results/report.md", "\n".join(lines))


_STAGE_FUNCS = {name: globals()[f"stage_{name}"] for name in STAGES}


def run_stage(state: RunState, name: str) -> None:
    if name not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
    _STAGE_FUNCS[name](state)


def write_manifest(state: RunState) -> dict:
    ws = state.ws
    files = {}
    for rel in sorted(ws.files):
        digest = hashlib.sha256(ws.path(rel).read_bytes()).hexdigest()
        files[rel] = digest
    manifest = {
        "config_hash": config_hash(state.cfg),
        "package_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "stages": {name: state.stage_status.get(name, "not run") for name in STAGES},
        "files": files,
    }
    if state.failures:  # absent on success, so a clean manifest keeps its bytes
        manifest["failures"] = dict(state.failures)
    ws.write_json("manifest.json", manifest)
    return manifest


def run_full(cfg: ExperimentConfig, stage_filter: tuple[str, ...] | None = None) -> dict:
    """Run every stage (or a filtered subset), write the manifest, and report.

    Stage failures are recorded and do not stop later stages; the returned
    manifest carries per-stage status, the traceback of each failed stage
    under `failures`, and `ok` is False if anything failed.
    """
    state = RunState(cfg)
    save_config(cfg, state.ws.path("config.yaml"))
    state.ws.register("config.yaml")
    wanted = stage_filter or STAGES
    for name in STAGES:
        if name not in wanted:
            state.stage_status[name] = "skipped"
            continue
        try:
            run_stage(state, name)
            state.stage_status[name] = "completed"
        except Exception as exc:  # record and continue with later stages
            state.stage_status[name] = f"failed: {exc}"
            state.failures[name] = traceback.format_exc()
    manifest = write_manifest(state)
    manifest["ok"] = not state.failures
    return manifest
