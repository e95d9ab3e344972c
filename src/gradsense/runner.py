"""Configuration-driven experiment orchestration.

A single seeded `config.ExperimentConfig` drives the whole desk matrix:
synthetic data, a grid of surrogate models (depth x target x target variable),
attribution and ablation passes, fidelity/method/calibration/selection/
payment/convergence analyses, the gaming campaign, and detector evaluation.
Every stage returns deterministic CSV/JSON results for the output directory;
the manifest records the config hash and a content hash for every emitted
file, so a rerun with the same config is byte-identical.  Intermediate arrays
live in `fieldio` array stores: the fields in one, and each configuration's
per-timestamp tables and gaming run in a store of its own, stamped with the
config hash and its config id.  Every store goes through `Workspace.store`:
loaded when the stamp matches, else computed and saved, so a run that stops
part-way resumes from the last saved configuration.  A store's array names
are the keys the stages read, so a fresh and a resumed run share all code
after that point.  Stages can run standalone; a stage writes only its own
results, and its prerequisites go into stores.  `run_full` under a config
other than the directory's saved `config.yaml` first removes the artifacts of
the old one.

`STAGE_TABLE` declares the pipeline in run order: each `Stage` names its
function, its CLI help, the stores it reads, and the files it writes with
each one's columns.  `STAGES`, the CLI subcommands and the manifest's stage
statuses come from it; `run_stage` loads the stores a stage declares before
running it and is the one writer of the files it returns, and a contract
test holds each stage to its declaration.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import sys
import time
import traceback
import warnings
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Callable
from urllib.parse import quote

import numpy as np
import yaml

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__, ablation, attribution as attr, fieldio, gaming, incentive, metrics
# config_from_dict stays bound here: perfbench/child.py reads its jobs with it
from .config import (SCHEMA_VERSION, ExperimentConfig, _dump_yaml, _identity, config_from_dict,
                     config_hash, load_config)
from .fieldio import fmt
from .grid import StationGrid, TargetSpec, make_station_grid, make_target
from .model import DeskModel, make_desk_model, make_truth
from . import synth

DATA_STORE = "data/fields.gsa"


def config_store(kind: str, cid: str) -> str:
    """The file of config `cid`'s "tables" or "gaming" store, directly under tables/.

    The id is percent-encoded: any locale can encode the name, and a "/" in a
    target name makes no subdirectory.
    """
    return f"tables/{kind}-{quote(cid, safe='')}.gsa"


def child_seed(master: int, *tags) -> int:
    """Stable per-purpose integer seed derived from the master seed."""
    blob = f"{master}|" + "|".join(str(t) for t in tags)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "little")


# -- workspace --------------------------------------------------------------


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
        with fieldio.atomic_open(self.path(rel), "w", newline="", encoding="utf-8") as fh:
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
        with fieldio.atomic_open(self.path(rel), encoding="utf-8") as fh:
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
        with open(self.root / rel, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def clear(self) -> None:
        """Remove the files directly in data/, tables/ and results/, and the manifest."""
        stale = [p for sub in ("data", "tables", "results") for p in (self.root / sub).glob("*")]
        for p in stale + [self.root / "manifest.json"]:
            if p.is_file():
                p.unlink()


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
        self._tables: dict[str, dict[str, np.ndarray]] = {}
        self._gaming: dict[str, tuple[list[gaming.AttackScenario], gaming.GamingRun]] = {}
        self._agreements: dict[str, dict[tuple, Agreement]] = {}
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

    def ensure_tables(self) -> dict[str, dict[str, np.ndarray]]:
        """Per config id, its table arrays by store name.

        `gi/{method}` holds the variable importance, `si_u/{method}` the
        unsigned station importance, `gu` the variable ablation utility and
        `su/{mode}/{patch}` the signed station ablation utility.  Each config's
        store is stamped with its id, so a store found under another config's
        file name is recomputed, not trusted.
        """
        if not self._tables:
            self._tables = {cid: self.ws.store(config_store("tables", cid), f"{self.stamp}/{cid}",
                                               lambda: self._compute_tables(cid))
                            for cid in self.config_ids()}
        return self._tables

    def _compute_tables(self, cid: str) -> dict[str, np.ndarray]:
        """The table arrays of config `cid`, keyed by their store names, in store order."""
        self.ensure_models()
        cfg = self.cfg
        T, V, N = cfg.n_timestamps, self.grid.n_variables, self.stations.n_stations
        tables = {f"gi/{key}": np.full((T, V), np.nan) for key in self._method_keys()}
        tables.update({f"si_u/{key}": np.zeros((T, N)) for key in self.scored_methods()})
        tables["gu"] = np.zeros((T, V))
        tables.update({f"su/{mode}/{patch}": np.zeros((T, N))
                       for mode in cfg.modes for patch in cfg.patches})
        step_grid = sorted(cfg.ig_step_grid)
        zp_steps = cfg.cheap_steps()
        zero_base = np.zeros(self.grid.shape)
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
                tables[f"gi/{key}"][t] = var_imp
                if f"si_u/{key}" in tables:
                    tables[f"si_u/{key}"][t] = st_imp
            tables["gu"][t] = ablation.global_ablation(model, x, y_star, self.clim)
            for spec, u in zip(specs, ablation.spatial_utility_multi(
                    model, x, t, y_star, self.stations, specs, self.clim, self.var_std)):
                tables[f"su/{spec.mode}/{spec.patch}"][t] = u
        return tables

    # -- gaming runs ----------------------------------------------------------

    def ensure_gaming(self) -> dict[str, tuple[list[gaming.AttackScenario], gaming.GamingRun]]:
        """Per gaming config id, its build_scenarios list and the GamingRun over it.

        Each config's store holds the run's fields under their own names, so a
        loaded and a computed run hold the same arrays; with no scenario, only
        the baseline is nonempty.
        """
        if not self._gaming:
            runs = {}
            for cid in self.config_ids(self.cfg.gaming.combos):
                scenarios = build_scenarios(self, cid)
                stored = self.ws.store(config_store("gaming", cid), f"{self.stamp}/{cid}",
                                       lambda: self._compute_gaming(cid, scenarios))
                runs[cid] = (scenarios, gaming.GamingRun(**stored))
            self._gaming = runs
        return self._gaming

    def _compute_gaming(self, cid: str, scenarios: list[gaming.AttackScenario]
                        ) -> dict[str, np.ndarray]:
        """The `GamingRun` fields of config `cid` over `scenarios`, by name, in field order."""
        self.ensure_models()
        model, y_stars = self.models[cid]
        return vars(gaming.run_gaming_experiment(model, y_stars, self.fields, self.clim,
                                                 self.stations, scenarios))

    # -- agreements ------------------------------------------------------------

    def agreements(self, scope: str) -> dict[tuple, Agreement]:
        """The `Agreement` of each case's scored importance with its utility, built once per run.

        "global": per (cid, scored method), variable importance against the
        global ablation utility, with the top-k overlaps of `_global_ks`.
        "spatial": per (cid, mode, patch, scored method), station importance
        against the case's |utility|, with those of `_spatial_ks`.  fidelity,
        methods and converge read the same memo; the first to run builds it.
        """
        if scope not in self._agreements:
            tables, methods = self.ensure_tables(), self.scored_methods()
            if scope == "global":  # each case: its key, importance kind, utility and ks
                cases = [((cid,), "gi", tables[cid]["gu"], _global_ks(self))
                         for cid in self.config_ids()]
            elif scope == "spatial":
                cases = [((cid, mode, patch), "si_u", util, _spatial_ks(self))
                         for cid, mode, patch, util in _spatial_cases(self)]
            else:
                raise ValueError(f"scope must be 'global' or 'spatial', got {scope!r}")
            built = {}
            for case, kind, util, ks in cases:
                imps = [tables[case[0]][f"{kind}/{key}"] for key in methods]
                for key, ag in zip(methods, _agreements(imps, util, ks, self.cfg.bh_q)):
                    built[(*case, key)] = ag
            self._agreements[scope] = built
        return self._agreements[scope]

    # -- shared small helpers ------------------------------------------------

    def distances(self, cid: str) -> np.ndarray:
        target = self.target_of(cid)
        return self.stations.distances_to(target.lat, target.lon)


def _global_ks(state: RunState) -> tuple[int, ...]:
    return tuple(k for k in (1, 3, 5) if k <= state.grid.n_variables)


def _spatial_ks(state: RunState) -> tuple[int, ...]:
    return tuple(k for k in (5, 10, 20) if k <= state.stations.n_stations)


def _spatial_cases(state: RunState):
    """Each spatial ablation case (cid, mode, patch) with its (T, N) |utility|."""
    for cid, tables in state.ensure_tables().items():
        for mode, patch in product(state.cfg.modes, state.cfg.patches):
            yield cid, mode, patch, np.abs(tables[f"su/{mode}/{patch}"])


def _valued_cases(state: RunState):
    """The spatial cases whose time-mean |utility| is positive somewhere, with that mean."""
    for cid, mode, patch, util in _spatial_cases(state):
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


def _agreements(imps: list[np.ndarray], util: np.ndarray, ks: tuple[int, ...],
                q: float) -> list[Agreement]:
    """Aggregate and per-timestamp agreement of each (T, n) table in `imps` with `util`.

    Timestamps with NaN importance are left out.  Every row of the case is
    ranked once, in one `metrics.spearman_indexed` call: the utility's time
    mean and timestamps, then each table's time mean and its timestamps
    without NaN.  Each table pairs its time mean with the utility's (the
    aggregate), each timestamp with the utility's at that timestamp, and each
    timestamp with the utility's time mean (the recovery).
    """
    util_mean = util.mean(axis=0)
    rows, ia, ib, tables = [util_mean[None], util], [], [], []
    base = 1 + util.shape[0]
    for imp in imps:
        ts = np.flatnonzero(~np.isnan(imp).any(axis=1))
        imp_mean = np.nanmean(imp, axis=0)
        rows += [imp_mean[None], imp[ts]]
        own = base + 1 + np.arange(ts.size)
        ia.append(np.concatenate([[base], own, own]))
        ib.append(np.concatenate([[0], 1 + ts, np.zeros(ts.size, dtype=np.intp)]))
        tables.append((imp_mean, ts.size))
        base += 1 + ts.size
    rho = metrics.spearman_indexed(np.vstack(rows), np.concatenate(ia), np.concatenate(ib))
    p = metrics.spearman_p(rho, util.shape[1])
    out, at = [], 0
    for imp_mean, n_ts in tables:
        agg = metrics.RankCorrelation(rho=float(rho[at]), n=util.shape[1], p_value=float(p[at]))
        cycles, cycles_p = rho[at + 1:at + 1 + n_ts], p[at + 1:at + 1 + n_ts]
        vs_mean = rho[at + 1 + n_ts:at + 1 + 2 * n_ts]
        at += 1 + 2 * n_ts
        defined = ~np.isnan(cycles)
        cycle_rho, cycle_p = cycles[defined], cycles_p[defined]
        try:
            wil_p = metrics.wilcoxon_signed_rank(cycle_rho)
        except ValueError:
            wil_p = np.nan
        out.append(Agreement(
            agg=agg,
            overlaps=tuple(metrics.topk_overlap(imp_mean, util_mean, k) for k in ks),
            cycle_rho=cycle_rho, wilcoxon_p=wil_p,
            bh_count=int(metrics.bh_fdr(cycle_p, q).sum()),
            mean_cycle_rho=float(np.mean(cycle_rho)) if cycle_rho.size else np.nan,
            recovery=(float(np.nanmean(vs_mean) / agg.rho)
                      if not math.isnan(agg.rho) and agg.rho != 0 else np.nan)))
    return out


# -- stages -----------------------------------------------------------------


def stage_gen(state: RunState) -> dict:
    st = state.stations
    rows = [(g, int(st.lat_idx[g]), int(st.lon_idx[g]), st.lats[g], st.lons[g])
            for g in range(st.n_stations)]
    return {"data/stations.csv": rows}


def _fidelity_cells(ag: Agreement, ci_lower: float, ci_upper: float) -> tuple:
    """The cells of a fidelity row after its case columns."""
    return (ag.agg.rho, ag.agg.p_value, ci_lower, ci_upper, *ag.overlaps, ag.wilcoxon_p,
            ag.bh_count, ag.mean_cycle_rho)


def stage_fidelity(state: RunState) -> dict:
    cfg = state.cfg
    tables = state.ensure_tables()
    boot_n, level = cfg.bootstrap_resamples, cfg.bootstrap_level

    g_rows = []
    for (cid, key), ag in state.agreements("global").items():
        pairs = np.column_stack([np.nanmean(tables[cid][f"gi/{key}"], axis=0),
                                 tables[cid]["gu"].mean(axis=0)])
        ci = metrics.bootstrap_iid(pairs, metrics.paired_spearman, boot_n, level,
                                   seed=child_seed(cfg.seed, "gci", cid, key))
        g_rows.append((cid, key, *_fidelity_cells(ag, ci.lower, ci.upper)))

    s_rows = []
    blocks = metrics.station_blocks(state.stations)
    spatial = state.agreements("spatial")
    for cid, mode, patch, util_abs in _spatial_cases(state):
        for key in state.scored_methods():
            imp = tables[cid][f"si_u/{key}"]
            ag = spatial[(cid, mode, patch, key)]
            # a block-bootstrap CI for the primary method only, and only where its rho
            # is defined: a constant utility leaves every resample's undefined too
            lo = hi = np.nan
            if key == state.primary_key() and not ag.agg.undefined:
                pairs = np.column_stack([imp.mean(axis=0), util_abs.mean(axis=0)])
                ci = metrics.bootstrap_block_spatial(
                    pairs, blocks, metrics.paired_spearman, boot_n, level,
                    seed=child_seed(cfg.seed, "sci", cid, mode, patch))
                lo, hi = ci.lower, ci.upper
            s_rows.append((cid, mode, patch, key, *_fidelity_cells(ag, lo, hi)))
    return {"results/fidelity_global.csv": g_rows, "results/fidelity_spatial.csv": s_rows}


def stage_methods(state: RunState) -> dict:
    cfg = state.cfg
    tables = state.ensure_tables()
    display, cids = state.scored_methods(), state.config_ids()
    ags = state.agreements("global")
    summary_rows = []
    for key in display:
        col = [ags[(cid, key)] for cid in cids]  # a NaN p-value is never significant
        summary_rows.append((key, float(np.nanmean([ag.agg.rho for ag in col])),
                     sum(int(ag.agg.p_value < 0.05) for ag in col),
                     sum(int(ag.wilcoxon_p < 0.05) for ag in col),
                     float(np.mean([ag.overlaps[-1] for ag in col])), len(cids)))
    pair_rows = [(a, b, sum(int(ags[(c, a)].agg.rho > ags[(c, b)].agg.rho) for c in cids),
                  len(cids))
                 for a in display for b in display if a < b]

    # quadrature sensitivity: do coarse step grids change the variable ranking?
    k_rows = []
    steps = sorted(cfg.ig_step_grid)
    for cid in state.config_ids():
        coarse = np.stack([np.nanmean(tables[cid][f"gi/ig@{s}"], axis=0) for s in steps])
        ref_rank = np.nanmean(tables[cid][f"gi/{state.primary_key()}"], axis=0)
        rhos = metrics.spearman_rho(coarse, np.broadcast_to(ref_rank, coarse.shape))
        k_rows.extend((cid, s, cfg.ig_steps, rho) for s, rho in zip(steps, rhos))

    # baseline sensitivity: zero and persistence baselines vs climatology
    b_rows = []
    zp = cfg.cheap_steps()
    bases = (("climatology", f"ig@{zp}"), ("zero", f"ig-zero@{zp}"),
             ("persistence", f"ig-pers@{zp}"))
    for cid in state.config_ids():
        imps = np.stack([np.nanmean(tables[cid][f"gi/{key}"], axis=0) for _, key in bases])
        util_mean = tables[cid]["gu"].mean(axis=0)
        rhos = metrics.spearman_rho(imps, np.broadcast_to(util_mean, imps.shape))
        for (base, _), rho in zip(bases, rhos):  # rhos[0] is climatology's
            delta = rho - rhos[0] if not math.isnan(rho) else np.nan
            b_rows.append((cid, base, zp, rho, delta))
    return {"results/methods_summary.csv": summary_rows,
            "results/methods_pairwise.csv": pair_rows, "results/k_sensitivity.csv": k_rows,
            "results/baseline_sensitivity.csv": b_rows,
            "results/scale_invariance.csv": [_scale_invariance_row(state)]}


def _scale_invariance_row(state: RunState) -> tuple:
    """Plant a unit change in one variable and record which proxies move."""
    cid = state.config_ids()[len(state.config_ids()) // 2]
    model = state.make_model(cid)
    var = int(np.argmax(np.nanmean(state.ensure_tables()[cid]["gi/vg"], axis=0)))
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

    def top20(a):  # or every station, when there are fewer
        k = min(20, state.stations.n_stations)
        return [metrics.topk_indices(s, k) for s in attr.spatial_importance(a, state.stations)]

    sel_same = all(np.array_equal(r0, r1) for a0, a1 in ((ig0, ig1), (gti0, gti1))
                   for r0, r1 in zip(top20(a0), top20(a1)))
    vg_ranks = [np.argsort(-attr.variable_importance(vg), axis=-1) for vg in (vg0, vg1)]
    return (cid, state.grid.variables[var], factor, max_rel_dev(ig0, ig1),
            max_rel_dev(gti0, gti1), not np.array_equal(*vg_ranks), sel_same)


def stage_calibrate(state: RunState) -> dict:
    tables = state.ensure_tables()
    dec_rows, sum_rows = [], []
    for cid, mode, patch, util in _valued_cases(state):
        proxies = {key: tables[cid][f"si_u/{key}"].mean(axis=0) for key in state.scored_methods()}
        proxies["distance"] = incentive.distance_scores(state.distances(cid))
        proxies["uniform"] = np.ones(state.stations.n_stations)
        names = [name for name in sorted(proxies) if proxies[name].sum() > 0]
        reports = incentive.calibrate_case(np.stack([proxies[name] for name in names]), util)
        for name, rep in zip(names, reports):
            dec_rows += [(cid, mode, patch, name, b + 1, u)
                         for b, u in enumerate(rep.decile_mean_utility)]
            sum_rows.append((cid, mode, patch, name, rep.gini_ratio,
                             rep.overpayment_total, rep.share_spearman))
    return {"results/calibration_deciles.csv": dec_rows,
            "results/calibration_summary.csv": sum_rows}


def stage_select(state: RunState) -> dict:
    cfg = state.cfg
    tables = state.ensure_tables()
    n = state.stations.n_stations
    for k in cfg.selection_budgets:
        if k > n:
            warnings.warn(f"selection budget {k} clipped to station count {n}")
    budgets = list(dict.fromkeys(min(k, n) for k in cfg.selection_budgets))
    rows = []
    score_keys = {"ig": state.primary_key(), "gti": "gti", "vg": "vg"}
    for cid, mode, patch, util in _valued_cases(state):
        dist = state.distances(cid)
        # each strategy reads the input it ranks by: a time mean, the distances or the seed
        means = {s: tables[cid][f"si_u/{key}"].mean(axis=0) for s, key in score_keys.items()}
        seeds = [child_seed(cfg.seed, "uniform", cid, mode, patch, k) for k in budgets]
        rows += [(cid, mode, patch, res.strategy, res.k, res.captured, res.efficiency_ratio,
                  res.optimality_ratio)
                 for res in incentive.select_case(util, budgets, scores=means,
                                                  distances_km=dist, seeds=seeds)]
    return {"results/selection.csv": rows}


SHRINKAGE_OBJECTIVES = ("mse", "captured_utility")  # each case's rows, in this order


def stage_pay(state: RunState) -> dict:
    cfg = state.cfg
    tables = state.ensure_tables()
    pay_rows, stab_rows = [], []
    for cid in state.config_ids():
        for key in state.scored_methods():
            scores = tables[cid][f"si_u/{key}"]
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

    # shrinkage toward the distance prior, both inner objectives
    sh_rows = []
    key = state.primary_key()
    for cid, mode, patch, util in _valued_cases(state):
        scores = tables[cid][f"si_u/{key}"]
        totals = scores.sum(axis=1)
        ok = totals > 0
        if ok.sum() < 3:
            continue
        proxy_shares = scores[ok] / totals[ok, None]
        dist = incentive.distance_scores(state.distances(cid))
        dist_shares = dist / dist.sum()
        fits = incentive.shrinkage_fits(proxy_shares, dist_shares, util, SHRINKAGE_OBJECTIVES,
                                        k=cfg.stability_top_k)
        for objective, fit in zip(SHRINKAGE_OBJECTIVES, fits):
            for fold, lam in enumerate(fit.per_fold):
                sh_rows.append((cid, mode, patch, objective, fold, lam,
                                fit.lam, fit.delta_rho))
    return {"results/payments.csv": pay_rows, "results/payment_stability.csv": stab_rows,
            "results/shrinkage.csv": sh_rows}


def stage_subadditivity(state: RunState) -> dict:
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
            joint = [ablation.joint_ablation(model, x, t, y_star, state.stations, ids, spec,
                                             state.clim, state.var_std)
                     for t, (x, y_star) in enumerate(zip(state.fields, y_stars))]
            ratios = [res.ratio for res in joint if res.ratio_defined]
            med = float(np.median(ratios)) if ratios else np.nan
            rows.append((cid, mode, patch, size, ";".join(str(g) for g in ids), med,
                         len(ratios), len(joint) - len(ratios)))
    return {"results/subadditivity.csv": rows}


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


def stage_game(state: RunState) -> dict:
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
    return {"results/gaming_scenarios.json": manifest,
            "results/gaming_outcomes.csv": outcome_rows}


def stage_detect(state: RunState) -> dict:
    campaigns = {cid: (scenarios, run, state.distances(cid))
                 for cid, (scenarios, run) in sorted(state.ensure_gaming().items())}
    ev = gaming.evaluate_detectors(campaigns, state.stations)
    rows = [(sc.scenario_id, det, *cells, run.inflation_ratio[i], run.mae_change[i],
             det == "u1" and ev.u1_zero_mad[cid][i])
            for cid, (scenarios, run, _) in campaigns.items() for i, sc in enumerate(scenarios)
            for det, cells in zip(gaming.DETECTORS, ev.scored[cid][i].tolist())]
    return {"results/gaming_results.csv": rows, "results/detection_summary.csv": ev.summary}


def stage_converge(state: RunState) -> dict:
    key = state.primary_key()

    def analyse(cid, scope, mode, patch, ag: Agreement) -> tuple:
        converge_n = "never"
        for n in range(6, ag.cycle_rho.size + 1):
            try:
                if metrics.wilcoxon_signed_rank(ag.cycle_rho[:n]) < 0.05:
                    converge_n = str(n)
                    break
            except ValueError:
                continue
        return (cid, scope, mode, patch, ag.agg.rho, ag.recovery, converge_n)

    global_ags = state.agreements("global")
    rows = {cid: [analyse(cid, "global", "", "", global_ags[(cid, key)])]
            for cid in state.config_ids()}  # each config's spatial rows follow its global row
    for (cid, mode, patch, method), ag in state.agreements("spatial").items():
        if method == key:
            rows[cid].append(analyse(cid, "spatial", mode, patch, ag))
    return {"results/convergence.csv": [row for cid_rows in rows.values() for row in cid_rows]}


def _group(rows: list[dict[str, str]], *cols: str) -> dict[tuple[str, ...], list[dict[str, str]]]:
    """The rows by their cells in `cols`, in one pass; each group keeps the file order."""
    groups: dict[tuple[str, ...], list[dict[str, str]]] = {}
    for r in rows:
        groups.setdefault(tuple(r[c] for c in cols), []).append(r)
    return groups


def _mean(rows: list[dict[str, str]], col: str) -> float:
    """Mean of column `col` over `rows`, NaN cells left out; NaN for no rows."""
    vals = [x for x in (float(r[col]) for r in rows) if not math.isnan(x)]
    return float(np.mean(vals)) if vals else math.nan


def stage_report(state: RunState) -> dict:
    cfg, ws = state.cfg, state.ws

    def table(name: str) -> list[dict[str, str]] | None:
        """The rows of results/{name}.csv, or None when its stage has not run."""
        rel = f"results/{name}.csv"
        return ws.read_rows(rel) if (ws.root / rel).exists() else None

    lines = ["# Desk run report", "", f"- config hash: `{config_hash(cfg)}`",
             f"- stations: {state.stations.n_stations}, timestamps: {cfg.n_timestamps}", ""]
    if (rows := table("methods_summary")) is not None:
        topcol = f"mean_top{_global_ks(state)[-1]}"
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
        cells = _group(rows, "strategy", "k")
        for k in sorted({int(r["k"]) for r in rows}):
            vals = [_mean(cells.get((s, str(k)), []), "captured") for s in incentive.STRATEGIES]
            vals.append(_mean(cells.get(("ig", str(k)), []), "optimality_ratio"))
            lines.append(f"| {k} | " + " | ".join(f"{v:.3f}" for v in vals) + " |")
        lines.append("")
    if (rows := table("calibration_summary")) is not None:
        lines += ["## Payment calibration (mean over configurations)", "",
                  "| proxy | gini ratio | overpayment |", "|---|---|---|"]
        lines += [f"| {p} | {_mean(group, 'gini_ratio'):.3f} | {_mean(group, 'overpayment'):.3f} |"
                  for (p,), group in sorted(_group(rows, "proxy").items())] + [""]
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
    return {"results/report.md": "\n".join(lines)}


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and its contract.

    `reads` names the `RunState.ensure_*` stores (`data`, `models`, `tables`,
    `gaming`) that `run_stage` loads before the stage runs.  `writes` maps each
    file the stage writes, relative to the run directory, to its columns: a
    tuple, a function of the `RunState` where the config sets them, or None
    for a JSON or markdown file.  The stage returns each file's rows or
    payload and `run_stage` writes them.  The files of a store, and of the
    stores it is computed from, are not in `writes`.
    """
    name: str
    run: Callable[[RunState], dict]
    help: str
    reads: tuple[str, ...]
    writes: dict[str, tuple[str, ...] | Callable[[RunState], tuple[str, ...]] | None]


STAGE_TABLE = (  # in run order
    Stage("gen", stage_gen, "generate fields, climatology, stations and models", ("models",),
          {"data/stations.csv": ("station_id", "lat_idx", "lon_idx", "lat", "lon")}),
    Stage("fidelity", stage_fidelity, "attribution vs ablation fidelity tables", ("tables",),
          {"results/fidelity_global.csv": lambda state: (
              "config_id", "method", "rho", "p_value", "ci_lower", "ci_upper",
              *(f"top{k}" for k in _global_ks(state)), "wilcoxon_p", "bh_rejections",
              "mean_cycle_rho"),
           "results/fidelity_spatial.csv": lambda state: (
              "config_id", "mode", "patch", "method", "rho", "p_value", "ci_lower", "ci_upper",
              *(f"top{k}" for k in _spatial_ks(state)), "wilcoxon_p", "bh_rejections",
              "mean_cycle_rho")}),
    Stage("methods", stage_methods,
          "method comparison, quadrature and baseline sensitivity, unit-scale experiment",
          ("data", "tables"),
          {"results/methods_summary.csv": lambda state: (  # the report reads mean_top{k}
              "method", "mean_rho", "agg_sig", "wilcoxon_sig",
              f"mean_top{_global_ks(state)[-1]}", "n_configs"),
           "results/methods_pairwise.csv": ("method_a", "method_b", "wins_a", "n_configs"),
           "results/k_sensitivity.csv": ("config_id", "steps", "reference_steps", "rank_rho"),
           "results/baseline_sensitivity.csv": ("config_id", "baseline", "steps", "rho",
                                                "delta_vs_climatology"),
           "results/scale_invariance.csv": ("config_id", "variable", "factor", "ig_max_rel_dev",
                                            "gti_max_rel_dev", "vg_ranking_changed",
                                            "selections_unchanged")}),
    Stage("calibrate", stage_calibrate, "decile calibration, Gini ratios, overpayment",
          ("tables",),
          {"results/calibration_deciles.csv": ("config_id", "mode", "patch", "proxy", "decile",
                                               "mean_utility"),
           "results/calibration_summary.csv": ("config_id", "mode", "patch", "proxy",
                                               "gini_ratio", "overpayment", "share_spearman")}),
    Stage("select", stage_select, "sensor selection strategies across budgets", ("tables",),
          {"results/selection.csv": ("config_id", "mode", "patch", "strategy", "k", "captured",
                                     "efficiency_ratio", "optimality_ratio")}),
    Stage("pay", stage_pay, "payments, stability intervals, shrinkage fits", ("tables",),
          {"results/payments.csv": ("config_id", "method", "station_id", "share", "amount",
                                    "share_ci_lower", "share_ci_upper"),
           "results/payment_stability.csv": ("config_id", "method", "ci_to_share", "top_k",
                                             "resamples"),
           "results/shrinkage.csv": ("config_id", "mode", "patch", "objective", "fold",
                                     "lambda", "lambda_mean", "delta_rho")}),
    Stage("subadditivity", stage_subadditivity,
          "joint-ablation ratios of the nearest station sets", ("models",),
          {"results/subadditivity.csv": ("config_id", "mode", "patch", "set_size",
                                         "station_ids", "median_ratio", "n_defined",
                                         "n_flagged")}),
    Stage("game", stage_game, "adversarial scenario campaign", ("gaming",),
          {"results/gaming_scenarios.json": None,
           "results/gaming_outcomes.csv": ("scenario_id", "config_id", "kind", "n_attackers",
                                           "magnitude_pct", "scope", "placement", "attackers",
                                           "inflation_ratio", "mae_clean", "mae_change",
                                           "honest_share_change_pp", "attack_reached_model")}),
    Stage("detect", stage_detect, "detector evaluation over gaming outcomes", ("gaming",),
          {"results/gaming_results.csv": ("scenario_id", "detector", "pr_auc", "hit_at_1",
                                          "hit_at_5", "inflation_ratio", "mae_change",
                                          "flagged"),
           "results/detection_summary.csv": ("config_id", "kind", "detector", "n_scenarios",
                                             "mean_pr_auc", "hit_at_1", "hit_at_5",
                                             "prevalence")}),
    Stage("converge", stage_converge, "cycle-vs-aggregate recovery and convergence",
          ("tables",),
          {"results/convergence.csv": ("config_id", "scope", "mode", "patch", "rho_aggregate",
                                       "recovery_ratio", "converge_n")}),
    Stage("report", stage_report, "markdown summary over existing results", (),
          {"results/report.md": None}),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)


def run_stage(state: RunState, name: str) -> None:
    """Load the stores the stage `name` of `STAGE_TABLE` reads, run it, and write its files.

    A stage returns each file it declares: rows for a CSV, written under the
    declared columns, a payload for a JSON file and text for any other.  A
    stage that raises, or returns other files than it declares, writes none.
    """
    stage = next((s for s in STAGE_TABLE if s.name == name), None)
    if stage is None:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
    for store in stage.reads:
        getattr(state, f"ensure_{store}")()
    out = stage.run(state) or {}
    returned, declared = set(out), set(stage.writes)
    if returned != declared:
        raise ValueError(f"stage {name!r} returned undeclared files {sorted(returned - declared)} "
                         f"and left out declared ones {sorted(declared - returned)}")
    for rel, columns in stage.writes.items():
        if rel.endswith(".csv"):
            state.ws.write_csv(rel, columns(state) if callable(columns) else columns, out[rel])
        elif rel.endswith(".json"):
            state.ws.write_json(rel, out[rel])
        else:
            state.ws.write_text(rel, out[rel])


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


# glibc's mallopt parameter numbers (malloc.h), and the thresholds run_full pins
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 8 << 20
_TRIM_THRESHOLD = 16 << 20


def _pin_malloc_thresholds() -> None:
    """Pin glibc malloc's mmap and trim thresholds at 8 and 16 MiB; a no-op on other libcs.

    Unpinned, glibc starts both low (128 KiB) and raises them as large blocks
    are freed, so they depend on what the process imported before the run.
    Left low, the stages' temporaries of a few MB make malloc hand the heap
    top back to the kernel after one bootstrap and fault it in again in the
    next.  Pinned, a bench-desk run takes about 4,000 minor page faults
    instead of 29,000, and its analysis stages 3,300 instead of 37,000.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library symbols, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _progress(message: str) -> None:
    """One progress line on stderr; stdout stays the CLI's."""
    print(f"gradsense: {message}", file=sys.stderr, flush=True)


def _max_rss_mb() -> float:
    """The process's peak resident set so far in MB (`ru_maxrss`); NaN where it is unknown."""
    if resource is None:
        return math.nan
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes, else KiB


def _file_sha256(path: Path) -> str:
    """The sha256 of a file, read a MiB at a time: a store is never held whole to hash it."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(state: RunState) -> dict:
    ws = state.ws
    files = {rel: _file_sha256(ws.path(rel)) for rel in sorted(ws.files)}
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

    Each stage prints one line on stderr as it starts, and one as it ends with
    its status, wall seconds and the process's peak RSS so far.  Stage
    failures are recorded and do not stop later stages; the returned
    manifest carries per-stage status, the traceback of each failed stage
    under `failures`, and `ok` is False if anything failed.  A `stage_filter`
    name outside `STAGES`, or an empty one, raises ValueError before the
    directory is touched.
    """
    if stage_filter is not None and not stage_filter:
        raise ValueError(f"stage_filter is empty; pass None to run all of {STAGES}")
    if unknown := set(stage_filter or ()) - set(STAGES):
        raise ValueError(f"unknown stages {sorted(unknown)} in stage_filter; expected {STAGES}")
    _pin_malloc_thresholds()
    state = RunState(cfg)
    saved = state.ws.path("config.yaml")
    if saved.exists():  # else gradsense never ran here, and nothing is its to clear
        try:  # saved before any stage runs, config.yaml names the last config run here
            old = config_hash(load_config(saved))
        except (OSError, yaml.YAMLError, ValueError):
            old = None  # unreadable
        if old != state.stamp:  # one directory never mixes the artifacts of two configs
            state.ws.clear()
    _dump_yaml(_identity(cfg), saved)  # the directory's name is no part of its contents
    state.ws.files.add("config.yaml")
    wanted = stage_filter or STAGES
    for name in STAGES:
        if name not in wanted:
            state.stage_status[name] = "skipped"
            continue
        _progress(f"{name}: started")
        start = time.perf_counter()
        try:
            run_stage(state, name)  # by name: perfbench/tracing.py times each stage here
            state.stage_status[name] = "completed"
        except Exception as exc:  # record and continue with later stages
            state.stage_status[name] = f"failed: {exc}"
            state.failures[name] = traceback.format_exc()
        _progress(f"{name}: {'failed' if name in state.failures else 'completed'} in "
                  f"{time.perf_counter() - start:.2f} s, max RSS {_max_rss_mb():.1f} MB")
    manifest = write_manifest(state)
    manifest["ok"] = not state.failures
    return manifest
