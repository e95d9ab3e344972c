"""Configuration-driven experiment orchestration.

A single seeded config drives the whole desk matrix: synthetic data, a grid
of surrogate models (depth x target x target variable), attribution and
ablation passes, fidelity/method/calibration/selection/payment/convergence
analyses, the gaming campaign, and detector evaluation.  Every stage writes
deterministic CSV/JSON results under the output directory; the manifest
records the config hash and a content hash for every emitted file, so a
rerun with the same config is byte-identical.  Intermediate arrays (fields,
per-timestamp tables, gaming runs) live in `fieldio` array stores stamped
with the config hash, and every store goes through `Workspace.store`: loaded
when the stamp matches the config, else computed and saved.  Either way the
`RunState.ensure_*` entry points decode the arrays it returns, so a fresh and
a resumed run share all code after that point.  Stages can run standalone; a
stage writes only its own results, and its prerequisites go into stores.
`run_full` under a config other than the directory's saved `config.yaml`
first removes the artifacts of the old one.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import traceback
import warnings
from dataclasses import (MISSING, asdict, dataclass, field, fields as dataclass_fields,
                         is_dataclass, replace)
from itertools import product
from math import inf
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__, ablation, attribution as attr, fieldio, gaming, incentive, metrics
from .fieldio import fmt
from .grid import (MIN_CELLS, Climatology, FieldTensor, GridConfig, GridSpec, StationGrid,
                   TargetSpec, make_grid, make_station_grid, make_target)
from .model import MAX_DEPTH, MIN_DEPTH, DeskModel, make_desk_model, make_truth
from . import synth

SCHEMA_VERSION = 1

STAGES = ("gen", "fidelity", "methods", "calibrate", "select", "pay",
          "subadditivity", "game", "detect", "converge", "report")

DATA_STORE = "data/fields.gsa"
TABLES_STORE = "tables/tables.gsa"
GAMING_STORE = "tables/gaming.gsa"
# each gaming config's arrays in the gaming store, as "{name}/{config id}", in this order
_GAMING_ARRAYS = tuple(f.name for f in dataclass_fields(gaming.GamingRun))


@dataclass(frozen=True)
class TargetConfig:
    name: str
    lat: float
    lon: float


# numeric field ranges, closed at both ends; the walk in `_conform` checks them
Count = Annotated[int, (1, inf)]          # a size or step count
NonNegInt = Annotated[int, (0, inf)]      # a seed, or a count of seeds
NonNegative = Annotated[float, (0.0, inf)]
UnitInterval = Annotated[float, (0.0, 1.0)]   # validate() excludes the ends where it must


@dataclass(frozen=True)
class GamingDesign:
    combos: tuple[tuple[str, str], ...] = (("zurich", "t2m"), ("zurich", "u10m"),
                                           ("london", "t2m"))
    n_attackers: tuple[Count, ...] = (1, 3, 5)
    magnitudes_pct: tuple[NonNegative, ...] = (10.0, 30.0, 50.0)
    n_seeds: NonNegInt = 10
    extended_combo: tuple[str, str] = ("zurich", "t2m")
    extended_magnitudes: tuple[NonNegative, ...] = (10.0, 30.0, 50.0, 100.0, 200.0)
    extended_placements: tuple[str, ...] = ("close", "mid", "mixed")
    extended_seeds: NonNegInt = 3
    scope_seeds: NonNegInt = 3
    spoof_seeds: NonNegInt = 10


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    seed: NonNegInt = 7
    out_dir: str = "runs/default"
    n_lat: Annotated[int, (MIN_CELLS, inf)] = 36
    n_lon: Annotated[int, (MIN_CELLS, inf)] = 50
    lat_min: float = 35.0
    lat_max: float = 70.0
    lon_min: float = -10.0
    lon_max: float = 40.0
    variables: tuple[str, ...] = ("t2m", "u10m", "v10m", "msl", "q2m", "tp")
    n_timestamps: Annotated[int, (incentive.MIN_TIMESTAMPS, inf)] = 60
    n_clim_draws: Count = 1000
    station_stride: Count = 4
    targets: tuple[TargetConfig, ...] = (TargetConfig("zurich", 47.4, 8.6),
                                         TargetConfig("london", 51.5, -0.1),
                                         TargetConfig("berlin", 52.5, 13.4))
    target_variables: tuple[str, ...] = ("t2m", "u10m", "msl")
    model_depths: tuple[Annotated[int, (MIN_DEPTH, MAX_DEPTH)], ...] = (1, 3)
    channels: Count = 4
    stencil_radius: Count = 2
    truth_noise_frac: NonNegative = 0.02
    truth_weight_jitter: NonNegative = 0.05
    ig_steps: Count = 50
    ig_step_grid: tuple[Count, ...] = (1, 8, 50)
    patches: tuple[Count, ...] = (1, 3, 5)
    modes: tuple[str, ...] = ("mean_replace", "scale_bias", "additive_noise")
    perturb_magnitude: NonNegative = 0.10  # subadditivity runs scale_bias whatever modes holds
    selection_budgets: tuple[Count, ...] = (5, 10, 20, 50, 100)
    budget: NonNegative = 10000.0
    bootstrap_resamples: Annotated[int, (metrics.MIN_RESAMPLES, inf)] = 10000
    bootstrap_level: UnitInterval = 0.95
    stability_top_k: Count = 20
    bh_q: UnitInterval = 0.05
    gaming: GamingDesign = field(default_factory=GamingDesign)

    def validate(self) -> None:
        """Raise ValueError unless the walk a config file takes and the cross-field rules pass."""
        walked = _walked(self)
        for f in dataclass_fields(self):  # a list for a tuple, a mapping for a dataclass
            if getattr(walked, f.name) != getattr(self, f.name):
                raise ValueError(f"config key {f.name} must be {f.type}, "
                                 f"not {getattr(self, f.name)!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {self.schema_version!r}")
        for key in ("bootstrap_level", "bh_q"):
            if getattr(self, key) in (0.0, 1.0):
                raise ValueError(f"{key} must be in (0, 1)")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"variables must be unique, got {list(self.variables)}")
        grid = make_grid(GridConfig(self.n_lat, self.n_lon, self.lat_min, self.lat_max,
                                    self.lon_min, self.lon_max, self.variables))
        for tv in self.target_variables:
            if tv not in self.variables:
                raise ValueError(f"target variable {tv!r} not in grid variables")
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise ValueError("target names must be unique")
        if any("-" in name for name in names):  # config ids are d{depth}-{name}-{var}
            raise ValueError("target names must not contain '-'")
        for t in self.targets:  # else every model stage fails on it
            try:
                make_target(grid, t.name, t.lat, t.lon, self.variables[0])
            except ValueError as exc:
                raise ValueError(f"targets entry {t.name!r}: {exc}") from None
        for combo in self.gaming.combos + (self.gaming.extended_combo,):
            if combo[0] not in names or combo[1] not in self.target_variables:
                raise ValueError(f"gaming combo {combo} not in the target matrix")
        if unknown := set(self.gaming.extended_placements) - set(gaming.PLACEMENTS):
            raise ValueError(f"gaming.extended_placements {sorted(unknown)} not in "
                             f"{gaming.PLACEMENTS}")
        if self.ig_steps not in self.ig_step_grid:
            raise ValueError("ig_steps must be part of ig_step_grid")
        if self.cheap_steps() not in self.ig_step_grid:  # the baseline-sensitivity reference
            raise ValueError(f"ig_step_grid must hold cheap_steps() = {self.cheap_steps()}")
        if not self.model_depths:
            raise ValueError("model_depths is empty, so no model is built")
        if not self.gaming.n_attackers:
            raise ValueError("gaming.n_attackers is empty, so no scenario is built")
        if any(p % 2 == 0 for p in self.patches):
            raise ValueError("patches must be odd cell counts")
        if any(m not in ablation.MODES for m in self.modes):
            raise ValueError(f"modes must be drawn from {ablation.MODES}")
        if len(self.variables) < metrics.MIN_SAMPLES:
            raise ValueError(f"need at least {metrics.MIN_SAMPLES} variables")
        try:
            n_stations = make_station_grid(grid, self.station_stride).n_stations
        except ValueError as exc:
            raise ValueError(f"station_stride: {exc}") from None
        if n_stations < incentive.MIN_STATIONS:
            raise ValueError(f"station_stride leaves under {incentive.MIN_STATIONS} stations")

    def cheap_steps(self) -> int:
        """Quadrature steps of the zero- and persistence-baseline IG variants."""
        return min(8, self.ig_steps)


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


_SCALARS = {int: (int,), float: (int, float), str: (str,)}  # bool is no int here


def _conform(kind, val, where: str):
    """`val` as a value of type `kind`: lists made tuples, ints in float slots floats.

    A mapping in a dataclass slot becomes that dataclass, its keys named after
    the prefix `where`.  A value of another shape or type raises TypeError; so
    does a number that is not finite or lies outside its `Annotated` range.
    """
    if is_dataclass(kind):
        return kind(**_fields_of(kind, val, where))
    if get_origin(kind) is tuple:  # len() of a scalar raises TypeError as well
        args = get_args(kind)
        slots = args[:1] * len(val) if args[-1] is Ellipsis else args
        if not isinstance(val, (list, tuple)) or len(slots) != len(val):
            raise TypeError
        return tuple(_conform(a, v, where) for a, v in zip(slots, val))
    kind, (lo, hi) = get_args(kind) if get_origin(kind) is Annotated else (kind, (-inf, inf))
    if type(val) not in _SCALARS[kind]:
        raise TypeError
    if kind is not str and (val in (-inf, inf) or not lo <= val <= hi):  # NaN fails too
        raise TypeError(f"be a finite number in [{lo}, {hi}]")
    return float(val) if kind is float else val


def _fields_of(cls, d, where: str) -> dict:
    """`d` as keyword arguments of dataclass `cls`, each value conformed to its field's type.

    An unknown or missing key, or a value unlike its field's annotation, raises
    ValueError naming the key, after the prefix `where`.
    """
    if not isinstance(d, dict):
        raise ValueError(f"config {where.rstrip('.') or 'document'} must be a mapping")
    fields = {f.name: f for f in dataclass_fields(cls)}
    types = get_type_hints(cls, include_extras=True)
    out = {}
    for key, val in d.items():
        if key not in fields:
            raise ValueError(f"unknown config key {where}{key}")
        try:
            out[key] = _conform(types[key], val, f"{where}{key}.")
        except TypeError as exc:
            why = exc.args[0] if exc.args else f"be {fields[key].type}"
            raise ValueError(f"config key {where}{key} must {why}, not {val!r}") from None
    for key, f in fields.items():
        if key not in out and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config key {where}{key} is missing")
    return out


def _walked(cfg: ExperimentConfig) -> ExperimentConfig:
    """`cfg` through the walk a config file takes: checked, with ints in float slots floats."""
    return ExperimentConfig(**_fields_of(ExperimentConfig, asdict(cfg), ""))


def config_from_dict(d: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**_fields_of(ExperimentConfig, d, ""))
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(yaml.safe_load(fh))


def _dump_yaml(d: dict, path: str | Path) -> None:
    with fieldio.atomic_open(path) as fh:
        yaml.safe_dump(d, fh, sort_keys=True)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    _dump_yaml(config_to_dict(cfg), path)


def _identity(cfg: ExperimentConfig) -> dict:
    """The walked config without `out_dir`: what `config_hash` hashes and config.yaml holds."""
    d = config_to_dict(_walked(cfg))
    del d["out_dir"]
    return d


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment identity (the output location does not count)."""
    blob = json.dumps(_identity(cfg), sort_keys=True).encode()
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
        with open(self.path(rel), newline="") as fh:
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
        self.grid: GridSpec = make_grid(GridConfig(
            cfg.n_lat, cfg.n_lon, cfg.lat_min, cfg.lat_max, cfg.lon_min, cfg.lon_max,
            cfg.variables))
        self.stations: StationGrid = make_station_grid(self.grid, cfg.station_stride)
        self.fields: list | None = None
        self.clim = None
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
        stack = np.stack([f.values for f in self.fields])
        model_cfgs = {}
        for cid in self.config_ids():
            model = self.make_model(cid)
            noise_std = cfg.truth_noise_frac * float(model.forward_many(stack).std())
            truth = make_truth(model, child_seed(cfg.seed, "truth", cid),
                               noise_std=noise_std, weight_jitter=cfg.truth_weight_jitter)
            self.models[cid] = (model, np.array([truth.verify(f) for f in self.fields]))
            model_cfgs[cid] = {"model": model.to_config(), "noise_std": noise_std,
                               "truth_seed": child_seed(cfg.seed, "truth", cid)}
        self.ws.write_json("data/models.json", model_cfgs)

    # -- per-timestamp tables -----------------------------------------------

    def _method_keys(self) -> list[str]:
        cheap = self.cfg.cheap_steps()
        return [*(f"ig@{k}" for k in sorted(set(self.cfg.ig_step_grid))), "gti", "vg",
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
        step_grid = sorted(set(cfg.ig_step_grid))
        zp_steps = cfg.cheap_steps()
        zero_base = np.zeros(self.grid.shape)
        for cid in self.config_ids():
            model, y_stars = self.models[cid]
            specs = [ablation.PerturbationSpec(
                mode=mode, patch=patch, magnitude=cfg.perturb_magnitude,
                seed=child_seed(cfg.seed, "perturb", cid, mode, patch))
                for mode in cfg.modes for patch in cfg.patches]
            for t, (f, y_star) in enumerate(zip(self.fields, y_stars)):
                # every quadrature node of every path variant in one gradient batch;
                # GTI and VG use the alpha = 1 gradient of the first path, taken at
                # clim + (x - clim), which equals x only within rounding
                paths = [(f"ig@{s}", self.clim.values, s) for s in step_grid]
                paths.append((f"ig-zero@{zp_steps}", zero_base, zp_steps))
                if t >= 1:
                    paths.append((f"ig-pers@{zp_steps}",
                                  attr.persistence_baseline(self.fields, t), zp_steps))
                maps, grad_at_x = attr.integrated_gradients_paths(
                    model, f.values, [(base, steps) for _, base, steps in paths])
                map_keys = [key for key, _, _ in paths] + ["gti", "vg"]
                stack = np.stack([*maps, (f.values - self.clim.values) * grad_at_x, grad_at_x])
                for key, var_imp, st_imp in zip(map_keys, attr.variable_importance(stack),
                                                attr.spatial_importance(stack, self.stations)):
                    gi[(cid, key)][t] = var_imp
                    if (cid, key) in si_u:
                        si_u[(cid, key)][t] = st_imp
                gu[cid][t] = ablation.global_ablation(model, f, y_star, self.clim)
                for spec, u in zip(specs, ablation.spatial_utility_multi(
                        model, f, y_star, self.stations, specs, self.clim, self.var_std)):
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
            scenarios = {cid: build_scenarios(self, cid) for cid in _gaming_config_ids(self)}
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
    state.ensure_models()
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
    n = state.stations.n_stations
    ks = tuple(k for k in (5, 10, 20) if k <= n)
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
    steps = sorted(set(cfg.ig_step_grid))
    ref = state.primary_key()
    for cid in state.config_ids():
        ref_rank = np.nanmean(gi[(cid, ref)], axis=0)
        for s in steps:
            key = f"ig@{s}"
            rc = metrics.spearman(np.nanmean(gi[(cid, key)], axis=0), ref_rank)
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
    state.ensure_data()
    cid = state.config_ids()[len(state.config_ids()) // 2]
    model = state.make_model(cid)
    var = int(np.argmax(np.nanmean(state.ensure_tables()["gi"][(cid, "vg")], axis=0)))
    factor = 1000.0
    unit = np.ones((state.grid.n_variables, 1, 1))
    unit[var] = factor
    clim = state.clim.values
    stack = np.stack([f.values for f in state.fields[:10]])  # 10 cycles suffice to see a move
    maps = []  # in the original, then the rescaled units: the IG, GTI and VG map stacks
    for m, xs, base in ((model, stack, clim),
                        (model.with_rescaled_variable(var, factor), stack * unit, clim * unit)):
        grads = m.gradient_many(xs)
        ig = [attr.integrated_gradients(m, FieldTensor(grid=state.grid, values=x), base, 8)
              for x in xs]
        maps.append((np.stack([a.values for a in ig]), (xs - base) * grads, grads))
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
            for b in range(10):
                dec_rows.append((cid, mode, patch, name, b + 1,
                                 rep.decile_mean_utility[b]))
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
    state.ensure_models()
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
            for f, y_star in zip(state.fields, y_stars):
                res = ablation.joint_ablation(model, f, y_star, state.stations, ids,
                                              spec, state.clim, state.var_std)
                if res.ratio_defined:
                    ratios.append(res.ratio)
                else:
                    flagged += 1
            med = float(np.median(ratios)) if ratios else np.nan
            rows.append((cid, mode, patch, size, ";".join(str(g) for g in ids), med,
                         len(ratios), flagged))
    state.ws.write_csv("results/subadditivity.csv", SUBADDITIVITY_COLUMNS, rows)


def _gaming_config_ids(state: RunState) -> list[str]:
    return state.config_ids(state.cfg.gaming.combos)


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
        return ws.read_rows(rel) if ws.path(rel).exists() else None

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


_STAGE_FUNCS = {name: globals()[f"stage_{name}"] for name in STAGES}


def run_stage(state: RunState, name: str) -> None:
    if name not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
    _STAGE_FUNCS[name](state)


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
    name outside `STAGES` raises ValueError before the directory is touched.
    """
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
    _dump_yaml(_identity(cfg), saved)  # the directory's name is no part of its contents
    state.ws.files.add("config.yaml")
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
