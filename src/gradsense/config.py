"""The experiment config: its schema, the walk that checks it, its YAML form and its hash.

Each numeric field of `ExperimentConfig` declares its range on its annotation,
and `_conform` walks those annotations, so a config read from a file
(`config_from_dict`) and one built in code (`validate`) pass the same checks.
Each field also declares, in its metadata, the stamped stores its value can
change; `config_hash` hashes neither those tags nor `out_dir`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import (MISSING, asdict, dataclass, field, fields as dataclass_fields,
                         is_dataclass, replace)
from math import inf
from operator import attrgetter
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import yaml

from . import ablation, fieldio, gaming, incentive, metrics
from .grid import MIN_CELLS, GridSpec, make_station_grid, make_target
from .model import MAX_DEPTH, MIN_DEPTH

SCHEMA_VERSION = 1


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


# the stamped stores a field's value can change, as the "stores" of its metadata:
# data (data/fields.gsa), and per config id the tables (tables/tables-{id}.gsa)
# and gaming (tables/gaming-{id}.gsa) stores
STORES = ("data", "tables", "gaming")
ALL_STORES = {"stores": STORES}                  # an input of the fields, so of all else
MODEL_STORES = {"stores": ("tables", "gaming")}  # an input of the models or their truth
TABLES_ONLY = {"stores": ("tables",)}
GAMING_ONLY = {"stores": ("gaming",)}
NO_STORE = {"stores": ()}                        # read by the analysis stages alone


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = field(default=SCHEMA_VERSION, metadata=ALL_STORES)
    seed: NonNegInt = field(default=7, metadata=ALL_STORES)
    out_dir: str = field(default="runs/default", metadata=NO_STORE)
    n_lat: Annotated[int, (MIN_CELLS, inf)] = field(default=36, metadata=ALL_STORES)
    n_lon: Annotated[int, (MIN_CELLS, inf)] = field(default=50, metadata=ALL_STORES)
    lat_min: float = field(default=35.0, metadata=ALL_STORES)
    lat_max: float = field(default=70.0, metadata=ALL_STORES)
    lon_min: float = field(default=-10.0, metadata=ALL_STORES)
    lon_max: float = field(default=40.0, metadata=ALL_STORES)
    variables: tuple[str, ...] = field(default=("t2m", "u10m", "v10m", "msl", "q2m", "tp"),
                                       metadata=ALL_STORES)
    n_timestamps: Annotated[int, (incentive.MIN_TIMESTAMPS, inf)] = field(default=60,
                                                                          metadata=ALL_STORES)
    n_clim_draws: Count = field(default=1000, metadata=ALL_STORES)
    station_stride: Count = field(default=4, metadata=MODEL_STORES)
    targets: tuple[TargetConfig, ...] = field(default=(TargetConfig("zurich", 47.4, 8.6),
                                                       TargetConfig("london", 51.5, -0.1),
                                                       TargetConfig("berlin", 52.5, 13.4)),
                                              metadata=MODEL_STORES)
    target_variables: tuple[str, ...] = field(default=("t2m", "u10m", "msl"),
                                              metadata=MODEL_STORES)
    model_depths: tuple[Annotated[int, (MIN_DEPTH, MAX_DEPTH)], ...] = field(
        default=(1, 3), metadata=MODEL_STORES)
    channels: Count = field(default=4, metadata=MODEL_STORES)
    stencil_radius: Count = field(default=2, metadata=MODEL_STORES)
    truth_noise_frac: NonNegative = field(default=0.02, metadata=MODEL_STORES)
    truth_weight_jitter: NonNegative = field(default=0.05, metadata=MODEL_STORES)
    ig_steps: Count = field(default=50, metadata=TABLES_ONLY)
    ig_step_grid: tuple[Count, ...] = field(default=(1, 8, 50), metadata=TABLES_ONLY)
    patches: tuple[Count, ...] = field(default=(1, 3, 5), metadata=TABLES_ONLY)
    modes: tuple[str, ...] = field(default=("mean_replace", "scale_bias", "additive_noise"),
                                   metadata=TABLES_ONLY)
    # subadditivity runs scale_bias whatever modes holds
    perturb_magnitude: NonNegative = field(default=0.10, metadata=TABLES_ONLY)
    selection_budgets: tuple[Count, ...] = field(default=(5, 10, 20, 50, 100), metadata=NO_STORE)
    budget: NonNegative = field(default=10000.0, metadata=NO_STORE)
    bootstrap_resamples: Annotated[int, (metrics.MIN_RESAMPLES, inf)] = field(default=10000,
                                                                              metadata=NO_STORE)
    bootstrap_level: UnitInterval = field(default=0.95, metadata=NO_STORE)
    stability_top_k: Count = field(default=20, metadata=NO_STORE)
    bh_q: UnitInterval = field(default=0.05, metadata=NO_STORE)
    # the tag covers every GamingDesign field
    gaming: GamingDesign = field(default_factory=GamingDesign, metadata=GAMING_ONLY)

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
        names = [t.name for t in self.targets]
        # each entry keys a grid layer, a config id, a table case or a scenario
        for key in ("variables", "targets.name", "target_variables", "model_depths", "patches",
                    "modes", "ig_step_grid", "selection_budgets", "gaming.combos",
                    "gaming.n_attackers", "gaming.magnitudes_pct", "gaming.extended_magnitudes",
                    "gaming.extended_placements"):
            entries = names if key == "targets.name" else attrgetter(key)(self)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{key} must be unique, got {list(entries)}")
        grid = self.grid()
        for tv in self.target_variables:
            if tv not in self.variables:
                raise ValueError(f"target variable {tv!r} not in grid variables")
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
        if max(self.gaming.n_attackers) >= n_stations:  # detection needs an honest station
            raise ValueError(f"gaming.n_attackers must each be below the {n_stations} "
                             f"stations, got {list(self.gaming.n_attackers)}")

    def cheap_steps(self) -> int:
        """Quadrature steps of the zero- and persistence-baseline IG variants."""
        return min(8, self.ig_steps)

    def grid(self) -> GridSpec:
        """The grid box and variables of the run's fields."""
        return GridSpec(self.n_lat, self.n_lon, self.lat_min, self.lat_max, self.lon_min,
                        self.lon_max, self.variables)


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
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))


def _dump_yaml(d: dict, path: str | Path) -> None:
    with fieldio.atomic_open(path, encoding="utf-8") as fh:
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
