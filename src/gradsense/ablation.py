"""Reference utilities by counterfactual model evaluation.

Utility is the change in absolute target error when part of the input is
replaced: whole variables swapped for climatology (global), or local patches
around station cells perturbed (spatial).  Signed values are kept alongside
absolute ones; patches clip at the grid boundary, so edge stations perturb
fewer cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Climatology, FieldTensor, StationGrid, _frozen_array

MODES = ("mean_replace", "scale_bias", "additive_noise")
_JOINT_TAG = 0x4A4E54


@dataclass(frozen=True)
class PerturbationSpec:
    mode: str = "mean_replace"
    patch: int = 1
    magnitude: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.patch < 1 or self.patch % 2 == 0:
            raise ValueError(f"patch must be an odd positive cell count, got {self.patch}")
        if self.mode != "mean_replace" and self.magnitude < 0:
            # zero magnitude is the identity perturbation, kept for null checks
            raise ValueError("magnitude must be >= 0 for scale/noise modes")


@dataclass(frozen=True)
class GlobalUtilityVector:
    """Per-variable signed utility, in target-variable error units."""

    values: np.ndarray
    timestamp: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))


@dataclass(frozen=True)
class SpatialUtilityMap:
    """Per-station signed and absolute utilities under one perturbation."""

    u_signed: np.ndarray
    spec: PerturbationSpec
    timestamp: int

    def __post_init__(self):
        object.__setattr__(self, "u_signed", _frozen_array(self.u_signed))

    @property
    def u_abs(self) -> np.ndarray:
        return np.abs(self.u_signed)


def patch_slices(grid, lat_idx: int, lon_idx: int, patch: int) -> tuple[slice, slice]:
    """Patch extent centred on a cell, clipped at the grid boundary."""
    half = patch // 2
    return (slice(max(0, lat_idx - half), min(grid.n_lat, lat_idx + half + 1)),
            slice(max(0, lon_idx - half), min(grid.n_lon, lon_idx + half + 1)))


def _apply_mode(vals: np.ndarray, region, mode: str, magnitude: float, clim: np.ndarray,
                var_std: np.ndarray | None = None, rng=None) -> None:
    """Perturb `vals` in place on `region`, an index of its trailing (variable, lat, lon) axes.

    The region indexes `clim` too.  Scaling and noise at zero magnitude are the identity.
    """
    if magnitude == 0.0 and mode != "mean_replace":
        return
    if mode == "mean_replace":
        vals[region] = clim[region]
    elif mode == "scale_bias":
        vals[region] = clim[region] + (1.0 + magnitude) * (vals[region] - clim[region])
    else:
        if var_std is None:
            raise ValueError("additive_noise needs per-variable std from the evaluation fields")
        block = vals[region]  # the variable axis leads the block
        scale = (magnitude * var_std).reshape((-1,) + (1,) * (block.ndim - 1))
        vals[region] = block + rng.standard_normal(block.shape) * scale


def _perturb_values(x: FieldTensor, stations: StationGrid, station_id: int,
                    spec: PerturbationSpec, clim: Climatology,
                    var_std: np.ndarray | None) -> np.ndarray:
    region = (slice(None), *patch_slices(stations.grid, *stations.cell(station_id), spec.patch))
    vals = x.values.copy()
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, int(station_id), int(x.timestamp))))
    _apply_mode(vals, region, spec.mode, spec.magnitude, clim.values, var_std, rng)
    return vals


def perturb_patch(x: FieldTensor, stations: StationGrid, station_id: int,
                  spec: PerturbationSpec, clim: Climatology,
                  var_std: np.ndarray | None = None) -> FieldTensor:
    """Perturbed copy of x on the patch centred at one station's cell."""
    vals = _perturb_values(x, stations, station_id, spec, clim, var_std)
    return FieldTensor(grid=x.grid, values=vals, timestamp=x.timestamp)


def global_ablation(model, x: FieldTensor, y_star: float, clim: Climatology) -> GlobalUtilityVector:
    """Utility of each variable: error change when the whole layer goes climatological."""
    if x.grid.shape != model.grid.shape or clim.grid.shape != model.grid.shape:
        raise ValueError("field/climatology shape does not match model grid")
    n_var = model.grid.n_variables
    batch = np.empty((n_var + 1,) + model.grid.shape)
    batch[0] = x.values
    for v in range(n_var):
        batch[v + 1] = x.values
        batch[v + 1, v] = clim.values[v]
    errs = np.abs(model.forward_many(batch) - y_star)
    return GlobalUtilityVector(values=errs[1:] - errs[0], timestamp=x.timestamp)


def stations_in_reach(model, stations: StationGrid, patch: int) -> np.ndarray:
    """Station ids whose patch can intersect the model's influence window."""
    rw, cw = model.influence_window()
    half = patch // 2
    hit = ((stations.lat_idx + half >= rw.start) & (stations.lat_idx - half < rw.stop)
           & (stations.lon_idx + half >= cw.start) & (stations.lon_idx - half < cw.stop))
    return np.flatnonzero(hit)


def spatial_utility_multi(model, x: FieldTensor, y_star: float, stations: StationGrid,
                          specs: list[PerturbationSpec], clim: Climatology,
                          var_std: np.ndarray | None = None) -> list[SpatialUtilityMap]:
    """Spatial utilities for several perturbation specs in one batched pass.

    Stations whose patch lies entirely outside the model's influence window
    cannot change the prediction, so their utility is exactly zero and no
    forward pass is spent on them; all remaining perturbed fields across all
    specs share a single batched forward with the unperturbed base.
    """
    n = stations.n_stations
    actives = [stations_in_reach(model, stations, spec.patch) for spec in specs]
    batch = np.empty((1 + sum(a.size for a in actives),) + model.grid.shape)
    batch[0] = x.values
    b = 1
    for spec, active in zip(specs, actives):
        for g in active:
            batch[b] = _perturb_values(x, stations, int(g), spec, clim, var_std)
            b += 1
    errs = np.abs(model.forward_many(batch) - y_star)
    maps = []
    b = 1
    for spec, active in zip(specs, actives):
        u = np.zeros(n)
        u[active] = errs[b:b + active.size] - errs[0]
        b += active.size
        maps.append(SpatialUtilityMap(u_signed=u, spec=spec, timestamp=x.timestamp))
    return maps


def spatial_utility(model, x: FieldTensor, y_star: float, stations: StationGrid,
                    spec: PerturbationSpec, clim: Climatology,
                    var_std: np.ndarray | None = None) -> SpatialUtilityMap:
    """Per-station utility of perturbing each station's local patch."""
    return spatial_utility_multi(model, x, y_star, stations, [spec], clim, var_std)[0]


@dataclass(frozen=True)
class JointAblationResult:
    u_joint: float
    u_individual: np.ndarray
    ratio: float
    ratio_defined: bool


def joint_ablation(model, x: FieldTensor, y_star: float, stations: StationGrid,
                   station_ids, spec: PerturbationSpec, clim: Climatology,
                   var_std: np.ndarray | None = None,
                   denominator_eps: float = 1e-12) -> JointAblationResult:
    """Perturb every patch in the set at once and compare to the per-station sum.

    Overlapping cells are transformed once (the union of patch cells is
    perturbed in a single pass); the ratio is flagged undefined when the sum
    of individual utilities is smaller than `denominator_eps`.
    """
    ids = sorted(int(g) for g in set(station_ids))
    if len(ids) < 1:
        raise ValueError("joint ablation needs at least one station")
    mask = np.zeros(stations.grid.shape[1:], dtype=bool)  # the union of the patch cells
    for g in ids:
        mask[patch_slices(stations.grid, *stations.cell(g), spec.patch)] = True
    # one batch: the base, the joint perturbation, then each station alone
    batch = np.empty((2 + len(ids),) + x.values.shape)
    batch[0] = batch[1] = x.values
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, _JOINT_TAG, int(x.timestamp))))
    _apply_mode(batch[1], (slice(None), mask), spec.mode, spec.magnitude, clim.values,
                var_std, rng)
    for b, g in enumerate(ids, start=2):
        batch[b] = _perturb_values(x, stations, g, spec, clim, var_std)

    errs = np.abs(model.forward_many(batch) - y_star)
    u_joint = errs[1] - errs[0]
    u_ind = errs[2:] - errs[0]
    denom = u_ind.sum()
    defined = abs(denom) >= denominator_eps
    ratio = u_joint / denom if defined else np.nan
    return JointAblationResult(u_joint=float(u_joint), u_individual=u_ind,
                               ratio=float(ratio), ratio_defined=bool(defined))
