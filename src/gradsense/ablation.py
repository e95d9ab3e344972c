"""Reference utilities by counterfactual model evaluation.

Utility is the change in absolute target error when part of the input is
replaced: whole variables swapped for climatology (global), or local patches
around station cells perturbed (spatial).  Every utility is one region
perturbation evaluated by `_utilities`, which shares one batch and one
forward pass with the unperturbed base.  Fields and the climatology are
(V, n_lat, n_lon) arrays.  Patch noise is keyed by the field's timestamp
`t`, which the spatial and joint utilities take explicitly.  Utilities are
signed arrays; patches clip at the grid boundary, so edge stations perturb
fewer cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import StationGrid

MODES = ("mean_replace", "scale_bias", "additive_noise")
_JOINT_TAG = 0x4A4E54
_DENOMINATOR_EPS = 1e-12


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


def patch_slices(grid, lat_idx: int, lon_idx: int, patch: int) -> tuple[slice, slice]:
    """Patch extent centred on a cell, clipped at the grid boundary."""
    half = patch // 2
    return (slice(max(0, lat_idx - half), min(grid.n_lat, lat_idx + half + 1)),
            slice(max(0, lon_idx - half), min(grid.n_lon, lon_idx + half + 1)))


def _apply_mode(vals: np.ndarray, region, mode: str, magnitude: float, clim: np.ndarray,
                var_std: np.ndarray | None = None, entropy=None) -> None:
    """Perturb `vals` in place on `region`, an index of its trailing (variable, lat, lon) axes.

    The region indexes `clim` too.  Scaling and noise at zero magnitude are the identity.
    Noise is drawn from a generator seeded by the SeedSequence `entropy`.
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
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        block = vals[region]  # the variable axis leads the block
        scale = (magnitude * var_std).reshape((-1,) + (1,) * (block.ndim - 1))
        vals[region] = block + rng.standard_normal(block.shape) * scale


def _patch(stations: StationGrid, station_id: int, spec: PerturbationSpec, timestamp: int):
    """The (region, mode, magnitude, entropy) perturbation of one station's patch."""
    region = (slice(None), *patch_slices(stations.grid, *stations.cell(station_id), spec.patch))
    return region, spec.mode, spec.magnitude, (spec.seed, int(station_id), int(timestamp))


def _utilities(model, x: np.ndarray, y_star: float, perturbations, clim: np.ndarray,
               var_std: np.ndarray | None = None) -> np.ndarray:
    """Signed utility of each (region, mode, magnitude, entropy) perturbation of x.

    The base and every perturbed field share one batch and one forward pass.
    """
    batch = np.empty((1 + len(perturbations),) + x.shape)
    batch[:] = x
    for row, (region, mode, magnitude, entropy) in zip(batch[1:], perturbations):
        _apply_mode(row, region, mode, magnitude, clim, var_std, entropy)
    errs = np.abs(model.forward_many(batch) - y_star)
    return errs[1:] - errs[0]


def global_ablation(model, x: np.ndarray, y_star: float, clim: np.ndarray) -> np.ndarray:
    """Utility of each variable (V,): error change when the whole layer goes climatological."""
    if x.shape != model.grid.shape or clim.shape != model.grid.shape:
        raise ValueError("field/climatology shape does not match model grid")
    return _utilities(model, x, y_star, [((v,), "mean_replace", 0.0, None)
                                         for v in range(model.grid.n_variables)], clim)


def stations_in_reach(model, stations: StationGrid, patch: int) -> np.ndarray:
    """Station ids whose patch can intersect the model's influence window."""
    rw, cw = model.influence_window()
    half = patch // 2
    hit = ((stations.lat_idx + half >= rw.start) & (stations.lat_idx - half < rw.stop)
           & (stations.lon_idx + half >= cw.start) & (stations.lon_idx - half < cw.stop))
    return np.flatnonzero(hit)


def spatial_utility_multi(model, x: np.ndarray, t: int, y_star: float, stations: StationGrid,
                          specs: list[PerturbationSpec], clim: np.ndarray,
                          var_std: np.ndarray | None = None) -> np.ndarray:
    """Spatial utilities (len(specs), N) of field x at timestamp t, one batched pass for all specs.

    Stations whose patch lies entirely outside the model's influence window
    cannot change the prediction, so their utility is exactly zero and no
    forward pass is spent on them; all remaining perturbed fields across all
    specs share a single batched forward with the unperturbed base.
    """
    reach = np.zeros((len(specs), stations.n_stations), dtype=bool)
    for row, spec in zip(reach, specs):
        row[stations_in_reach(model, stations, spec.patch)] = True
    u = np.zeros(reach.shape)
    u[reach] = _utilities(model, x, y_star, [
        _patch(stations, g, spec, t)
        for spec, row in zip(specs, reach) for g in np.flatnonzero(row)], clim, var_std)
    return u


def spatial_utility(model, x: np.ndarray, t: int, y_star: float, stations: StationGrid,
                    spec: PerturbationSpec, clim: np.ndarray,
                    var_std: np.ndarray | None = None) -> np.ndarray:
    """Per-station utility (N,) of perturbing each station's local patch of x at timestamp t."""
    return spatial_utility_multi(model, x, t, y_star, stations, [spec], clim, var_std)[0]


@dataclass(frozen=True)
class JointAblationResult:
    u_joint: float
    u_individual: np.ndarray
    ratio: float
    ratio_defined: bool


def joint_ablation(model, x: np.ndarray, t: int, y_star: float, stations: StationGrid,
                   station_ids, spec: PerturbationSpec, clim: np.ndarray,
                   var_std: np.ndarray | None = None) -> JointAblationResult:
    """Perturb every patch in the set at once and compare to the per-station sum.

    Overlapping cells are transformed once (the union of patch cells is
    perturbed in a single pass); the ratio is flagged undefined when the sum
    of individual utilities is smaller than `_DENOMINATOR_EPS`.
    """
    ids = sorted(int(g) for g in set(station_ids))
    if len(ids) < 1:
        raise ValueError("joint ablation needs at least one station")
    mask = np.zeros(stations.grid.shape[1:], dtype=bool)  # the union of the patch cells
    for g in ids:
        mask[patch_slices(stations.grid, *stations.cell(g), spec.patch)] = True
    joint = ((slice(None), mask), spec.mode, spec.magnitude, (spec.seed, _JOINT_TAG, int(t)))
    u = _utilities(model, x, y_star, [joint] + [_patch(stations, g, spec, t) for g in ids],
                   clim, var_std)
    u_joint, u_ind = u[0], u[1:]
    denom = u_ind.sum()
    defined = abs(denom) >= _DENOMINATOR_EPS
    ratio = u_joint / denom if defined else np.nan
    return JointAblationResult(u_joint=float(u_joint), u_individual=u_ind,
                               ratio=float(ratio), ratio_defined=bool(defined))
