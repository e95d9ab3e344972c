"""Reference utilities by counterfactual model evaluation.

Utility is the change in absolute target error when part of the input is
replaced: whole variables swapped for climatology (global), or local patches
around station cells perturbed (spatial).  Every utility is one region
perturbation evaluated by `_utilities`, which shares one batch of
influence-window rows and one forward pass with the unperturbed base.  The
perturbations come in `_Rows` blocks of one mode and magnitude, each row a
window mask, so a caller can build its blocks once per model and evaluate
them at every timestamp.  `_fill` is the one perturbation operator: it fills
rows by a block's mask from one perturbed window, the mask broadcasting over
the rows it fills, so gaming's one-row attack mask fills a whole window stack.
Fields and the climatology are (V, n_lat, n_lon) arrays.  Patch noise is
keyed by the field's timestamp `t`, which the spatial and joint utilities take
explicitly.  Utilities are signed arrays; patches clip at the grid boundary,
so edge stations perturb fewer cells.
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


@dataclass(frozen=True)
class _Rows:
    """Perturbations of one mode and magnitude, one batch row each.

    `mask` (P, V or 1, h, w) marks the influence-window cells each row
    perturbs, and broadcasts over the rows `_fill` fills.  An additive_noise
    row draws its block over its whole region, clipped at the grid edge but
    not at the window, so its stream does not depend on the model: `noise`
    holds per row the region's cell count, the positions of its in-window
    cells in the region's row-major order, and its generator's entropy less
    the timestamp.
    """
    mode: str
    magnitude: float
    mask: np.ndarray
    noise: tuple[tuple[int, np.ndarray, tuple[int, int]], ...] = ()


def _variable_rows(model) -> _Rows:
    """Each whole variable replaced by climatology, one row per variable."""
    return _Rows("mean_replace", 0.0, np.eye(model.grid.n_variables, dtype=bool)[..., None, None])


def _region_rows(model, regions, spec: PerturbationSpec) -> _Rows:
    """`spec` on every variable of each (lat cells, lon cells, entropy key) region, one row each.

    A region's cells are full-grid indices in row-major order.
    """
    rw, cw = model.influence_window()
    mask = np.zeros((len(regions), 1, rw.stop - rw.start, cw.stop - cw.start), dtype=bool)
    noise = []
    for row, (ii, jj, key) in zip(mask, regions):
        inside = (ii >= rw.start) & (ii < rw.stop) & (jj >= cw.start) & (jj < cw.stop)
        row[0, ii[inside] - rw.start, jj[inside] - cw.start] = True
        noise.append((ii.size, np.flatnonzero(inside), key))
    return _Rows(spec.mode, spec.magnitude, mask,
                 tuple(noise) if spec.mode == "additive_noise" else ())


def _patch_rows(model, stations: StationGrid, ids, spec: PerturbationSpec) -> _Rows:
    """The patch of each station in `ids`, one row each; noise keyed (spec.seed, station)."""
    regions = []
    for g in ids:
        ii, jj = np.mgrid[patch_slices(stations.grid, *stations.cell(g), spec.patch)]
        regions.append((ii.ravel(), jj.ravel(), (spec.seed, int(g))))
    return _region_rows(model, regions, spec)


def _union_rows(model, stations: StationGrid, ids, spec: PerturbationSpec) -> _Rows:
    """One row: the union of the patches of `ids`, each cell perturbed once."""
    mask = np.zeros(stations.grid.shape[1:], dtype=bool)
    for g in ids:
        mask[patch_slices(stations.grid, *stations.cell(g), spec.patch)] = True
    return _region_rows(model, [(*np.nonzero(mask), (spec.seed, _JOINT_TAG))], spec)


def _fill(rows: np.ndarray, block: _Rows, xw: np.ndarray, climw: np.ndarray, t: int,
          var_std: np.ndarray | None) -> None:
    """Write `block`'s perturbed window rows of xw at timestamp t into `rows`.

    `xw` and the block's mask broadcast over `rows`: P mask rows over one
    window field, or one mask row over a (T, V, h, w) window stack xw when the
    block draws no noise.  A mean_replace or scale_bias row takes its masked
    cells from xw perturbed elementwise as a whole; an additive_noise row needs
    one window field.
    """
    rows[:] = xw
    mode, magnitude = block.mode, block.magnitude
    if magnitude == 0.0 and mode != "mean_replace":
        return
    if mode == "additive_noise":
        if var_std is None:
            raise ValueError("additive_noise needs per-variable std from the evaluation fields")
        scale = (magnitude * var_std)[:, None]
        for row, mask, (count, inside, key) in zip(rows, block.mask[:, 0], block.noise):
            rng = np.random.default_rng(np.random.SeedSequence((*key, int(t))))
            draws = rng.standard_normal((len(xw), count))
            row[:, mask] = xw[:, mask] + draws[:, inside] * scale
        return
    perturbed = climw if mode == "mean_replace" else climw + (1.0 + magnitude) * (xw - climw)
    np.copyto(rows, perturbed, where=block.mask)


def _utilities(model, x: np.ndarray, t: int, y_star: float, blocks: list[_Rows],
               clim: np.ndarray, var_std: np.ndarray | None = None) -> list[np.ndarray]:
    """Signed utilities of each block's perturbations of x at timestamp t, one array per block.

    The base and every perturbed row share one batch of influence-window rows
    and one forward pass.
    """
    window = (slice(None), *model.influence_window())
    xw, climw = x[window], clim[window]
    sizes = [len(block.mask) for block in blocks]
    batch = np.empty((1 + sum(sizes),) + xw.shape)
    batch[0] = xw
    at = 1
    for block, size in zip(blocks, sizes):
        _fill(batch[at:at + size], block, xw, climw, t, var_std)
        at += size
    errs = np.abs(model.forward_window(batch) - y_star)
    return np.split(errs[1:] - errs[0], np.cumsum(sizes)[:-1])


def global_ablation(model, x: np.ndarray, y_star: float, clim: np.ndarray) -> np.ndarray:
    """Utility of each variable (V,): error change when the whole layer goes climatological."""
    if x.shape != model.grid.shape or clim.shape != model.grid.shape:
        raise ValueError("field/climatology shape does not match model grid")
    # no mean_replace row draws noise, so the timestamp goes unread
    return _utilities(model, x, 0, y_star, [_variable_rows(model)], clim)[0]


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
    reach = [stations_in_reach(model, stations, spec.patch) for spec in specs]
    u = np.zeros((len(specs), stations.n_stations))
    for row, ids, vals in zip(u, reach, _utilities(
            model, x, t, y_star, [_patch_rows(model, stations, ids, spec)
                                  for spec, ids in zip(specs, reach)], clim, var_std)):
        row[ids] = vals
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


def _joint_result(u_joint: float, u_individual: np.ndarray) -> JointAblationResult:
    """The joint utility against the sum of the individual ones, in the order given.

    The ratio is flagged undefined when that sum is smaller than `_DENOMINATOR_EPS`.
    """
    denom = u_individual.sum()
    defined = abs(denom) >= _DENOMINATOR_EPS
    ratio = u_joint / denom if defined else np.nan
    return JointAblationResult(u_joint=float(u_joint), u_individual=u_individual,
                               ratio=float(ratio), ratio_defined=bool(defined))


def joint_ablation(model, x: np.ndarray, t: int, y_star: float, stations: StationGrid,
                   station_ids, spec: PerturbationSpec, clim: np.ndarray,
                   var_std: np.ndarray | None = None) -> JointAblationResult:
    """Perturb every patch in the set at once and compare to the per-station sum.

    Overlapping cells are transformed once (the union of patch cells is
    perturbed in a single pass); the individual utilities are in station id order.
    """
    ids = sorted(int(g) for g in set(station_ids))
    if len(ids) < 1:
        raise ValueError("joint ablation needs at least one station")
    joint, single = _utilities(model, x, t, y_star, [_union_rows(model, stations, ids, spec),
                                                     _patch_rows(model, stations, ids, spec)],
                               clim, var_std)
    return _joint_result(joint[0], single)
