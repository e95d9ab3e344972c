"""Reference implementations the tests check the engine against.

None of this runs in a stage, the CLI or the README sketch:

  * LinearModel -- F(x) = sum_i w_i x_i with distance-decaying weights centred
    on the target cell, the analytically solvable reference model;
  * model_from_config -- rebuilds a model from its `to_config()` dict;
  * gradient_times_input and vanilla_gradient -- the one-gradient proxies as
    single-field calls, the maps the runner computes inline from a batch;
  * perturb_patch -- one station's perturbed field, the per-station oracle of
    the batched ablation.

Fields are (V, n_lat, n_lon) float64 arrays, as in the engine.
"""

from __future__ import annotations

import numpy as np

from gradsense.ablation import PerturbationSpec, _apply_mode, _patch
from gradsense.attribution import _check_shapes
from gradsense.grid import GridSpec, StationGrid, TargetSpec, make_target
from gradsense.model import DeskModel


class LinearModel:
    """F(x) = sum w_i x_i with exp distance decay centred on the target cell."""

    kind = "linear"

    def __init__(self, grid: GridSpec, target: TargetSpec, seed: int,
                 decay_cells: float = 6.0, _weights: np.ndarray | None = None):
        self.grid = grid
        self.target = target
        self.seed = int(seed)
        self.decay_cells = float(decay_cells)
        if _weights is None:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x4C494E)))
            ii = np.arange(grid.n_lat)[:, None] - target.lat_idx
            jj = np.arange(grid.n_lon)[None, :] - target.lon_idx
            d = np.sqrt(ii ** 2 + jj ** 2)
            coeff = rng.standard_normal((grid.n_variables, 1, 1)) + 0.5
            _weights = coeff * np.exp(-d / self.decay_cells)[None, :, :]
        self.weights = np.asarray(_weights, dtype=np.float64).copy()
        self.weights.flags.writeable = False

    @property
    def receptive_radius(self):
        return None  # global influence

    @property
    def model_id(self) -> str:
        return f"linear-s{self.seed}-{self.target.name}-{self.target.variable}"

    def influence_window(self) -> tuple[slice, slice]:
        return slice(0, self.grid.n_lat), slice(0, self.grid.n_lon)

    def forward_values(self, values: np.ndarray) -> float:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        return float(np.vdot(self.weights, values))

    def forward_many(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 4 or batch.shape[1:] != self.grid.shape:
            raise ValueError(f"expected (B,) + {self.grid.shape}, got {batch.shape}")
        # one dot per row, as in forward_values: a single tensordot would be a
        # GEMV whose accumulation order depends on B
        return np.array([np.vdot(self.weights, values) for values in batch])

    def gradient_values(self, values: np.ndarray) -> np.ndarray:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        return self.weights.copy()

    def gradient_many(self, batch: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.weights, batch.shape).copy()

    # the influence window is the whole grid, so a window stack is a full-grid batch

    def forward_window(self, window: np.ndarray) -> np.ndarray:
        return self.forward_many(window)

    def value_and_gradient_window(self, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.forward_many(window), self.gradient_many(window)

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "decay_cells": self.decay_cells,
            "target": {"name": self.target.name, "lat": self.target.lat,
                       "lon": self.target.lon, "variable": self.target.variable},
        }

    def jittered(self, jitter) -> "LinearModel":
        return LinearModel(self.grid, self.target, self.seed, self.decay_cells,
                           _weights=jitter(self.weights))

    def with_rescaled_variable(self, var_idx: int, factor: float) -> "LinearModel":
        if factor <= 0:
            raise ValueError("unit factor must be positive")
        w = self.weights.copy()
        w[var_idx] /= factor
        return LinearModel(self.grid, self.target, self.seed, self.decay_cells, _weights=w)


def make_linear_model(seed: int, grid: GridSpec, target: TargetSpec,
                      decay_cells: float = 6.0) -> LinearModel:
    return LinearModel(grid, target, seed, decay_cells)


def model_from_config(grid: GridSpec, cfg: dict):
    """Rebuild a model from its seeded config (reproducible by construction)."""
    t = cfg["target"]
    target = make_target(grid, t["name"], t["lat"], t["lon"], t["variable"])
    if cfg["kind"] == "desk":
        return DeskModel(grid, target, cfg["seed"], cfg["depth"], cfg["channels"],
                         cfg["stencil_radius"])
    if cfg["kind"] == "linear":
        return LinearModel(grid, target, cfg["seed"], cfg["decay_cells"])
    raise ValueError(f"unknown model kind {cfg['kind']!r}")


def gradient_times_input(model, x: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """(x - baseline) times the gradient at x; exactly one backward pass."""
    _check_shapes(model, x, baseline)
    return (x - baseline) * model.gradient_values(x)


def vanilla_gradient(model, x: np.ndarray) -> np.ndarray:
    """Raw input gradient at x, no input-relative scaling; one backward pass."""
    _check_shapes(model, x)
    return model.gradient_values(x)


def perturb_patch(x: np.ndarray, t: int, stations: StationGrid, station_id: int,
                  spec: PerturbationSpec, clim: np.ndarray,
                  var_std: np.ndarray | None = None) -> np.ndarray:
    """Perturbed copy of field x at timestamp t on the patch centred at one station's cell."""
    region, mode, magnitude, entropy = _patch(stations, station_id, spec, t)
    vals = x.copy()
    _apply_mode(vals, region, mode, magnitude, clim, var_std, entropy)
    return vals
