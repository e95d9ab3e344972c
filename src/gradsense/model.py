"""Differentiable surrogate forecast models with exact reverse-mode gradients.

Two model families share one interface:

  * DeskModel -- a stack of local-stencil linear maps with tanh nonlinearities
    and a linear readout at the target cell.  Weights are drawn from a seed
    and rescaled layer-by-layer on a probe sample so pre-activations stay in
    the smooth region of tanh.  Gradients are accumulated by an explicit
    backward pass through the stencil layers; no autodiff framework.
  * LinearModel -- F(x) = sum_i w_i x_i with distance-decaying weights centred
    on the target cell.  Serves as the analytically solvable reference.

A DeskModel's output depends only on input cells within Chebyshev radius
depth * stencil_radius of the target, so forward/gradient operate on that
window; cells outside it have exactly zero gradient.  Models are immutable
and reentrant: forward and gradient are pure functions of (weights, input).

Both families are batch-invariant: row i of forward_many/gradient_many equals
forward_values/gradient_values on that row bit for bit, at any batch size.
Every reduction runs in an order fixed by the per-sample shape alone (see
_conv, the readout in DeskModel._forward_cached and LinearModel.forward_many),
so batching a call differently cannot move a result.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import FieldTensor, GridSpec, TargetSpec, make_target
from . import synth

_PROBE_STREAM = 0x50524F42
_TRUTH_STREAM = 0x54525554
_NOISE_STREAM = 0x4E4F4953

_ACTIVATION_TARGET_STD = 0.7
_PROBE_COUNT = 8


def _conv(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Stencil correlation: w (Co, Ci, S, S) applied to h (B, Ci, H, W).

    Zero padding keeps the spatial shape; output is (B, Co, H, W).

    Batch-invariant: each sample is one GEMM of (Co, Ci*S*S) by its own
    (Ci*S*S, H*W) column block, so the GEMM shape, and with it the BLAS
    accumulation order, does not depend on B.  Row i of the result equals the
    result for sample i alone bit for bit.  A single GEMM over the whole batch
    (B*H*W columns) would not: OpenBLAS accumulates differently for different
    column counts.  Blocks of 8 samples keep the im2col copy near 1.6 MB.
    """
    co = w.shape[0]
    r = (w.shape[2] - 1) // 2
    b, _, hh, ww = h.shape
    hp = np.pad(h, ((0, 0), (0, 0), (r, r), (r, r)))
    win = sliding_window_view(hp, w.shape[2:], axis=(2, 3))  # (B, Ci, H, W, S, S)
    out = np.empty((b, co, hh * ww))
    for s in range(0, b, 8):
        cols = win[s:s + 8].transpose(0, 1, 4, 5, 2, 3).reshape(-1, w[0].size, hh * ww)
        np.matmul(w.reshape(co, -1), cols, out=out[s:s + 8])
    return out.reshape(b, co, hh, ww)


class DeskModel:
    """Seeded stencil-tanh surrogate producing a scalar forecast at a target cell."""

    kind = "desk"

    def __init__(self, grid: GridSpec, target: TargetSpec, seed: int, depth: int = 3,
                 channels: int = 4, stencil_radius: int = 2, _weights=None):
        if not 1 <= depth <= 6:
            raise ValueError(f"depth must be in [1, 6], got {depth}")
        if stencil_radius < 1:
            raise ValueError("stencil radius must be >= 1")
        self.grid = grid
        self.target = target
        self.seed = int(seed)
        self.depth = int(depth)
        self.channels = int(channels)
        self.stencil_radius = int(stencil_radius)
        if _weights is None:
            _weights = _calibrate_desk_weights(grid, target, self.seed, depth, channels,
                                               stencil_radius)
        (self.norm_mu, self.norm_sigma, self.layers, self.readout) = _weights
        for arr in (self.norm_mu, self.norm_sigma, self.readout, *self.layers):
            arr.flags.writeable = False
        self._set_window()

    def _set_window(self):
        r = self.receptive_radius
        ty, tx = self.target.lat_idx, self.target.lon_idx
        self._r0 = max(0, ty - r)
        self._r1 = min(self.grid.n_lat, ty + r + 1)
        self._c0 = max(0, tx - r)
        self._c1 = min(self.grid.n_lon, tx + r + 1)
        self._ty = ty - self._r0
        self._tx = tx - self._c0

    @property
    def receptive_radius(self) -> int:
        return self.depth * self.stencil_radius

    @property
    def model_id(self) -> str:
        return (f"desk-d{self.depth}-c{self.channels}-r{self.stencil_radius}-s{self.seed}"
                f"-{self.target.name}-{self.target.variable}")

    def influence_window(self) -> tuple[slice, slice]:
        """Rows/cols of input cells that can affect the target output."""
        return slice(self._r0, self._r1), slice(self._c0, self._c1)

    # -- forward ---------------------------------------------------------

    def _crop_norm(self, batch: np.ndarray) -> np.ndarray:
        crop = batch[:, :, self._r0:self._r1, self._c0:self._c1]
        return (crop - self.norm_mu[:, None, None]) / self.norm_sigma[:, None, None]

    def _forward_cached(self, xn: np.ndarray):
        h = xn
        cache = []
        for w in self.layers:
            h = np.tanh(_conv(w, h))
            cache.append(h)
        # elementwise product and a row sum: a fixed-order reduction, where a
        # matrix-vector product would be a GEMV at B > 1 and a dot at B = 1
        preds = (cache[-1][:, :, self._ty, self._tx] * self.readout).sum(axis=1)
        return preds, cache

    def forward_values(self, values: np.ndarray) -> float:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        preds, _ = self._forward_cached(self._crop_norm(values[None]))
        return float(preds[0])

    def forward(self, field: FieldTensor) -> float:
        if field.grid.shape != self.grid.shape:
            raise ValueError("field grid does not match model grid")
        return self.forward_values(field.values)

    def forward_many(self, batch: np.ndarray) -> np.ndarray:
        """Predictions for a (B, V, n_lat, n_lon) stack of raw inputs."""
        if batch.ndim != 4 or batch.shape[1:] != self.grid.shape:
            raise ValueError(f"expected (B,) + {self.grid.shape}, got {batch.shape}")
        preds, _ = self._forward_cached(self._crop_norm(batch))
        return preds

    # -- reverse mode ----------------------------------------------------

    def gradient_many(self, batch: np.ndarray) -> np.ndarray:
        """Exact d(prediction)/d(input) for each batch element, full-grid shape."""
        if batch.ndim != 4 or batch.shape[1:] != self.grid.shape:
            raise ValueError(f"expected (B,) + {self.grid.shape}, got {batch.shape}")
        xn = self._crop_norm(batch)
        _, cache = self._forward_cached(xn)
        g = np.zeros_like(cache[-1])
        g[:, :, self._ty, self._tx] = self.readout
        for li in range(self.depth - 1, -1, -1):
            gz = g * (1.0 - cache[li] ** 2)  # d tanh(z) = 1 - tanh(z)^2
            # input gradient of _conv: transpose channels, flip the stencil
            wt = self.layers[li].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            g = _conv(np.ascontiguousarray(wt), gz)
        g /= self.norm_sigma[:, None, None]
        out = np.zeros(batch.shape)
        out[:, :, self._r0:self._r1, self._c0:self._c1] = g
        return out

    def gradient_values(self, values: np.ndarray) -> np.ndarray:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        return self.gradient_many(values[None])[0]

    def gradient(self, field: FieldTensor) -> np.ndarray:
        if field.grid.shape != self.grid.shape:
            raise ValueError("field grid does not match model grid")
        return self.gradient_values(field.values)

    # -- persistence -----------------------------------------------------

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "depth": self.depth,
            "channels": self.channels,
            "stencil_radius": self.stencil_radius,
            "target": {"name": self.target.name, "lat": self.target.lat,
                       "lon": self.target.lon, "variable": self.target.variable},
        }

    def with_rescaled_variable(self, var_idx: int, factor: float) -> "DeskModel":
        """Equivalent model for inputs whose variable `var_idx` changed units by `factor`."""
        if factor <= 0:
            raise ValueError("unit factor must be positive")
        mu = self.norm_mu.copy()
        sigma = self.norm_sigma.copy()
        mu[var_idx] *= factor
        sigma[var_idx] *= factor
        return DeskModel(self.grid, self.target, self.seed, self.depth, self.channels,
                         self.stencil_radius,
                         _weights=(mu, sigma, tuple(w.copy() for w in self.layers),
                                   self.readout.copy()))

    def _with_weights(self, layers, readout) -> "DeskModel":
        return DeskModel(self.grid, self.target, self.seed, self.depth, self.channels,
                         self.stencil_radius,
                         _weights=(self.norm_mu.copy(), self.norm_sigma.copy(),
                                   tuple(layers), readout))


def _calibrate_desk_weights(grid, target, seed, depth, channels, stencil_radius):
    """Draw and rescale weights so every layer's pre-activation std ~ 0.7."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, _PROBE_STREAM)))
    probe = synth.sample_fields(seed ^ 0x5EED, grid, _PROBE_COUNT)
    mu = probe.mean(axis=(0, 2, 3))
    sigma = np.maximum(probe.std(axis=(0, 2, 3)), 1e-9)
    h = (probe - mu[None, :, None, None]) / sigma[None, :, None, None]

    s = 2 * stencil_radius + 1
    layers = []
    c_in = grid.n_variables
    for _ in range(depth):
        w = rng.standard_normal((channels, c_in, s, s)) / np.sqrt(c_in * s * s)
        z = _conv(w, h)
        w = w * (_ACTIVATION_TARGET_STD / max(z.std(), 1e-12))
        z = z * (_ACTIVATION_TARGET_STD / max(z.std(), 1e-12))
        layers.append(w)
        h = np.tanh(z)
        c_in = channels
    readout = rng.standard_normal(channels) / np.sqrt(channels)
    if np.abs(readout).max() < 1e-3:  # keep the readout decisively nonzero
        readout = readout + 0.1
    return mu, sigma, tuple(layers), readout


def make_desk_model(seed: int, grid: GridSpec, target: TargetSpec, depth: int = 3,
                    channels: int = 4, stencil_radius: int = 2) -> DeskModel:
    return DeskModel(grid, target, seed, depth, channels, stencil_radius)


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

    def forward(self, field: FieldTensor) -> float:
        return self.forward_values(field.values)

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

    def gradient(self, field: FieldTensor) -> np.ndarray:
        return self.gradient_values(field.values)

    def gradient_many(self, batch: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.weights, batch.shape).copy()

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "decay_cells": self.decay_cells,
            "target": {"name": self.target.name, "lat": self.target.lat,
                       "lon": self.target.lon, "variable": self.target.variable},
        }

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


class TruthGenerator:
    """Verification values from a jittered copy of a model plus seeded noise.

    The truth model multiplies every weight by (1 + d) with d = +/-jitter
    chosen per element from the seed; observation noise is drawn from a
    stream keyed by (seed, timestamp) so each timestamp's verification is
    reproducible in isolation.
    """

    def __init__(self, model, seed: int, noise_std: float = 0.0, weight_jitter: float = 0.05):
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        self.seed = int(seed)
        self.noise_std = float(noise_std)
        self.weight_jitter = float(weight_jitter)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, _TRUTH_STREAM)))

        def jitter(arr):
            signs = rng.integers(0, 2, size=arr.shape) * 2 - 1
            return arr * (1.0 + weight_jitter * signs)

        if isinstance(model, DeskModel):
            self.model = model._with_weights([jitter(w) for w in model.layers],
                                             jitter(model.readout))
        elif isinstance(model, LinearModel):
            self.model = LinearModel(model.grid, model.target, model.seed, model.decay_cells,
                                     _weights=jitter(model.weights))
        else:
            raise TypeError(f"unsupported model type {type(model)!r}")

    def _noise(self, timestamp: int) -> float:
        if self.noise_std == 0.0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, _NOISE_STREAM, int(timestamp))))
        return float(rng.normal(0.0, self.noise_std))

    def verify(self, field: FieldTensor) -> float:
        return self.model.forward(field) + self._noise(field.timestamp)


def make_truth(model, seed: int, noise_std: float = 0.0,
               weight_jitter: float = 0.05) -> TruthGenerator:
    return TruthGenerator(model, seed, noise_std, weight_jitter)
