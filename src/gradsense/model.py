"""Differentiable surrogate forecast models with exact reverse-mode gradients.

DeskModel is a stack of local-stencil linear maps with tanh nonlinearities and
a linear readout at the target cell.  Weights are drawn from a seed and
rescaled layer-by-layer on a probe sample so pre-activations stay in the
smooth region of tanh.  Gradients are accumulated by an explicit backward
pass through the stencil layers; no autodiff framework.  TruthGenerator
verifies forecasts against a weight-jittered copy of a model.

A DeskModel's output depends only on input cells within Chebyshev radius
R = depth * stencil_radius of the target (its influence window); cells outside
it have exactly zero gradient.  Layer l of D can reach the target only from
within (D - l) * stencil_radius of it, so the kernel evaluates each layer on
that receptive cone alone: a chain of valid convolutions over a (2R+1)^2
canvas centred on the target that shrinks to the 1x1 readout cell, and a
backward pass that grows from that cell back to the canvas.  Canvas cells off
the grid are held at zero, as the grid edge's zero padding would hold them.

The model evaluates only the influence window: forward_window and
value_and_gradient_window take a (B, V, h, w) stack of the window's cells
(`x[..., rows, cols]` with `rows, cols = influence_window()`) and return
window-shaped gradients.  The full-grid entry points are wrappers over them:
forward_many/gradient_many take (B, V, n_lat, n_lon) and crop it, and
gradient_many scatters its gradients into a zero full-grid array;
forward_values/gradient_values do the same for one (V, n_lat, n_lon) field.
Each entry point checks its input's shape.  Models are immutable and
reentrant: forward and gradient are pure functions of (weights, input).

The model is batch-invariant: row i of a batched call equals the call on that
row alone bit for bit, at any batch size.  Every reduction runs in an order
fixed by the per-sample shape alone (see _valid_conv and the readout in
DeskModel._forward_cached), so batching a call differently cannot move a
result.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridSpec, TargetSpec
from . import synth

_PROBE_STREAM = 0x50524F42
_TRUTH_STREAM = 0x54525554
_NOISE_STREAM = 0x4E4F4953

_ACTIVATION_TARGET_STD = 0.7
_PROBE_COUNT = 8


_IM2COL_BUDGET = 1 << 17  # float64 elements (1 MiB) of the im2col copy per GEMM block


def _valid_conv(w: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """Valid stencil correlation: w (Co, Ci, S, S) over hp (B, Ci, H+S-1, W+S-1).

    Output is (B, Co, H, W): only the cells whose whole stencil lies in hp.

    Batch-invariant: each sample is one GEMM of (Co, Ci*S*S) by its own
    (Ci*S*S, H*W) column block, so the GEMM shape, and with it the BLAS
    accumulation order, does not depend on B.  Row i of the result equals the
    result for sample i alone bit for bit.  A single GEMM over the whole batch
    (B*H*W columns) would not: OpenBLAS accumulates differently for different
    column counts.  The im2col copy is made for as many samples at a time as
    fit in `_IM2COL_BUDGET` elements, and at least one.
    """
    co, _, s, _ = w.shape
    b, _, hh, ww = hp.shape
    hh, ww = hh - s + 1, ww - s + 1
    win = sliding_window_view(hp, (s, s), axis=(2, 3))  # (B, Ci, H, W, S, S)
    out = np.empty((b, co, hh * ww))
    step = max(1, _IM2COL_BUDGET // (w[0].size * hh * ww))
    for i in range(0, b, step):
        cols = win[i:i + step].transpose(0, 1, 4, 5, 2, 3).reshape(-1, w[0].size, hh * ww)
        np.matmul(w.reshape(co, -1), cols, out=out[i:i + step])
    return out.reshape(b, co, hh, ww)


def _conv(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Same-shape stencil correlation of h (B, Ci, H, W): zero padding, then _valid_conv."""
    r = (w.shape[2] - 1) // 2
    return _valid_conv(w, np.pad(h, ((0, 0), (0, 0), (r, r), (r, r))))


MIN_DEPTH, MAX_DEPTH = 1, 6  # the stencil-layer counts a DeskModel accepts


class DeskModel:
    """Seeded stencil-tanh surrogate producing a scalar forecast at a target cell.

    The kernel evaluates layer l of D only on its receptive cone: the
    (2(D - l)r + 1)^2 cells centred on the target, r the stencil radius.  The
    normalized influence window goes into a zero (2R+1)^2 canvas, R = D*r;
    each layer is a valid convolution of the one before, with its off-grid
    cells set to zero, down to the 1x1 readout cell.  The backward pass zeroes
    each layer's gradient off the grid, pads it by 2r and takes a valid
    convolution with the flipped, transposed stencil, from the readout cell
    back to the canvas.  forward_window/value_and_gradient_window take the
    window's cells; forward_many/gradient_many crop and scatter full-grid arrays.
    """

    def __init__(self, grid: GridSpec, target: TargetSpec, seed: int, depth: int = 3,
                 channels: int = 4, stencil_radius: int = 2, _weights=None):
        if not MIN_DEPTH <= depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [{MIN_DEPTH}, {MAX_DEPTH}], got {depth}")
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
        self._set_cone()

    def _set_cone(self):
        """The influence window on the grid, and where each cone layer leaves the grid."""
        ty, tx = self.target.lat_idx, self.target.lon_idx
        n_lat, n_lon = self.grid.n_lat, self.grid.n_lon

        def on_grid(k):  # the rows/cols of a (2k+1)^2 canvas centred on the target
            return (slice(max(0, k - ty), min(2 * k + 1, n_lat - ty + k)),
                    slice(max(0, k - tx), min(2 * k + 1, n_lon - tx + k)))

        r = self.receptive_radius
        self._window = (slice(max(0, ty - r), min(n_lat, ty + r + 1)),
                        slice(max(0, tx - r), min(n_lon, tx + r + 1)))
        self._canvas_at = on_grid(r)  # the window's place on the canvas
        self._off_grid = []  # per layer output, True on its cells off the grid
        for layer in range(1, self.depth + 1):
            k = (self.depth - layer) * self.stencil_radius
            off = np.ones((2 * k + 1, 2 * k + 1), dtype=bool)
            off[on_grid(k)] = False
            self._off_grid.append(off)

    @property
    def receptive_radius(self) -> int:
        return self.depth * self.stencil_radius

    def influence_window(self) -> tuple[slice, slice]:
        """Rows/cols of input cells that can affect the target output."""
        return self._window

    # -- window entry points -----------------------------------------------

    def _check_window(self, batch: np.ndarray) -> None:
        rows, cols = self._window
        shape = (self.grid.n_variables, rows.stop - rows.start, cols.stop - cols.start)
        if batch.ndim != 4 or batch.shape[1:] != shape:
            raise ValueError(f"expected (B,) + {shape} window stack, got {batch.shape}")

    def _canvas(self, window: np.ndarray) -> np.ndarray:
        """The normalized (B, V, h, w) window stack on a zero (2R+1)^2 canvas."""
        side = 2 * self.receptive_radius + 1
        canvas = np.zeros(window.shape[:2] + (side, side))
        canvas[(..., *self._canvas_at)] = ((window - self.norm_mu[:, None, None])
                                           / self.norm_sigma[:, None, None])
        return canvas

    def _forward_cached(self, canvas: np.ndarray):
        h = canvas
        cache = []
        for w, off in zip(self.layers, self._off_grid):
            h = np.tanh(_valid_conv(w, h))
            # the grid edge's zero padding; assigned, as -tanh(z) * 0 would give -0.0
            h[:, :, off] = 0.0
            cache.append(h)
        # elementwise product and a row sum: a fixed-order reduction, where a
        # matrix-vector product would be a GEMV at B > 1 and a dot at B = 1
        preds = (h[:, :, 0, 0] * self.readout).sum(axis=1)
        return preds, cache

    def forward_window(self, window: np.ndarray) -> np.ndarray:
        """Predictions for a (B, V, h, w) stack of raw influence-window inputs."""
        self._check_window(window)
        preds, _ = self._forward_cached(self._canvas(window))
        return preds

    def value_and_gradient_window(self, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predictions (B,) and exact input gradients (B, V, h, w) of a window stack, one pass."""
        self._check_window(window)
        preds, cache = self._forward_cached(self._canvas(window))
        pad = 2 * self.stencil_radius
        g = self.readout[None, :, None, None]  # at the 1x1 readout cell
        for li in range(self.depth - 1, -1, -1):
            h = cache[li]
            padded = np.zeros(h.shape[:2] + (h.shape[2] + 2 * pad, h.shape[3] + 2 * pad))
            gz = padded[:, :, pad:-pad, pad:-pad]
            np.multiply(g, 1.0 - h ** 2, out=gz)  # d tanh(z) = 1 - tanh(z)^2
            gz[:, :, self._off_grid[li]] = 0.0  # the forward pass held these cells at 0
            # input gradient of the valid convolution: a full one with the
            # channels transposed and the stencil flipped
            wt = self.layers[li].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
            g = _valid_conv(np.ascontiguousarray(wt), padded)
        return preds, g[(..., *self._canvas_at)] / self.norm_sigma[:, None, None]

    # -- full-grid wrappers ----------------------------------------------------

    def _crop(self, batch: np.ndarray) -> np.ndarray:
        if batch.ndim != 4 or batch.shape[1:] != self.grid.shape:
            raise ValueError(f"expected (B,) + {self.grid.shape}, got {batch.shape}")
        return batch[(..., *self._window)]

    def forward_values(self, values: np.ndarray) -> float:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        return float(self.forward_window(self._crop(values[None]))[0])

    def forward_many(self, batch: np.ndarray) -> np.ndarray:
        """Predictions for a (B, V, n_lat, n_lon) stack of raw inputs."""
        return self.forward_window(self._crop(batch))

    def gradient_many(self, batch: np.ndarray) -> np.ndarray:
        """Exact d(prediction)/d(input) for each batch element, full-grid shape."""
        out = np.zeros(batch.shape)
        out[(..., *self._window)] = self.value_and_gradient_window(self._crop(batch))[1]
        return out

    def gradient_values(self, values: np.ndarray) -> np.ndarray:
        if values.shape != self.grid.shape:
            raise ValueError(f"shape mismatch: expected {self.grid.shape}, got {values.shape}")
        return self.gradient_many(values[None])[0]

    # -- persistence -----------------------------------------------------

    def to_config(self) -> dict:
        return {
            "kind": "desk",
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
        scale = np.ones_like(self.norm_mu)
        scale[var_idx] = factor  # x * 1.0 == x: the other variables keep their bits
        return self._derived(self.norm_mu * scale, self.norm_sigma * scale, self.layers,
                             self.readout)

    def jittered(self, jitter) -> "DeskModel":
        """This model with `jitter` applied to each layer in order, then to the readout."""
        return self._derived(self.norm_mu, self.norm_sigma, [jitter(w) for w in self.layers],
                             jitter(self.readout))

    def _derived(self, mu, sigma, layers, readout) -> "DeskModel":
        """This model's grid, target and shape with other weights; read-only arrays are shared."""
        return DeskModel(self.grid, self.target, self.seed, self.depth, self.channels,
                         self.stencil_radius, _weights=(mu, sigma, tuple(layers), readout))


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


class TruthGenerator:
    """Verification values from a jittered copy of a model plus seeded noise.

    The truth model multiplies every weight by (1 + d) with d = +/-jitter
    chosen per element from the seed, in the order `model.jittered` applies
    the jitter; observation noise is drawn from a stream keyed by
    (seed, timestamp) so each timestamp's verification is reproducible in
    isolation.
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

        self.model = model.jittered(jitter)

    def _noise(self, timestamp: int) -> float:
        if self.noise_std == 0.0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, _NOISE_STREAM, int(timestamp))))
        return float(rng.normal(0.0, self.noise_std))

    def verify(self, x: np.ndarray, t: int) -> float:
        """The verification value of field x at timestamp t."""
        return self.model.forward_values(x) + self._noise(t)


def make_truth(model, seed: int, noise_std: float = 0.0,
               weight_jitter: float = 0.05) -> TruthGenerator:
    return TruthGenerator(model, seed, noise_std, weight_jitter)
