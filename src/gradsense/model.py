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

Each stencil layer is a row-folded GEMM (_valid_conv).  Per sample, S
column-shifted slabs of the layer's input copy each cell S times, where an
im2col copy would make S*S.  One GEMM by the layer's (S*Co, Ci*S) operand,
laid out once per model, gives the partial sums of every stencil row, and the
S row-shifted slices of that product are added in a fixed order.
`_IM2COL_BUDGET` bounds the slabs and products held at once; the output
array comes on top.

The model is batch-invariant: row i of a batched call equals the call on that
row alone bit for bit, at any batch size.  Every reduction runs in an order
fixed by the per-sample shape alone: one GEMM of a fixed shape per sample and
elementwise row adds in _valid_conv, and the readout in
DeskModel._forward_cached.  So batching a call differently cannot move a
result.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, TargetSpec
from . import synth

_PROBE_STREAM = 0x50524F42
_TRUTH_STREAM = 0x54525554
_NOISE_STREAM = 0x4E4F4953

_ACTIVATION_TARGET_STD = 0.7
_PROBE_COUNT = 8


_IM2COL_BUDGET = 1 << 17  # float64 elements (1 MiB) of row slabs and GEMM products per block


def _gemm_ready(w: np.ndarray) -> np.ndarray:
    """A read-only copy of the stencil w (Co, Ci, S, S) laid out as `_valid_conv`'s GEMM operand.

    The copy is (Co, Ci, S, S) over (S, Co, Ci, S) memory, so `_valid_conv`
    reshapes it to its (S*Co, Ci*S) operand without copying.
    """
    rows = np.ascontiguousarray(w.transpose(2, 0, 1, 3))
    rows.flags.writeable = False
    return rows.transpose(1, 2, 0, 3)


def _valid_conv(w: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """Valid stencil correlation: w (Co, Ci, S, S) over hp (B, Ci, H+S-1, W+S-1).

    Output is (B, Co, H, W): only the cells whose whole stencil lies in hp.

    Row-folded GEMM: each sample's S column-shifted slabs
    x2[c, dx] = hp[c, :, dx:dx+W] form a (Ci*S, (H+S-1)*W) block, a copy of
    S cells per input cell where im2col would copy S*S.  One GEMM of the
    (S*Co, Ci*S) operand, row dy*Co + o and column c*S + dx holding
    w[o, c, dy, dx], by that block gives each stencil row dy's partial sums
    on every padded row; the output adds the S row-shifted slices of that
    product in the fixed order dy = 0..S-1.  `_gemm_ready(w)` lays w out so
    the operand is a view; any other w is copied.

    Batch-invariant: each sample is one GEMM of a shape that does not depend
    on B, so the BLAS accumulation order does not either, and the row adds
    are elementwise in a fixed order.  Row i of the result equals the result
    for sample i alone bit for bit.  A single GEMM over the whole batch would
    not: OpenBLAS accumulates differently for different column counts.  The
    slabs and the GEMM product are made for as many samples at a time as fit
    together in `_IM2COL_BUDGET` elements, and at least one.
    """
    co, ci, s, _ = w.shape
    b, _, hp_h, hp_w = hp.shape
    hh, ww = hp_h - s + 1, hp_w - s + 1
    rows = w.transpose(2, 0, 1, 3).reshape(s * co, ci * s)
    out = np.empty((b, co, hh, ww))
    step = max(1, min(b, _IM2COL_BUDGET // ((ci + co) * s * hp_h * ww)))
    slabs = np.empty((step, ci, s, hp_h, ww))
    prod = np.empty((step, s, co, hp_h, ww))
    for i in range(0, b, step):
        n = min(step, b - i)
        for dx in range(s):
            slabs[:n, :, dx] = hp[i:i + n, :, :, dx:dx + ww]
        np.matmul(rows, slabs[:n].reshape(n, ci * s, hp_h * ww),
                  out=prod[:n].reshape(n, s * co, hp_h * ww))
        acc = out[i:i + n]
        np.copyto(acc, prod[:n, 0, :, :hh])
        for dy in range(1, s):
            np.add(acc, prod[:n, dy, :, dy:dy + hh], out=acc)
    return out


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
                 channels: int = 4, stencil_radius: int = 2, _weights=None, _stencils=None):
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
        # each layer's forward stencil and its backward one (channels transposed,
        # stencil flipped), laid out once as read-only GEMM operands
        self._stencils = _stencils or (
            tuple(_gemm_ready(w) for w in self.layers),
            tuple(_gemm_ready(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]) for w in self.layers))
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
        view = canvas[(..., *self._canvas_at)]  # normalized in place: no window temporaries
        np.subtract(window, self.norm_mu[:, None, None], out=view)
        np.divide(view, self.norm_sigma[:, None, None], out=view)
        return canvas

    def _forward_cached(self, canvas: np.ndarray):
        h = canvas
        cache = []
        for w, off in zip(self._stencils[0], self._off_grid):
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
            g = _valid_conv(self._stencils[1][li], padded)
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
        """This model's grid, target and shape with other weights; read-only arrays are shared.

        Given this model's own `layers`, the new model shares its stencil operands too.
        """
        return DeskModel(self.grid, self.target, self.seed, self.depth, self.channels,
                         self.stencil_radius, _weights=(mu, sigma, tuple(layers), readout),
                         _stencils=self._stencils if layers is self.layers else None)


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
