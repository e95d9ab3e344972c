"""Deterministic synthetic field generation by spectral synthesis.

Each variable layer is a Gaussian random field built in Fourier space with a
power-law amplitude spectrum (|k|^slope, slope = -1.5 by default), which gives
smooth, spatially correlated fields; a per-variable offset and scale place
the layers at loosely meteorological magnitudes.  The climatology is the
per-variable mean over a long independent pre-sample so that baseline and
evaluation data stay decoupled.
"""

from __future__ import annotations

import numpy as np

from .grid import Climatology, FieldTensor, GridSpec

# (offset, scale) per canonical variable; unknown names fall back to (0, 1).
VARIABLE_PRESETS: dict[str, tuple[float, float]] = {
    "t2m": (288.0, 3.0),
    "u10m": (0.0, 2.5),
    "v10m": (0.0, 2.5),
    "msl": (1013.0, 8.0),
    "q2m": (8.0, 2.0),
    "tp": (1.5, 1.0),
}

_CLIM_STREAM = 0x434C494D  # distinct child-stream keys under one master seed
_FIELD_STREAM = 0x46494C44
_SLOPE = -1.5  # the evaluation and climatology fields' spectral slope


def variable_offset_scale(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    offs = np.array([VARIABLE_PRESETS.get(v, (0.0, 1.0))[0] for v in grid.variables])
    scls = np.array([VARIABLE_PRESETS.get(v, (0.0, 1.0))[1] for v in grid.variables])
    return offs, scls


def _grf(rng: np.random.Generator, n_lat: int, n_lon: int, slope: float) -> np.ndarray:
    """One zero-mean, unit-std random field with power-law spectrum."""
    ky = np.fft.fftfreq(n_lat)[:, None]
    kx = np.fft.rfftfreq(n_lon)[None, :]
    k = np.sqrt(ky * ky + kx * kx)
    with np.errstate(divide="ignore"):
        amp = np.where(k > 0.0, k ** slope, 0.0)
    spec = (rng.standard_normal(amp.shape) + 1j * rng.standard_normal(amp.shape)) * amp
    f = np.fft.irfft2(spec, s=(n_lat, n_lon))
    f -= f.mean()
    sd = f.std()
    if sd > 0:
        f /= sd
    return f


def sample_fields(seed: int, grid: GridSpec, n: int, slope: float = _SLOPE) -> np.ndarray:
    """Raw (n, V, n_lat, n_lon) draws; offsets/scales applied per variable."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _FIELD_STREAM)))
    offs, scls = variable_offset_scale(grid)
    out = np.empty((n, grid.n_variables, grid.n_lat, grid.n_lon))
    for t in range(n):
        for v in range(grid.n_variables):
            out[t, v] = offs[v] + scls[v] * _grf(rng, grid.n_lat, grid.n_lon, slope)
    return out


def synth_fields(
    seed: int,
    grid: GridSpec,
    n_timestamps: int,
    n_clim_draws: int = 1000,
) -> tuple[list[FieldTensor], Climatology]:
    """Generate evaluation fields and a decoupled climatology.

    The climatology is the mean of `n_clim_draws` independent draws from a
    separate stream of the same seed, not of the evaluation fields, so the
    evaluation anomaly is genuinely stochastic around it.  Fully reproducible
    from (seed, grid, n_timestamps).
    """
    if n_timestamps < 1:
        raise ValueError("n_timestamps must be >= 1")
    raw = sample_fields(seed, grid, n_timestamps)
    fields = [FieldTensor(grid=grid, values=raw[t], timestamp=t) for t in range(n_timestamps)]

    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _CLIM_STREAM)))
    offs, scls = variable_offset_scale(grid)
    acc = np.zeros(grid.shape)
    for _ in range(n_clim_draws):
        for v in range(grid.n_variables):
            acc[v] += offs[v] + scls[v] * _grf(rng, grid.n_lat, grid.n_lon, _SLOPE)
    clim = Climatology(grid=grid, values=acc / n_clim_draws)
    return fields, clim


def field_std(fields: list[FieldTensor]) -> np.ndarray:
    """Per-variable standard deviation pooled over a field list."""
    if not fields:
        raise ValueError("empty field list")
    stacked = np.stack([f.values for f in fields])
    return stacked.std(axis=(0, 2, 3))
