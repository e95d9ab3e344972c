"""Deterministic synthetic field generation by spectral synthesis.

Each variable layer is a Gaussian random field built in Fourier space with a
power-law amplitude spectrum (|k|^slope, slope = -1.5 by default), which gives
smooth, spatially correlated fields; a per-variable offset and scale place
the layers at loosely meteorological magnitudes.  The evaluation fields are
one (T, V, n_lat, n_lon) float64 stack, row t the field at timestamp t; the
climatology is a (V, n_lat, n_lon) array, the mean over a long independent
pre-sample so that baseline and evaluation data stay decoupled.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec

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


def _draws(rng: np.random.Generator, grid: GridSpec, n: int, slope: float):
    """`n` raw (V, n_lat, n_lon) draws, one after the other.

    Each layer is a zero-mean, unit-std random field with a power-law spectrum,
    at its variable's offset and scale; the spectrum is computed once.
    """
    ky = np.fft.fftfreq(grid.n_lat)[:, None]
    kx = np.fft.rfftfreq(grid.n_lon)[None, :]
    k = np.sqrt(ky * ky + kx * kx)
    with np.errstate(divide="ignore"):
        amp = np.where(k > 0.0, k ** slope, 0.0)
    offs, scls = (a[:, None, None] for a in variable_offset_scale(grid))
    for _ in range(n):
        z = rng.standard_normal((grid.n_variables, 2) + amp.shape)  # per layer: real, imag
        f = np.fft.irfft2((z[:, 0] + 1j * z[:, 1]) * amp, s=(grid.n_lat, grid.n_lon))
        f -= f.mean(axis=(1, 2), keepdims=True)
        sd = f.std(axis=(1, 2), keepdims=True)
        np.divide(f, sd, out=f, where=sd > 0)
        yield offs + scls * f


def sample_fields(seed: int, grid: GridSpec, n: int, slope: float = _SLOPE) -> np.ndarray:
    """Raw (n, V, n_lat, n_lon) draws; offsets/scales applied per variable."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _FIELD_STREAM)))
    out = np.empty((n,) + grid.shape)
    for t, draw in enumerate(_draws(rng, grid, n, slope)):
        out[t] = draw
    return out


def synth_fields(
    seed: int,
    grid: GridSpec,
    n_timestamps: int,
    n_clim_draws: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the (T, V, n_lat, n_lon) evaluation stack and a decoupled climatology.

    The climatology is the mean of `n_clim_draws` independent draws from a
    separate stream of the same seed, not of the evaluation fields, so the
    evaluation anomaly is genuinely stochastic around it.  Fully reproducible
    from (seed, grid, n_timestamps).
    """
    if n_timestamps < 1:
        raise ValueError("n_timestamps must be >= 1")
    fields = sample_fields(seed, grid, n_timestamps)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _CLIM_STREAM)))
    acc = sum(_draws(rng, grid, n_clim_draws, _SLOPE), np.zeros(grid.shape))
    return fields, acc / n_clim_draws


def field_std(fields: np.ndarray) -> np.ndarray:
    """Per-variable standard deviation pooled over a (T, V, n_lat, n_lon) stack."""
    if len(fields) == 0:
        raise ValueError("empty field stack")
    return fields.std(axis=(0, 2, 3))
