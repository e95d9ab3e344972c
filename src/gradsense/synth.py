"""Deterministic synthetic field generation by spectral synthesis.

Each variable layer is a Gaussian random field built in Fourier space with a
power-law amplitude spectrum (|k|^slope, slope = -1.5 by default), which gives
smooth, spatially correlated fields; a per-variable offset and scale place
the layers at loosely meteorological magnitudes.  The evaluation fields are
one (T, V, n_lat, n_lon) float64 stack, row t the field at timestamp t; the
climatology is a (V, n_lat, n_lon) array, the mean over a long independent
pre-sample so that baseline and evaluation data stay decoupled.

Draws come in chunks of at most `_DRAW_BUDGET` normals, each chunk one
`standard_normal` call and one batched transform.  The caller draws the first
chunk; after that one helper thread draws chunk k+1 into the other of two
buffers while the caller transforms chunk k, and numpy releases the
interpreter lock for both.  Only one thread uses the generator at a time and
the chunks are drawn in order, so the stream, and every output bit, are those
of one draw at a time.  A call that fits in one chunk starts no thread.
"""

from __future__ import annotations

import math
import threading

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
# float64 normals (1 MiB) per chunk of draws, and at least one draw: 11 desk draws, so
# the models' 8-draw probes fit in one chunk and start no thread
_DRAW_BUDGET = 1 << 17


def variable_offset_scale(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    offs = np.array([VARIABLE_PRESETS.get(v, (0.0, 1.0))[0] for v in grid.variables])
    scls = np.array([VARIABLE_PRESETS.get(v, (0.0, 1.0))[1] for v in grid.variables])
    return offs, scls


def _draws(rng: np.random.Generator, grid: GridSpec, n: int, slope: float):
    """`n` raw (V, n_lat, n_lon) draws, in draw order, as (m, V, n_lat, n_lon) chunks.

    Each layer is a zero-mean, unit-std random field with a power-law spectrum,
    at its variable's offset and scale; the spectrum is computed once.  A chunk
    holds as many draws as fit in `_DRAW_BUDGET` normals; while the caller
    transforms it, and until the consumer asks for the next one, a helper
    thread draws the next chunk.  An exception in the helper is raised here,
    and the helper is joined however the generator ends.
    """
    ky = np.fft.fftfreq(grid.n_lat)[:, None]
    kx = np.fft.rfftfreq(grid.n_lon)[None, :]
    k = np.sqrt(ky * ky + kx * kx)
    with np.errstate(divide="ignore"):
        amp = np.where(k > 0.0, k ** slope, 0.0)
    offs, scls = (a[:, None, None] for a in variable_offset_scale(grid))
    shape = (grid.n_variables, 2) + amp.shape  # per layer: real, imag
    step = max(1, _DRAW_BUDGET // math.prod(shape))
    n_chunks = -(-n // step)
    bufs = [np.empty((min(step, n),) + shape) for _ in range(min(n_chunks, 2))]
    spectrum = np.empty((min(step, n), grid.n_variables) + amp.shape, dtype=complex)

    def chunk(c: int) -> np.ndarray:
        return bufs[c % 2][: min(step, n - c * step)]

    failed: list[BaseException] = []

    def fill(z: np.ndarray) -> None:
        try:
            rng.standard_normal(out=z)
        except BaseException as exc:  # re-raised by the caller after the join
            failed.append(exc)

    helper = None
    try:
        for c in range(n_chunks):
            if c == 0:
                rng.standard_normal(out=chunk(c))
            else:  # drawn by the helper started one chunk earlier
                helper.join()
                if failed:
                    raise failed.pop()
            if c + 1 < n_chunks:
                helper = threading.Thread(target=fill, args=(chunk(c + 1),))
                helper.start()
            z = chunk(c)
            spec = spectrum[: len(z)]  # (z[:, :, 0] + 1j * z[:, :, 1]) * amp, in place
            np.multiply(1j, z[:, :, 1], out=spec)
            np.add(z[:, :, 0], spec, out=spec)
            np.multiply(spec, amp, out=spec)
            f = np.fft.irfft2(spec, s=(grid.n_lat, grid.n_lon))
            f -= f.mean(axis=(2, 3), keepdims=True)
            sd = f.std(axis=(2, 3), keepdims=True)
            np.divide(f, sd, out=f, where=sd > 0)
            np.multiply(scls, f, out=f)
            yield np.add(offs, f, out=f)
    finally:
        if helper is not None:
            helper.join()


def sample_fields(seed: int, grid: GridSpec, n: int, slope: float = _SLOPE) -> np.ndarray:
    """Raw (n, V, n_lat, n_lon) draws; offsets/scales applied per variable."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _FIELD_STREAM)))
    out = np.empty((n,) + grid.shape)
    t = 0
    for draws in _draws(rng, grid, n, slope):
        out[t:t + len(draws)] = draws
        t += len(draws)
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
    from (seed, grid, n_timestamps, n_clim_draws).
    """
    if n_timestamps < 1:
        raise ValueError("n_timestamps must be >= 1")
    if n_clim_draws < 1:
        raise ValueError("n_clim_draws must be >= 1")
    fields = sample_fields(seed, grid, n_timestamps)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _CLIM_STREAM)))
    acc = np.zeros(grid.shape)
    for draws in _draws(rng, grid, n_clim_draws, _SLOPE):
        for draw in draws:  # one at a time, in draw order: a sum over the chunk adds in another order
            acc += draw
    return fields, acc / n_clim_draws


def field_std(fields: np.ndarray) -> np.ndarray:
    """Per-variable standard deviation pooled over a (T, V, n_lat, n_lon) stack."""
    if len(fields) == 0:
        raise ValueError("empty field stack")
    return fields.std(axis=(0, 2, 3))
