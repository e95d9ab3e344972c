"""Gradient attribution: integrated gradients, baselines and importance reducers.

Every map is a plain signed array shaped like the input field, (variable, lat,
lon).  The cheap proxies need no code here: gradient x input is
(x - baseline) times the model's gradient at x, and the vanilla gradient is
that gradient alone.  Signs are preserved here; absolute values are taken only
at the aggregation step (variable/spatial importance).
"""

from __future__ import annotations

import numpy as np

from .grid import StationGrid


def _check_shapes(model, x: np.ndarray, baseline: np.ndarray | None = None):
    if x.shape != model.grid.shape:
        raise ValueError(f"input shape {x.shape} does not match model grid {model.grid.shape}")
    if baseline is not None and baseline.shape != x.shape:
        raise ValueError(f"baseline shape {baseline.shape} does not match input {x.shape}")


def integrated_gradients_paths(model, x: np.ndarray, paths: list[tuple[np.ndarray, int]]
                               ) -> tuple[list[np.ndarray], np.ndarray]:
    """Signed IG maps for several straight paths into x, all nodes in one batch.

    `paths` holds (baseline, steps) pairs.  Each path is a trapezoidal
    quadrature over steps+1 nodes at k/steps, endpoint weights 0.5, interior
    weights 1; its map is (x - baseline) times the averaged path gradient.
    Also returns the gradient at the first path's alpha = 1 node.

    The nodes are built on the model's influence window, and a node two paths
    share (the same baseline object at the same alpha, such as alpha = 1/2 of
    8 and of 50 steps) is evaluated once.  The model's batched gradient is
    row-wise identical to a single call, so a path's map does not depend on
    which other paths share the batch.  Each quadrature runs on a zero-filled
    full-grid gradient stack, the operand shape of a single path's call.
    """
    for _, steps in paths:
        if steps < 1:
            raise ValueError("steps must be >= 1")
    window = (..., *model.influence_window())
    xw = x[window]
    nodes: dict[tuple[int, float], int] = {}  # (baseline id, alpha) -> node row
    points, path_rows = [], []
    for baseline, steps in paths:
        _check_shapes(model, x, baseline)
        alphas = (np.arange(steps + 1) / steps).tolist()
        fresh = [a for a in alphas if (id(baseline), a) not in nodes]
        for a in fresh:
            nodes[(id(baseline), a)] = len(nodes)
        if fresh:
            bw = baseline[window]
            points.append(bw[None] + np.array(fresh)[:, None, None, None] * (xw - bw)[None])
        path_rows.append([nodes[(id(baseline), a)] for a in alphas])
    _, grads = model.value_and_gradient_window(np.concatenate(points))
    maps, grad_end = [], None
    for (baseline, steps), rows in zip(paths, path_rows):
        weights = np.ones(steps + 1)
        weights[0] = weights[-1] = 0.5
        full = np.zeros((steps + 1,) + x.shape)
        full[window] = grads[rows]
        avg = np.tensordot(weights, full, axes=1) / steps
        maps.append((x - baseline) * avg)
        if grad_end is None:
            grad_end = full[-1]
    return maps, grad_end


def integrated_gradients(model, x: np.ndarray, baseline: np.ndarray, steps: int) -> np.ndarray:
    """Signed IG map of x, path-integrated from the baseline over `steps` steps.

    The single-path case of `integrated_gradients_paths`.  For a linear model
    this is exact at any step count, and the signed scores sum to
    F(x) - F(baseline) up to quadrature error (completeness).
    """
    (values,), _ = integrated_gradients_paths(model, x, [(baseline, steps)])
    return values


def persistence_baseline(fields: np.ndarray, t: int) -> np.ndarray:
    """The previous timestamp's field of a (T, V, n_lat, n_lon) stack; undefined at t = 0."""
    if t < 1:
        raise ValueError("persistence baseline needs a predecessor (t >= 1)")
    if t >= len(fields):
        raise IndexError(f"timestamp {t} out of range")
    return fields[t - 1]


def variable_importance(values: np.ndarray) -> np.ndarray:
    """Per-variable importance of (..., V, n_lat, n_lon) signed maps: |scores| over all cells."""
    return np.abs(values).sum(axis=(-2, -1))


def spatial_importance(values: np.ndarray, stations: StationGrid) -> np.ndarray:
    """Per-station importance of (..., V, n_lat, n_lon) signed maps.

    Absolute scores summed over the variables at each station's cell.
    """
    if stations.grid.shape != values.shape[-3:]:
        raise ValueError("station grid does not match attribution shape")
    return np.abs(values[..., stations.lat_idx, stations.lon_idx]).sum(axis=-2)
