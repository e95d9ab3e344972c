"""Reference implementations the tests check the engine against.

None of this runs in a stage, the CLI or the README sketch:

  * LinearModel -- F(x) = sum_i w_i x_i with distance-decaying weights centred
    on the target cell, the analytically solvable reference model;
  * model_from_config -- rebuilds a model from its `to_config()` dict;
  * gradient_times_input and vanilla_gradient -- the one-gradient proxies as
    single-field calls, the maps the runner computes inline from a batch;
  * perturb_patch -- one station's perturbed field, the per-station oracle of
    the batched ablation;
  * select, decile_calibration and shrinkage_fit -- one strategy and budget,
    one proxy, and one objective per call, each fold in a loop: the per-call
    bodies of the incentive module's case-at-a-time `select_case`,
    `calibrate_case` and `shrinkage_fits`;
  * detector_d7_supervised -- D7 with a stacked, a standardized and an
    intercept copy of each fold's features and an unblocked Newton step, the
    reference for the gaming module's one in-place design and row-blocked
    Hessian per fold.

Fields are (V, n_lat, n_lon) float64 arrays, as in the engine.
"""

from __future__ import annotations

import math

import numpy as np

from gradsense.ablation import PerturbationSpec, _apply_mode, _patch
from gradsense.attribution import _check_shapes
from gradsense.gaming import _D7_L2, _D7_MAX_STEPS, _D7_TOL
from gradsense.grid import GridSpec, StationGrid, TargetSpec, make_target
from gradsense.incentive import (_LAMBDA_GRID, MIN_STATIONS, STRATEGIES, CalibrationReport,
                                 SelectionResult, ShrinkageFit, _check_prob_vector,
                                 captured_utility, distance_scores, overpayment, payment)
from gradsense.metrics import gini, pr_auc, spearman_rho, topk_indices
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


def select(strategy: str, k: int, utilities, *, scores=None, distances_km=None,
           seed: int | None = None) -> SelectionResult:
    """Pick K stations under one strategy and score the pick against oracle/uniform."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    n = u_abs.size
    if not 1 <= k <= n:
        raise ValueError(f"K must be in [1, {n}], got {k}")
    if strategy == "uniform":
        if seed is None:
            raise ValueError("uniform selection needs a seed")
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x554E49)))
        chosen = np.sort(rng.choice(n, size=k, replace=False))
    else:
        if strategy == "oracle":
            rank_scores = u_abs
        elif strategy == "distance":
            if distances_km is None:
                raise ValueError("distance selection needs per-station distances")
            rank_scores = distance_scores(distances_km)
        else:
            if scores is None:
                raise ValueError(f"{strategy} selection needs per-station scores")
            rank_scores = np.asarray(scores, dtype=np.float64)
        if rank_scores.size != n:
            raise ValueError("scores and utilities must align")
        chosen = topk_indices(rank_scores, k)
    captured = captured_utility(chosen, u_abs)
    c_oracle = captured_utility(topk_indices(u_abs, k), u_abs)
    c_uniform = k / n
    return SelectionResult(strategy=strategy, k=k, selected=tuple(int(g) for g in chosen),
                           captured=captured, efficiency_ratio=captured / c_uniform,
                           optimality_ratio=captured / c_oracle if c_oracle > 0 else np.nan)


def decile_calibration(proxy_scores, utilities) -> CalibrationReport:
    """Decile means, Gini ratio, overpayment and share rho of one proxy, bin by bin."""
    proxy = np.asarray(proxy_scores, dtype=np.float64)
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    n = proxy.size
    if n < MIN_STATIONS:
        raise ValueError(f"decile calibration needs at least {MIN_STATIONS} stations")
    if u_abs.shape != proxy.shape:
        raise ValueError("proxy and utility vectors must align")
    order = np.lexsort((np.arange(n), proxy))  # ascending, ties by id
    base, rem = divmod(n, 10)
    sizes = [base + 1 if b < rem else base for b in range(10)]
    means = np.empty(10)
    start = 0
    for b, size in enumerate(sizes):
        means[b] = u_abs[order[start:start + size]].mean()
        start += size
    g_ratio = gini(proxy) / gini(u_abs)
    pp = payment(proxy, 1.0).shares
    pt = payment(u_abs, 1.0).shares
    over, _ = overpayment(pp, pt)
    return CalibrationReport(decile_mean_utility=means, gini_ratio=float(g_ratio),
                             overpayment_total=over,
                             share_spearman=float(spearman_rho(pp[None], pt[None])[0]))


def shrinkage_fit(proxy_shares_per_t, dist_shares, utilities, objective: str = "mse",
                  k: int = 20) -> ShrinkageFit:
    """Leave-one-timestamp-out blend weight under one objective, one fold at a time."""
    if objective not in ("mse", "captured_utility"):
        raise ValueError("objective must be 'mse' or 'captured_utility'")
    if objective == "captured_utility" and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.asarray(proxy_shares_per_t, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 3:
        raise ValueError("need a (timestamps >= 3, stations) proxy share matrix")
    d = _check_prob_vector(dist_shares, "distance shares")
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    truth = u_abs / u_abs.sum()

    grid = _LAMBDA_GRID[:, None]
    top_k = min(k, p.shape[1])
    per_fold = np.empty(p.shape[0])
    for t in range(p.shape[0]):
        blends = grid * p[t] + (1 - grid) * d  # one row per lambda
        if objective == "mse":
            losses = ((blends - truth) ** 2).mean(axis=1)
        else:
            top = np.argsort(-blends, axis=1, kind="stable")[:, :top_k]
            losses = [-math.fsum(u_abs[row]) for row in top]
        per_fold[t] = _LAMBDA_GRID[int(np.argmin(losses))]
    lam = float(per_fold.mean())
    pbar = p.mean(axis=0)
    rho_blend, rho_pure = spearman_rho(np.stack([lam * pbar + (1 - lam) * d, pbar]),
                                       np.stack([truth, truth]))
    return ShrinkageFit(lam=lam, per_fold=per_fold, delta_rho=float(rho_blend - rho_pure))


def detector_d7_supervised(config_data: dict) -> tuple[dict[str, list[float]],
                                                       dict[str, np.ndarray]]:
    """Leave-one-configuration-out logistic regression, each fold's design built by copies.

    Returns each held-out configuration's PR-AUCs and the weights its fold fitted.
    """
    results, weights = {}, {}
    keys = sorted(config_data)
    for held_out in keys:
        train = [pair for key in keys if key != held_out for pair in config_data[key]]
        train_f, train_y = np.vstack([f for f, _ in train]), np.concatenate([y for _, y in train])
        mu = train_f.mean(axis=0)
        sd = np.maximum(train_f.std(axis=0), 1e-9)
        x = np.hstack([np.ones((train_f.shape[0], 1)), (train_f - mu) / sd])
        y = train_y.astype(np.float64)
        penalty = np.r_[0.0, np.full(x.shape[1] - 1, _D7_L2)]
        w = np.zeros(x.shape[1])
        for _ in range(_D7_MAX_STEPS + 1):
            p = 1.0 / (1.0 + np.exp(-np.clip(x @ w, -35, 35)))
            grad = x.T @ (p - y) / x.shape[0] + penalty * w
            if np.abs(grad).max() <= _D7_TOL:
                break
            hess = (x.T * (p * (1.0 - p))) @ x / x.shape[0] + np.diag(penalty)
            w = w - np.linalg.solve(hess, grad)
        else:
            raise ValueError(f"the oracle's D7 fit did not converge for {held_out!r}")
        weights[held_out] = w
        results[held_out] = [pr_auc(np.hstack([np.ones((f.shape[0], 1)), (f - mu) / sd]) @ w, y)
                             for f, y in config_data[held_out]]
    return results, weights
