"""Sensor selection, budget-balanced payments and calibration analytics.

Captured utility of a station set is its share of total absolute ablation
utility; payments split a fixed budget proportionally to nonnegative scores,
which makes them budget-balanced and individually rational by construction.
Selection is a deterministic top-K (ties to the lower station id) except for
the seeded uniform strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MIN_RESAMPLES, gini, spearman, topk_indices

STRATEGIES = ("ig", "gti", "vg", "distance", "uniform", "oracle")
MIN_STATIONS = 10    # decile_calibration: one station per decile at least
MIN_TIMESTAMPS = 10  # payment_stability: cycles to resample


@dataclass(frozen=True)
class SelectionResult:
    strategy: str
    k: int
    selected: tuple[int, ...]
    captured: float
    efficiency_ratio: float   # vs. the K/N expectation of uniform selection
    optimality_ratio: float   # vs. the top-K-by-utility oracle


@dataclass(frozen=True)
class PaymentAllocation:
    budget: float
    shares: np.ndarray
    amounts: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.shares, dtype=np.float64).copy()
        a = np.asarray(self.amounts, dtype=np.float64).copy()
        if np.any(s < 0) or np.any(a < 0):
            raise ValueError("payment shares must be nonnegative")
        if abs(a.sum() - self.budget) > 1e-9 * max(self.budget, 1.0):
            raise ValueError("payments do not balance the budget")
        s.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "shares", s)
        object.__setattr__(self, "amounts", a)


def captured_utility(selected, utilities) -> float:
    """Fraction of total absolute utility held by the selected stations."""
    u = np.abs(np.asarray(utilities, dtype=np.float64))
    total = u.sum()
    if total <= 0:
        raise ValueError("total absolute utility is zero; captured share undefined")
    idx = np.asarray(sorted(set(int(g) for g in selected)), dtype=np.intp)
    if idx.size == 0:
        return 0.0
    return float(u[idx].sum() / total)


def distance_scores(distances_km) -> np.ndarray:
    """Inverse haversine distance; a station on the target cell gets the max
    finite score rather than a singular one."""
    d = np.asarray(distances_km, dtype=np.float64)
    scores = np.full(d.shape, np.inf)
    np.divide(1.0, d, out=scores, where=d > 0)
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        raise ValueError("all stations sit on the target cell")
    return np.where(np.isfinite(scores), scores, finite.max())


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


def payment(scores, budget: float) -> PaymentAllocation:
    """Split the budget proportionally to nonnegative scores."""
    s = np.asarray(scores, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("payment scores must be nonnegative")
    total = s.sum()
    if total <= 0:
        raise ValueError("cannot allocate a budget over all-zero scores")
    shares = s / total
    return PaymentAllocation(budget=float(budget), shares=shares, amounts=shares * budget)


def _check_prob_vector(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"{name} is not a normalized share vector")
    return p


def overpayment(p_proxy, p_true) -> tuple[float, np.ndarray]:
    """Total and per-station overpayment of a proxy share vector vs. the true one."""
    pp = _check_prob_vector(p_proxy, "proxy shares")
    pt = _check_prob_vector(p_true, "true shares")
    if pp.shape != pt.shape:
        raise ValueError("share vectors must align")
    per_station = np.maximum(0.0, pp - pt)
    return float(per_station.sum()), per_station


@dataclass(frozen=True)
class CalibrationReport:
    decile_mean_utility: np.ndarray
    gini_ratio: float
    overpayment_total: float
    share_spearman: float


def decile_calibration(proxy_scores, utilities) -> CalibrationReport:
    """Bin stations into proxy-score deciles and report mean utility per bin.

    Bins are equal-count by proxy rank (ascending; remainders go to the lower
    bins, ties broken by station id).  The Gini ratio divides proxy-score
    concentration by utility concentration.
    """
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
    rc = spearman(pp, pt)
    return CalibrationReport(decile_mean_utility=means, gini_ratio=float(g_ratio),
                             overpayment_total=over, share_spearman=rc.rho)


@dataclass(frozen=True)
class PaymentStability:
    shares: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    resamples: int
    top_k: int
    ci_to_share: float


def payment_stability(score_matrix, n_resamples: int = 10000, level: float = 0.95,
                      top_k: int = 20, seed: int = 0) -> PaymentStability:
    """Bootstrap per-station payment shares over timestamps.

    Timestamps are resampled i.i.d.; each resample's time-averaged scores are
    renormalized into shares and percentile CIs are taken per station.  The
    headline ratio is the mean CI width over point share for the top-k
    stations by share.
    """
    m = np.asarray(score_matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("score matrix must be (timestamps, stations)")
    t, n = m.shape
    if t < MIN_TIMESTAMPS:
        raise ValueError(f"need at least {MIN_TIMESTAMPS} timestamps, got {t}")
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples")
    point_scores = m.mean(axis=0)
    if point_scores.sum() <= 0:
        raise ValueError("scores sum to zero; shares undefined")
    point = point_scores / point_scores.sum()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x505354)))
    idx = rng.integers(0, t, size=(n_resamples, t))
    shares = np.empty((n_resamples, n))
    chunk = max(1, (1 << 22) // (t * n))  # bound the (chunk, t, n) gather buffer
    for lo in range(0, n_resamples, chunk):
        sample_mean = m[idx[lo:lo + chunk]].mean(axis=1)
        totals = sample_mean.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares[lo:lo + chunk] = np.where(totals > 0, sample_mean / totals, np.nan)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.nanpercentile(shares, [100 * alpha, 100 * (1 - alpha)], axis=0)
    top = topk_indices(point, min(top_k, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (hi[top] - lo[top]) / point[top]
    ratios = ratios[np.isfinite(ratios)]
    ci_to_share = float(ratios.mean()) if ratios.size else np.nan
    return PaymentStability(shares=point, lower=lo, upper=hi, level=level,
                            resamples=n_resamples, top_k=top_k, ci_to_share=ci_to_share)


@dataclass(frozen=True)
class ShrinkageFit:
    lam: float
    per_fold: np.ndarray
    delta_rho: float


_LAMBDA_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 2)


def shrinkage_fit(proxy_shares_per_t, dist_shares, utilities, objective: str = "mse",
                  k: int = 20) -> ShrinkageFit:
    """Fit the convex proxy/distance blend weight by leave-one-timestamp-out.

    For each fold the held-out timestamp's proxy shares are blended with the
    distance prior over a lambda grid and scored against true utility shares
    (inner objective: mean squared error, or negated captured utility of the
    blend's top-k).  The first lambda on the grid wins exact ties.  Captured
    utility is summed exactly (`math.fsum`), so blends whose top-k hold the
    same utilities tie exactly; a rounded sum would break such ties by where
    the zero-utility stations sit.  Reported lambda is the fold mean;
    delta_rho compares the blended and pure time-averaged proxies on utility
    ranking.
    """
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
            # stable sort of the negated blend: `topk_indices`'s lower-index
            # tie-break; the total utility is a positive constant, so it need
            # not divide here
            top = np.argsort(-blends, axis=1, kind="stable")[:, :top_k]
            losses = [-math.fsum(u_abs[row]) for row in top]
        per_fold[t] = _LAMBDA_GRID[int(np.argmin(losses))]
    lam = float(per_fold.mean())
    pbar = p.mean(axis=0)
    rho_blend = spearman(lam * pbar + (1 - lam) * d, truth).rho
    rho_pure = spearman(pbar, truth).rho
    return ShrinkageFit(lam=lam, per_fold=per_fold, delta_rho=float(rho_blend - rho_pure))
