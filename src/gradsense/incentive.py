"""Sensor selection, budget-balanced payments and calibration analytics.

Captured utility of a station set is its share of total absolute ablation
utility; payments split a fixed budget proportionally to nonnegative scores,
which makes them budget-balanced and individually rational by construction.
Selection is a deterministic top-K (ties to the lower station id) except for
the seeded uniform strategy.

The analyses take one case (one utility vector) per call: `select_case`
scores every strategy at every budget, `calibrate_case` every proxy, and
`shrinkage_fits` every fold under every objective.  Each computes the case's
invariants once (the sort orders, |utility|, its total, Gini and shares, the
blends) and keeps every element's scalar arithmetic and every reduction's
width and order, so a case's results equal those of one call per strategy and
budget, proxy, or objective bit for bit.  `select`, `decile_calibration` and
`shrinkage_fit` are those one-at-a-time calls, as thin wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MIN_RESAMPLES, descending_order, gini, spearman_rho, topk_indices

STRATEGIES = ("ig", "gti", "vg", "distance", "uniform", "oracle")
MIN_STATIONS = 10    # decile_calibration: one station per decile at least
MIN_TIMESTAMPS = 10  # payment_stability: cycles to resample
_RESAMPLE_BUDGET = 1 << 17  # float64 resample means (1 MiB) per payment_stability chunk


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
    return select_case(utilities, (k,), (strategy,),
                       scores=None if scores is None else {strategy: scores},
                       distances_km=distances_km, seeds=(seed,))[0]


def select_case(utilities, budgets, strategies=STRATEGIES, *, scores=None, distances_km=None,
                seeds=None) -> list[SelectionResult]:
    """Every (budget, strategy) pick of one case, budget-major, each scored as `select` scores it.

    `scores` maps ig, gti and vg to their per-station scores, and `seeds` holds
    the uniform strategy's seed per budget.  Each ranked strategy sorts its
    stations once (`metrics.descending_order`), and a budget's pick is a prefix
    of that order; the uniform pick is drawn per budget from its own seed.
    """
    if bad := [s for s in strategies if s not in STRATEGIES]:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {bad[0]!r}")
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    n = u_abs.size
    for k in budgets:
        if not 1 <= k <= n:
            raise ValueError(f"K must be in [1, {n}], got {k}")
    orders = {}
    for strategy in strategies:
        if strategy == "uniform":
            if seeds is None or len(seeds) != len(budgets) or None in seeds:
                raise ValueError("uniform selection needs a seed per budget")
            continue
        if strategy == "oracle":
            rank_scores = u_abs
        elif strategy == "distance":
            if distances_km is None:
                raise ValueError("distance selection needs per-station distances")
            rank_scores = distance_scores(distances_km)
        else:
            if scores is None or scores.get(strategy) is None:
                raise ValueError(f"{strategy} selection needs per-station scores")
            rank_scores = np.asarray(scores[strategy], dtype=np.float64)
        if rank_scores.size != n:
            raise ValueError("scores and utilities must align")
        orders[strategy] = descending_order(rank_scores)
    total = u_abs.sum()
    if total <= 0:
        raise ValueError("total absolute utility is zero; captured share undefined")
    oracle = orders["oracle"] if "oracle" in orders else descending_order(u_abs)
    results = []
    for i, k in enumerate(budgets):
        c_oracle = float(u_abs[np.sort(oracle[:k])].sum() / total)
        c_uniform = k / n
        for strategy in strategies:
            if strategy == "uniform":
                rng = np.random.default_rng(np.random.SeedSequence((int(seeds[i]), 0x554E49)))
                chosen = np.sort(rng.choice(n, size=k, replace=False))
            else:
                chosen = orders[strategy][:k]
            captured = float(u_abs[np.sort(chosen)].sum() / total)
            results.append(SelectionResult(
                strategy=strategy, k=k, selected=tuple(chosen.tolist()), captured=captured,
                efficiency_ratio=captured / c_uniform,
                optimality_ratio=captured / c_oracle if c_oracle > 0 else np.nan))
    return results


def payment(scores, budget: float) -> PaymentAllocation:
    """Split the budget proportionally to nonnegative scores."""
    shares = _shares(np.asarray(scores, dtype=np.float64)[None])[0]
    return PaymentAllocation(budget=float(budget), shares=shares, amounts=shares * budget)


def _shares(scores: np.ndarray) -> np.ndarray:
    """Each row of a (rows, N) matrix of nonnegative scores over its own total."""
    if np.any(scores < 0):
        raise ValueError("payment scores must be nonnegative")
    totals = scores.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("cannot allocate a budget over all-zero scores")
    return scores / totals


def _check_prob_vector(p, name: str) -> np.ndarray:
    """`p`, checked to hold one normalized share vector per row (a vector is one row)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-8):
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
    return calibrate_case(np.asarray(proxy_scores, dtype=np.float64)[None], utilities)[0]


def calibrate_case(proxies, utilities) -> list[CalibrationReport]:
    """`decile_calibration` of each row of a (proxies, N) score matrix against one utility vector.

    The utility side (|utility|, its Gini and its payment shares) is computed
    once; the proxies are ranked by one row-wise stable sort, and their share
    Spearman rhos come from one `spearman_rho` call.  Each row's sums keep the
    width and order of a one-proxy call, so every report has its bits.
    """
    proxy = np.asarray(proxies, dtype=np.float64)
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    if proxy.ndim != 2:
        raise ValueError("proxies must be a (proxies, stations) matrix")
    n = proxy.shape[1]
    if n < MIN_STATIONS:
        raise ValueError(f"decile calibration needs at least {MIN_STATIONS} stations")
    if u_abs.shape != proxy.shape[1:]:
        raise ValueError("proxy and utility vectors must align")
    # a stable sort of each row: ascending, ties by station id
    ranked = u_abs[np.argsort(proxy, axis=1, kind="stable")]
    base, rem = divmod(n, 10)
    ends = np.cumsum([base + 1 if b < rem else base for b in range(10)])
    means = np.column_stack([ranked[:, start:end].mean(axis=1)
                             for start, end in zip([0, *ends[:-1]], ends)])
    g_util = gini(u_abs)
    pp = _check_prob_vector(_shares(proxy), "proxy shares")
    pt = _check_prob_vector(_shares(u_abs[None])[0], "true shares")
    over = np.maximum(0.0, pp - pt).sum(axis=1)
    rho = spearman_rho(pp, np.broadcast_to(pt, pp.shape))
    return [CalibrationReport(decile_mean_utility=row_means, gini_ratio=gini(row) / g_util,
                              overpayment_total=float(row_over), share_spearman=float(row_rho))
            for row, row_means, row_over, row_rho in zip(proxy, means, over, rho)]


@dataclass(frozen=True)
class PaymentStability:
    shares: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    resamples: int
    top_k: int
    ci_to_share: float


def _row_percentiles(rows: np.ndarray, q) -> np.ndarray:
    """np.nanpercentile(rows, q, axis=0), bit for bit, where NaNs fill whole rows only.

    A resample's shares are NaN only as a whole row (its totals are not > 0),
    so one percentile over the defined rows replaces nanpercentile's pass per
    column.  With no defined row every percentile is NaN.
    """
    defined = ~np.isnan(rows[:, 0])
    if not defined.any():
        return np.full((len(q), rows.shape[1]), np.nan)
    return np.percentile(rows[defined], q, axis=0)


def payment_stability(score_matrix, n_resamples: int = 10000, level: float = 0.95,
                      top_k: int = 20, seed: int = 0) -> PaymentStability:
    """Bootstrap per-station payment shares over timestamps.

    Timestamps are resampled i.i.d.; each resample's time-averaged scores are
    renormalized into shares and percentile CIs are taken per station.  The
    headline ratio is the mean CI width over point share for the top-k
    stations by share.

    Only the support is resampled: the columns with a score other than +0.0
    at some timestamp.  A column of zeros has resample mean +0.0 (as numpy's
    sum of -0.0s is), so its share is 0.0 in every defined resample and so
    are both of its bounds.  The support's resample means are running sums
    over the t drawn timestamps, in draw order, over t; they go back into a
    zero (resamples, stations) matrix, so the share totals are summed over
    every station as before.  That matrix, and its rows of drawn timestamps,
    are built for as many resamples at a time as fit in `_RESAMPLE_BUDGET`
    entries, and at least one; each row's sums keep their width and order, and
    consecutive `integers` draws continue one stream, so the chunking moves no
    bit.
    Percentiles are taken over the resamples whose totals are positive.
    """
    m = np.asarray(score_matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("score matrix must be (timestamps, stations)")
    if not np.isfinite(m).all():  # else a share turns NaN alone, not with its whole row
        raise ValueError("score matrix must be finite")
    if np.any(m < 0):
        raise ValueError("payment scores must be nonnegative")
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
    support = np.flatnonzero((m != 0).any(axis=0))
    m_sup = m[:, support]
    shares = np.empty((n_resamples, support.size))
    any_defined = False
    step = max(1, _RESAMPLE_BUDGET // n)
    for start in range(0, n_resamples, step):
        drawn_rows = rng.integers(0, t, size=(min(step, n_resamples - start), t))
        acc = np.zeros((drawn_rows.shape[0], support.size))
        for drawn in drawn_rows.T:  # from +0.0 in draw order: the bits of numpy's mean
            acc += m_sup[drawn]
        sample_mean = np.zeros((drawn_rows.shape[0], n))
        sample_mean[:, support] = acc / t
        totals = sample_mean.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares[start:start + step] = np.where(totals > 0, sample_mean[:, support] / totals,
                                                  np.nan)
        any_defined = any_defined or bool((totals > 0).any())
    alpha = (1.0 - level) / 2.0
    bounds = np.zeros((2, n)) if any_defined else np.full((2, n), np.nan)
    bounds[:, support] = _row_percentiles(shares, [100 * alpha, 100 * (1 - alpha)])
    lo, hi = bounds
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
    return shrinkage_fits(proxy_shares_per_t, dist_shares, utilities, (objective,), k)[0]


def shrinkage_fits(proxy_shares_per_t, dist_shares, utilities,
                   objectives=("mse", "captured_utility"), k: int = 20) -> list[ShrinkageFit]:
    """`shrinkage_fit` under each of `objectives`, over one (folds, lambdas, stations) blend.

    Every fold's blends are one broadcast, each element the per-fold blend's
    arithmetic.  The mse losses are one mean over the stations axis; the
    captured losses one stable argsort of the negated blends (`topk_indices`'s
    lower-index tie-break) and one gather, each row summed by `math.fsum`.
    The delta_rhos of all objectives come from one `spearman_rho` call.
    """
    if bad := [o for o in objectives if o not in ("mse", "captured_utility")]:
        raise ValueError(f"objective must be 'mse' or 'captured_utility', got {bad[0]!r}")
    if "captured_utility" in objectives and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.asarray(proxy_shares_per_t, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 3:
        raise ValueError("need a (timestamps >= 3, stations) proxy share matrix")
    d = _check_prob_vector(dist_shares, "distance shares")
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    truth = u_abs / u_abs.sum()

    grid = _LAMBDA_GRID[:, None]
    blends = grid * p[:, None, :] + (1 - grid) * d  # (fold, lambda, station)
    folds = {}
    for objective in objectives:
        if objective == "mse":
            losses = ((blends - truth) ** 2).mean(axis=2)
        else:
            # the total utility is a positive constant, so it need not divide here
            top = np.argsort(-blends, axis=2, kind="stable")[:, :, :min(k, p.shape[1])]
            captured = [math.fsum(row) for row in u_abs[top].reshape(-1, top.shape[2]).tolist()]
            losses = -np.array(captured).reshape(top.shape[:2])
        folds[objective] = _LAMBDA_GRID[np.argmin(losses, axis=1)]
    lams = [float(folds[o].mean()) for o in objectives]
    pbar = p.mean(axis=0)
    rows = np.stack([*(lam * pbar + (1 - lam) * d for lam in lams), pbar])
    rhos = spearman_rho(rows, np.broadcast_to(truth, rows.shape))
    return [ShrinkageFit(lam=lam, per_fold=folds[o], delta_rho=float(rho - rhos[-1]))
            for o, lam, rho in zip(objectives, lams, rhos)]
