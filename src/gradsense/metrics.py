"""Rank, concentration and detection statistics, plus bootstrap machinery.

Everything here is implemented directly (average-rank Spearman with a
t-approximation, one-sided Wilcoxon signed-rank with exact enumeration for
small n, Benjamini-Hochberg step-up, trapezoidal PR-AUC with tie grouping,
percentile bootstrap over spatial blocks) so the exact conventions are
pinned.  The only SciPy import is `scipy.special.stdtr`, the Student t tail
behind the Spearman p-value.  All randomized procedures reproduce
bit-identically from their seed.

Every Spearman correlation goes through one path: rows of average ranks
(`average_ranks_matrix`, or `resample_ranks` for bootstrap resamples) and
their row-wise Pearson correlation `_rank_rho`.  `spearman_rows` correlates
matching rows of two matrices, `spearman` is its one-row case, and
`paired_spearman` feeds it resampled ranks.  Centred average ranks are
multiples of 1/2, so every sum in `_rank_rho` is exact and no batching or
summation order can change a bit of rho or of its p-value.

There is one bootstrap resampler, `bootstrap_block_spatial`; `bootstrap_iid`
is its case with one singleton block per row, in index order, which draws the
index matrix an i.i.d. row draw would.  A bootstrap statistic is one batched
function, `statistic(values, idx)`, returning the statistic of `values[row]`
for each row of a (resamples, m) index matrix; the point estimate is its value
on the identity resample `np.arange(n)[None]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .grid import StationGrid

MIN_SAMPLES = 3  # observations behind a Spearman rho or a bootstrap
MIN_RESAMPLES = 1000  # resamples behind a bootstrap CI
_EXACT_THRESHOLD = 12  # nonzero samples up to which the signed-rank null is enumerated


@dataclass(frozen=True)
class RankCorrelation:
    rho: float
    n: int
    p_value: float
    undefined: bool = False


@dataclass(frozen=True)
class BootstrapCI:
    point: float
    lower: float
    upper: float
    level: float
    resamples: int

    def __post_init__(self):
        if self.resamples < MIN_RESAMPLES:
            raise ValueError(f"bootstrap CIs need at least {MIN_RESAMPLES} resamples")
        if not 0 < self.level < 1:
            raise ValueError("level must be in (0, 1)")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values assigned the mean of their rank range."""
    return average_ranks_matrix(np.asarray(x, dtype=np.float64)[None])[0]


def average_ranks_matrix(x: np.ndarray) -> np.ndarray:
    """Row-wise tie-averaged ranks of a (rows, n) matrix (vectorized).

    A tie group that starts at sorted column `start` and holds `count` equal
    values spans ranks start+1 .. start+count, so each member gets
    start + (count+1)/2: a half-integer, which float64 holds exactly.
    """
    rows, n = x.shape
    row = np.arange(rows)[:, None]
    order = np.argsort(x, axis=1, kind="stable")
    sx = x[row, order]
    # flat group-start flags, one past the end closing the last group
    starts = np.ones(rows * n + 1, dtype=bool)
    starts[:-1].reshape(rows, n)[:, 1:] = sx[:, 1:] != sx[:, :-1]
    bounds = np.flatnonzero(starts)
    first, count = bounds[:-1], bounds[1:] - bounds[:-1]
    ranks = np.empty((rows, n))
    ranks[row, order] = np.repeat(first % n + 0.5 * (count + 1), count).reshape(rows, n)
    return ranks


def resample_ranks(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row-wise tie-averaged ranks of `x[idx]` for a (rows, m) index matrix.

    Equals `average_ranks_matrix(x[idx])` bit for bit without sorting a row.
    Each value gets a tie code (its position among the sorted distinct values
    of `x`), one `bincount` counts every code per row, and a value whose code
    has `count` copies in its row and `less` smaller values there spans rank
    positions less+1 .. less+count, so its average rank is less + (count+1)/2.
    That is the half-integer the sorting version computes, and float64 holds
    it exactly, so the two agree in every bit.  A NaN is not equal to itself,
    so each NaN occurrence is its own rank group; inputs with NaN therefore
    take the sorting path.
    """
    if np.isnan(x).any():
        return average_ranks_matrix(x[idx])
    uniq, code = np.unique(x, return_inverse=True)
    rows, k = idx.shape[0], uniq.size
    cell = np.arange(rows)[:, None] * k + code[idx]  # (row, code) flat in (rows, k)
    counts = np.bincount(cell.ravel(), minlength=rows * k).reshape(rows, k)
    less = np.cumsum(counts, axis=1) - counts
    return (less + 0.5 * (counts + 1)).ravel()[cell]


def _rank_rho(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Row-wise Pearson correlation of two (rows, n) rank matrices; NaN where a row is constant.

    Centres `ra` and `rb` in place.  Average ranks are multiples of 1/2 that
    sum to n(n+1)/2, so each row mean is exactly (n+1)/2 and the centred
    ranks are again multiples of 1/2.  Their products are multiples of 1/4, so
    every partial sum below is a multiple of 1/4 no larger than n^3/4 in
    magnitude, which float64 holds exactly for n up to about 10^5.  The sums
    are therefore exact whatever their order: `(ra * rb).sum(axis=1)`,
    `np.vecdot` and a 1-D `@` per row agree bit for bit, and a row's rho does
    not depend on the other rows it is batched with.
    """
    ra -= ra.mean(axis=1, keepdims=True)
    rb -= rb.mean(axis=1, keepdims=True)
    den = np.sqrt((ra * ra).sum(axis=1) * (rb * rb).sum(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, np.clip((ra * rb).sum(axis=1) / den, -1.0, 1.0), np.nan)


def spearman_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Spearman rho and t-approximated p of each row pair of two (rows, n) matrices.

    A row pair whose correlation is undefined (either row constant) gets NaN
    for both rho and p.  Row i equals `spearman(a[i], b[i])` bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("inputs must be equal-shape (rows, n) matrices")
    rows, n = a.shape
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} observations")
    ranks = average_ranks_matrix(np.concatenate([a, b]))
    rho = _rank_rho(ranks[:rows], ranks[rows:])
    with np.errstate(invalid="ignore", divide="ignore"):
        tstat = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, np.where(np.abs(rho) == 1.0, 0.0, 2.0 * stdtr(n - 2, -np.abs(tstat)))


def spearman(a, b) -> RankCorrelation:
    """Spearman rho: Pearson correlation of average ranks, t-approximated p.

    The one-row case of `spearman_rows`.  Constant inputs leave the
    correlation undefined; the result is flagged rather than coerced to zero
    so aggregates cannot be silently polluted.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    rho, p = spearman_rows(a[None], b[None])
    if math.isnan(rho[0]):
        return RankCorrelation(rho=math.nan, n=a.size, p_value=math.nan, undefined=True)
    return RankCorrelation(rho=float(rho[0]), n=a.size, p_value=float(p[0]))


def paired_spearman(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Spearman rho of the two columns of an (n, 2) sample, per resample row of `idx`.

    A bootstrap statistic; NaN where a resample leaves either column constant.
    """
    return _rank_rho(resample_ranks(values[:, 0], idx), resample_ranks(values[:, 1], idx))


def topk_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= scores.size:
        raise ValueError(f"k must be in [1, {scores.size}], got {k}")
    order = np.lexsort((np.arange(scores.size), -scores))
    return order[:k]


def topk_overlap(a, b, k: int) -> float:
    """|top-k(a) & top-k(b)| / k with the deterministic lower-index tie-break."""
    sa = set(topk_indices(a, k).tolist())
    sb = set(topk_indices(b, k).tolist())
    return len(sa & sb) / k


def wilcoxon_signed_rank(samples) -> float:
    """One-sided signed-rank p-value for a positive shift.

    Zeros are removed; up to `_EXACT_THRESHOLD` nonzero samples the null
    distribution of the positive-rank sum is enumerated over all 2^n sign
    assignments (exact even with ties); above it a normal approximation with
    the usual tie correction is used.
    """
    d = np.asarray(samples, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    if n < 6:
        raise ValueError(f"need at least 6 nonzero samples, got {n}")
    ranks = average_ranks(np.abs(d))
    t_plus = float(ranks[d > 0].sum())
    if n <= _EXACT_THRESHOLD:
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
        sums = bits @ ranks
        return float(np.count_nonzero(sums >= t_plus - 1e-12) / (1 << n))
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float(((counts ** 3 - counts) / 48.0).sum())
    z = (t_plus - mu) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def bh_fdr(p_values, q: float = 0.05) -> np.ndarray:
    """Benjamini-Hochberg step-up rejection mask at FDR level q."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if np.any((p < 0) | (p > 1) | ~np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = (np.arange(1, m + 1) / m) * q
    passed = np.flatnonzero(p[order] <= thresholds)
    mask = np.zeros(m, dtype=bool)
    if passed.size:
        mask[order[:passed[-1] + 1]] = True
    return mask


def gini(values) -> float:
    """Gini coefficient of a nonnegative vector (0 = uniform, (n-1)/n = one-hot)."""
    v = np.asarray(values, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("gini needs nonnegative values")
    total = v.sum()
    if total <= 0:
        raise ValueError("gini needs a positive total")
    n = v.size
    sv = np.sort(v)
    # sort-based identity for the mean-absolute-difference formula
    return float(2.0 * (np.arange(1, n + 1) @ sv) / (n * total) - (n + 1) / n)


def pr_auc(scores, labels) -> float:
    """Area under the precision-recall curve, trapezoid over recall.

    Tied scores are collapsed into one operating point; the curve is anchored
    at (recall 0, first precision).  A step-interpolated variant (average
    precision) would weight each recall increment by its own precision; the
    trapezoid here averages adjacent precisions instead.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = int(np.count_nonzero(y))
    if pos == 0 or pos == y.size:
        raise ValueError("need at least one positive and one negative label")
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    yy = (y[order] != 0).astype(np.float64)
    boundary = np.flatnonzero(np.r_[ss[1:] != ss[:-1], True])
    tp = np.cumsum(yy)[boundary]
    pp = boundary + 1.0
    precision = tp / pp
    recall = tp / pos
    r_prev, p_prev = 0.0, precision[0]
    area = 0.0
    for r, p in zip(recall, precision):
        area += (r - r_prev) * 0.5 * (p + p_prev)
        r_prev, p_prev = r, p
    return float(area)


def _percentile_ci(stats: np.ndarray, point: float, level: float,
                   resamples: int) -> BootstrapCI:
    good = stats[np.isfinite(stats)]
    if good.size < stats.size // 2 or good.size == 0:
        raise ValueError("statistic was undefined on most resamples")
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(good, [100 * alpha, 100 * (1 - alpha)])
    return BootstrapCI(point=float(point), lower=float(lo), upper=float(hi),
                       level=level, resamples=resamples)


def bootstrap_iid(values, statistic, n_resamples: int = 10000, level: float = 0.95,
                  seed: int = 0) -> BootstrapCI:
    """Percentile CI resampling rows of `values` with replacement: singleton blocks."""
    n = np.shape(values)[0]
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples to bootstrap")
    return bootstrap_block_spatial(values, list(np.arange(n)[:, None]), statistic,
                                   n_resamples, level, seed)


def station_blocks(stations: StationGrid, block: int = 2) -> list[np.ndarray]:
    """Partition a strided station lattice into block x block neighbourhoods."""
    if block < 1:
        raise ValueError("block must be >= 1")
    # a station's lattice row and column are its ranks among the occupied ones
    row = np.searchsorted(np.unique(stations.lat_idx), stations.lat_idx)
    cols = np.unique(stations.lon_idx)
    col = np.searchsorted(cols, stations.lon_idx)
    keys = (row // block) * math.ceil(cols.size / block) + col // block
    return [np.flatnonzero(keys == key) for key in np.unique(keys)]


def bootstrap_block_spatial(values, blocks: list[np.ndarray], statistic,
                            n_resamples: int = 10000, level: float = 0.95,
                            seed: int = 0) -> BootstrapCI:
    """Percentile CI resampling whole spatial blocks; members move together."""
    arr = np.asarray(values, dtype=np.float64)
    n_blocks = len(blocks)
    if n_blocks == 0 or any(len(b) == 0 for b in blocks):
        raise ValueError("blocks must be nonempty")
    covered = np.concatenate(blocks)
    if np.unique(covered).size != arr.shape[0] or covered.size != arr.shape[0]:
        raise ValueError("blocks must partition the station set")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n_resamples)))
    draws = rng.integers(0, n_blocks, size=(n_resamples, n_blocks))
    # one padded gather: row j of `table` lists block j's members, then -1s;
    # dropping the pads keeps draw order and member order in every resample
    sizes = np.array([len(b) for b in blocks])
    table = np.full((n_blocks, sizes.max()), -1, dtype=np.intp)
    for j, b in enumerate(blocks):
        table[j, :len(b)] = b
    gathered = table[draws].reshape(n_resamples, -1)
    lengths = sizes[draws].sum(axis=1)
    stats = np.empty(n_resamples)
    # bucket resamples by total length so each bucket is one index matrix
    for length in np.unique(lengths):
        sel = np.flatnonzero(lengths == length)
        rows = gathered[sel]
        stats[sel] = statistic(arr, rows[rows >= 0].reshape(sel.size, length))
    point = statistic(arr, np.arange(arr.shape[0])[None])[0]
    return _percentile_ci(stats, point, level, n_resamples)
