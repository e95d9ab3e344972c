"""Rank, concentration and detection statistics, plus bootstrap machinery.

Everything here is implemented directly (average-rank Spearman with a
t-approximation, one-sided Wilcoxon signed-rank with exact enumeration for
small n, Benjamini-Hochberg step-up, trapezoidal PR-AUC with tie grouping,
percentile bootstrap over spatial blocks) so the exact conventions are
pinned.  The Student t tail behind the Spearman p-value, `t_lower_tail`, is
Abramowitz & Stegun's series for integer degrees of freedom, so the module
needs NumPy only.  All randomized procedures reproduce bit-identically from
their seed.

Every Spearman correlation ends in `_rho`, on three sums of centred average
ranks: sum(ra * rb), sum(ra^2) and sum(rb^2).  `spearman_rho` ranks the rows
of two matrices (`average_ranks_matrix`) and sums them in `_rank_rho`,
as the row pairs of `spearman_indexed`, which ranks the rows of one matrix
once and pairs them by index; `spearman_rows` adds each row's p-value
(`spearman_p`), and `spearman` is its one-row case.  Callers that read rho
alone call `spearman_rho` or `spearman_indexed`, which evaluate no t tail.
`paired_spearman`, the bootstrap statistic, gets the same sums from station
multiplicities without building a resample: stations are grouped by their
pair of tie codes, a group's centred average rank in a resample is half of
(values below it - values above it), and each group is weighted by how often
its stations were drawn.  Centred average
ranks are multiples of 1/2 and multiplicities are integers, so every partial
sum is a multiple of 1/4 far below 2^53 and exact in any order: no batching,
grouping or summation order can change a bit of rho, and `t_lower_tail` gives
each p-value from its own t alone.

There is one bootstrap resampler, `bootstrap_block_spatial`; `bootstrap_iid`
is its case with one singleton block per row, in index order.  A bootstrap
statistic is one batched function, `statistic(values, counts)`, where
`counts` is a (resamples, n) matrix of integer station multiplicities (held
as float64), one row per resample; it returns one value per row, and the
point estimate is its value on a row of ones.  The resamples reach it in
chunks, so a row's value must not depend on the rows beside it.
Multiplicities drop the draw order, which only a NaN can see: it is not equal
to itself, so sorting gives each copy its own rank, in draw order.
`paired_spearman` adds that spread in closed form for one NaN station per
column and raises for more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import StationGrid

MIN_SAMPLES = 3  # observations behind a Spearman rho or a bootstrap
MIN_RESAMPLES = 1000  # resamples behind a bootstrap CI
_EXACT_THRESHOLD = 12  # nonzero samples up to which the signed-rank null is enumerated
_COUNTS_BUDGET = 1 << 17  # float64 station multiplicities (1 MiB) per bootstrap statistic call
# |t| from which `t_lower_tail` sums the complementary series: below it the tail
# is at least 0.0228 for every nu, so the finite sum's cancellation costs little
_T_SPLIT = 2.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RankCorrelation:
    rho: float
    n: int
    p_value: float

    @property
    def undefined(self) -> bool:
        """A constant input leaves rho (and p) NaN: flagged, never coerced to zero."""
        return math.isnan(self.rho)


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
    return _rho((ra * rb).sum(axis=1), (ra * ra).sum(axis=1), (rb * rb).sum(axis=1))


def _rho(sab: np.ndarray, saa: np.ndarray, sbb: np.ndarray) -> np.ndarray:
    """Correlation from the exact sums of centred rank products; NaN where a row is constant."""
    den = np.sqrt(saa * sbb)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, np.clip(sab / den, -1.0, 1.0), np.nan)


def spearman_rho(a, b) -> np.ndarray:
    """Spearman rho of each row pair of two (rows, n) matrices, without a p-value.

    NaN where a row pair's correlation is undefined (either row constant).
    Row i equals `spearman(a[i], b[i]).rho` bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError("inputs must be equal-shape (rows, n) matrices")
    rows = np.arange(a.shape[0])
    return spearman_indexed(np.concatenate([a, b]), rows, a.shape[0] + rows)


def spearman_indexed(x, ia, ib) -> np.ndarray:
    """Spearman rho of rows `x[ia[i]]` and `x[ib[i]]` of one (rows, n) matrix, per i.

    Each row of `x` is ranked once, however many pairs it is in.  Entry i
    equals `spearman_rho(x[ia], x[ib])[i]` bit for bit: a row's average ranks
    do not depend on the rows ranked with it, and the rank sums are exact.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("input must be a (rows, n) matrix")
    if x.shape[1] < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} observations")
    ranks = average_ranks_matrix(x)
    return _rank_rho(ranks[np.asarray(ia, dtype=np.intp)], ranks[np.asarray(ib, dtype=np.intp)])


def spearman_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Spearman rho and t-approximated p of each row pair of two (rows, n) matrices.

    A row pair whose correlation is undefined (either row constant) gets NaN
    for both rho and p; rho = +-1 makes t infinite, and p 0.  Row i equals
    `spearman(a[i], b[i])` bit for bit.
    """
    rho = spearman_rho(a, b)
    return rho, spearman_p(rho, np.shape(a)[1])


def spearman_p(rho, n: int) -> np.ndarray:
    """The two-sided t-approximated p-value of each Spearman rho in 1-D `rho` over n samples."""
    with np.errstate(invalid="ignore", divide="ignore"):
        tstat = rho * np.sqrt((n - 2) / (1.0 - rho * rho))
    return 2.0 * t_lower_tail(n - 2, -np.abs(tstat))


def t_lower_tail(nu: int, t) -> np.ndarray:
    """P(T <= t) of Student's t with integer `nu` >= 1 degrees of freedom, per t <= 0 of 1-D `t`.

    With x = nu / (nu + t^2) = cos^2(theta), tan(theta) = |t| / sqrt(nu), the
    tail is (1 - A) / 2 for A of Abramowitz & Stegun 26.7.3 (odd nu) and
    26.7.4 (even nu), a finite series in x of about nu/2 terms.  Where
    |t| < `_T_SPLIT` the tail is that.  Further out 1 - A would cancel, so the
    tail is the rest of the series' infinite continuation, whose terms are all
    positive: for even nu = 2m, 1 - A = sin(theta) sum_{j >= m} c_j x^j with
    c_j = (2j - 1)!! / (2j)!!; for odd nu = 2m + 1,
    1 - A = (2 / pi) sin(theta) cos(theta) sum_{j >= m} d_j x^j with
    d_j = (2j)!! / (2j + 1)!!.  t = -inf gives 0 and NaN gives NaN.

    For a contiguous `t`, each value depends on its own t alone, not on the
    values beside it (see `_t_series_sum`).
    """
    m, odd, ratios, factor = _t_series(nu)
    a = -np.asarray(t, dtype=np.float64)
    if a.ndim != 1 or (a < 0).any():
        raise ValueError("t must be a 1-D array of values <= 0 or NaN")
    far = a >= _T_SPLIT  # -inf too; NaN is near
    n_far = np.count_nonzero(far)
    if n_far == a.size:
        return _t_far(nu, m, odd, ratios, factor, a)
    if n_far == 0:
        return _t_near(nu, m, odd, ratios, a)
    out = np.empty_like(a)
    out[far] = _t_far(nu, m, odd, ratios, factor, a[far])
    out[~far] = _t_near(nu, m, odd, ratios, a[~far])
    return out


@functools.cache
def _t_series(nu: int) -> tuple[int, int, np.ndarray, float]:
    """nu's series: m, nu's parity, the ratios of consecutive coefficients, and the far factor.

    Coefficient j + 1 over coefficient j is (2j + 1) / (2j + 2) for even nu
    and (2j + 2) / (2j + 3) for odd nu.  The ratios run past m for as many
    terms as the complementary series needs at |t| = `_T_SPLIT`.  The far
    factor is coefficient m over 2 (even nu) or over pi (odd nu).
    """
    if not (isinstance(nu, (int, np.integer)) and nu >= 1):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {nu!r}")
    m, odd = divmod(int(nu), 2)
    j = np.arange(m + _t_terms(nu / (nu + _T_SPLIT ** 2)))
    ratios = (2 * j + 1 + odd) / (2 * j + 2 + odd)
    ratios.flags.writeable = False
    return m, odd, ratios, math.prod(ratios[:m].tolist()) / (math.pi if odd else 2.0)


def _t_terms(x: float) -> int:
    """Terms of a series in x whose ratios are below 1 up to the first term under (1 - x) eps/4."""
    if x == 0.0:
        return 1
    return math.ceil((math.log(_EPS / 4) + math.log1p(-x)) / math.log(x))


def _t_series_sum(x: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """sum_k x^k prod_{i<k} ratios[i] over k = 0 .. len(ratios), per x, summed in order.

    With ratios below 1 the terms fall from 1, so the running sum is at least 1
    and a term under epsilon/4 leaves it as it is: terms past the first one
    that small change no bit, however many `ratios` there are.
    """
    terms = np.empty((ratios.size + 1, x.size))
    terms[0] = 1.0
    np.multiply(ratios[:, None], x, out=terms[1:])
    np.multiply.accumulate(terms, axis=0, out=terms)
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _t_near(nu, m, odd, ratios, a):
    """The tail at -a for 0 <= a < `_T_SPLIT` (or NaN): A&S's finite sum."""
    tan = a / math.sqrt(nu)
    cos = 1.0 / np.hypot(1.0, tan)
    sin = tan * cos
    if not odd:
        return 0.5 - 0.5 * sin * _t_series_sum(cos * cos, ratios[:m - 1])
    theta = np.arctan(tan)
    if m:
        theta += sin * cos * _t_series_sum(cos * cos, ratios[:m - 1])
    return 0.5 - theta / math.pi


def _t_far(nu, m, odd, ratios, factor, a):
    """The tail at -a for a >= `_T_SPLIT` (or inf): the complementary series from term m.

    Its terms past index k sum to under term k / (1 - x), so the sum stops at
    the first term under (1 - x) eps/4, as `_t_terms` counts for the largest x.
    """
    cot = math.sqrt(nu) / a
    sin = 1.0 / np.hypot(1.0, cot)
    x = nu / (nu + a * a)
    s = _t_series_sum(x, ratios[m:m + _t_terms(float(x.max())) - 1])
    tail = (factor * x ** m) * sin * s
    return tail * (cot * sin) if odd else tail


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
    return RankCorrelation(rho=float(rho[0]), n=a.size, p_value=float(p[0]))


def paired_spearman(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Spearman rho of the two columns of an (n, 2) sample, per row of station multiplicities.

    A bootstrap statistic; NaN where a resample leaves either column constant.
    Stations are grouped by their pair of tie codes (positions among a
    column's sorted distinct values).  A value's centred average rank is half
    of (values below it - values above it).  So with `half[g, i]` half the
    sign of group g's code minus station i's, in a column, and `member[g, i]`
    whether station i is in group g, one product
    `[member; half_a; half_b] @ counts.T` gives every group's weight and
    centred ranks in every resample.  All of it is arithmetic on small
    integers and halves, hence exact in any order.

    A NaN ranks above every number and, not being equal to itself, each copy
    of it takes its own rank, in draw order.  With one NaN station per column
    that is exact: its c copies rank around their average like 1..c around
    (c+1)/2, which adds (c^3 - c)/12 to the squares (and to the products,
    where both columns are NaN at that station).  With two or more the ranks
    depend on the draw order, which multiplicities do not keep, so that raises.
    """
    nan_at = [np.flatnonzero(np.isnan(values[:, col])) for col in (0, 1)]
    if max(s.size for s in nan_at) > 1:
        raise ValueError("a column with NaN at two or more stations has ranks that "
                         "depend on the draw order")
    nan_both = np.flatnonzero(np.isnan(values).all(axis=1))
    codes = np.column_stack([np.unique(values[:, col], return_inverse=True)[1]
                             for col in (0, 1)])
    pairs, group = np.unique(codes, axis=0, return_inverse=True)
    member = group == np.arange(len(pairs))[:, None]
    half_a, half_b = (0.5 * np.sign(pairs[:, col, None] - codes[:, col]) for col in (0, 1))
    c = np.asarray(counts, dtype=np.float64)
    w, ra, rb = np.split(np.vstack([member, half_a, half_b]) @ c.T, 3)  # each (G, resamples)

    def spread(stations):
        k = c[:, stations]
        return (k ** 3 - k).sum(axis=1) / 12

    wa = w * ra
    return _rho((wa * rb).sum(axis=0) + spread(nan_both),
                (wa * ra).sum(axis=0) + spread(nan_at[0]),
                (w * rb * rb).sum(axis=0) + spread(nan_at[1]))


def descending_order(scores) -> np.ndarray:
    """Every index of a score vector from the largest score down, ties toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def topk_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= scores.size:
        raise ValueError(f"k must be in [1, {scores.size}], got {k}")
    return descending_order(scores)[:k]


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
    """Percentile CI resampling whole spatial blocks; members move together.

    Each resample draws as many blocks as there are, with replacement; a
    leading draw of each block once gives the point estimate.  Per chunk of
    draws, one `bincount` turns them into block counts, and a station's
    multiplicity is its block's count: the statistic sees those (as float64,
    ready for BLAS), never a gathered copy of the sample.  A chunk holds as
    many draws as fit in `_COUNTS_BUDGET` multiplicities, and at least one.
    `blocks` must hold integer station indices that cover 0..n-1 once each.
    """
    arr = np.asarray(values, dtype=np.float64)
    n, n_blocks = arr.shape[0], len(blocks)
    members = [np.asarray(b) for b in blocks]
    if n_blocks == 0 or any(b.size == 0 for b in members):
        raise ValueError("blocks must be nonempty")
    if (any(b.ndim != 1 or b.dtype.kind not in "iu" for b in members)
            or not np.array_equal(np.sort(covered := np.concatenate(members)), np.arange(n))):
        raise ValueError("blocks must partition the station set")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n_resamples)))
    draws = np.vstack([np.arange(n_blocks),
                       rng.integers(0, n_blocks, size=(n_resamples, n_blocks))])
    block_of = np.empty(n, dtype=np.intp)
    block_of[covered] = np.repeat(np.arange(n_blocks), [b.size for b in members])
    step = max(1, _COUNTS_BUDGET // n)
    stats = np.concatenate([statistic(arr, _station_counts(draws[i:i + step], block_of))
                            for i in range(0, 1 + n_resamples, step)])
    return _percentile_ci(stats[1:], stats[0], level, n_resamples)


def _station_counts(draws: np.ndarray, block_of: np.ndarray) -> np.ndarray:
    """Station multiplicities (as float64) of each row of a (rows, n_blocks) block draw."""
    rows, n_blocks = draws.shape
    cell = np.arange(rows)[:, None] * n_blocks + draws  # (row, block) flat
    block_counts = np.bincount(cell.ravel(), minlength=rows * n_blocks).reshape(rows, n_blocks)
    return np.take(block_counts.astype(np.float64), block_of, axis=1)
