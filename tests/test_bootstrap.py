import math

import numpy as np
import pytest

from gradsense import metrics, synth
from gradsense.grid import GridSpec, make_station_grid


def mean_stat(values, counts):
    """Mean of each resample (of the first column, for an (n, 2) sample), from multiplicities.

    Taken about the first value, so the mean of a constant sample is that constant exactly,
    and summed row by row, so a resample's mean does not depend on the rows beside it.
    """
    x = values if values.ndim == 1 else values[:, 0]
    return x[0] + (counts * (x - x[0])).sum(axis=1) / counts.sum(axis=1)


def counts_of(idx, n):
    """Station multiplicities of each row of a (resamples, m) index matrix."""
    cell = np.arange(idx.shape[0])[:, None] * n + idx
    return np.bincount(cell.ravel(), minlength=idx.shape[0] * n).reshape(-1, n)


def on_gather(statistic):
    """An index-matrix statistic: `statistic` on the multiplicities of each index row."""
    return lambda values, idx: statistic(values, counts_of(idx, values.shape[0]))


class TestIidBootstrap:
    def test_constant_samples_zero_width(self):
        ci = metrics.bootstrap_iid(np.full(20, 4.2), mean_stat, 1000, seed=1)
        assert ci.lower == ci.upper == ci.point == pytest.approx(4.2)

    def test_contains_point_for_mean(self, rng):
        vals = rng.normal(size=40)
        ci = metrics.bootstrap_iid(vals, mean_stat, 2000, seed=2)
        assert ci.lower <= ci.point <= ci.upper

    def test_reproducible(self, rng):
        vals = rng.normal(size=25)
        a = metrics.bootstrap_iid(vals, mean_stat, 1000, seed=9)
        b = metrics.bootstrap_iid(vals, mean_stat, 1000, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            metrics.bootstrap_iid(np.ones(2), mean_stat, 1000)

    def test_minimum_resamples_enforced(self, rng):
        with pytest.raises(ValueError):
            metrics.bootstrap_iid(rng.normal(size=10), mean_stat, 500)


class OldPairedSpearmanStat:
    """`PairedSpearmanStat` as it was: `__call__` on a sample, `batched` on index rows."""

    def __call__(self, rows):
        rc = metrics.spearman(rows[:, 0], rows[:, 1])
        return rc.rho if not rc.undefined else math.nan

    def batched(self, arr, idx):
        return metrics._rank_rho(metrics.average_ranks_matrix(arr[idx, 0]),
                                 metrics.average_ranks_matrix(arr[idx, 1]))


class OldMeanStat:
    """`mean_stat` fed the multiplicities of the old draw-order index rows."""

    def __call__(self, rows):
        return mean_stat(rows, np.ones((1, rows.shape[0]), dtype=np.intp))[0]

    batched = staticmethod(on_gather(mean_stat))


def oracle_bootstrap_iid(values, statistic, n_resamples, level, seed):
    """`bootstrap_iid` as it was: its own row draw, then `batched` or a per-row loop."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n_resamples)))
    idx = rng.integers(0, n, size=(n_resamples, n))
    batched = getattr(statistic, "batched", None)
    if batched is not None:
        stats = np.asarray(batched(arr, idx))
    else:
        stats = np.array([statistic(arr[row]) for row in idx])
    return metrics._percentile_ci(stats, statistic(arr), level, n_resamples)


def _iid_cases(rng, n):
    """(name, (n, 2) sample) pairs: plain, tied, signed-zero, NaN, near-constant, constant."""
    x = rng.normal(size=n)
    ties = rng.integers(0, 3, size=(n, 2)).astype(float)
    zeros = rng.choice([-0.0, 0.0, 1.0], size=(n, 2))
    with_nan = rng.normal(size=(n, 2))
    with_nan[rng.integers(0, n), 0] = np.nan
    near_constant = np.full(n, 2.5)
    near_constant[rng.integers(0, n)] = -1.0
    return [("plain", np.column_stack([x, x + rng.normal(size=n)])),
            ("ties", ties), ("signed_zero", zeros), ("nan", with_nan),
            ("near_constant", np.column_stack([near_constant, x])),
            ("constant", np.column_stack([x, np.full(n, -0.0)]))]


class TestIidIsSingletonBlocks:
    def test_matches_old_iid_body(self, rng):
        compared = raised = rejected = 0
        for n in (3, 4, 6, 17, 60):
            for name, pairs in _iid_cases(rng, n):
                if name != "nan":
                    old_point = OldPairedSpearmanStat()(pairs)
                    new_point = metrics.paired_spearman(pairs, np.ones((1, n), dtype=np.intp))[0]
                    assert np.array_equal(new_point, old_point, equal_nan=True), (n, name)
                for seed, level in ((0, 0.95), (7, 0.9), (123, 0.5)):
                    for new_stat, old_stat in ((metrics.paired_spearman, OldPairedSpearmanStat()),
                                               (mean_stat, OldMeanStat())):
                        if name == "nan" and new_stat is metrics.paired_spearman:
                            # the ranks of a resample holding NaN depend on the draw order
                            with pytest.raises(ValueError, match="paired_spearman"):
                                metrics.bootstrap_iid(pairs, new_stat, 1000, level, seed)
                            rejected += 1
                            continue
                        try:
                            old = oracle_bootstrap_iid(pairs, old_stat, 1000, level, seed)
                        except ValueError as exc:
                            with pytest.raises(ValueError, match=str(exc)):
                                metrics.bootstrap_iid(pairs, new_stat, 1000, level, seed)
                            raised += 1
                            continue
                        new = metrics.bootstrap_iid(pairs, new_stat, 1000, level, seed)
                        assert new == old, (n, name, seed, level, new_stat)
                        compared += 1
        assert compared >= 120 and raised >= 15 and rejected == 15


class TestStationBlocks:
    def test_partition_2x2(self):
        grid = GridSpec(36, 50)
        st = make_station_grid(grid, 4)  # 9 x 13 station lattice
        blocks = metrics.station_blocks(st, 2)
        assert len(blocks) == 35  # ceil(9/2) * ceil(13/2)
        covered = np.concatenate(blocks)
        assert np.array_equal(np.sort(covered), np.arange(st.n_stations))
        assert max(len(b) for b in blocks) == 4

    def test_block_one_is_singletons(self, small_stations):
        blocks = metrics.station_blocks(small_stations, 1)
        assert all(len(b) == 1 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.arange(small_stations.n_stations))


class TestBlockBootstrap:
    def test_block_one_identical_to_iid(self, rng, small_stations):
        vals = rng.normal(size=small_stations.n_stations)
        blocks = metrics.station_blocks(small_stations, 1)
        a = metrics.bootstrap_iid(vals, mean_stat, 1000, seed=7)
        b = metrics.bootstrap_block_spatial(vals, blocks, mean_stat, 1000, seed=7)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_partition_validation(self, rng, small_stations):
        vals = rng.normal(size=small_stations.n_stations)
        blocks = metrics.station_blocks(small_stations, 2)[:-1]  # drop one block
        with pytest.raises(ValueError):
            metrics.bootstrap_block_spatial(vals, blocks, mean_stat, 1000)

    @pytest.mark.parametrize("member", [0.7, -1, 6])  # a float, below 0, past n - 1
    def test_members_must_be_station_indices(self, rng, member):
        blocks = [np.array([member])] + [np.array([i]) for i in range(1, 6)]
        with pytest.raises(ValueError, match="blocks must partition the station set"):
            metrics.bootstrap_block_spatial(rng.normal(size=(6, 2)), blocks,
                                            metrics.paired_spearman, 1000)

    def test_correlated_data_wider_block_ci(self):
        grid = GridSpec(36, 50, variables=("a",))
        st = make_station_grid(grid, 4)
        blocks = metrics.station_blocks(st, 2)
        wider = 0
        trials = 40
        draws = synth.sample_fields(3210, grid, trials, slope=-2.2)
        for i in range(trials):
            vals = draws[i, 0][st.lat_idx, st.lon_idx]
            ci_i = metrics.bootstrap_iid(vals, mean_stat, 1000, seed=100 + i)
            ci_b = metrics.bootstrap_block_spatial(vals, blocks, mean_stat, 1000,
                                                   seed=100 + i)
            wider += ci_b.upper - ci_b.lower >= ci_i.upper - ci_i.lower
        assert wider / trials >= 0.8

    def test_independent_data_similar_width(self, rng, small_stations):
        blocks = metrics.station_blocks(small_stations, 2)
        ratios = []
        for i in range(30):
            vals = rng.normal(size=small_stations.n_stations)
            ci_i = metrics.bootstrap_iid(vals, mean_stat, 2000, seed=i)
            ci_b = metrics.bootstrap_block_spatial(vals, blocks, mean_stat, 2000, seed=i)
            ratios.append((ci_b.upper - ci_b.lower) / (ci_i.upper - ci_i.lower))
        assert abs(np.mean(ratios) - 1.0) <= 0.15


def oracle_block_bootstrap(values, blocks, statistic, n_resamples, level, seed):
    """The per-resample list-comprehension index builder, with an index-matrix statistic."""
    arr = np.asarray(values, dtype=np.float64)
    n_blocks = len(blocks)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n_resamples)))
    draws = rng.integers(0, n_blocks, size=(n_resamples, n_blocks))
    stats = np.empty(n_resamples)
    for i in range(n_resamples):
        idx = np.concatenate([blocks[j] for j in draws[i]])
        stats[i] = statistic(arr, idx[None])[0]
    point = statistic(arr, np.arange(arr.shape[0])[None])[0]
    return metrics._percentile_ci(stats, point, level, n_resamples)


def sorted_ranks_spearman(values, idx):
    """`paired_spearman` as it was first batched: one sort per resample row."""
    ra = metrics.average_ranks_matrix(values[idx, 0])
    rb = metrics.average_ranks_matrix(values[idx, 1])
    ra -= ra.mean(axis=1, keepdims=True)
    rb -= rb.mean(axis=1, keepdims=True)
    den = np.sqrt((ra * ra).sum(axis=1) * (rb * rb).sum(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, np.clip((ra * rb).sum(axis=1) / den, -1, 1), np.nan)


def _spearman_cases(rng, n):
    """(n, 2) samples: heavy ties with signed zeros, all distinct, and +-inf among ties."""
    ties = rng.integers(0, 3, size=(n, 2)).astype(float)
    ties[:5, 0] = -0.0  # signed zeros tie with 0.0
    with_inf = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], size=(n, 2))
    return [ties, rng.normal(size=(n, 2)), with_inf]


class TestVectorizedKernelsBitIdentical:
    @pytest.mark.parametrize("block", [1, 2, 4])
    def test_block_bootstrap_matches_oracle(self, rng, desk_stations, block):
        blocks = metrics.station_blocks(desk_stations, block)
        n = desk_stations.n_stations
        for seed in (0, 7, 11):
            pairs = np.column_stack([rng.normal(size=n), rng.integers(0, 6, n) * 0.5])
            for sample in (pairs, *_spearman_cases(rng, n)):
                # the multiplicities are the counts of the old draw-order gather
                statistics = ((metrics.paired_spearman, mean_stat) if np.isfinite(sample).all()
                              else (metrics.paired_spearman,))  # the mean of +-inf is undefined
                for statistic in statistics:
                    new = metrics.bootstrap_block_spatial(sample, blocks, statistic, 1000,
                                                          0.9, seed=seed)
                    old = oracle_block_bootstrap(sample, blocks, on_gather(statistic), 1000,
                                                 0.9, seed)
                    assert new == old, (block, seed, statistic)
                # and the grouped rho is the sorted-rank rho of that gather
                old = oracle_block_bootstrap(sample, blocks, sorted_ranks_spearman, 1000,
                                             0.9, seed)
                assert metrics.bootstrap_block_spatial(
                    sample, blocks, metrics.paired_spearman, 1000, 0.9, seed=seed) == old

    def test_chunked_resamples_match_one_chunk(self, rng, desk_stations, monkeypatch):
        blocks = metrics.station_blocks(desk_stations, 2)
        n = desk_stations.n_stations
        pairs = np.column_stack([rng.normal(size=n), rng.integers(0, 6, n) * 0.5])
        budgets = (metrics._COUNTS_BUDGET, 64 * n)
        for statistic in (metrics.paired_spearman, mean_stat):
            runs = {}
            for budget in budgets:
                monkeypatch.setattr(metrics, "_COUNTS_BUDGET", budget)
                rows, values = [], []

                def recorded(v, counts):
                    rows.append(counts.shape[0])
                    values.append(statistic(v, counts))
                    return values[-1]

                ci = metrics.bootstrap_block_spatial(pairs, blocks, recorded, 1000, 0.9, seed=3)
                runs[budget] = rows, np.concatenate(values), ci
            (one, whole, ci_one), (chunks, chunked, ci_chunked) = runs.values()
            assert one == [1001] and chunks == [64] * 15 + [41]  # the point rides in chunk 0
            assert np.array_equal(whole, chunked, equal_nan=True) and ci_one == ci_chunked

    def test_batched_spearman_heavy_ties_and_constant_rows(self, rng):
        n, rows = 40, 300
        for arr in _spearman_cases(rng, n):
            idx = rng.integers(0, n, size=(rows, 25))
            idx[:10] = idx[:10, :1]  # every index equal: both columns constant
            idx[10:20] = rng.choice(np.flatnonzero(arr[:, 1] == arr[0, 1]), size=(10, 25))
            new = metrics.paired_spearman(arr, counts_of(idx, n))
            old = sorted_ranks_spearman(arr, idx)
            assert np.all(np.isnan(new[:20])) and np.isfinite(new[20:]).any()
            assert np.array_equal(new, old, equal_nan=True)

    def test_paired_spearman_with_nan_and_inf(self, rng):
        # +-inf rank as the largest and smallest values; a NaN's copies would rank
        # in draw order, which multiplicities do not keep, so a NaN sample raises
        n = 30
        base = rng.integers(0, 4, size=(n, 2)).astype(float)
        base[[4, 5], 0] = np.inf
        base[[6, 7], 1] = -np.inf
        idx = rng.integers(0, n, size=(400, n))
        assert np.array_equal(metrics.paired_spearman(base, counts_of(idx, n)),
                              sorted_ranks_spearman(base, idx), equal_nan=True)
        blocks = [np.arange(i, i + 3) for i in range(0, n, 3)]
        for nan_at in ((2, None), (None, 9), (2, 9), (2, 2), (None, [2, 9])):
            x = base.copy()
            for col, station in enumerate(nan_at):
                if station is not None:
                    x[station, col] = np.nan
            with pytest.raises(ValueError, match="paired_spearman"):
                metrics.bootstrap_iid(x, metrics.paired_spearman, 1000)
            with pytest.raises(ValueError, match="paired_spearman"):
                metrics.bootstrap_block_spatial(x, blocks, metrics.paired_spearman, 1000)
