import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

import oracles
from gradsense import incentive, metrics


class TestSelect:
    def test_full_set_captures_everything(self, rng):
        u = rng.random(30)
        for strategy in incentive.STRATEGIES:
            res = incentive.select(strategy, 30, u, scores=rng.random(30),
                                   distances_km=rng.random(30) * 500 + 1, seed=3)
            assert res.captured == pytest.approx(1.0)

    def test_oracle_dominance_random_instances(self, rng):
        for _ in range(40):
            n = int(rng.integers(10, 60))
            u = rng.random(n)
            k = int(rng.integers(1, n))
            oracle = incentive.select("oracle", k, u)
            for strategy in ("ig", "distance", "uniform"):
                res = incentive.select(strategy, k, u, scores=rng.random(n),
                                       distances_km=rng.random(n) * 900 + 1,
                                       seed=int(rng.integers(1 << 30)))
                assert oracle.captured >= res.captured - 1e-12
            assert oracle.optimality_ratio == pytest.approx(1.0)

    def test_uniform_expectation(self, rng):
        u = rng.random(40)
        k = 8
        caps = [incentive.select("uniform", k, u, seed=s).captured for s in range(400)]
        se = np.std(caps) / np.sqrt(len(caps))
        assert abs(np.mean(caps) - k / 40) <= 2.5 * se

    def test_tie_break_lower_id(self):
        u = np.ones(6)
        res = incentive.select("ig", 3, u, scores=np.ones(6))
        assert res.selected == (0, 1, 2)

    def test_distance_singularity_guard(self):
        u = np.ones(4)
        d = np.array([0.0, 10.0, 20.0, 40.0])
        scores = incentive.distance_scores(d)
        assert scores[0] == scores[1:].max()
        res = incentive.select("distance", 2, u, distances_km=d)
        assert 0 in res.selected and 1 in res.selected

    def test_errors(self, rng):
        u = rng.random(10)
        with pytest.raises(ValueError):
            incentive.select("ig", 11, u, scores=rng.random(10))
        with pytest.raises(ValueError):
            incentive.select("ig", 3, u)  # missing scores
        with pytest.raises(ValueError):
            incentive.select("uniform", 3, u)  # missing seed
        with pytest.raises(ValueError):
            incentive.select("nope", 3, u)


class TestCapturedUtility:
    def test_empty_and_full(self, rng):
        u = rng.random(12)
        assert incentive.captured_utility([], u) == 0.0
        assert incentive.captured_utility(range(12), u) == pytest.approx(1.0)

    def test_naive_oracle(self, rng):
        for _ in range(30):
            u = rng.normal(size=25)
            sel = rng.choice(25, size=int(rng.integers(1, 20)), replace=False)
            expected = sum(abs(u[g]) for g in sel) / sum(abs(x) for x in u)
            assert incentive.captured_utility(sel, u) == pytest.approx(expected, rel=1e-12)

    def test_zero_total_flagged(self):
        with pytest.raises(ValueError):
            incentive.captured_utility([0], np.zeros(5))

    def test_disjoint_additivity(self, rng):
        u = rng.random(40)
        s = set(rng.choice(40, size=10, replace=False).tolist())
        t = set(rng.choice(sorted(set(range(40)) - s), size=10, replace=False).tolist())
        lhs = incentive.captured_utility(s | t, u)
        rhs = incentive.captured_utility(s, u) + incentive.captured_utility(t, u)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPayment:
    def test_symmetric_split(self):
        alloc = incentive.payment([1.0, 1.0], 10000.0)
        assert alloc.amounts.tolist() == [5000.0, 5000.0]

    def test_single_mass(self):
        alloc = incentive.payment([0.0, 3.0, 0.0], 777.0)
        assert alloc.amounts[1] == pytest.approx(777.0)

    def test_budget_balance_random(self, rng):
        scores = rng.random(117)
        alloc = incentive.payment(scores, 10000.0)
        assert abs(alloc.amounts.sum() - 10000.0) <= 1e-9 * 10000.0
        naive = [s / scores.sum() * 10000.0 for s in scores]
        assert np.allclose(alloc.amounts, naive, rtol=1e-12)
        assert np.all(alloc.amounts >= 0.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            incentive.payment([-1.0, 2.0], 100.0)
        with pytest.raises(ValueError):
            incentive.payment([0.0, 0.0], 100.0)


class TestOverpayment:
    def test_identical_shares(self, rng):
        p = rng.random(20)
        p /= p.sum()
        total, per = incentive.overpayment(p, p)
        assert total == 0.0 and np.all(per == 0.0)

    def test_one_hot_on_zero_station(self):
        p_true = np.array([0.0, 0.4, 0.6])
        p_proxy = np.array([1.0, 0.0, 0.0])
        total, _ = incentive.overpayment(p_proxy, p_true)
        assert total == pytest.approx(1.0 - p_true[0])

    def test_balance_identity(self, rng):
        for _ in range(25):
            a = rng.random(15); a /= a.sum()
            b = rng.random(15); b /= b.sum()
            over, _ = incentive.overpayment(a, b)
            under, _ = incentive.overpayment(b, a)
            assert over == pytest.approx(under, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            incentive.overpayment([0.5, 0.2], [0.5, 0.5])


class TestDecileCalibration:
    def test_self_calibration(self, rng):
        u = rng.random(117) + 0.01
        rep = incentive.decile_calibration(u, u)
        assert np.all(np.diff(rep.decile_mean_utility) >= -1e-12)
        assert rep.gini_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.overpayment_total <= 1e-12

    def test_constant_proxy(self, rng):
        u = rng.random(50) + 0.01
        rep = incentive.decile_calibration(np.ones(50), u)
        assert rep.gini_ratio == pytest.approx(0.0, abs=1e-12)

    def test_bins_match_naive_partition(self, rng):
        n = 117
        proxy = rng.random(n)
        u = rng.random(n)
        rep = incentive.decile_calibration(proxy, u)
        order = sorted(range(n), key=lambda i: (proxy[i], i))
        base, rem = divmod(n, 10)
        start = 0
        for b in range(10):
            size = base + 1 if b < rem else base
            members = order[start:start + size]
            start += size
            assert rep.decile_mean_utility[b] == pytest.approx(
                np.mean([abs(u[i]) for i in members]), rel=1e-12)

    def test_too_few_stations(self, rng):
        with pytest.raises(ValueError):
            incentive.decile_calibration(rng.random(5), rng.random(5))


class TestPaymentStability:
    def test_constant_scores_zero_width(self):
        m = np.tile(np.array([1.0, 2.0, 3.0]), (12, 1))
        res = incentive.payment_stability(m, n_resamples=1000, seed=5)
        assert np.allclose(res.lower, res.upper)
        assert res.ci_to_share == pytest.approx(0.0, abs=1e-12)

    def test_shares_valid(self, rng):
        m = rng.random((20, 30))
        res = incentive.payment_stability(m, n_resamples=1000, seed=6)
        assert res.shares.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.all(res.lower >= -1e-12) and np.all(res.upper <= 1.0 + 1e-12)

    def test_ratio_shrinks_with_more_timestamps(self, rng):
        base = rng.random(25) + 0.5
        noise = rng.normal(size=(80, 25)) * 0.2
        scores = np.abs(base[None, :] + noise)
        r_small = incentive.payment_stability(scores[:40], n_resamples=2000,
                                              top_k=10, seed=8).ci_to_share
        r_big = incentive.payment_stability(scores, n_resamples=2000,
                                            top_k=10, seed=8).ci_to_share
        assert r_big < r_small
        assert r_big / r_small == pytest.approx(1 / np.sqrt(2), abs=0.2 / np.sqrt(2))

    def test_too_few_timestamps(self, rng):
        with pytest.raises(ValueError):
            incentive.payment_stability(rng.random((5, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, rng, bad):
        m = rng.random((12, 5))
        m[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            incentive.payment_stability(m, n_resamples=1000)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_percentiles_equal_nanpercentile(self, seed):
        rng = np.random.default_rng(seed)
        q = [2.5, 50.0, 97.5]
        for rows, cols in ((1000, 30), (37, 5), (2, 117), (1, 3)):
            shares = rng.random((rows, cols))
            tied = np.round(shares, 1)  # many equal values per column
            holes = shares.copy()
            holes[rng.random(rows) < 0.3] = np.nan  # resamples whose totals were not > 0
            for m in (shares, tied, holes):
                assert np.array_equal(incentive._row_percentiles(m, q),
                                      np.nanpercentile(m, q, axis=0), equal_nan=True)
        gone = np.full((50, 4), np.nan)
        assert np.all(np.isnan(incentive._row_percentiles(gone, q)))
        assert incentive._row_percentiles(gone, q).shape == (3, 4)

    def test_resamples_without_mass_are_left_out(self):
        # 9 of 10 timestamps score nothing, so about a third of the resamples
        # have no shares; the interval comes from the others
        m = np.zeros((10, 6))
        m[3] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        res = incentive.payment_stability(m, n_resamples=1000, seed=4)
        assert np.allclose(res.lower, res.shares) and np.allclose(res.upper, res.shares)


def gathered_payment_stability(m, n_resamples, level, top_k, seed, chunk=None):
    """`payment_stability` as it was: gather every (chunk, t, n) resample, mean over t."""
    t, n = m.shape
    point = m.mean(axis=0) / m.mean(axis=0).sum()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x505354)))
    idx = rng.integers(0, t, size=(n_resamples, t))
    shares = np.empty((n_resamples, n))
    chunk = chunk or max(1, (1 << 22) // (t * n))
    for lo in range(0, n_resamples, chunk):
        sample_mean = m[idx[lo:lo + chunk]].mean(axis=1)
        totals = sample_mean.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares[lo:lo + chunk] = np.where(totals > 0, sample_mean / totals, np.nan)
    alpha = (1.0 - level) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        lo, hi = np.nanpercentile(shares, [100 * alpha, 100 * (1 - alpha)], axis=0)
    top = metrics.topk_indices(point, min(top_k, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (hi[top] - lo[top]) / point[top]
    ratios = ratios[np.isfinite(ratios)]
    return point, lo, hi, float(ratios.mean()) if ratios.size else np.nan


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def stability_matrices(t, n):
    """(support kind, score matrix) pairs of positive total, among them -0.0 and zero columns."""
    rng = np.random.default_rng(t * 1000 + n)
    for support in ("all", "some", "one", "signed_zero"):
        m = rng.random((t, n)) * 10.0 ** rng.uniform(-3, 3, size=(t, n))
        if support == "some":
            m[:, rng.random(n) < 0.7] = 0.0
            m[:, rng.integers(0, n)] = 1.0  # keep the total positive
        elif support == "one":
            m[:, 1:] = 0.0
            m[rng.random(t) < 0.5, 0] = 0.0  # resamples of zero total leave rows undefined
        elif support == "signed_zero":
            m[:, rng.random(n) < 0.5] = -0.0
            m[1:, 0] = -0.0  # about a third of the resamples draw only its -0.0s
        if m.mean(axis=0).sum() > 0:
            yield support, m


STABILITY_SHAPES = [(10, 1), (10, 2), (12, 7), (23, 40), (60, 117)]


class TestPaymentStabilityMatchesGather:
    @pytest.mark.parametrize("t,n", STABILITY_SHAPES)
    def test_bit_identical(self, t, n):
        compared = 0
        for support, m in stability_matrices(t, n):
            for seed in (0, 3):
                res = incentive.payment_stability(m, 1000, 0.9, 20, seed)
                for chunk in (None, 7, 333):
                    point, lo, hi, ratio = gathered_payment_stability(m, 1000, 0.9, 20, seed,
                                                                      chunk)
                    assert same_bits(res.shares, point) and same_bits(res.lower, lo), support
                    assert same_bits(res.upper, hi) and same_bits(res.ci_to_share, ratio)
                    compared += 1
        assert compared >= 18

    @pytest.mark.parametrize("t,n", STABILITY_SHAPES)
    def test_chunks_equal_one_chunk(self, t, n, monkeypatch):
        # at the default budget 1,000 resamples of up to 131 stations are one chunk
        assert 1000 * n <= incentive._RESAMPLE_BUDGET
        kinds = set()
        for support, m in stability_matrices(t, n):
            one = incentive.payment_stability(m, 1000, 0.9, 20, seed=5)
            for budget in (1, 7 * n, 333 * n + 1):  # 1, 7 and 333 resamples a chunk
                monkeypatch.setattr(incentive, "_RESAMPLE_BUDGET", budget)
                res = incentive.payment_stability(m, 1000, 0.9, 20, seed=5)
                monkeypatch.undo()
                for field in ("shares", "lower", "upper", "ci_to_share"):
                    assert same_bits(getattr(res, field), getattr(one, field)), (support, field)
            kinds.add(support)
        assert len(kinds) >= 3  # -0.0 columns drop out of some shapes' draws

    def test_no_support_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            incentive.payment_stability(np.zeros((12, 5)), n_resamples=1000)

    def test_negative_scores_rejected(self, rng):
        m = rng.random((12, 5))
        m[:, 3] = -0.5
        with pytest.raises(ValueError, match="payment scores must be nonnegative"):
            incentive.payment_stability(m, n_resamples=1000)


def loop_shrinkage_folds(p, d, utilities, objective, k):
    """Per-fold lambdas from the per-lambda scoring loop the grid matrix replaced."""
    u_abs = np.abs(np.asarray(utilities, dtype=np.float64))
    truth = u_abs / u_abs.sum()

    def score(blend):
        if objective == "mse":
            return float(((blend - truth) ** 2).mean())
        return -math.fsum(u_abs[metrics.topk_indices(blend, min(k, blend.size))])

    per_fold = np.empty(p.shape[0])
    for t in range(p.shape[0]):
        losses = [score(lam * p[t] + (1 - lam) * d) for lam in incentive._LAMBDA_GRID]
        per_fold[t] = incentive._LAMBDA_GRID[int(np.argmin(losses))]
    return per_fold


class TestShrinkage:
    def _shares(self, rng, n=20):
        p = rng.random(n) + 0.05
        return p / p.sum()

    def test_perfect_distance_prior(self, rng):
        truth = self._shares(rng)
        proxy = np.stack([self._shares(rng) for _ in range(8)])
        fit = incentive.shrinkage_fit(proxy, truth, truth, objective="mse")
        assert fit.lam <= 0.05

    def test_perfect_proxy(self, rng):
        truth = self._shares(rng)
        proxy = np.tile(truth, (8, 1))
        dist = self._shares(rng)
        fit = incentive.shrinkage_fit(proxy, dist, truth, objective="mse")
        assert fit.lam >= 0.95

    def test_planted_mixture(self, rng):
        lams = []
        for _ in range(20):
            n = 40
            proxy_mean = self._shares(rng, n)
            dist = self._shares(rng, n)
            torig = 0.5 * proxy_mean + 0.5 * dist
            proxy = np.stack([np.abs(proxy_mean + rng.normal(size=n) * 0.004)
                              for _ in range(10)])
            proxy /= proxy.sum(axis=1, keepdims=True)
            truth = np.abs(torig + rng.normal(size=n) * 0.002)
            fit = incentive.shrinkage_fit(proxy, dist, truth, objective="mse")
            lams.append(fit.lam)
        assert 0.3 <= np.mean(lams) <= 0.7

    def test_captured_utility_objective(self, rng):
        truth = self._shares(rng, 30)
        proxy = np.stack([self._shares(rng, 30) for _ in range(6)])
        dist = self._shares(rng, 30)
        fit = incentive.shrinkage_fit(proxy, dist, truth, objective="captured_utility", k=5)
        assert 0.0 <= fit.lam <= 1.0
        assert fit.per_fold.shape == (6,)

    def test_captured_utility_tie_ignores_zero_positions(self, rng):
        # 12 of 40 stations hold all the utility and top every blend, so every
        # lambda's top-20 captures all of it: the losses tie exactly and the
        # first lambda wins, wherever the zero-utility stations sit
        n, live = 40, np.arange(0, 36, 3)
        dead = np.setdiff1d(np.arange(n), live)
        util = np.zeros(n)
        util[live] = rng.random(live.size) + 0.1
        proxy = np.zeros((6, n))
        proxy[:, live] = rng.random((6, live.size)) + 1.0
        proxy[:, dead] = rng.random((6, dead.size)) * 0.1
        dist = np.zeros(n)
        dist[live] = rng.random(live.size) + 1.0
        dist[dead] = rng.random(dead.size) * 0.1
        for _ in range(20):
            order = rng.permutation(dead)
            p, d = proxy.copy(), dist.copy()
            p[:, dead], d[dead] = proxy[:, order], dist[order]
            p, d = p / p.sum(axis=1, keepdims=True), d / d.sum()
            fit = incentive.shrinkage_fit(p, d, util, objective="captured_utility", k=20)
            assert np.all(fit.per_fold == 0.0)
            assert np.array_equal(
                fit.per_fold, loop_shrinkage_folds(p, d, util, "captured_utility", 20))
            assert fit.lam == 0.0

    def test_lambda_grid_matches_loop_oracle(self, rng):
        cases = []
        for n in (5, 20, 117):
            dist = self._shares(rng, n)
            truth = self._shares(rng, n)
            proxy = np.stack([self._shares(rng, n) for _ in range(8)])
            cases.append((proxy, dist, truth))
            tied = np.round(proxy * n) / n  # coarse shares: many tied blends
            cases.append((tied / tied.sum(axis=1, keepdims=True), dist, np.round(truth, 2)))
        for proxy, dist, util in cases:
            for objective, k in (("mse", 20), ("captured_utility", 20),
                                 ("captured_utility", 3)):
                fit = incentive.shrinkage_fit(proxy, dist, util, objective=objective, k=k)
                folds = loop_shrinkage_folds(proxy, dist, util, objective, k)
                assert np.array_equal(fit.per_fold, folds), (objective, k)
                assert fit.lam == float(folds.mean())

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            incentive.shrinkage_fit(np.full((4, 5), 0.2), np.full(5, 0.2), rng.random(5),
                                    objective="captured_utility", k=0)
        with pytest.raises(ValueError):
            incentive.shrinkage_fit(rng.random((2, 5)), np.full(5, 0.2), rng.random(5))
        with pytest.raises(ValueError):
            incentive.shrinkage_fit(np.full((4, 5), 0.2), np.full(5, 0.2),
                                    rng.random(5), objective="nope")


def _same_report(a, b) -> bool:
    """Field by field: floats and arrays bit for bit, the rest equal."""
    return all(same_bits(x, y) if isinstance(x, (float, np.ndarray)) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def _signed_utilities(rng, n):
    """|utility| with ties, +0.0 and -0.0 entries, and a positive total."""
    u = np.round(rng.normal(size=n) * rng.uniform(0.5, 3), 1)
    u[rng.random(n) < 0.3] = 0.0
    u[rng.random(n) < 0.3] = -0.0
    u[rng.integers(0, n)] = 1.5
    return u


class TestCaseFunctionsMatchPerCallOracles:
    """The case-at-a-time functions against the per-call bodies they replaced, bit for bit."""

    @pytest.mark.parametrize("n", [10, 23, 117])
    def test_select_case(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            util = _signed_utilities(rng, n)
            scores = {"ig": np.round(rng.random(n), 1),  # ties
                      "gti": np.ones(n),  # all tied: lower ids first
                      "vg": np.where(rng.random(n) < 0.5, -0.0, rng.random(n))}
            dist = np.round(rng.random(n) * 500, -1)  # ties, and stations on the target cell
            budgets = (1, 3, n - 1, n)  # k = N selects everything
            seeds = [int(s) for s in rng.integers(1 << 40, size=len(budgets))]
            got = incentive.select_case(util, budgets, scores=scores, distances_km=dist,
                                        seeds=seeds)
            want = [oracles.select(strategy, k, util, scores=scores.get(strategy),
                                   distances_km=dist, seed=seed)
                    for k, seed in zip(budgets, seeds) for strategy in incentive.STRATEGIES]
            assert len(got) == len(want) == len(budgets) * len(incentive.STRATEGIES)
            for g, w in zip(got, want):
                assert _same_report(g, w), (trial, w.strategy, w.k)

    @pytest.mark.parametrize("n", [10, 13, 37, 117])
    def test_calibrate_case(self, n):
        rng = np.random.default_rng(n)
        for trial in range(4):
            util = _signed_utilities(rng, n)
            proxies = np.stack([rng.random(n), np.round(rng.random(n), 1), np.ones(n),
                                np.where(rng.random(n) < 0.6, -0.0, rng.random(n) + 0.1),
                                np.abs(util) + 0.0])
            proxies[3, 0] = 1.0  # a positive total
            got = incentive.calibrate_case(proxies, util)
            assert len(got) == len(proxies)
            for row, rep in zip(proxies, got):
                assert _same_report(rep, oracles.decile_calibration(row, util)), trial

    @pytest.mark.parametrize("folds,n", [(3, 5), (3, 117), (8, 20), (60, 117)])
    def test_shrinkage_fits(self, folds, n):
        rng = np.random.default_rng(folds * 1000 + n)
        for trial in range(3):
            util = _signed_utilities(rng, n)
            raw = np.round(rng.random((folds, n)), 1) + 0.0  # tied shares
            raw[:, 0] += 0.05
            proxy = raw / raw.sum(axis=1, keepdims=True)
            dist = rng.random(n) + 0.01
            dist /= dist.sum()
            for k in (3, 20, n + 5):  # top_k = min(k, N)
                got = incentive.shrinkage_fits(proxy, dist, util, ("mse", "captured_utility"), k)
                for objective, fit in zip(("mse", "captured_utility"), got):
                    want = oracles.shrinkage_fit(proxy, dist, util, objective, k)
                    assert _same_report(fit, want), (trial, objective, k)
                single = incentive.shrinkage_fit(proxy, dist, util, "captured_utility", k)
                assert _same_report(single, got[1])

    def test_errors(self, rng):
        u = rng.random(12)
        with pytest.raises(ValueError, match="seed per budget"):
            incentive.select_case(u, (3, 5), ("uniform",), seeds=(1,))
        with pytest.raises(ValueError, match="must be one of"):
            incentive.select_case(u, (3,), ("ig", "nope"), scores={"ig": u})
        with pytest.raises(ValueError, match="proxies must be"):
            incentive.calibrate_case(u, u)
        with pytest.raises(ValueError, match="all-zero"):
            incentive.calibrate_case(np.stack([u, np.zeros(12)]), u)
        with pytest.raises(ValueError, match="objective"):
            incentive.shrinkage_fits(np.full((4, 5), 0.2), np.full(5, 0.2), u[:5], ("nope",))
