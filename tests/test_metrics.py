import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from gradsense import metrics


def brute_average_ranks(x):
    x = np.asarray(x, dtype=float)
    ranks = np.empty(x.size)
    for i, xi in enumerate(x):
        less = np.sum(x < xi)
        equal = np.sum(x == xi)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def loop_average_ranks(x):
    """The per-element tie-group loop `average_ranks` used to run."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def loop_spearman(a, b):
    """`spearman` on loop ranks, with its t statistic fed through `t_lower_tail` one at a time."""
    ra, rb = loop_average_ranks(a), loop_average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    rho = float(np.clip((ra @ rb) / math.sqrt(float(ra @ ra) * float(rb @ rb)), -1.0, 1.0))
    p = 0.0
    if abs(rho) != 1.0:
        t = rho * math.sqrt((a.size - 2) / (1.0 - rho * rho))
        p = float(2.0 * metrics.t_lower_tail(a.size - 2, np.array([-abs(t)]))[0])
    return metrics.RankCorrelation(rho=rho, n=a.size, p_value=p)


def accumulate_average_ranks_matrix(x):
    """The running-max/min group-bound version `average_ranks_matrix` replaced."""
    order = np.argsort(x, axis=1, kind="stable")
    sx = np.take_along_axis(x, order, axis=1)
    rows, n = x.shape
    col = np.arange(n)
    new_group = np.ones((rows, n), dtype=bool)
    new_group[:, 1:] = sx[:, 1:] != sx[:, :-1]
    start = np.maximum.accumulate(np.where(new_group, col, 0), axis=1)
    is_end = np.ones((rows, n), dtype=bool)
    is_end[:, :-1] = new_group[:, 1:]
    end = np.minimum.accumulate(np.where(is_end, col, n)[:, ::-1], axis=1)[:, ::-1]
    avg_sorted = 0.5 * (start + end) + 1.0
    ranks = np.empty_like(avg_sorted)
    np.put_along_axis(ranks, order, avg_sorted, axis=1)
    return ranks


class TestAverageRanks:
    def test_matrix_matches_accumulate_oracle(self, rng):
        for shape in ((1, 1), (1, 117), (2, 9), (300, 40)):
            for x in (rng.normal(size=shape), rng.integers(0, 3, size=shape) * 1.0):
                assert np.array_equal(metrics.average_ranks_matrix(x),
                                      accumulate_average_ranks_matrix(x))
        x = rng.choice([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf], size=(50, 30))
        assert np.array_equal(metrics.average_ranks_matrix(x),
                              accumulate_average_ranks_matrix(x))

    def test_matches_loop_oracle(self, rng):
        for size in (1, 2, 7, 117, 500):
            for x in (rng.normal(size=size), rng.integers(0, 4, size=size) * 1.0):
                assert np.array_equal(metrics.average_ranks(x), loop_average_ranks(x))
        special = np.array([0.0, -0.0, np.nan, 1.0, np.inf, np.nan, -np.inf, 1.0, 0.0])
        assert np.array_equal(metrics.average_ranks(special), loop_average_ranks(special))

    def test_matches_brute_force(self, rng):
        x = rng.integers(0, 5, size=60).astype(float)
        assert np.array_equal(metrics.average_ranks(x), brute_average_ranks(x))


class TestSpearman:
    def test_identical(self, rng):
        a = rng.permutation(20).astype(float)
        assert metrics.spearman(a, a).rho == pytest.approx(1.0)

    def test_reversed(self, rng):
        a = np.sort(rng.normal(size=15))
        assert metrics.spearman(a, a[::-1]).rho == pytest.approx(-1.0)

    def test_ties_match_brute_force_ranking(self, rng):
        for _ in range(30):
            a = rng.integers(0, 4, size=12).astype(float)
            b = rng.integers(0, 4, size=12).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            ra, rb = brute_average_ranks(a), brute_average_ranks(b)
            expected = np.corrcoef(ra, rb)[0, 1]
            assert metrics.spearman(a, b).rho == pytest.approx(expected, abs=1e-12)

    def test_against_scipy(self, rng):
        for _ in range(25):
            a = rng.normal(size=rng.integers(5, 30))
            b = rng.normal(size=a.size)
            ours = metrics.spearman(a, b)
            ref_rho, ref_p = sps.spearmanr(a, b)
            assert ours.rho == pytest.approx(ref_rho, abs=1e-12)
            assert ours.p_value == pytest.approx(ref_p, abs=1e-9)

    def test_matches_loop_oracle_through_t_tail(self, rng):
        for i in range(300):
            n = int(rng.integers(3, 150))
            a = rng.normal(size=n) if i % 2 else rng.integers(0, 5, size=n) * 1.0
            b = a * rng.uniform(-1, 1) + rng.normal(size=n)
            if np.all(a == a[0]):
                continue
            assert metrics.spearman(a, b) == loop_spearman(a, b)

    def test_constant_flagged(self):
        rc = metrics.spearman(np.ones(5), np.arange(5.0))
        assert rc.undefined and math.isnan(rc.rho)

    def test_symmetry_and_monotone_invariance(self, rng):
        a = rng.normal(size=14)
        b = rng.normal(size=14)
        assert metrics.spearman(a, b).rho == metrics.spearman(b, a).rho
        assert metrics.spearman(np.exp(a), b).rho == pytest.approx(
            metrics.spearman(a, b).rho, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            metrics.spearman([1, 2], [3, 4])
        with pytest.raises(ValueError):
            metrics.spearman([1, 2, 3], [1, 2])


def _row_matrices(rng):
    """(a, b) matrix pairs: random, tied, signed zeros, NaN and inf, and n = 3."""
    special = [0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]
    out = []
    for rows, n in ((1, 3), (40, 3), (25, 17), (60, 150)):
        out.append((rng.normal(size=(rows, n)), rng.normal(size=(rows, n))))
        out.append((rng.integers(0, 3, size=(rows, n)) * 1.0,
                    rng.integers(0, 4, size=(rows, n)) * 1.0))
        out.append((rng.choice(special, size=(rows, n)), rng.choice(special, size=(rows, n))))
    a = rng.normal(size=(30, 12))
    b = a * rng.uniform(-1, 1, size=(30, 1)) + rng.normal(size=(30, 12))
    a[:4] = 2.5  # constant importance rows
    b[4:6] = -0.0  # constant utility rows
    b[6:8] = a[6:8] * 3.0  # rho = 1, p = 0
    b[8] = -a[8]  # rho = -1
    out.append((a, b))
    return out


class TestSpearmanRows:
    def test_rows_match_loop_oracle(self, rng):
        for a, b in _row_matrices(rng):
            rho = metrics.spearman_rho(a, b)
            p = metrics.spearman_p(rho, a.shape[1])
            assert rho.shape == p.shape == (a.shape[0],)
            for i in range(a.shape[0]):
                if np.all(a[i] == a[i, 0]) or np.all(b[i] == b[i, 0]):
                    assert math.isnan(rho[i]) and math.isnan(p[i])
                    continue
                ref = loop_spearman(a[i], b[i])
                assert rho[i] == ref.rho and p[i] == ref.p_value, (a[i], b[i])
                assert metrics.spearman(a[i], b[i]) == ref

    def test_constant_rows_undefined(self):
        a = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, -0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]])
        b = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], [np.inf] * 4])
        rho = metrics.spearman_rho(a, b)
        assert np.isnan(rho).all() and np.isnan(metrics.spearman_p(rho, a.shape[1])).all()
        rc = metrics.spearman(a[0], b[0])
        assert rc.undefined and math.isnan(rc.rho) and math.isnan(rc.p_value)

    def test_shape_errors(self):
        for a, b in ((np.ones((2, 5)), np.ones((3, 5))), (np.ones(5), np.ones(5)),
                     (np.ones((2, 2)), np.ones((2, 2))), (np.ones((1, 2, 3)), np.ones((1, 2, 3)))):
            with pytest.raises(ValueError):
                metrics.spearman_rho(a, b)

    def test_indexed_pairs_match_row_pairs(self, rng):
        # each row ranked once and paired many times gives the rhos of the gathered pairs,
        # and spearman_p of any subset gives those rows' p-values
        for a, b in _row_matrices(rng):
            x = np.concatenate([a, b])
            rows = a.shape[0]
            ia = rng.integers(0, 2 * rows, size=3 * rows)
            ib = rng.integers(0, 2 * rows, size=3 * rows)
            want = metrics.spearman_rho(x[ia], x[ib])
            got = metrics.spearman_indexed(x, ia, ib)
            assert np.array_equal(got, want, equal_nan=True)
            rho = metrics.spearman_rho(a, b)
            p = metrics.spearman_p(rho, a.shape[1])
            pairs = metrics.spearman_indexed(x, np.arange(rows), rows + np.arange(rows))
            assert np.array_equal(pairs, rho, equal_nan=True)
            pick = rng.permutation(rows)[:max(1, rows // 2)]
            assert np.array_equal(metrics.spearman_p(rho[pick], a.shape[1]), p[pick],
                                  equal_nan=True)
        with pytest.raises(ValueError):
            metrics.spearman_indexed(np.ones((3, 2)), [0], [1])

    def test_rank_rho_sums_are_exact(self, rng):
        # centred average ranks are multiples of 1/2, so every summation order agrees
        for n in (3, 4, 17, 150, 400):
            for x in (rng.normal(size=(80, n)), rng.integers(0, 3, size=(80, n)) * 1.0):
                ranks = metrics.average_ranks_matrix(np.concatenate([x, rng.permuted(x, axis=1)]))
                ra, rb = ranks[:80], ranks[80:]
                ra -= ra.mean(axis=1, keepdims=True)
                rb -= rb.mean(axis=1, keepdims=True)
                assert np.all(ra * 2.0 == np.round(ra * 2.0))
                summed = (ra * rb).sum(axis=1)
                assert np.array_equal(summed, np.array([r @ s for r, s in zip(ra, rb)]))
                if hasattr(np, "vecdot"):
                    assert np.array_equal(summed, np.vecdot(ra, rb))


class TestTLowerTail:
    # |t| from 0 through 1e8, with the split between the two series in A&S's form
    T = -np.r_[0.0, np.logspace(-8, 8, 321), np.nextafter(2.0, 0.0), 2.0]

    def test_against_scipy_stdtr(self):
        from scipy.special import stdtr
        for nu in (*range(2, 401), 1000):
            ours, ref = metrics.t_lower_tail(nu, self.T), stdtr(nu, self.T)
            normal = ref >= 1e-300
            assert np.all(np.abs(ours[normal] / ref[normal] - 1) <= 1e-12), nu
            assert np.all(ours[~normal] <= 1e-290) and np.all(ref[~normal] <= 1e-290), nu

    def test_cauchy_closed_form(self):
        # nu = 1: 0.5 - atan(|t|) / pi, written atan2(1, |t|) / pi to stay exact for large |t|
        ours = metrics.t_lower_tail(1, self.T)
        exact = np.arctan2(1.0, -self.T) / np.pi
        assert np.all(np.abs(ours / exact - 1) <= 1e-14)
        assert metrics.t_lower_tail(1, np.array([-1e-8]))[0] == pytest.approx(
            0.49999999681690116, rel=1e-15)

    def test_edges(self):
        for nu in (1, 2, 3, 4, 115, 1000):
            out = metrics.t_lower_tail(nu, np.array([0.0, -0.0, -np.inf, np.nan]))
            assert out[0] == out[1] == 0.5 and out[2] == 0.0 and math.isnan(out[3])
        for nu, t in ((0, [-1.0]), (2.0, [-1.0]), (3, [1.0]), (3, [[-1.0]])):
            with pytest.raises(ValueError):
                metrics.t_lower_tail(nu, np.array(t))

    def test_value_does_not_depend_on_its_neighbours(self, rng):
        for nu in (1, 4, 115, 116, 1000):
            t = -np.abs(rng.standard_t(3, size=200)) * rng.choice([0.1, 1.0, 10.0], size=200)
            t[::17] = -np.inf
            t[::23] = np.nan
            one_by_one = [metrics.t_lower_tail(nu, t[i:i + 1])[0] for i in range(t.size)]
            assert np.array_equal(metrics.t_lower_tail(nu, t), one_by_one, equal_nan=True)


class TestTopK:
    def test_identical(self, rng):
        a = rng.normal(size=10)
        assert metrics.topk_overlap(a, a, 3) == 1.0

    def test_disjoint(self):
        a = np.array([9, 8, 0, 0, 0, 0.0])
        b = np.array([0, 0, 0, 0, 9, 8.0])
        assert metrics.topk_overlap(a, b, 2) == 0.0

    def test_brute_force(self, rng):
        for _ in range(50):
            n = rng.integers(4, 15)
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            k = int(rng.integers(1, n + 1))

            def brute_top(v):
                order = sorted(range(n), key=lambda i: (-v[i], i))
                return set(order[:k])

            expected = len(brute_top(a) & brute_top(b)) / k
            assert metrics.topk_overlap(a, b, k) == expected

    def test_tie_break_lower_index(self):
        assert metrics.topk_indices(np.array([1.0, 1.0, 1.0]), 2).tolist() == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            metrics.topk_overlap([1.0, 2.0], [1.0, 2.0], 3)


class TestWilcoxon:
    def test_all_positive_exact(self):
        assert metrics.wilcoxon_signed_rank(np.ones(10)) == pytest.approx(1 / 1024)

    def test_symmetric_null(self):
        d = np.array([1.0, -1.5, 2.0, -2.5, 3.0, -3.5, 0.5, -0.25])
        assert 0.2 < metrics.wilcoxon_signed_rank(d) < 0.8

    def test_shifted_sample_significant(self, rng):
        d = rng.normal(1.0, 1.0, size=20)
        assert metrics.wilcoxon_signed_rank(d) < 0.01

    def test_exact_brute_force(self, rng):
        # independent enumeration over every sign assignment
        for _ in range(20):
            d = rng.normal(size=int(rng.integers(6, 11)))
            ranks = brute_average_ranks(np.abs(d))
            t_obs = ranks[d > 0].sum()
            count = 0
            n = d.size
            for signs in itertools.product([0, 1], repeat=n):
                if sum(r for s, r in zip(signs, ranks) if s) >= t_obs - 1e-12:
                    count += 1
            assert metrics.wilcoxon_signed_rank(d) == pytest.approx(count / 2 ** n)

    def test_exact_against_scipy(self, rng):
        for _ in range(20):
            d = rng.normal(size=10)
            ref = sps.wilcoxon(d, alternative="greater", method="exact").pvalue
            assert metrics.wilcoxon_signed_rank(d) == pytest.approx(ref, abs=1e-12)

    def test_approx_against_scipy(self, rng):
        for _ in range(20):
            d = rng.normal(0.3, 1.0, size=40)
            ref = sps.wilcoxon(d, alternative="greater", method="approx",
                               correction=False).pvalue
            assert metrics.wilcoxon_signed_rank(d) == pytest.approx(ref, abs=1e-10)

    def test_zero_removal_and_min_n(self):
        with pytest.raises(ValueError):
            metrics.wilcoxon_signed_rank([0.0, 0.0, 1.0, -1.0, 2.0, 3.0, 4.0])


class TestBhFdr:
    def test_all_zero(self):
        assert metrics.bh_fdr(np.zeros(5)).all()

    def test_all_one(self):
        assert not metrics.bh_fdr(np.ones(5)).any()

    def test_hand_worked_example(self):
        mask = metrics.bh_fdr([0.01, 0.02, 0.30, 0.04], q=0.05)
        assert mask.tolist() == [True, True, False, False]

    def test_brute_force(self, rng):
        for _ in range(50):
            p = rng.random(size=int(rng.integers(1, 12)))
            q = 0.1
            m = p.size
            order = np.argsort(p, kind="stable")
            cutoff = 0
            for rank, idx in enumerate(order, start=1):
                if p[idx] <= rank * q / m:
                    cutoff = rank
            expected = np.zeros(m, dtype=bool)
            expected[order[:cutoff]] = True
            assert np.array_equal(metrics.bh_fdr(p, q), expected)

    def test_invalid(self):
        with pytest.raises(ValueError):
            metrics.bh_fdr([0.5, 1.5])


class TestGini:
    def test_uniform(self):
        assert metrics.gini(np.full(8, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot(self):
        for n in (2, 5, 117):
            v = np.zeros(n)
            v[n // 2] = 7.0
            assert metrics.gini(v) == pytest.approx((n - 1) / n, abs=1e-12)

    def test_pairwise_oracle(self, rng):
        for _ in range(30):
            v = rng.random(size=int(rng.integers(2, 40)))
            n = v.size
            expected = sum(abs(a - b) for a in v for b in v) / (2 * n * n * v.mean())
            assert metrics.gini(v) == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self, rng):
        v = rng.random(12)
        assert metrics.gini(3.7 * v) == pytest.approx(metrics.gini(v), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            metrics.gini([-1.0, 2.0])
        with pytest.raises(ValueError):
            metrics.gini([0.0, 0.0])


def brute_pr_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels.sum()
    pts = []
    for thr in sorted(set(scores), reverse=True):
        sel = scores >= thr
        tp = int(np.sum(labels[sel]))
        pts.append((tp / pos, tp / sel.sum()))
    area, (r0, p0) = 0.0, (0.0, pts[0][1])
    for r, p in pts:
        area += (r - r0) * (p + p0) / 2.0
        r0, p0 = r, p
    return area


class TestPrAuc:
    def test_perfect(self):
        assert metrics.pr_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_hand_worked_example(self):
        assert metrics.pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(19 / 24)

    def test_brute_force(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 25))
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert metrics.pr_auc(scores, labels) == pytest.approx(
                brute_pr_auc(scores, labels), abs=1e-12)

    def test_chance_level(self, rng):
        aucs = []
        prevalence = 0.3
        for _ in range(200):
            labels = (rng.random(60) < prevalence).astype(int)
            if labels.sum() in (0, 60):
                continue
            aucs.append(metrics.pr_auc(rng.normal(size=60), labels))
        assert np.mean(aucs) == pytest.approx(prevalence, abs=0.05)

    def test_monotone_transform_invariance(self, rng):
        s = rng.normal(size=30)
        y = rng.integers(0, 2, size=30)
        if y.sum() in (0, 30):
            y[0], y[1] = 0, 1
        assert metrics.pr_auc(np.exp(s), y) == pytest.approx(metrics.pr_auc(s, y),
                                                             abs=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(ValueError):
            metrics.pr_auc([1.0, 2.0], [1, 1])
