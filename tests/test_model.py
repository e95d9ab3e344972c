import numpy as np
import pytest

from gradsense.grid import GridSpec, make_target
from gradsense import synth
from gradsense import model as model_module
from gradsense.model import (_NOISE_STREAM, _TRUTH_STREAM, MAX_DEPTH, _conv, _valid_conv,
                             make_desk_model, make_truth)
from gradsense import ablation
from oracles import model_from_config


def naive_stencil_forward(model, values):
    """Independent full-grid reimplementation: nested-loop stencil + tanh."""
    v, h, w = values.shape
    x = (values - model.norm_mu[:, None, None]) / model.norm_sigma[:, None, None]
    r = model.stencil_radius
    cur = x
    for layer in model.layers:
        co = layer.shape[0]
        out = np.zeros((co, h, w))
        for c in range(co):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ci in range(layer.shape[1]):
                        for a in range(-r, r + 1):
                            for b in range(-r, r + 1):
                                ii, jj = i + a, j + b
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += layer[c, ci, a + r, b + r] * cur[ci, ii, jj]
                    out[c, i, j] = acc
        cur = np.tanh(out)
    return float(cur[:, model.target.lat_idx, model.target.lon_idx] @ model.readout)


def same_padding_chain(model, batch):
    """Predictions and full-grid gradients from a same-shape chain over the influence window.

    Every layer runs over the whole clipped window with zero padding, and the
    backward pass runs the same chain in reverse: the oracle for DeskModel's
    receptive-cone kernel, which computes each layer on its cone alone.
    """
    rows, cols = model.influence_window()
    ty, tx = model.target.lat_idx - rows.start, model.target.lon_idx - cols.start
    h = ((batch[:, :, rows, cols] - model.norm_mu[:, None, None])
         / model.norm_sigma[:, None, None])
    cache = []
    for w in model.layers:
        h = np.tanh(_conv(w, h))
        cache.append(h)
    preds = (h[:, :, ty, tx] * model.readout).sum(axis=1)
    g = np.zeros_like(h)
    g[:, :, ty, tx] = model.readout
    for li in range(model.depth - 1, -1, -1):
        gz = g * (1.0 - cache[li] ** 2)
        wt = model.layers[li].transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        g = _conv(np.ascontiguousarray(wt), gz)
    grads = np.zeros(batch.shape)
    grads[:, :, rows, cols] = g / model.norm_sigma[:, None, None]
    return preds, grads


@pytest.fixture(scope="module")
def tiny_setup():
    grid = GridSpec(8, 10, 40.0, 48.0, 0.0, 10.0, variables=("t2m", "u10m"))
    target = make_target(grid, "mid", 44.1, 5.2, "t2m")
    fields, clim = synth.synth_fields(5, grid, 4, n_clim_draws=30)
    return grid, target, fields, clim


class TestDeskModel:
    @pytest.mark.parametrize("depth", [0, 7, -1])
    def test_depth_out_of_range(self, tiny_setup, depth):
        grid, target, _, _ = tiny_setup
        with pytest.raises(ValueError):
            make_desk_model(1, grid, target, depth=depth)

    def test_matches_naive_full_grid_oracle(self, tiny_setup):
        grid, target, fields, _ = tiny_setup
        m = make_desk_model(3, grid, target, depth=2)
        for f in fields[:2]:
            assert m.forward_values(f) == pytest.approx(naive_stencil_forward(m, f),
                                                 rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2, 3, MAX_DEPTH])
    def test_cone_matches_same_padding_chain(self, small_grid, small_data, depth, radius):
        # targets in the interior, on each edge and in a corner, where the
        # cone's off-grid cells must act as the grid edge's zero padding
        fields, _ = small_data
        batch = fields[:3]
        n_lat, n_lon = small_grid.n_lat, small_grid.n_lon
        cells = {"interior": (6, 8), "south": (0, 8), "north": (n_lat - 1, 8),
                 "west": (6, 0), "east": (6, n_lon - 1), "corner": (n_lat - 1, 0)}
        for name, (i, j) in cells.items():
            target = make_target(small_grid, name, float(small_grid.lat_of(i)),
                                 float(small_grid.lon_of(j)), "t2m")
            assert (target.lat_idx, target.lon_idx) == (i, j)
            m = make_desk_model(5, small_grid, target, depth=depth, stencil_radius=radius)
            preds, grads = same_padding_chain(m, batch)
            cone_p, cone_g = m.forward_many(batch), m.gradient_many(batch)
            assert np.all(np.abs(cone_p - preds) <= 1e-12 * np.abs(preds)), name
            scale = np.abs(grads).max(axis=(1, 2, 3), keepdims=True)
            assert np.all(np.abs(cone_g - grads) <= 1e-12 * scale), name
            assert np.array_equal(cone_g == 0.0, grads == 0.0), name

    def test_determinism_and_seed_sensitivity(self, tiny_setup):
        grid, target, fields, _ = tiny_setup
        a = make_desk_model(1, grid, target, depth=3)
        b = make_desk_model(1, grid, target, depth=3)
        c = make_desk_model(2, grid, target, depth=3)
        x = fields[0]
        assert a.forward_values(x) == b.forward_values(x)
        assert a.forward_values(x) != c.forward_values(x)

    def test_forward_finite_and_pure(self, desk_model, desk_data):
        fields, _ = desk_data
        x = fields[0]
        before = x.copy()
        p1 = desk_model.forward_values(x)
        p2 = desk_model.forward_values(x)
        assert np.isfinite(p1) and p1 == p2
        assert np.array_equal(x, before)

    def test_shape_mismatch(self, desk_model, small_grid):
        bad = np.zeros(small_grid.shape)  # a field of another grid
        with pytest.raises(ValueError, match="shape mismatch"):
            desk_model.forward_values(bad)
        with pytest.raises(ValueError, match="shape mismatch"):
            desk_model.gradient_values(bad)

    def test_shape_validation(self, desk_model, small_grid):
        # a bare layer and a one-row batch both miss (V, n_lat, n_lon)
        shape = desk_model.grid.shape
        for bad in (np.zeros(shape[1:]), np.zeros((1,) + shape)):
            with pytest.raises(ValueError, match="shape mismatch"):
                desk_model.forward_values(bad)
            with pytest.raises(ValueError, match="shape mismatch"):
                desk_model.gradient_values(bad)
        # the batched entry points want (B,) + (V, n_lat, n_lon)
        for bad in (np.zeros(shape), np.zeros((1,) + small_grid.shape)):
            with pytest.raises(ValueError, match="expected"):
                desk_model.forward_many(bad)
            with pytest.raises(ValueError, match="expected"):
                desk_model.gradient_many(bad)

    def test_activation_scale_in_smooth_region(self, desk_grid, desk_target):
        m = make_desk_model(9, desk_grid, desk_target, depth=3)
        probe = synth.sample_fields(9 ^ 0x5EED, desk_grid, 8)
        h = (probe - m.norm_mu[None, :, None, None]) / m.norm_sigma[None, :, None, None]
        from gradsense.model import _conv
        for w in m.layers:
            z = _conv(w, h)
            assert 0.1 <= z.std() <= 2.0
            h = np.tanh(z)

    def test_gradient_finite_difference(self, desk_model, desk_data, rng):
        fields, _ = desk_data
        x = fields[0]
        g = desk_model.gradient_values(x)
        rw, cw = desk_model.influence_window()
        shape = desk_model.grid.shape
        for _ in range(40):
            if rng.random() < 0.6:  # bias toward informative in-window coords
                v = rng.integers(0, shape[0])
                i = rng.integers(rw.start, rw.stop)
                j = rng.integers(cw.start, cw.stop)
            else:
                v, i, j = (rng.integers(0, s) for s in shape)
            h = 1e-4 * (abs(x[v, i, j]) + 1.0)
            xp = x.copy(); xp[v, i, j] += h
            xm = x.copy(); xm[v, i, j] -= h
            fd = (desk_model.forward_values(xp) - desk_model.forward_values(xm)) / (2 * h)
            assert (abs(fd - g[v, i, j]) <= 1e-5 * abs(fd)) or abs(fd - g[v, i, j]) <= 1e-9

    def test_gradient_zero_outside_window(self, desk_model, desk_data):
        fields, _ = desk_data
        g = desk_model.gradient_values(fields[0])
        rw, cw = desk_model.influence_window()
        mask = np.ones_like(g, dtype=bool)
        mask[:, rw, cw] = False
        assert np.all(g[mask] == 0.0)

    def test_zero_readout_gives_zero_gradient(self, desk_model, desk_data):
        fields, _ = desk_data
        silent = desk_model._with_weights([w.copy() for w in desk_model.layers],
                                          np.zeros_like(desk_model.readout))
        assert np.all(silent.gradient_values(fields[0]) == 0.0)

    def test_batch_consistency(self, desk_model, desk_model_d1, desk_data):
        fields, _ = desk_data
        period = fields
        assert len(period) == 24
        for model in (desk_model, desk_model_d1):
            singles_p = [model.forward_values(x) for x in period]
            singles_g = [model.gradient_values(x) for x in period]
            for size in (1, 5, 8, 9, 24):  # _valid_conv copies several samples per block
                preds = model.forward_many(period[:size])
                grads = model.gradient_many(period[:size])
                for i in range(size):
                    assert preds[i] == singles_p[i], (model.model_id, size, i)
                    assert np.array_equal(grads[i], singles_g[i]), (model.model_id, size, i)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_window_entry_points_match_full_grid_calls(self, desk_grid, desk_data, depth):
        # the window stack's forward and one-pass value and gradient equal forward_many,
        # gradient_many and the B = 1 calls bit for bit; the corner target's window is clipped
        fields, _ = desk_data
        for lat, lon in ((47.4, 8.6), (35.5, -9.5)):
            m = make_desk_model(9, desk_grid, make_target(desk_grid, "t", lat, lon, "t2m"),
                                depth=depth)
            rows, cols = m.influence_window()
            singles_p = [m.forward_values(x) for x in fields[:17]]
            singles_g = [m.gradient_values(x) for x in fields[:17]]
            for size in (1, 3, 8, 17):
                batch = fields[:size]
                window = batch[:, :, rows, cols]
                preds = m.forward_window(window)
                values, grads = m.value_and_gradient_window(window)
                full = m.gradient_many(batch)
                assert np.array_equal(preds, m.forward_many(batch)), (lat, size)
                assert np.array_equal(values, preds), (lat, size)
                assert np.array_equal(grads, full[:, :, rows, cols]), (lat, size)
                off_window = full.copy()
                off_window[:, :, rows, cols] = 0.0
                assert not off_window.any()
                assert preds.tolist() == singles_p[:size], (lat, size)
                assert np.array_equal(full, np.stack(singles_g[:size])), (lat, size)
            with pytest.raises(ValueError):
                m.forward_window(fields[:2])
            with pytest.raises(ValueError):
                m.value_and_gradient_window(fields[:2, :, rows, cols][..., 1:])

    def test_im2col_block_budget_does_not_move_bits(self, desk_model, desk_data, monkeypatch,
                                                    rng):
        # one sample per block and the whole batch in one block give the same bits, in
        # _valid_conv and through the model's forward and backward passes
        fields, _ = desk_data
        w = rng.standard_normal((4, 6, 5, 5))
        hp = rng.standard_normal((11, 6, 17, 17))
        got = []
        for budget in (1, hp.size * 25):
            monkeypatch.setattr(model_module, "_IM2COL_BUDGET", budget)
            got.append((_valid_conv(w, hp), desk_model.forward_many(fields),
                        desk_model.gradient_many(fields)))
        for one_sample, one_block in zip(*got):
            assert np.array_equal(one_sample, one_block)

    def test_nonlinearity_detectable_at_depth_2(self, tiny_setup):
        grid, target, fields, _ = tiny_setup
        for depth in (2, 3):
            m = make_desk_model(6, grid, target, depth=depth)
            x, y = fields[0], fields[1]
            lhs = m.forward_values(x + y)
            rhs = m.forward_values(x) + m.forward_values(y)
            assert abs(lhs - rhs) > 1e-6 * max(1.0, abs(lhs))

    def test_config_roundtrip(self, desk_model, desk_grid, desk_data):
        fields, _ = desk_data
        clone = model_from_config(desk_grid, desk_model.to_config())
        assert clone.forward_values(fields[0]) == desk_model.forward_values(fields[0])
        assert np.array_equal(clone.gradient_values(fields[1]),
                              desk_model.gradient_values(fields[1]))

    def test_rescaled_variable_units(self, desk_model, desk_data):
        fields, _ = desk_data
        x = fields[0]
        scaled = desk_model.with_rescaled_variable(2, 1000.0)
        xs = x.copy()
        xs[2] *= 1000.0
        assert scaled.forward_values(xs) == pytest.approx(desk_model.forward_values(x),
                                                          rel=1e-12)
        g0 = desk_model.gradient_values(x)
        g1 = scaled.gradient_values(xs)
        assert np.allclose(g1[2] * 1000.0, g0[2], rtol=1e-9, atol=1e-18)


class TestLinearModel:
    def test_zero_field(self, linear_model, desk_grid):
        assert linear_model.forward_values(np.zeros(desk_grid.shape)) == 0.0

    def test_additivity(self, linear_model, desk_data):
        fields, _ = desk_data
        x, y = fields[0], fields[1]
        lhs = linear_model.forward_values(x + y)
        rhs = linear_model.forward_values(x) + linear_model.forward_values(y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gradient_is_weight_field(self, linear_model, desk_data):
        fields, _ = desk_data
        g1 = linear_model.gradient_values(fields[0])
        g2 = linear_model.gradient_values(fields[1])
        assert np.array_equal(g1, linear_model.weights)
        assert np.array_equal(g1, g2)

    def test_forward_dot_product_oracle(self, linear_model, desk_data):
        fields, clim = desk_data
        # direct elementwise dot-product oracle on the climatology input
        expected = float(np.sum(linear_model.weights * clim))
        assert linear_model.forward_values(clim) == pytest.approx(expected, rel=1e-12)

    def test_batch_consistency(self, linear_model, desk_data):
        fields, _ = desk_data
        period = fields
        for size in (1, 5, 24):
            preds = linear_model.forward_many(period[:size])
            grads = linear_model.gradient_many(period[:size])
            for i in range(size):
                assert preds[i] == linear_model.forward_values(period[i])
                assert np.array_equal(grads[i], linear_model.gradient_values(period[i]))

    def test_rescaled_units_gradient(self, linear_model):
        scaled = linear_model.with_rescaled_variable(1, 100.0)
        assert np.allclose(scaled.weights[1] * 100.0, linear_model.weights[1])


class TestTruth:
    def test_degenerate_truth(self, desk_model, desk_data, desk_stations):
        fields, clim = desk_data
        truth = make_truth(desk_model, 5, noise_std=0.0, weight_jitter=0.0)
        x = fields[0]
        assert truth.verify(x, 0) == desk_model.forward_values(x)
        u = ablation.global_ablation(desk_model, x, truth.verify(x, 0), clim)
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        s = ablation.spatial_utility(desk_model, x, 0, truth.verify(x, 0), desk_stations,
                                     spec, clim)
        # full-field forecast has zero error, so every ablation can only hurt
        assert np.all(u >= 0.0)
        assert np.all(s >= 0.0)

    def test_identical_sequence(self, desk_model, desk_data):
        fields, _ = desk_data
        t1 = make_truth(desk_model, 5, noise_std=0.5)
        t2 = make_truth(desk_model, 5, noise_std=0.5)
        assert ([t1.verify(x, t) for t, x in enumerate(fields[:4])]
                == [t2.verify(x, t) for t, x in enumerate(fields[:4])])

    def test_noise_stream_is_keyed_by_seed_and_timestamp(self, desk_model, desk_data):
        # the noise of timestamp t is one normal draw from (seed, _NOISE_STREAM, t),
        # whatever field it is added to
        fields, _ = desk_data
        seed, noise_std = 5, 0.5
        truth = make_truth(desk_model, seed, noise_std=noise_std)
        for t in (0, 3, 17):
            rng = np.random.default_rng(np.random.SeedSequence((seed, _NOISE_STREAM, t)))
            expected = truth.model.forward_values(fields[1]) + rng.normal(0.0, noise_std)
            assert truth.verify(fields[1], t) == expected

    def test_jitter_creates_error(self, desk_model, desk_data):
        fields, _ = desk_data
        truth = make_truth(desk_model, 5, noise_std=0.0, weight_jitter=0.05)
        errs = [abs(desk_model.forward_values(x) - truth.verify(x, t))
                for t, x in enumerate(fields)]
        assert np.mean(errs) > 0.0

    def test_jitter_draw_order(self, desk_model):
        # one sign draw per layer in order, then one for the readout, from the truth stream
        seed, jitter = 5, 0.05
        rng = np.random.default_rng(np.random.SeedSequence((seed, _TRUTH_STREAM)))
        expected = [w * (1.0 + jitter * (rng.integers(0, 2, size=w.shape) * 2 - 1))
                    for w in (*desk_model.layers, desk_model.readout)]
        truth = make_truth(desk_model, seed, weight_jitter=jitter).model
        got = [*truth.layers, truth.readout]
        assert len(got) == len(expected)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))
        assert np.array_equal(truth.norm_mu, desk_model.norm_mu)
        assert np.array_equal(truth.norm_sigma, desk_model.norm_sigma)

    def test_noise_requires_nonnegative(self, desk_model):
        with pytest.raises(ValueError):
            make_truth(desk_model, 5, noise_std=-1.0)
