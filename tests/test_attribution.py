import tracemalloc

import numpy as np
import pytest

from gradsense import attribution as attr
from gradsense.grid import make_target
from gradsense.model import make_desk_model
from oracles import gradient_times_input, integrated_gradients_loop, vanilla_gradient


class CountingModel:
    """Wraps a model and counts gradient evaluations (batch rows included)."""

    def __init__(self, inner):
        self.inner = inner
        self.gradient_evals = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def gradient_values(self, values):
        self.gradient_evals += 1
        return self.inner.gradient_values(values)

    def gradient_many(self, batch):
        self.gradient_evals += batch.shape[0]
        return self.inner.gradient_many(batch)

    def value_and_gradient_window(self, window):
        self.gradient_evals += window.shape[0]
        return self.inner.value_and_gradient_window(window)


class TestIntegratedGradients:
    def test_linear_exact_any_steps(self, linear_model, desk_data):
        fields, clim = desk_data
        expected = (fields[0] - clim) * linear_model.weights
        for k in (1, 3, 50):
            ig = attr.integrated_gradients(linear_model, fields[0], clim, k)
            assert np.allclose(ig, expected, rtol=1e-12, atol=1e-15)

    def test_input_equals_baseline_zero_map(self, desk_model, desk_data):
        fields, _ = desk_data
        x = fields[0]
        ig = attr.integrated_gradients(desk_model, x, x, 8)
        assert np.all(ig == 0.0)

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1"])
    def test_completeness_on_desk_model(self, model_fixture, desk_data, request):
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        for f in fields[:3]:
            ig = attr.integrated_gradients(model, f, clim, 50)
            delta = model.forward_values(f) - model.forward_values(clim)
            assert abs(ig.sum() - delta) <= 1e-3 * abs(delta) + 1e-9

    def test_gradient_eval_count(self, desk_model, desk_data):
        fields, clim = desk_data
        counting = CountingModel(desk_model)
        attr.integrated_gradients(counting, fields[0], clim, 12)
        assert counting.gradient_evals == 13

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1"])
    def test_multi_path_matches_single_paths(self, model_fixture, desk_data, request):
        # one batch over every path gives each path's single-path map bit for bit; the
        # climatology paths share their alpha = 0 and 1 nodes, so 9 + 5 + 4 rows run
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        x = fields[3]
        paths = [(clim, 1), (clim, 8), (np.zeros_like(x), 4), (fields[2], 3)]
        counting = CountingModel(model)
        maps, grad_end = attr.integrated_gradients_paths(counting, x, paths)
        assert counting.gradient_evals == 9 + 5 + 4
        for (base, steps), values in zip(paths, maps):
            single = attr.integrated_gradients(model, x, base, steps)
            assert np.array_equal(values, single)
        end_node = clim + (x - clim)
        assert np.array_equal(grad_end, model.gradient_values(end_node))

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1", "linear_model"])
    def test_default_paths_evaluate_each_distinct_node_once(self, model_fixture, desk_data,
                                                            request):
        # the tables' paths at t >= 1: ig@1, ig@8 and ig@50 on the climatology, and 8 steps
        # from zero and from persistence.  ig@8 and ig@50 repeat ig@1's alpha 0 and 1, and
        # ig@50 repeats ig@8's alpha 1/2, so 75 of the 80 nodes are distinct
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        x = fields[5]
        paths = [(clim, 1), (clim, 8), (clim, 50), (np.zeros_like(x), 8), (fields[4], 8)]
        counting = CountingModel(model)
        maps, grad_end = attr.integrated_gradients_paths(counting, x, paths)
        assert counting.gradient_evals == 75
        for (base, steps), values in zip(paths, maps):
            assert np.array_equal(values, attr.integrated_gradients(model, x, base, steps))
        assert np.array_equal(grad_end, model.gradient_values(clim + (x - clim)))

    def test_invalid_steps(self, desk_model, desk_data):
        fields, clim = desk_data
        with pytest.raises(ValueError):
            attr.integrated_gradients(desk_model, fields[0], clim, 0)

    def test_shape_mismatch(self, desk_model, desk_data):
        fields, clim = desk_data
        with pytest.raises(ValueError):
            attr.integrated_gradients(desk_model, fields[0], clim[:, :-1, :], 4)

    def test_quadrature_error_shrinks_with_steps(self, desk_model, desk_data):
        fields, clim = desk_data
        ref = attr.integrated_gradients(desk_model, fields[0], clim, 200)
        diffs = []
        for k in (2, 4, 8, 16, 32):
            ig = attr.integrated_gradients(desk_model, fields[0], clim, k)
            diffs.append(np.abs(ig - ref).mean())
        assert all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))


class TestWindowQuadrature:
    """The trapezoid on the influence window, against a fixed-order loop, bit for bit.

    The oracle adds the window gradients node by node.  A BLAS tensordot over
    the same gradients sums in an order its kernel picks, and on the SkylakeX
    kernel it fails this check.
    """

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("where", ["interior", "corner"])
    def test_paths_match_fixed_order_loop(self, depth, where, desk_grid, desk_target,
                                          desk_data):
        # the golden run's corner target: the grid edge clips its influence window
        target = desk_target if where == "interior" else make_target(
            desk_grid, "corner", 35.5, -9.5, "t2m")
        model = make_desk_model(4, desk_grid, target, depth=depth)
        rows, _ = model.influence_window()
        clipped = rows.stop - rows.start < 2 * model.receptive_radius + 1
        assert clipped == (where == "corner")
        fields, clim = desk_data
        x = fields[5]
        paths = [(clim, 1), (clim, 8), (clim, 50), (np.zeros_like(x), 8), (fields[4], 8)]
        maps, grad_end = attr.integrated_gradients_paths(model, x, paths)
        for (base, steps), values in zip(paths, maps):
            expected, _ = integrated_gradients_loop(model, x, base, steps)
            assert np.array_equal(values, expected)
        _, expected_end = integrated_gradients_loop(model, x, clim, 1)
        assert np.array_equal(grad_end, expected_end)

    def test_traced_peak_below_one_full_grid_stack(self, desk_model_d1, desk_data):
        # a d1 ig@50 path needs 51 window rows of 6 x 5 x 5 cells; one zero-filled
        # (51, 6, 36, 50) full-grid stack alone would take 4.4 MB
        fields, clim = desk_data
        x = fields[5]
        attr.integrated_gradients(desk_model_d1, x, clim, 50)  # warm any lazy model state
        tracemalloc.start()
        try:
            attr.integrated_gradients(desk_model_d1, x, clim, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 51 * x.nbytes


class TestGtiVg:
    def test_gti_equals_ig_on_linear(self, linear_model, desk_data):
        fields, clim = desk_data
        gti = gradient_times_input(linear_model, fields[0], clim)
        ig = attr.integrated_gradients(linear_model, fields[0], clim, 1)
        assert np.allclose(gti, ig, rtol=1e-12, atol=1e-15)

    def test_gti_zero_at_baseline(self, desk_model, desk_data):
        fields, _ = desk_data
        gti = gradient_times_input(desk_model, fields[0], fields[0])
        assert np.all(gti == 0.0)

    def test_gti_is_single_node_quadrature_at_input(self, desk_model, desk_data):
        # right-endpoint one-node path rule, evaluated independently
        fields, clim = desk_data
        x = fields[0]
        gti = gradient_times_input(desk_model, x, clim)
        single = (x - clim) * desk_model.gradient_values(x)
        assert np.array_equal(gti, single)

    def test_gti_costs_one_gradient(self, desk_model, desk_data):
        fields, clim = desk_data
        counting = CountingModel(desk_model)
        gradient_times_input(counting, fields[0], clim)
        assert counting.gradient_evals == 1

    def test_vg_weight_field_on_linear(self, linear_model, desk_data):
        fields, _ = desk_data
        vg = vanilla_gradient(linear_model, fields[0])
        assert np.array_equal(vg, linear_model.weights)

    def test_vg_times_diff_equals_gti(self, desk_model, desk_data):
        fields, clim = desk_data
        vg = vanilla_gradient(desk_model, fields[0])
        gti = gradient_times_input(desk_model, fields[0], clim)
        assert np.array_equal(vg * (fields[0] - clim), gti)

    def test_vg_differs_across_inputs_on_desk(self, desk_model, desk_data):
        fields, _ = desk_data
        v0 = vanilla_gradient(desk_model, fields[0])
        v1 = vanilla_gradient(desk_model, fields[1])
        assert not np.array_equal(v0, v1)


class TestScaleInvariance:
    def test_linear_exact_algebra(self, linear_model, desk_data):
        fields, clim = desk_data
        x = fields[0]
        var, c = 1, 1000.0
        scaled_model = linear_model.with_rescaled_variable(var, c)
        xs = x.copy(); xs[var] *= c
        cs = clim.copy(); cs[var] *= c
        ig0 = attr.integrated_gradients(linear_model, x, clim, 4)
        ig1 = attr.integrated_gradients(scaled_model, xs, cs, 4)
        assert np.allclose(ig0, ig1, rtol=1e-12, atol=1e-15)
        gti0 = gradient_times_input(linear_model, x, clim)
        gti1 = gradient_times_input(scaled_model, xs, cs)
        assert np.allclose(gti0, gti1, rtol=1e-12, atol=1e-15)
        vg0 = vanilla_gradient(linear_model, x)
        vg1 = vanilla_gradient(scaled_model, xs)
        assert np.allclose(vg1[var] * c, vg0[var], rtol=1e-12)
        assert not np.allclose(vg0[var], vg1[var])


class TestBaselines:
    def test_persistence_returns_previous(self, desk_data):
        fields, _ = desk_data
        assert np.array_equal(attr.persistence_baseline(fields, 5), fields[4])

    def test_persistence_t0_error(self, desk_data):
        fields, _ = desk_data
        with pytest.raises(ValueError):
            attr.persistence_baseline(fields, 0)

    def test_identical_consecutive_fields_zero_map(self, desk_model, desk_data):
        fields, _ = desk_data
        seq = np.stack([fields[0], fields[0]])
        base = attr.persistence_baseline(seq, 1)
        ig = attr.integrated_gradients(desk_model, seq[1], base, 8)
        assert np.all(ig == 0.0)


class TestAggregation:
    def test_variable_importance_zero_map(self, desk_data, desk_model):
        fields, _ = desk_data
        ig = attr.integrated_gradients(desk_model, fields[0], fields[0], 2)
        assert np.all(attr.variable_importance(ig) == 0.0)

    def test_variable_importance_single_entry(self, small_grid):
        vals = np.zeros(small_grid.shape)
        vals[2, 3, 4] = -3.0
        imp = attr.variable_importance(vals)
        assert imp[2] == 3.0 and np.all(imp[[0, 1]] == 0.0)

    def test_variable_importance_brute_force(self, small_grid, rng):
        vals = rng.normal(size=small_grid.shape)
        naive = np.zeros(small_grid.n_variables)
        for v in range(small_grid.n_variables):
            for i in range(small_grid.n_lat):
                for j in range(small_grid.n_lon):
                    naive[v] += abs(vals[v, i, j])
        assert np.allclose(attr.variable_importance(vals), naive, rtol=1e-12)

    def test_spatial_importance_naive(self, small_grid, small_stations, rng):
        vals = rng.normal(size=small_grid.shape)
        s = attr.spatial_importance(vals, small_stations)
        for g in range(small_stations.n_stations):
            i, j = small_stations.cell(g)
            assert s[g] == pytest.approx(np.abs(vals[:, i, j]).sum(), rel=1e-12)

    def test_batched_reducers_match_per_map_loop(self, desk_data, desk_model, desk_model_d1,
                                                 desk_stations):
        # the tables reduce one timestamp's maps as a stack, the gaming campaign a period's
        # GTI maps; either equals reducing map by map, and the inline sums they replace
        fields, clim = desk_data
        li, lj = desk_stations.lat_idx, desk_stations.lon_idx
        for model in (desk_model, desk_model_d1):
            paths = [(clim, 8), (np.zeros(clim.shape), 8), (fields[2], 1)]
            ig, _ = attr.integrated_gradients_paths(model, fields[3], paths)
            stack = fields[:10]
            gti = (stack - clim[None]) * model.gradient_many(stack)
            for batch in (np.stack(ig), gti, gti.reshape((2, 5) + gti.shape[1:])):
                maps = batch.reshape((-1,) + batch.shape[-3:])
                var_imp = attr.variable_importance(batch).reshape(len(maps), -1)
                st_imp = attr.spatial_importance(batch, desk_stations).reshape(len(maps), -1)
                for m, v, s in zip(maps, var_imp, st_imp):
                    assert np.array_equal(v, attr.variable_importance(m))
                    assert np.array_equal(v, np.abs(m).sum(axis=(1, 2)))
                    assert np.array_equal(s, attr.spatial_importance(m, desk_stations))
                    assert np.array_equal(s, np.abs(m).sum(axis=0)[li, lj])
                assert np.array_equal(st_imp, np.abs(maps[:, :, li, lj]).sum(axis=1))
        with pytest.raises(ValueError, match="station grid"):
            attr.spatial_importance(gti[..., :-1], desk_stations)

    def test_spatial_importance_disjoint_support(self, small_grid, small_stations):
        vals = np.zeros(small_grid.shape)
        cells = set(zip(small_stations.lat_idx.tolist(), small_stations.lon_idx.tolist()))
        spot = next((i, j) for i in range(small_grid.n_lat)
                    for j in range(small_grid.n_lon) if (i, j) not in cells)
        vals[0, spot[0], spot[1]] = 5.0
        assert np.all(attr.spatial_importance(vals, small_stations) == 0.0)
