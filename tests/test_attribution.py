import numpy as np
import pytest

from gradsense import attribution as attr
from gradsense.grid import FieldTensor


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


class TestIntegratedGradients:
    def test_linear_exact_any_steps(self, linear_model, desk_data):
        fields, clim = desk_data
        expected = (fields[0].values - clim.values) * linear_model.weights
        for k in (1, 3, 50):
            ig = attr.integrated_gradients(linear_model, fields[0], clim.values, k)
            assert np.allclose(ig.values, expected, rtol=1e-12, atol=1e-15)

    def test_input_equals_baseline_zero_map(self, desk_model, desk_data):
        fields, _ = desk_data
        x = fields[0]
        ig = attr.integrated_gradients(desk_model, x, x.values, 8)
        assert np.all(ig.values == 0.0)

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1"])
    def test_completeness_on_desk_model(self, model_fixture, desk_data, request):
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        for f in fields[:3]:
            ig = attr.integrated_gradients(model, f, clim.values, 50)
            delta = model.forward(f) - model.forward_values(clim.values)
            assert abs(ig.values.sum() - delta) <= 1e-3 * abs(delta) + 1e-9

    def test_gradient_eval_count(self, desk_model, desk_data):
        fields, clim = desk_data
        counting = CountingModel(desk_model)
        ig = attr.integrated_gradients(counting, fields[0], clim.values, 12)
        assert counting.gradient_evals == 13
        assert ig.n_gradient_evals == 13

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1"])
    def test_multi_path_matches_single_paths(self, model_fixture, desk_data, request):
        # one batch over every path gives each path's single-path map bit for bit
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        x = fields[3]
        paths = [(clim.values, 1), (clim.values, 8), (np.zeros_like(x.values), 4),
                 (fields[2].values, 3)]
        counting = CountingModel(model)
        maps, grad_end = attr.integrated_gradients_paths(counting, x.values, paths)
        assert counting.gradient_evals == 2 + 9 + 5 + 4
        for (base, steps), values in zip(paths, maps):
            single = attr.integrated_gradients(model, x, base, steps)
            assert np.array_equal(values, single.values)
        end_node = clim.values + (x.values - clim.values)
        assert np.array_equal(grad_end, model.gradient_values(end_node))

    def test_invalid_steps(self, desk_model, desk_data):
        fields, clim = desk_data
        with pytest.raises(ValueError):
            attr.integrated_gradients(desk_model, fields[0], clim.values, 0)

    def test_shape_mismatch(self, desk_model, desk_data):
        fields, clim = desk_data
        with pytest.raises(ValueError):
            attr.integrated_gradients(desk_model, fields[0], clim.values[:, :-1, :], 4)

    def test_quadrature_error_shrinks_with_steps(self, desk_model, desk_data):
        fields, clim = desk_data
        ref = attr.integrated_gradients(desk_model, fields[0], clim.values, 200).values
        diffs = []
        for k in (2, 4, 8, 16, 32):
            ig = attr.integrated_gradients(desk_model, fields[0], clim.values, k).values
            diffs.append(np.abs(ig - ref).mean())
        assert all(diffs[i + 1] <= diffs[i] for i in range(len(diffs) - 1))


class TestGtiVg:
    def test_gti_equals_ig_on_linear(self, linear_model, desk_data):
        fields, clim = desk_data
        gti = attr.gradient_times_input(linear_model, fields[0], clim.values)
        ig = attr.integrated_gradients(linear_model, fields[0], clim.values, 1)
        assert np.allclose(gti.values, ig.values, rtol=1e-12, atol=1e-15)

    def test_gti_zero_at_baseline(self, desk_model, desk_data):
        fields, _ = desk_data
        gti = attr.gradient_times_input(desk_model, fields[0], fields[0].values)
        assert np.all(gti.values == 0.0)

    def test_gti_is_single_node_quadrature_at_input(self, desk_model, desk_data):
        # right-endpoint one-node path rule, evaluated independently
        fields, clim = desk_data
        x = fields[0]
        gti = attr.gradient_times_input(desk_model, x, clim.values)
        single = (x.values - clim.values) * desk_model.gradient_values(x.values)
        assert np.array_equal(gti.values, single)

    def test_gti_costs_one_gradient(self, desk_model, desk_data):
        fields, clim = desk_data
        counting = CountingModel(desk_model)
        attr.gradient_times_input(counting, fields[0], clim.values)
        assert counting.gradient_evals == 1

    def test_vg_weight_field_on_linear(self, linear_model, desk_data):
        fields, _ = desk_data
        vg = attr.vanilla_gradient(linear_model, fields[0])
        assert np.array_equal(vg.values, linear_model.weights)

    def test_vg_times_diff_equals_gti(self, desk_model, desk_data):
        fields, clim = desk_data
        vg = attr.vanilla_gradient(desk_model, fields[0])
        gti = attr.gradient_times_input(desk_model, fields[0], clim.values)
        assert np.array_equal(vg.values * (fields[0].values - clim.values), gti.values)

    def test_vg_differs_across_inputs_on_desk(self, desk_model, desk_data):
        fields, _ = desk_data
        v0 = attr.vanilla_gradient(desk_model, fields[0]).values
        v1 = attr.vanilla_gradient(desk_model, fields[1]).values
        assert not np.array_equal(v0, v1)


class TestScaleInvariance:
    def test_linear_exact_algebra(self, linear_model, desk_data):
        fields, clim = desk_data
        x = fields[0]
        var, c = 1, 1000.0
        scaled_model = linear_model.with_rescaled_variable(var, c)
        xs = x.values.copy(); xs[var] *= c
        cs = clim.values.copy(); cs[var] *= c
        xf = FieldTensor(grid=x.grid, values=xs, timestamp=x.timestamp)
        ig0 = attr.integrated_gradients(linear_model, x, clim.values, 4).values
        ig1 = attr.integrated_gradients(scaled_model, xf, cs, 4).values
        assert np.allclose(ig0, ig1, rtol=1e-12, atol=1e-15)
        gti0 = attr.gradient_times_input(linear_model, x, clim.values).values
        gti1 = attr.gradient_times_input(scaled_model, xf, cs).values
        assert np.allclose(gti0, gti1, rtol=1e-12, atol=1e-15)
        vg0 = attr.vanilla_gradient(linear_model, x).values
        vg1 = attr.vanilla_gradient(scaled_model, xf).values
        assert np.allclose(vg1[var] * c, vg0[var], rtol=1e-12)
        assert not np.allclose(vg0[var], vg1[var])


class TestBaselines:
    def test_persistence_returns_previous(self, desk_data):
        fields, _ = desk_data
        assert np.array_equal(attr.persistence_baseline(fields, 5), fields[4].values)

    def test_persistence_t0_error(self, desk_data):
        fields, _ = desk_data
        with pytest.raises(ValueError):
            attr.persistence_baseline(fields, 0)

    def test_identical_consecutive_fields_zero_map(self, desk_model, desk_data):
        fields, _ = desk_data
        dup = FieldTensor(grid=fields[0].grid, values=fields[0].values, timestamp=1)
        seq = [fields[0], dup]
        base = attr.persistence_baseline(seq, 1)
        ig = attr.integrated_gradients(desk_model, dup, base, 8, baseline_name="persistence")
        assert np.all(ig.values == 0.0)


class TestAggregation:
    def test_variable_importance_zero_map(self, desk_data, desk_model):
        fields, _ = desk_data
        amap = attr.integrated_gradients(desk_model, fields[0], fields[0].values, 2)
        assert np.all(attr.variable_importance(amap) == 0.0)

    def test_variable_importance_single_entry(self, small_grid):
        vals = np.zeros(small_grid.shape)
        vals[2, 3, 4] = -3.0
        amap = attr.AttributionMap(values=vals, method="vg", baseline="none", steps=1,
                                   timestamp=0, model_id="m", n_gradient_evals=1)
        imp = attr.variable_importance(amap)
        assert imp[2] == 3.0 and np.all(imp[[0, 1]] == 0.0)

    def test_variable_importance_brute_force(self, small_grid, rng):
        vals = rng.normal(size=small_grid.shape)
        amap = attr.AttributionMap(values=vals, method="vg", baseline="none", steps=1,
                                   timestamp=0, model_id="m", n_gradient_evals=1)
        naive = np.zeros(small_grid.n_variables)
        for v in range(small_grid.n_variables):
            for i in range(small_grid.n_lat):
                for j in range(small_grid.n_lon):
                    naive[v] += abs(vals[v, i, j])
        assert np.allclose(attr.variable_importance(amap), naive, rtol=1e-12)

    def test_spatial_importance_naive(self, small_grid, small_stations, rng):
        vals = rng.normal(size=small_grid.shape)
        amap = attr.AttributionMap(values=vals, method="vg", baseline="none", steps=1,
                                   timestamp=0, model_id="m", n_gradient_evals=1)
        s = attr.spatial_importance(amap, small_stations)
        for g in range(small_stations.n_stations):
            i, j = small_stations.cell(g)
            assert s[g] == pytest.approx(np.abs(vals[:, i, j]).sum(), rel=1e-12)

    def test_spatial_importance_disjoint_support(self, small_grid, small_stations):
        vals = np.zeros(small_grid.shape)
        cells = set(zip(small_stations.lat_idx.tolist(), small_stations.lon_idx.tolist()))
        spot = next((i, j) for i in range(small_grid.n_lat)
                    for j in range(small_grid.n_lon) if (i, j) not in cells)
        vals[0, spot[0], spot[1]] = 5.0
        amap = attr.AttributionMap(values=vals, method="vg", baseline="none", steps=1,
                                   timestamp=0, model_id="m", n_gradient_evals=1)
        assert np.all(attr.spatial_importance(amap, small_stations) == 0.0)
