import numpy as np
import pytest

from gradsense import ablation, synth
from gradsense.metrics import spearman
from gradsense.grid import make_target
from gradsense.model import make_desk_model, make_truth
from oracles import apply_mode, perturb_patch


@pytest.fixture(scope="module")
def corner_model(desk_grid):
    """A depth-3 model whose target sits in the grid's south-west corner cell."""
    return make_desk_model(8, desk_grid, make_target(desk_grid, "corner", 35.5, -9.5, "t2m"))


@pytest.fixture(scope="module")
def var_std(desk_data):
    fields, _ = desk_data
    return synth.field_std(fields)


class TestPerturbationSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ablation.PerturbationSpec(mode="nope")
        with pytest.raises(ValueError):
            ablation.PerturbationSpec(patch=2)
        with pytest.raises(ValueError):
            ablation.PerturbationSpec(mode="scale_bias", magnitude=-0.1)
        # identity magnitude is allowed for null-perturbation checks
        ablation.PerturbationSpec(mode="scale_bias", magnitude=0.0)


class TestPerturbPatch:
    def test_mean_replace_identity_on_climatology(self, desk_data, desk_stations):
        _, clim = desk_data
        x = clim
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=3)
        out = perturb_patch(x, 0, desk_stations, 40, spec, clim)
        assert np.array_equal(out, x)

    def test_scale_bias_zero_magnitude_identity(self, desk_data, desk_stations):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="scale_bias", patch=3, magnitude=0.0)
        out = perturb_patch(fields[0], 0, desk_stations, 40, spec, clim)
        assert np.array_equal(out, fields[0])

    def test_patch_one_touches_one_cell_per_variable(self, desk_data, desk_stations):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        out = perturb_patch(fields[0], 0, desk_stations, 40, spec, clim)
        changed = np.nonzero(out != fields[0])
        # diff-count oracle: every variable layer changes exactly at the station cell
        i, j = desk_stations.cell(40)
        assert len(set(changed[0].tolist())) == fields[0].shape[0]
        assert set(changed[1].tolist()) == {i} and set(changed[2].tolist()) == {j}

    def test_noise_needs_var_std(self, desk_data, desk_stations):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="additive_noise", patch=1, seed=3)
        with pytest.raises(ValueError):
            perturb_patch(fields[0], 0, desk_stations, 40, spec, clim)

    def test_noise_deterministic_per_seed(self, desk_data, desk_stations, var_std):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="additive_noise", patch=3, seed=3)
        a = perturb_patch(fields[0], 0, desk_stations, 40, spec, clim, var_std)
        b = perturb_patch(fields[0], 0, desk_stations, 40, spec, clim, var_std)
        assert np.array_equal(a, b)

    def test_boundary_clipping(self, desk_data, desk_stations):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=5)
        out = perturb_patch(fields[0], 0, desk_stations, 0, spec, clim)
        changed_cells = {(i, j) for _, i, j in zip(*np.nonzero(out != fields[0]))}
        assert len(changed_cells) == 9  # corner station: 3x3 of the 5x5 survives

    def test_invalid_station(self, desk_data, desk_stations):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        with pytest.raises(IndexError):
            perturb_patch(fields[0], 0, desk_stations, 9999, spec, clim)


class TestFill:
    @pytest.mark.parametrize("mode", ablation.MODES)
    def test_patch_rows_match_perturb_patch_in_the_window(self, mode, desk_model,
                                                          corner_model, desk_data,
                                                          desk_stations, var_std):
        # each filled row against the field-level oracle cropped to the window, for every
        # station in reach: patches inside the window, straddling its edge, and clipped at
        # the grid's edge (the corner target's window starts at cell (0, 0))
        fields, clim = desk_data
        t, x = 5, fields[5]
        n_rows = n_straddling = 0
        for model in (desk_model, corner_model):
            window = (slice(None), *model.influence_window())
            xw, climw = x[window], clim[window]
            for patch in (1, 3, 5):
                spec = ablation.PerturbationSpec(mode=mode, patch=patch, magnitude=0.3, seed=17)
                ids = ablation.stations_in_reach(model, desk_stations, patch)
                rows = np.empty((len(ids),) + xw.shape)
                ablation._fill(rows, ablation._patch_rows(model, desk_stations, ids, spec),
                               xw, climw, t, var_std)
                for row, g in zip(rows, ids):
                    want = perturb_patch(x, t, desk_stations, g, spec, clim, var_std)[window]
                    assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), (
                        model.to_config(), patch, g)
                n_rows += len(ids)
                n_straddling += len(ids) - len(ablation.stations_in_reach(model,
                                                                          desk_stations, 1))
        assert corner_model.influence_window()[0].start == 0 and desk_stations.cell(0) == (0, 0)
        assert n_rows > 0 and n_straddling > 0


class TestGlobalAblation:
    def test_identity_on_climatology(self, desk_model, desk_data):
        _, clim = desk_data
        x = clim
        u = ablation.global_ablation(desk_model, x, 1.234, clim)
        assert np.all(u == 0.0)

    def test_matches_per_variable_oracle(self, desk_model, desk_model_d1, linear_model,
                                         desk_data, desk_truth):
        fields, clim = desk_data
        x = fields[1]
        y_star = desk_truth.verify(x, 1)
        for model in (desk_model, desk_model_d1, linear_model):
            base = abs(model.forward_values(x) - y_star)
            expected = []
            for v in range(x.shape[0]):
                xv = x.copy()
                xv[v] = clim[v]
                expected.append(abs(model.forward_values(xv) - y_star) - base)
            u = ablation.global_ablation(model, x, y_star, clim)
            assert u.shape == (x.shape[0],)
            assert np.array_equal(u, expected), model.to_config()

    def test_linear_closed_form(self, linear_model, desk_data):
        import math

        fields, clim = desk_data
        x = fields[0]
        y_star = 3.21
        u = ablation.global_ablation(linear_model, x, y_star, clim)
        w = linear_model.weights
        # exactly-summed oracle; tolerance scales with the cancellation mass
        # of the dot product, the resolution float64 summation can reach
        cancel = float(np.abs(w * x).sum())
        base = abs(math.fsum((w * x).ravel().tolist()) - y_star)
        for v in range(x.shape[0]):
            xv = x.copy()
            xv[v] = clim[v]
            expected = abs(math.fsum((w * xv).ravel().tolist()) - y_star) - base
            assert abs(u[v] - expected) <= 1e-12 * cancel

    def test_null_influence_variable(self, linear_model, desk_data):
        fields, clim = desk_data
        w = linear_model.weights.copy()
        w[2] = 0.0
        silent = type(linear_model)(linear_model.grid, linear_model.target,
                                    linear_model.seed, _weights=w)
        u = ablation.global_ablation(silent, fields[0], 0.5, clim)
        assert u[2] == 0.0


class TestSpatialUtility:
    def test_identity_on_climatology(self, desk_model, desk_data, desk_stations):
        _, clim = desk_data
        x = clim
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=3)
        s = ablation.spatial_utility(desk_model, x, 0, 0.77, desk_stations, spec, clim)
        assert np.all(s == 0.0)

    def test_locality_exact_zeros(self, desk_model, desk_data, desk_stations, desk_truth):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        y_star = desk_truth.verify(fields[0], 0)
        s = ablation.spatial_utility(desk_model, fields[0], 0, y_star, desk_stations, spec, clim)
        rw, cw = desk_model.influence_window()
        for g in range(desk_stations.n_stations):
            i, j = desk_stations.cell(g)
            if not (rw.start <= i < rw.stop and cw.start <= j < cw.stop):
                assert s[g] == 0.0

    def test_matches_naive_per_station_oracle(self, desk_model, desk_model_d1, linear_model,
                                              desk_data, desk_stations, desk_truth, var_std,
                                              rng):
        fields, clim = desk_data
        x = fields[1]
        y_star = desk_truth.verify(x, 1)
        for model in (desk_model, desk_model_d1, linear_model):
            base = abs(model.forward_values(x) - y_star)
            for mode in ("mean_replace", "scale_bias", "additive_noise"):
                spec = ablation.PerturbationSpec(mode=mode, patch=3, magnitude=0.1, seed=5)
                s = ablation.spatial_utility(model, x, 1, y_star, desk_stations, spec,
                                             clim, var_std)
                assert s.shape == (desk_stations.n_stations,)
                for g in rng.choice(desk_stations.n_stations, size=10, replace=False):
                    pert = perturb_patch(x, 1, desk_stations, int(g), spec, clim, var_std)
                    naive = abs(model.forward_values(pert) - y_star) - base
                    assert s[g] == naive, (model.to_config(), mode, int(g))

    def test_noise_stream_is_keyed_by_seed_station_and_timestamp(self, desk_model, desk_data,
                                                                desk_stations, var_std):
        # station g's additive_noise patch at timestamp t draws from (spec.seed, g, t)
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="additive_noise", patch=3, magnitude=0.1, seed=5)
        g = int(ablation.stations_in_reach(desk_model, desk_stations, spec.patch)[0])
        rows, cols = ablation.patch_slices(desk_stations.grid, *desk_stations.cell(g), 3)
        x, y_star = fields[2], 1.5
        got = []
        for t in (0, 2, 9):
            u = ablation.spatial_utility_multi(desk_model, x, t, y_star, desk_stations, [spec],
                                               clim, var_std)
            rng = np.random.default_rng(np.random.SeedSequence((5, g, t)))
            pert = x.copy()
            block = pert[:, rows, cols]
            pert[:, rows, cols] = block + rng.standard_normal(block.shape) * (
                0.1 * var_std[:, None, None])
            expected = (abs(desk_model.forward_values(pert) - y_star)
                        - abs(desk_model.forward_values(x) - y_star))
            assert u[0, g] == expected, t
            got.append(u[0, g])
        assert len(set(got)) == 3

    @pytest.mark.parametrize("model_fixture", ["desk_model", "desk_model_d1", "corner_model"])
    def test_noise_patch_across_the_window_edge_matches_full_grid(
            self, model_fixture, desk_data, desk_stations, var_std, request):
        # a noise patch that straddles the influence window is drawn at its full shape, so
        # its utility equals perturb_patch followed by a full-grid forward_many
        model = request.getfixturevalue(model_fixture)
        fields, clim = desk_data
        rw, cw = model.influence_window()
        x, t, y_star = fields[4], 4, 0.3
        base = model.forward_many(x[None])[0]
        n_straddling = 0
        for patch in (3, 5):
            spec = ablation.PerturbationSpec(mode="additive_noise", patch=patch, seed=7)
            u = ablation.spatial_utility(model, x, t, y_star, desk_stations, spec, clim, var_std)
            for g in ablation.stations_in_reach(model, desk_stations, patch):
                rows, cols = ablation.patch_slices(desk_stations.grid, *desk_stations.cell(g),
                                                   patch)
                if rw.start <= rows.start and rows.stop <= rw.stop \
                        and cw.start <= cols.start and cols.stop <= cw.stop:
                    continue  # inside the window
                n_straddling += 1
                pert = perturb_patch(x, t, desk_stations, int(g), spec, clim, var_std)
                expected = abs(model.forward_many(pert[None])[0] - y_star) - abs(base - y_star)
                assert u[g] == expected, (patch, int(g))
        assert n_straddling > 0

    def test_noise_utilities_are_realization_dominated(self, desk_model, desk_data,
                                                       desk_stations, desk_truth, var_std):
        # Single-realization noise utilities rank stations erratically across
        # seeds (deterministic modes are exactly reproducible), and averaging
        # over seed groups restores stability.
        fields, clim = desk_data
        rw, cw = desk_model.influence_window()
        in_cone = [g for g in range(desk_stations.n_stations)
                   if rw.start <= desk_stations.cell(g)[0] < rw.stop
                   and cw.start <= desk_stations.cell(g)[1] < cw.stop]
        f = fields[0]
        y = desk_truth.verify(f, 0)
        per_seed = []
        for seed in range(20):
            spec = ablation.PerturbationSpec(mode="additive_noise", patch=3,
                                             magnitude=0.1, seed=seed)
            per_seed.append(np.abs(ablation.spatial_utility(desk_model, f, 0, y, desk_stations,
                                                            spec, clim, var_std)[in_cone]))
        rhos = [spearman(per_seed[i], per_seed[j]).rho
                for i in range(20) for j in range(i + 1, 20)]
        single_seed_stability = float(np.mean(rhos))
        assert single_seed_stability < 0.7

        half_a = np.mean(per_seed[:10], axis=0)
        half_b = np.mean(per_seed[10:], axis=0)
        averaged_stability = spearman(half_a, half_b).rho
        assert averaged_stability > single_seed_stability


class TestJointAblation:
    def test_singleton_ratio_one(self, desk_model, desk_data, desk_stations, desk_truth):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=3)
        in_cone = 60  # station near the target for this fixture
        y_star = desk_truth.verify(fields[0], 0)
        res = ablation.joint_ablation(desk_model, fields[0], 0, y_star, desk_stations,
                                      [in_cone], spec, clim)
        if res.ratio_defined:
            assert res.ratio == pytest.approx(1.0, abs=1e-9)

    def test_linear_disjoint_same_sign_ratio_one(self, linear_model, desk_data,
                                                 desk_stations):
        fields, clim = desk_data
        truth = make_truth(linear_model, 9, noise_std=0.0, weight_jitter=0.05)
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        x = fields[0]
        y_star = truth.verify(x, 0)
        base_pred = linear_model.forward_values(x)
        sign = np.sign(base_pred - y_star)

        def delta(g):
            pert = perturb_patch(x, 0, desk_stations, g, spec, clim)
            return linear_model.forward_values(pert) - base_pred

        # pick disjoint single-cell patches whose error deltas share the
        # direction of the base error and cannot flip its sign jointly
        chosen = []
        for g in range(desk_stations.n_stations):
            d = delta(g)
            if sign * d > 0:
                chosen.append(g)
            if len(chosen) == 4:
                break
        total = sum(abs(delta(g)) for g in chosen)
        assert total < abs(base_pred - y_star)
        res = ablation.joint_ablation(linear_model, x, 0, y_star, desk_stations, chosen,
                                      spec, clim)
        assert res.ratio_defined
        assert res.ratio == pytest.approx(1.0, abs=1e-9)

    def test_overlapping_patches_differ_from_sum(self, desk_model, desk_data,
                                                 desk_stations, desk_truth):
        fields, clim = desk_data
        rw, cw = desk_model.influence_window()
        in_cone = [g for g in range(desk_stations.n_stations)
                   if rw.start <= desk_stations.cell(g)[0] < rw.stop
                   and cw.start <= desk_stations.cell(g)[1] < cw.stop]
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=5)
        y_star = desk_truth.verify(fields[0], 0)
        res = ablation.joint_ablation(desk_model, fields[0], 0, y_star, desk_stations,
                                      in_cone[:3], spec, clim)
        assert res.ratio_defined
        assert res.u_joint != pytest.approx(float(res.u_individual.sum()), rel=1e-9)

    def test_guarded_denominator(self, desk_model, desk_data, desk_stations, desk_truth):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        far = [0, 1]  # far corner stations, outside the influence window
        y_star = desk_truth.verify(fields[0], 0)
        res = ablation.joint_ablation(desk_model, fields[0], 0, y_star, desk_stations,
                                      far, spec, clim)
        assert not res.ratio_defined
        assert np.isnan(res.ratio)

    @pytest.mark.parametrize("mode", ["mean_replace", "scale_bias", "additive_noise"])
    def test_station_set_partly_outside_the_window(self, corner_model, desk_data,
                                                   desk_stations, var_std, mode):
        # the corner target's nearest stations: the union of their patches reaches past the
        # clipped window, and the joint utility is that of the whole union on the full grid
        fields, clim = desk_data
        order = np.argsort(desk_stations.distances_to(corner_model.target.lat,
                                                      corner_model.target.lon), kind="stable")
        ids = sorted(int(g) for g in order[:5])  # joint_ablation reports them sorted
        in_reach = set(ablation.stations_in_reach(corner_model, desk_stations, 1).tolist())
        assert in_reach & set(ids) and set(ids) - in_reach
        spec = ablation.PerturbationSpec(mode=mode, patch=5, seed=13)
        x, t, y_star = fields[6], 6, 0.1
        res = ablation.joint_ablation(corner_model, x, t, y_star, desk_stations, ids, spec,
                                      clim, var_std)
        mask = np.zeros(desk_stations.grid.shape[1:], dtype=bool)
        for g in ids:
            mask[ablation.patch_slices(desk_stations.grid, *desk_stations.cell(g), 5)] = True
        joint = x.copy()
        apply_mode(joint, (slice(None), mask), mode, spec.magnitude, clim, var_std,
                   (spec.seed, ablation._JOINT_TAG, t))
        singles = [perturb_patch(x, t, desk_stations, g, spec, clim, var_std) for g in ids]
        errs = np.abs(corner_model.forward_many(np.stack([x, joint, *singles])) - y_star)
        assert res.u_joint == errs[1] - errs[0]
        assert np.array_equal(res.u_individual, errs[2:] - errs[0])
        assert res.u_joint != 0.0

    def test_needs_a_station(self, desk_model, desk_data, desk_stations, desk_truth):
        fields, clim = desk_data
        spec = ablation.PerturbationSpec(mode="mean_replace", patch=1)
        with pytest.raises(ValueError):
            ablation.joint_ablation(desk_model, fields[0], 0, 0.0, desk_stations, [],
                                    spec, clim)

    def test_matches_single_call_oracle(self, desk_model, desk_model_d1, linear_model,
                                        desk_data, desk_stations, desk_truth, var_std):
        fields, clim = desk_data

        def oracle(model, x, t, y_star, ids, spec):
            """The B=1 body: one forward_values call per base, joint and single field."""
            ids = sorted(set(ids))
            mask = np.zeros(desk_stations.grid.shape[1:], dtype=bool)
            for g in ids:
                mask[ablation.patch_slices(desk_stations.grid, *desk_stations.cell(g),
                                           spec.patch)] = True
            vals = x.copy()
            apply_mode(vals, (slice(None), *np.nonzero(mask)), spec.mode, spec.magnitude,
                       clim, var_std, (spec.seed, ablation._JOINT_TAG, t))
            base_err = abs(model.forward_values(x) - y_star)
            u_joint = abs(model.forward_values(vals) - y_star) - base_err
            u_ind = np.array([abs(model.forward_values(perturb_patch(
                x, t, desk_stations, g, spec, clim, var_std)) - y_star) - base_err
                for g in ids])
            return u_joint, u_ind

        n_cases = 0
        for model in (desk_model, desk_model_d1, linear_model):
            rw, cw = model.influence_window()
            order = np.argsort(desk_stations.distances_to(model.target.lat,
                                                          model.target.lon), kind="stable")
            nearest = [int(g) for g in order[:4]]  # in the window; patch 5 overlaps
            for ids in (nearest[:2], nearest, [0, 1], [0, nearest[0]]):
                for mode in ("mean_replace", "scale_bias", "additive_noise"):
                    for patch in (1, 5):
                        spec = ablation.PerturbationSpec(mode=mode, patch=patch, seed=11)
                        for t, x in enumerate(fields[:2]):
                            y_star = desk_truth.verify(x, t)
                            res = ablation.joint_ablation(model, x, t, y_star, desk_stations,
                                                          ids, spec, clim, var_std)
                            u_joint, u_ind = oracle(model, x, t, y_star, ids, spec)
                            assert res.u_joint == u_joint, (model.to_config(), ids, mode, patch)
                            assert np.array_equal(res.u_individual, u_ind)
                            n_cases += 1
        assert n_cases == 3 * 4 * 3 * 2 * 2
