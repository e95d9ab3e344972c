import numpy as np
import pytest

from gradsense import synth
from gradsense.grid import GridSpec


def _lagged_autocorr(field, lag):
    a = field[:, : field.shape[1] - lag]
    b = field[:, lag:]
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).mean() / (a.std() * b.std()))


class TestSynthFields:
    def test_determinism(self, small_grid):
        f1, c1 = synth.synth_fields(7, small_grid, 5, n_clim_draws=20)
        f2, c2 = synth.synth_fields(7, small_grid, 5, n_clim_draws=20)
        assert np.array_equal(f1, f2)
        assert np.array_equal(c1, c2)

    def test_seed_changes_fields(self, small_grid):
        f1, _ = synth.synth_fields(7, small_grid, 2, n_clim_draws=10)
        f2, _ = synth.synth_fields(8, small_grid, 2, n_clim_draws=10)
        assert not np.array_equal(f1[0], f2[0])

    def test_count_and_shape(self, small_grid):
        fields, clim = synth.synth_fields(3, small_grid, 6, n_clim_draws=10)
        assert fields.shape == (6,) + small_grid.shape and fields.dtype == np.float64
        assert clim.shape == small_grid.shape and clim.dtype == np.float64

    def test_requires_timestamps(self, small_grid):
        with pytest.raises(ValueError):
            synth.synth_fields(3, small_grid, 0)

    def test_finite(self, small_grid):
        fields, clim = synth.synth_fields(5, small_grid, 4, n_clim_draws=10)
        assert np.all(np.isfinite(fields))
        assert np.all(np.isfinite(clim))

    def test_spatial_autocorrelation_decays(self):
        grid = GridSpec(48, 64, variables=("a",))
        fields, _ = synth.synth_fields(9, grid, 3, n_clim_draws=5)
        for f in fields:
            layer = f[0]
            assert _lagged_autocorr(layer, 1) > _lagged_autocorr(layer, 10)

    def test_climatology_matches_mc_mean(self, small_grid):
        # Monte-Carlo mean oracle: per-variable means of an independent
        # 1000-draw sample agree within 3 standard errors.
        _, clim = synth.synth_fields(21, small_grid, 2, n_clim_draws=1000)
        draws = synth.sample_fields(987654, small_grid, 1000)
        mc_mean = draws.mean(axis=(0, 2, 3))
        mc_se = draws.mean(axis=(2, 3)).std(axis=0) / np.sqrt(1000)
        clim_mean = clim.mean(axis=(1, 2))
        assert np.all(np.abs(clim_mean - mc_mean) <= 3.0 * mc_se + 1e-9)

    def test_anomaly_near_zero_mean(self, small_grid):
        fields, clim = synth.synth_fields(13, small_grid, 200, n_clim_draws=500)
        anom = fields - clim
        per_t = anom.mean(axis=(2, 3))
        se = per_t.std(axis=0) / np.sqrt(200)
        assert np.all(np.abs(per_t.mean(axis=0)) <= 3.0 * se + 1e-9)

    def test_field_std(self, small_data):
        fields, _ = small_data
        sd = synth.field_std(fields)
        assert np.allclose(sd, fields.std(axis=(0, 2, 3)))
        with pytest.raises(ValueError):
            synth.field_std(fields[:0])
