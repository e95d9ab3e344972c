import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gradsense import synth
from gradsense.grid import GridSpec
from oracles import synth_fields_loop


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

    def test_requires_clim_draws(self):
        # a mean over no draws would be an all-NaN climatology
        with pytest.raises(ValueError, match="n_clim_draws"):
            synth.synth_fields(1, GridSpec(8, 10), 2, n_clim_draws=0)

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


def _draw_normals(grid):
    """Normals one (V, n_lat, n_lon) draw takes: a real and an imaginary half-spectrum per layer."""
    return grid.n_variables * 2 * grid.n_lat * (grid.n_lon // 2 + 1)


class _Stub:
    """A generator's `standard_normal(out=)` that runs `before(call)` ahead of each fill."""

    def __init__(self, rng, before):
        self.rng, self.before, self.calls = rng, before, 0

    def standard_normal(self, out):
        self.calls += 1
        self.before(self.calls)
        return self.rng.standard_normal(out=out)


class TestChunkedDraws:
    @pytest.mark.parametrize("grid", [GridSpec(36, 50),
                                      GridSpec(17, 23, variables=("t2m", "u10m", "msl"))],
                             ids=["desk", "3var-17x23"])
    @pytest.mark.parametrize("draws_per_chunk", [1, 3, None], ids=["one", "ragged", "default"])
    def test_matches_loop_oracle(self, grid, draws_per_chunk, monkeypatch):
        # chunks of one draw, of 3 draws, which divides neither count, and of the
        # default size; the climatology adds its draws in draw order in each
        if draws_per_chunk is not None:
            monkeypatch.setattr(synth, "_DRAW_BUDGET", draws_per_chunk * _draw_normals(grid))
        fields, clim = synth.synth_fields(7, grid, 10, n_clim_draws=103)
        want_fields, want_clim = synth_fields_loop(7, grid, 10, 103)
        assert fields.tobytes() == want_fields.tobytes()
        assert clim.tobytes() == want_clim.tobytes()
        for n in (1, 8, 23):
            assert synth.sample_fields(3, grid, n).tobytes() == synth_fields_loop(3, grid, n, 1)[0].tobytes()

    def test_one_chunk_starts_no_thread(self, desk_grid, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a call that fits in one chunk started a thread")

        monkeypatch.setattr(synth.threading, "Thread", no_thread)
        empty = synth.sample_fields(5, desk_grid, 0)
        assert empty.shape == (0,) + desk_grid.shape and empty.dtype == np.float64
        assert synth.sample_fields(5, desk_grid, 8).shape == (8,) + desk_grid.shape  # a model probe

    def test_helper_exception_is_raised(self, small_grid, monkeypatch):
        # the climatology stream fails on its second chunk, which the helper draws
        boom = RuntimeError("second chunk")

        def fail_second(call):
            if call == 2:
                raise boom

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seq: _Stub(default_rng(seq), fail_second))
        monkeypatch.setattr(synth, "_DRAW_BUDGET", 1)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            synth.synth_fields(3, small_grid, 1, n_clim_draws=5)
        assert info.value is boom
        assert threading.active_count() == before

    def test_threads_are_joined(self, small_grid, monkeypatch):
        monkeypatch.setattr(synth, "_DRAW_BUDGET", 1)
        before = threading.active_count()
        synth.synth_fields(3, small_grid, 4, n_clim_draws=6)
        assert threading.active_count() == before
        # a consumer that closes the generator while the helper still draws
        release = threading.Event()

        def hold_second(call):
            if call == 2:
                assert release.wait(timeout=30)

        draws = synth._draws(_Stub(np.random.default_rng(0), hold_second), small_grid, 6, synth._SLOPE)
        next(draws)
        assert threading.active_count() == before + 1
        release.set()
        draws.close()
        assert threading.active_count() == before

    def test_concurrent_callers_under_fast_switching(self, small_grid, monkeypatch):
        # three callers, each with its own helper, on a 2-core host, switching threads
        # every microsecond: each result still matches the oracle byte for byte
        monkeypatch.setattr(synth, "_DRAW_BUDGET", _draw_normals(small_grid))
        want_fields, want_clim = synth_fields_loop(5, small_grid, 3, 40)
        got = [None] * 3

        def call(i):
            got[i] = synth.synth_fields(5, small_grid, 3, n_clim_draws=40)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for fields, clim in got:
            assert fields.tobytes() == want_fields.tobytes()
            assert clim.tobytes() == want_clim.tobytes()

    def test_holds_its_budget(self, desk_grid):
        # the desk data at the bench size: besides the outputs (the stack, the
        # running sum and the climatology) the peak holds two normal buffers, a
        # chunk's complex spectrum (as many bytes as one buffer) and the inverse
        # transform's complex intermediate, float output and centred copy; at the
        # default budget it measured 5.5 budgets of bytes on top of the outputs
        tracemalloc.start()
        try:
            fields, clim = synth.synth_fields(7, desk_grid, 10, n_clim_draws=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * synth._DRAW_BUDGET * 8 + fields.nbytes + 2 * clim.nbytes
