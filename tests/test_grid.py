import math

import numpy as np
import pytest

from gradsense.grid import GridSpec, haversine_many, make_station_grid, make_target


class TestMakeGrid:
    """A GridSpec validates itself; its defaults are the desk box and variables."""

    def test_constructor_echo(self):
        g = GridSpec(36, 50)
        assert g.n_lat * g.n_lon == 36 * 50
        assert g.n_variables == 6
        assert (g.lat_min, g.lat_max, g.lon_min, g.lon_max) == (35.0, 70.0, -10.0, 40.0)

    def test_minimal_grid(self):
        g = GridSpec(4, 4, variables=("a",))
        assert g.shape == (1, 4, 4)

    @pytest.mark.parametrize("nlat,nlon", [(0, 10), (10, 0), (3, 10), (-2, 8)])
    def test_invalid_dimension(self, nlat, nlon):
        with pytest.raises(ValueError, match="invalid dimension"):
            GridSpec(nlat, nlon, variables=("a", "b", "c"))

    def test_duplicate_variables(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, variables=("a", "a"))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, lat_min=50.0, lat_max=40.0)

    def test_uniform_spacing(self):
        g = GridSpec(36, 50)
        lats = g.lat_of(np.arange(36))
        assert np.allclose(np.diff(lats), g.dlat)


class TestStationGrid:
    def test_count_by_enumeration(self):
        g = GridSpec(36, 50)
        st = make_station_grid(g, 4)
        expected = math.ceil(36 / 4) * math.ceil(50 / 4)
        assert st.n_stations == expected == 117

    def test_dense_case(self):
        g = GridSpec(4, 5, variables=("a",))
        st = make_station_grid(g, 1)
        assert st.n_stations == 20

    def test_spacing_too_large(self):
        g = GridSpec(4, 4, variables=("a",))
        with pytest.raises(ValueError):
            make_station_grid(g, 8)

    def test_spacing_invalid(self):
        g = GridSpec(8, 8, variables=("a",))
        with pytest.raises(ValueError):
            make_station_grid(g, 0)

    def test_injective_cells(self):
        g = GridSpec(36, 50)
        st = make_station_grid(g, 4)
        cells = set(zip(st.lat_idx.tolist(), st.lon_idx.tolist()))
        assert len(cells) == st.n_stations

    def test_row_major_ids(self):
        g = GridSpec(8, 8, variables=("a",))
        st = make_station_grid(g, 4)
        assert st.cell(0) == (0, 0)
        assert st.cell(1) == (0, 4)
        assert st.cell(2) == (4, 0)

    def test_determinism(self):
        g = GridSpec(36, 50)
        a = make_station_grid(g, 4)
        b = make_station_grid(g, 4)
        assert np.array_equal(a.lat_idx, b.lat_idx)
        assert np.array_equal(a.lon_idx, b.lon_idx)


class TestTarget:
    def test_snap(self):
        g = GridSpec(36, 50)
        t = make_target(g, "zurich", 47.4, 8.6, "t2m")
        assert 0 <= t.lat_idx < 36 and 0 <= t.lon_idx < 50
        assert abs(float(g.lat_of(t.lat_idx)) - 47.4) <= g.dlat
        assert abs(float(g.lon_of(t.lon_idx)) - 8.6) <= g.dlon

    def test_unknown_variable(self):
        g = GridSpec(36, 50)
        with pytest.raises(KeyError):
            make_target(g, "x", 47.4, 8.6, "nope")

    def test_outside_box(self):
        g = GridSpec(36, 50)
        with pytest.raises(ValueError):
            make_target(g, "x", -10.0, 8.6, "t2m")


class TestHaversine:
    def test_identity(self):
        assert haversine_many([47.4], [8.6], 47.4, 8.6)[0] == 0.0

    def test_equator_antipodal(self):
        assert haversine_many([0.0], [0.0], 0.0, 180.0)[0] == pytest.approx(math.pi * 6371.0,
                                                                           abs=1e-6)

    def test_against_law_of_cosines(self):
        # independent spherical-law-of-cosines oracle
        a, b = (47.4, 8.6), (51.5, -0.1)
        p1, l1, p2, l2 = map(math.radians, (a[0], a[1], b[0], b[1]))
        oracle = 6371.0 * math.acos(
            math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1))
        assert haversine_many([a[0]], [a[1]], *b)[0] == pytest.approx(oracle, abs=1.0)

