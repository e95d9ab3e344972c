import numpy as np
import pytest

from gradsense.grid import GridSpec, make_station_grid, make_target
from gradsense.model import make_desk_model, make_truth
from oracles import make_linear_model
from gradsense import synth


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(12, 16, 40.0, 52.0, 0.0, 16.0, variables=("t2m", "u10m", "msl"))


@pytest.fixture(scope="session")
def small_target(small_grid):
    return make_target(small_grid, "mid", 46.2, 8.1, "t2m")


@pytest.fixture(scope="session")
def small_stations(small_grid):
    return make_station_grid(small_grid, 3)


def _frozen(fields, clim):
    """The session fixtures' (T, V, n_lat, n_lon) stack and climatology, read-only."""
    fields.flags.writeable = clim.flags.writeable = False
    return fields, clim


@pytest.fixture(scope="session")
def small_data(small_grid):
    return _frozen(*synth.synth_fields(11, small_grid, 8, n_clim_draws=80))


@pytest.fixture(scope="session")
def desk_grid():
    return GridSpec(36, 50)


@pytest.fixture(scope="session")
def desk_target(desk_grid):
    return make_target(desk_grid, "zurich", 47.4, 8.6, "t2m")


@pytest.fixture(scope="session")
def desk_stations(desk_grid):
    return make_station_grid(desk_grid, 4)


@pytest.fixture(scope="session")
def desk_data(desk_grid):
    return _frozen(*synth.synth_fields(7, desk_grid, 24, n_clim_draws=200))


@pytest.fixture(scope="session")
def desk_model(desk_grid, desk_target):
    return make_desk_model(1, desk_grid, desk_target, depth=3)


@pytest.fixture(scope="session")
def desk_model_d1(desk_grid, desk_target):
    return make_desk_model(4, desk_grid, desk_target, depth=1)


@pytest.fixture(scope="session")
def linear_model(desk_grid, desk_target):
    return make_linear_model(2, desk_grid, desk_target)


@pytest.fixture(scope="session")
def desk_truth(desk_model):
    return make_truth(desk_model, 3, noise_std=0.01, weight_jitter=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
