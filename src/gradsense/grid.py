"""Grids, stations and forecast targets.

The spatial domain is a regular lat/lon box of uniform cells.  A field is a
plain float64 array of per-variable layers over that box, shaped
`GridSpec.shape` = (variable, lat, lon); a period of fields is a
(timestamp, variable, lat, lon) stack whose row index is the timestamp.  A
station grid is a sparse subsample of cells at a fixed stride.  All objects
here are immutable after construction (index arrays are made read-only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0
MIN_CELLS = 4  # cells a grid needs along each axis


@dataclass(frozen=True)
class GridSpec:
    """Validated uniform lat/lon grid with an ordered variable list.

    Cell centers: lat(i) = lat_min + (i + 0.5) * dlat, row 0 is the
    southernmost row; analogously for longitude columns.  The defaults are
    the desk box and variables, so `GridSpec(36, 50)` is the desk grid.
    """

    n_lat: int
    n_lon: int
    lat_min: float = 35.0
    lat_max: float = 70.0
    lon_min: float = -10.0
    lon_max: float = 40.0
    variables: tuple[str, ...] = ("t2m", "u10m", "v10m", "msl", "q2m", "tp")

    def __post_init__(self):
        if self.n_lat < MIN_CELLS or self.n_lon < MIN_CELLS:
            raise ValueError(f"invalid dimension: grid must be at least {MIN_CELLS}x{MIN_CELLS}, "
                             f"got {self.n_lat}x{self.n_lon}")
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise ValueError("grid bounds must satisfy lat_max > lat_min and lon_max > lon_min")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable identifiers must be unique")
        if len(self.variables) == 0:
            raise ValueError("grid needs at least one variable")
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_variables, self.n_lat, self.n_lon)

    @property
    def dlat(self) -> float:
        return (self.lat_max - self.lat_min) / self.n_lat

    @property
    def dlon(self) -> float:
        return (self.lon_max - self.lon_min) / self.n_lon

    def lat_of(self, i) -> float | np.ndarray:
        return self.lat_min + (np.asarray(i) + 0.5) * self.dlat

    def lon_of(self, j) -> float | np.ndarray:
        return self.lon_min + (np.asarray(j) + 0.5) * self.dlon

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; grid has {self.variables}") from None

    def nearest_cell(self, lat: float, lon: float) -> tuple[int, int]:
        """Snap a coordinate inside the box to the nearest cell center."""
        if not (self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max):
            raise ValueError(f"({lat}, {lon}) is outside the grid box")
        i = int(np.clip(round((lat - self.lat_min) / self.dlat - 0.5), 0, self.n_lat - 1))
        j = int(np.clip(round((lon - self.lon_min) / self.dlon - 0.5), 0, self.n_lon - 1))
        return i, j


@dataclass(frozen=True)
class StationGrid:
    """Sparse set of grid cells hosting stations, with integer ids 0..N-1.

    Ids are assigned row-major over the strided lattice, so the tie-break
    "lower id" used throughout selection and ranking is reproducible.
    """

    grid: GridSpec
    lat_idx: np.ndarray
    lon_idx: np.ndarray

    def __post_init__(self):
        li = np.asarray(self.lat_idx, dtype=np.intp).copy()
        lj = np.asarray(self.lon_idx, dtype=np.intp).copy()
        if li.shape != lj.shape or li.ndim != 1 or li.size == 0:
            raise ValueError("station index arrays must be equal-length 1-d and nonempty")
        if li.min() < 0 or li.max() >= self.grid.n_lat or lj.min() < 0 or lj.max() >= self.grid.n_lon:
            raise ValueError("station cell outside grid")
        cells = set(zip(li.tolist(), lj.tolist()))
        if len(cells) != li.size:
            raise ValueError("duplicate station cells")
        li.flags.writeable = False
        lj.flags.writeable = False
        object.__setattr__(self, "lat_idx", li)
        object.__setattr__(self, "lon_idx", lj)

    @property
    def n_stations(self) -> int:
        return int(self.lat_idx.size)

    @property
    def lats(self) -> np.ndarray:
        return self.grid.lat_of(self.lat_idx)

    @property
    def lons(self) -> np.ndarray:
        return self.grid.lon_of(self.lon_idx)

    def cell(self, station_id: int) -> tuple[int, int]:
        if not 0 <= station_id < self.n_stations:
            raise IndexError(f"invalid station id {station_id}")
        return int(self.lat_idx[station_id]), int(self.lon_idx[station_id])

    def distances_to(self, lat: float, lon: float) -> np.ndarray:
        """Haversine distance (km) from every station to a point."""
        return haversine_many(self.lats, self.lons, lat, lon)


def make_station_grid(grid: GridSpec, spacing: int) -> StationGrid:
    """Place stations at every `spacing`-th cell in both axes, row-major ids."""
    if spacing < 1:
        raise ValueError(f"spacing must be >= 1, got {spacing}")
    if spacing > grid.n_lat or spacing > grid.n_lon:
        raise ValueError(f"spacing {spacing} exceeds grid dimensions {grid.n_lat}x{grid.n_lon}")
    rows = np.arange(0, grid.n_lat, spacing)
    cols = np.arange(0, grid.n_lon, spacing)
    li = np.repeat(rows, cols.size)
    lj = np.tile(cols, rows.size)
    return StationGrid(grid=grid, lat_idx=li, lon_idx=lj)


@dataclass(frozen=True)
class TargetSpec:
    """A named forecast target: a coordinate snapped to its nearest cell."""

    name: str
    lat: float
    lon: float
    variable: str
    lat_idx: int
    lon_idx: int
    variable_idx: int


def make_target(grid: GridSpec, name: str, lat: float, lon: float, variable: str) -> TargetSpec:
    i, j = grid.nearest_cell(lat, lon)
    v = grid.variable_index(variable)
    return TargetSpec(name=name, lat=float(lat), lon=float(lon), variable=variable,
                      lat_idx=i, lon_idx=j, variable_idx=v)


def haversine_many(lats, lons, lat0: float, lon0: float) -> np.ndarray:
    """Vectorized haversine from arrays of points to a single point (km)."""
    lat1 = np.radians(np.asarray(lats, dtype=np.float64))
    lon1 = np.radians(np.asarray(lons, dtype=np.float64))
    lat2 = np.radians(lat0)
    lon2 = np.radians(lon0)
    s = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))
