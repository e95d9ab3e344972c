"""Flat binary field serialization, the named-array store, and CSV exports.

Field layout: magic "GSF1", header (counts, timestamp, box bounds),
length-prefixed variable names, then the float64 payload in (variable, lat,
lon) C order (variable-major, row-major).  Attribution maps reuse the same
layout with a JSON provenance sidecar next to the binary file.

Store layout: magic "GSA1", a length-prefixed stamp string, the array count,
then per array a length-prefixed name, its rank and shape, and the "<f8"
payload in C order.  The store holds no timestamps, so equal inputs give equal
bytes.  Every writer here goes through `atomic_open`, so a crash mid-write
leaves the previous file (or none), never a truncated one.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .grid import FieldTensor, GridSpec

_MAGIC = b"GSF1"
_HEADER = struct.Struct("<III q dddd")  # n_var, n_lat, n_lon, timestamp, box bounds


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Open a sibling temp file for writing; move it onto `path` on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_payload(fh, grid: GridSpec, values: np.ndarray, timestamp: int) -> None:
    fh.write(_MAGIC)
    fh.write(_HEADER.pack(grid.n_variables, grid.n_lat, grid.n_lon, timestamp,
                          grid.lat_min, grid.lat_max, grid.lon_min, grid.lon_max))
    for name in grid.variables:
        raw = name.encode("utf-8")
        fh.write(struct.pack("<H", len(raw)))
        fh.write(raw)
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_payload(fh) -> tuple[GridSpec, np.ndarray, int]:
    if fh.read(4) != _MAGIC:
        raise ValueError("not a field file (bad magic)")
    n_var, n_lat, n_lon, ts, lat_min, lat_max, lon_min, lon_max = _HEADER.unpack(
        fh.read(_HEADER.size))
    names = []
    for _ in range(n_var):
        (ln,) = struct.unpack("<H", fh.read(2))
        names.append(fh.read(ln).decode("utf-8"))
    grid = GridSpec(n_lat=n_lat, n_lon=n_lon, lat_min=lat_min, lat_max=lat_max,
                    lon_min=lon_min, lon_max=lon_max, variables=tuple(names))
    count = n_var * n_lat * n_lon
    values = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count).reshape(grid.shape)
    return grid, values, ts


def save_field(path: str | Path, field: FieldTensor) -> None:
    with atomic_open(path, "wb") as fh:
        _write_payload(fh, field.grid, field.values, field.timestamp)


def load_field(path: str | Path) -> FieldTensor:
    with open(path, "rb") as fh:
        grid, values, ts = _read_payload(fh)
    return FieldTensor(grid=grid, values=values, timestamp=ts)


_STORE_MAGIC = b"GSA1"


def save_store(path: str | Path, stamp: str, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays under `stamp`, in the order given."""
    raw_stamp = stamp.encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_STORE_MAGIC)
        fh.write(struct.pack("<H", len(raw_stamp)) + raw_stamp)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw)
            fh.write(struct.pack(f"<B{arr.ndim}q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def load_store(path: str | Path, stamp: str) -> dict[str, np.ndarray] | None:
    """The arrays of the store at `path`, or None if it is missing or stamped otherwise.

    A bad magic number, a short payload or trailing bytes raise ValueError.
    """
    try:
        buf = memoryview(Path(path).read_bytes())
    except FileNotFoundError:
        return None
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path}: truncated store")
        pos += n
        return buf[pos - n:pos]

    def unpack(layout: str) -> tuple:
        return struct.unpack(layout, take(struct.calcsize(layout)))

    if take(4) != _STORE_MAGIC:
        raise ValueError(f"{path}: not an array store (bad magic)")
    if bytes(take(unpack("<H")[0])).decode("utf-8") != stamp:
        return None
    arrays = {}
    for _ in range(unpack("<I")[0]):
        name = bytes(take(unpack("<H")[0])).decode("utf-8")
        shape = unpack(f"<{unpack('<B')[0]}q")
        payload = take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    if pos != len(buf):
        raise ValueError(f"{path}: trailing bytes after the last array")
    return arrays


def fmt(x) -> str:
    """Shortest exact decimal form of a float (round-trips bit-for-bit)."""
    return repr(float(x))


def field_to_csv(path: str | Path, field_values: np.ndarray, grid: GridSpec,
                 value_column: str = "value") -> None:
    """Inspection-friendly long-format dump of one (V, lat, lon) array."""
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variable", "lat_idx", "lon_idx", "lat", "lon", value_column])
        for v, name in enumerate(grid.variables):
            for i in range(grid.n_lat):
                lat = grid.lat_of(i)
                for j in range(grid.n_lon):
                    w.writerow([name, i, j, fmt(lat), fmt(grid.lon_of(j)),
                                fmt(field_values[v, i, j])])


def save_attribution(path: str | Path, attr, grid: GridSpec) -> None:
    """Binary map plus a .json sidecar carrying method provenance."""
    path = Path(path)
    with atomic_open(path, "wb") as fh:
        _write_payload(fh, grid, attr.values, attr.timestamp)
    sidecar = {
        "method": attr.method,
        "baseline": attr.baseline,
        "steps": attr.steps,
        "timestamp": attr.timestamp,
        "model_id": attr.model_id,
        "n_gradient_evals": attr.n_gradient_evals,
    }
    with atomic_open(path.with_suffix(path.suffix + ".json")) as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_attribution(path: str | Path):
    from .attribution import AttributionMap

    path = Path(path)
    with open(path, "rb") as fh:
        grid, values, ts = _read_payload(fh)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        side = json.load(fh)
    return AttributionMap(values=values, method=side["method"], baseline=side["baseline"],
                          steps=side["steps"], timestamp=ts, model_id=side["model_id"],
                          n_gradient_evals=side["n_gradient_evals"])
