"""The named-array store, and one field saved as a store.

Store layout: magic "GSA1", a length-prefixed stamp string, the array count,
then per array a length-prefixed name, its rank and shape, and the "<f8"
payload in C order.  A store records no write time, so equal inputs give equal
bytes.  Every writer here goes through `atomic_open`, so a crash mid-write
leaves the previous file (or none), never a truncated one.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .grid import GridSpec


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


def save_field(path: str | Path, grid: GridSpec, values: np.ndarray, timestamp: int) -> None:
    """Write one (V, n_lat, n_lon) field of `grid` at `timestamp`: a store of the one array
    `values`, stamped with the JSON of the grid and the timestamp."""
    if values.shape != grid.shape:
        raise ValueError(f"expected shape {grid.shape}, got {values.shape}")
    save_store(path, json.dumps({"grid": asdict(grid), "timestamp": timestamp}, sort_keys=True),
               {"values": values})


def load_field(path: str | Path) -> tuple[GridSpec, np.ndarray, int]:
    """The (grid, values, timestamp) a `save_field` call wrote."""
    stamp, arrays = _read_store(path)
    meta = json.loads(stamp)
    grid = GridSpec(**meta["grid"] | {"variables": tuple(meta["grid"]["variables"])})
    return grid, arrays["values"], meta["timestamp"]


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
        found, arrays = _read_store(path)
    except FileNotFoundError:
        return None
    return arrays if found == stamp else None


def _read_store(path: str | Path) -> tuple[str, dict[str, np.ndarray]]:
    """The stamp and the arrays of the store at `path`."""
    buf, pos = memoryview(Path(path).read_bytes()), 0

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
    stamp, arrays = bytes(take(unpack("<H")[0])).decode("utf-8"), {}
    for _ in range(unpack("<I")[0]):
        name = bytes(take(unpack("<H")[0])).decode("utf-8")
        shape = unpack(f"<{unpack('<B')[0]}q")
        payload = take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    if pos != len(buf):
        raise ValueError(f"{path}: trailing bytes after the last array")
    return stamp, arrays


def fmt(x) -> str:
    """Shortest exact decimal form of a float (round-trips bit-for-bit)."""
    return repr(float(x))
