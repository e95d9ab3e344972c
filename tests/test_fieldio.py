import json
from dataclasses import asdict

import numpy as np
import pytest

from gradsense import fieldio
from gradsense.grid import GridSpec


class TestBinaryRoundTrip:
    def test_field(self, small_grid, rng, tmp_path):
        values = rng.normal(size=small_grid.shape)
        path = tmp_path / "f.bin"
        fieldio.save_field(path, small_grid, values, 17)
        grid, loaded, timestamp = fieldio.load_field(path)
        assert timestamp == 17
        assert grid == small_grid
        assert loaded.dtype == np.float64 and np.array_equal(loaded, values)
        with pytest.raises(ValueError, match="shape"):
            fieldio.save_field(path, small_grid, values[:, :-1], 17)

    def test_field_is_a_store(self, rng, tmp_path):
        # one array, "values", under the JSON of the grid and the timestamp
        grid = GridSpec(10, 14, 30.0, 44.5, -5.25, 9.0, variables=("q", "t2m", "msl"))
        values = rng.normal(size=grid.shape)
        path = tmp_path / "f.gsa"
        fieldio.save_field(path, grid, values, 3)
        assert path.read_bytes().startswith(b"GSA1")
        stamp = json.dumps({"grid": asdict(grid), "timestamp": 3}, sort_keys=True)
        arrays = fieldio.load_store(path, stamp)
        assert list(arrays) == ["values"] and np.array_equal(arrays["values"], values)
        loaded_grid, loaded, timestamp = fieldio.load_field(path)
        assert loaded_grid == grid and timestamp == 3
        assert loaded.dtype == np.float64 and np.array_equal(loaded, values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            fieldio.load_field(path)


class TestStore:
    def _arrays(self, rng):
        return {"fields": rng.normal(size=(3, 2, 4, 5)), "scalar": np.array(2.5),
                "nan/row": np.array([np.nan, -0.0, 1e-300]), "empty": np.zeros((0, 4))}

    def test_round_trip(self, rng, tmp_path):
        arrays = self._arrays(rng)
        path = tmp_path / "s.gsa"
        fieldio.save_store(path, "stamp-a", arrays)
        loaded = fieldio.load_store(path, "stamp-a")
        assert list(loaded) == list(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr, equal_nan=True)
        assert np.signbit(loaded["nan/row"][1])

    def test_deterministic_bytes(self, rng, tmp_path):
        arrays = self._arrays(rng)
        fieldio.save_store(tmp_path / "a.gsa", "s", arrays)
        fieldio.save_store(tmp_path / "b.gsa", "s", arrays)
        assert (tmp_path / "a.gsa").read_bytes() == (tmp_path / "b.gsa").read_bytes()

    def test_other_stamp_or_missing_is_none(self, rng, tmp_path):
        path = tmp_path / "s.gsa"
        assert fieldio.load_store(path, "s") is None
        fieldio.save_store(path, "stamp-a", self._arrays(rng))
        assert fieldio.load_store(path, "stamp-b") is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.gsa"
        path.write_bytes(b"GSF1" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            fieldio.load_store(path, "s")

    def test_truncated_or_padded_raises(self, rng, tmp_path):
        path = tmp_path / "s.gsa"
        fieldio.save_store(path, "s", self._arrays(rng))
        raw = path.read_bytes()
        for cut in (len(raw) - 1, len(raw) - 8, len(raw) // 2, 10):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                fieldio.load_store(path, "s")
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            fieldio.load_store(path, "s")


class TestAtomicOpen:
    def test_failed_write_keeps_previous_content(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with fieldio.atomic_open(path) as fh:
                fh.write("new")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with fieldio.atomic_open(tmp_path / "t.txt", "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("crash mid-write")
        assert list(tmp_path.iterdir()) == []


class TestCsv:
    def test_fmt_roundtrip(self, rng):
        for x in rng.normal(size=50):
            assert float(fieldio.fmt(x)) == x
        assert float(fieldio.fmt(1 / 3)) == 1 / 3
