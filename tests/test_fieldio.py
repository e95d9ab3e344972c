import csv

import numpy as np
import pytest

from gradsense import fieldio
from gradsense.attribution import AttributionMap
from gradsense.grid import FieldTensor


class TestBinaryRoundTrip:
    def test_field(self, small_grid, rng, tmp_path):
        f = FieldTensor(grid=small_grid, values=rng.normal(size=small_grid.shape),
                        timestamp=17)
        path = tmp_path / "f.bin"
        fieldio.save_field(path, f)
        loaded = fieldio.load_field(path)
        assert loaded.timestamp == 17
        assert loaded.grid == small_grid
        assert np.array_equal(loaded.values, f.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            fieldio.load_field(path)

    def test_attribution_sidecar(self, small_grid, rng, tmp_path):
        amap = AttributionMap(values=rng.normal(size=small_grid.shape), method="ig",
                              baseline="climatology", steps=8, timestamp=3,
                              model_id="desk-x", n_gradient_evals=9)
        path = tmp_path / "a.bin"
        fieldio.save_attribution(path, amap, small_grid)
        assert (tmp_path / "a.bin.json").exists()
        loaded = fieldio.load_attribution(path)
        assert loaded.method == "ig" and loaded.steps == 8
        assert loaded.model_id == "desk-x" and loaded.n_gradient_evals == 9
        assert np.array_equal(loaded.values, amap.values)


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
    def test_field_export(self, small_grid, rng, tmp_path):
        vals = rng.normal(size=small_grid.shape)
        path = tmp_path / "f.csv"
        fieldio.field_to_csv(path, vals, small_grid)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == small_grid.n_variables * small_grid.n_lat * small_grid.n_lon
        r = rows[small_grid.n_lon + 3]  # variable 0, row 1, col 3
        assert r["variable"] == small_grid.variables[0]
        assert float(r["value"]) == vals[0, 1, 3]

    def test_fmt_roundtrip(self, rng):
        for x in rng.normal(size=50):
            assert float(fieldio.fmt(x)) == x
        assert float(fieldio.fmt(1 / 3)) == 1 / 3
