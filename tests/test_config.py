"""The config schema, its walk, its YAML form and hash, and the stores each field feeds."""

import dataclasses
import math
import re
import typing
from dataclasses import replace

import numpy as np
import pytest

from gradsense import config, runner
from test_runner import tiny_config


class TestConfig:
    def test_yaml_roundtrip_identity(self, tmp_path):
        cfg = tiny_config(tmp_path / "r")
        path = tmp_path / "cfg.yaml"
        config.save_config(cfg, path)
        assert config.load_config(path) == cfg

    def test_hash_ignores_out_dir(self, tmp_path):
        a = tiny_config(tmp_path / "a")
        b = tiny_config(tmp_path / "b")
        assert config.config_hash(a) == config.config_hash(b)
        assert config.config_hash(a) != config.config_hash(replace(a, seed=99))

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, target_variables=("nope",)).validate()
        with pytest.raises(ValueError):
            tiny_config(tmp_path, ig_steps=50).validate()  # not in the step grid
        with pytest.raises(ValueError):
            tiny_config(
                tmp_path,
                gaming=replace(config.GamingDesign(), combos=(("oslo", "t2m"),)),
            ).validate()
        for bad in ({"bootstrap_resamples": 500}, {"bootstrap_level": 0.0},
                    {"bootstrap_level": 1.0}, {"bootstrap_level": 1.5}):
            with pytest.raises(ValueError, match="bootstrap"):
                tiny_config(tmp_path, **bad).validate()
        # a later stage rejects each of these, but only after building models and tables
        for bad, match in (({"patches": (1, 2)}, "patches"), ({"patches": (0,)}, "patches"),
                           ({"patches": (-1,)}, "patches"),
                           ({"modes": ("mean_replace", "swap")}, "modes"),
                           ({"ig_step_grid": (0, 8)}, "ig_step_grid"),
                           ({"stability_top_k": 0}, "stability_top_k"),
                           ({"selection_budgets": (0, 5)}, "selection_budgets"),
                           ({"n_timestamps": 9}, "timestamps"),
                           ({"variables": ("t2m", "u10m")}, "variables"),
                           ({"station_stride": 7}, "station_stride"),  # 3 x 3 stations
                           ({"gaming": replace(tiny_config(tmp_path).gaming, n_attackers=())},
                            "n_attackers"),
                           ({"channels": 0}, "channels"),
                           ({"stencil_radius": 0}, "stencil_radius"),
                           ({"n_clim_draws": 0}, "n_clim_draws"),
                           ({"truth_noise_frac": -0.5}, "truth_noise_frac"),
                           ({"perturb_magnitude": -0.1}, "perturb_magnitude"),
                           ({"gaming": replace(tiny_config(tmp_path).gaming, n_attackers=(0,))},
                            "n_attackers"),
                           ({"gaming": replace(tiny_config(tmp_path).gaming,
                                               magnitudes_pct=(10.0, -5.0))}, "magnitudes_pct"),
                           ({"gaming": replace(tiny_config(tmp_path).gaming,
                                               extended_magnitudes=(-1.0,))},
                            "extended_magnitudes")):
            with pytest.raises(ValueError, match=match):
                tiny_config(tmp_path, **bad).validate()
        tiny_config(tmp_path, n_timestamps=10, station_stride=6).validate()  # 3 x 4 stations
        # methods compares the zero/persistence variants to ig@cheap_steps(); subadditivity
        # takes max(model_depths); every stage builds its models only after the data
        for bad, match in (({"ig_steps": 12, "ig_step_grid": (1, 12)}, "ig_step_grid"),
                           ({"model_depths": ()}, "model_depths"),
                           ({"model_depths": (1, 7)}, "model_depths"),
                           ({"model_depths": (0,)}, "model_depths")):
            with pytest.raises(ValueError, match=match):
                tiny_config(tmp_path, **bad).validate()
        tiny_config(tmp_path, ig_steps=12, ig_step_grid=(1, 8, 12), model_depths=(6,)).validate()
        # config ids are d{depth}-{name}-{var}, parsed back with split("-", 2)
        with pytest.raises(ValueError, match="'-'"):
            tiny_config(
                tmp_path, targets=(config.TargetConfig("new-york", 47.4, 8.6),),
                gaming=replace(config.GamingDesign(), combos=(("new-york", "t2m"),),
                               extended_combo=("new-york", "t2m")),
            ).validate()

    def test_schema_version_checked(self):
        with pytest.raises(ValueError):
            config.config_from_dict({"schema_version": 99})

    def test_input_errors_name_the_key(self):
        # each would otherwise fail in a dataclass __init__ or in validate(), naming no key
        target = {"name": "zurich", "lat": 47.4, "lon": 8.6}
        for bad, key in (({"sed": 7}, "sed"),
                         ({"seed": "7"}, "seed"),
                         ({"seed": True}, "seed"),
                         ({"ig_step_grid": 8}, "ig_step_grid"),
                         ({"patches": [1, "3"]}, "patches"),
                         ({"variables": "t2m"}, "variables"),
                         ({"variables": ["t2m", "t2m", "u10m"]}, "variables"),
                         ({"target_variables": ["t2m", "t2m"]}, "target_variables"),
                         ({"model_depths": [1, 1]}, "model_depths"),
                         ({"patches": [1, 3, 1]}, "patches"),
                         ({"modes": ["scale_bias", "scale_bias"]}, "modes"),
                         ({"ig_step_grid": [1, 8, 8, 50]}, "ig_step_grid"),
                         ({"selection_budgets": [5, 5]}, "selection_budgets"),
                         ({"gaming": {"combos": [["zurich", "t2m"], ["zurich", "t2m"]]}},
                          "gaming.combos"),
                         ({"gaming": {"n_attackers": [1, 1, 3]}}, "gaming.n_attackers"),
                         # 20 stations: an attacker count must leave an honest station
                         ({"n_lat": 16, "n_lon": 20, "gaming": {"n_attackers": [1, 30]}},
                          "gaming.n_attackers"),
                         ({"n_lat": 16, "n_lon": 20, "gaming": {"n_attackers": [1, 20]}},
                          "gaming.n_attackers"),
                         ({"gaming": {"magnitudes_pct": [50.0, 50.0]}}, "gaming.magnitudes_pct"),
                         ({"gaming": {"extended_magnitudes": [10.0, 10.0]}},
                          "gaming.extended_magnitudes"),
                         ({"gaming": {"extended_placements": ["close", "close"]}},
                          "gaming.extended_placements"),
                         ({"gaming": {"n_seed": 3}}, "gaming.n_seed"),
                         ({"gaming": {"n_seeds": [3]}}, "gaming.n_seeds"),
                         ({"gaming": {"magnitudes_pct": 50.0}}, "gaming.magnitudes_pct"),
                         ({"gaming": {"extended_combo": ["zurich", 2]}}, "gaming.extended_combo"),
                         ({"gaming": 3}, "gaming"),
                         ({"targets": [{**target, "alt": 400.0}]}, "targets.alt"),
                         ({"targets": [{**target, "lat": "north"}]}, "targets.lat"),
                         ({"targets": ["zurich"]}, "targets"),
                         ({"targets": target}, "targets"),
                         ({"targets": [target, target]}, "targets"),
                         ({"gaming": {"combos": [5]}}, "gaming.combos"),
                         ({"gaming": {"combos": [["zurich"]]}}, "gaming.combos"),
                         ({"gaming": {"combos": [["zurich", "t2m", "x"]]}}, "gaming.combos"),
                         ({"gaming": {"extended_combo": ["zurich"]}}, "gaming.extended_combo"),
                         ({"targets": [{"name": "zurich", "lat": 47.4}]}, "targets.lon"),
                         ({"targets": [{"name": "zurich", "lon": 8.6}]}, "targets.lat"),
                         ({"targets": [{**target, "lat": 20.0}]}, "targets"),  # off the grid
                         ({"gaming": {"extended_placements": ["far"]}},
                          "gaming.extended_placements"),
                         ({"station_stride": 40}, "station_stride"),
                         ({"n_lat": 2}, "n_lat"),
                         ({"n_lon": 3}, "n_lon")):
            with pytest.raises(ValueError, match=rf"\b{re.escape(key)}\b"):
                config.config_from_dict(bad)
        with pytest.raises(ValueError, match="document"):
            config.config_from_dict(["seed", 7])
        # ints stand for floats, and lists (also nested ones) become tuples
        cfg = config.config_from_dict({"budget": 500, "gaming": {
            "magnitudes_pct": [10, 30], "combos": [["zurich", "t2m"]]}})
        assert cfg.budget == 500 and cfg.gaming.magnitudes_pct == (10, 30)
        assert cfg.gaming.combos == (("zurich", "t2m"),)

    def test_int_spelling_of_a_float_is_the_same_config(self, tmp_path):
        # the hash and the scenario ids (written to gaming_scenarios.json) follow the value
        ints, floats = (config.config_from_dict({
            "budget": budget, "out_dir": str(tmp_path),
            "gaming": {"magnitudes_pct": pcts, "n_seeds": 1}})
            for budget, pcts in ((500, [10, 30, 50]), (500.0, [10.0, 30.0, 50.0])))
        assert ints == floats and config.config_hash(ints) == config.config_hash(floats)
        assert type(ints.budget) is float
        assert all(type(p) is float for p in ints.gaming.magnitudes_pct)
        ids = [[sc.scenario_id for sc in
                runner.build_scenarios(runner.RunState(cfg), "d1-zurich-t2m")]
               for cfg in (ints, floats)]
        assert ids[0] == ids[1] and len(ids[0]) > 0

    def test_every_declared_range_is_checked_from_a_file_and_from_code(self):
        # just outside each range, and NaN and infinities in every float slot; for a
        # tuple field its first entry, the others kept
        cfg, checked = config.ExperimentConfig(), set()
        for prefix, cls in (("", config.ExperimentConfig), ("gaming.", config.GamingDesign)):
            for name, hint in typing.get_type_hints(cls, include_extras=True).items():
                entry = typing.get_origin(hint) is tuple
                kind = typing.get_args(hint)[0] if entry else hint
                lo, hi = -math.inf, math.inf
                if typing.get_origin(kind) is typing.Annotated:
                    kind, (lo, hi) = typing.get_args(kind)
                    checked.add(prefix + name)
                if kind not in (int, float):
                    continue
                bad = [math.nan, math.inf, -math.inf] if kind is float else []
                step = (lambda v, d: v + d) if kind is int else (
                    lambda v, d: float(np.nextafter(v, v + d)))
                bad += [step(lo, -1)] * (lo > -math.inf) + [step(hi, 1)] * (hi < math.inf)
                owner = cfg.gaming if prefix else cfg
                for value in bad:
                    if entry:
                        value = (value,) + getattr(owner, name)[1:]
                    doc = {name: list(value) if entry else value}
                    if prefix:
                        doc, code = {"gaming": doc}, replace(
                            cfg, gaming=replace(cfg.gaming, **{name: value}))
                    else:
                        code = replace(cfg, **{name: value})
                    for check in (lambda: config.config_from_dict(doc), code.validate):
                        with pytest.raises(ValueError, match=rf"key {re.escape(prefix + name)}\b"):
                            check()
        assert checked == {
            "seed", "n_lat", "n_lon", "n_timestamps", "n_clim_draws", "station_stride",
            "model_depths",
            "channels", "stencil_radius", "truth_noise_frac", "truth_weight_jitter",
            "ig_steps", "ig_step_grid", "patches", "perturb_magnitude", "selection_budgets",
            "budget", "bootstrap_resamples", "bootstrap_level", "stability_top_k", "bh_q",
            "gaming.n_attackers", "gaming.magnitudes_pct", "gaming.extended_magnitudes",
            "gaming.n_seeds", "gaming.extended_seeds", "gaming.scope_seeds",
            "gaming.spoof_seeds"}

    def test_values_that_used_to_corrupt_a_run_are_rejected(self):
        cfg = config.ExperimentConfig()
        for key, value in (("seed", -1), ("budget", -5), ("bh_q", 2), ("bh_q", 0),
                           ("bh_q", 1), ("truth_weight_jitter", -0.5),
                           ("gaming.spoof_seeds", -1), ("gaming.magnitudes_pct", [math.nan]),
                           ("budget", math.inf)):
            if key.startswith("gaming."):
                name = key.split(".")[1]
                doc = {"gaming": {name: value}}
                code = replace(cfg, gaming=replace(cfg.gaming, **{
                    name: tuple(value) if isinstance(value, list) else value}))
            else:
                doc, code = {key: value}, replace(cfg, **{key: value})
            for check in (lambda: config.config_from_dict(doc), code.validate):
                with pytest.raises(ValueError, match=rf"\b{re.escape(key)}\b"):
                    check()

    def test_extended_combo_must_be_a_combo(self):
        # build_scenarios builds the extended, scope and placement scenarios of a gaming
        # combo only, so an extended_combo outside gaming.combos would leave them unbuilt
        cfg = config.ExperimentConfig()
        doc = {"gaming": {"combos": [["zurich", "t2m"]], "extended_combo": ["london", "t2m"]}}
        code = replace(cfg, gaming=replace(cfg.gaming, combos=(("zurich", "t2m"),),
                                           extended_combo=("london", "t2m")))
        for check in (lambda: config.config_from_dict(doc), code.validate):
            with pytest.raises(ValueError,
                               match=r"gaming\.extended_combo must be one of gaming\.combos"):
                check()
        replace(code, gaming=replace(code.gaming, extended_combo=("zurich", "t2m"))).validate()

    def test_code_configs_take_the_file_walk(self):
        cfg = config.ExperimentConfig()
        # equal to the default config but hashed differently, or unhashable
        for key, value in (("channels", 4.0), ("patches", [1, 3]), ("seed", True)):
            with pytest.raises(ValueError, match=rf"config key {key}\b"):
                replace(cfg, **{key: value}).validate()
        with pytest.raises(ValueError, match="config key gaming"):
            replace(cfg, gaming=replace(cfg.gaming, combos=[("zurich", "t2m")])).validate()
        # an int stands for a float in code as in a file: one hash, a float in config.yaml
        ints = replace(cfg, budget=500)
        ints.validate()
        assert config.config_hash(ints) == config.config_hash(replace(cfg, budget=500.0))
        assert type(config._identity(ints)["budget"]) is float

    def test_hashes_of_the_built_in_configs(self):
        # config.yaml and every store stamp hold these; the field tags are no part of them
        assert config.config_hash(config.ExperimentConfig()) == (
            "c8c2b8956242bed03ab0f59775ab96d2d8256f083e15487a22b0b4ee3984ada6")
        assert config.config_hash(config.fast_variant(config.ExperimentConfig())) == (
            "1709013daa623cd01059d6e20ec9468f957aa51111f168f9fa191f82f364df4d")

    def test_fast_variant(self):
        fast = config.fast_variant(config.ExperimentConfig())
        fast.validate()
        assert fast.ig_steps == 8 and fast.bootstrap_resamples == 1000


# one valid value per field other than the tiny config's; the tiny config's
# stores, less the ones the field's tag names, must not move under it
ALTERNATIVES = {
    "schema_version": 2,  # no other version loads; its tag names every store
    "seed": 8,
    "out_dir": "runs/elsewhere",
    "n_lat": 18,
    "n_lon": 22,
    "lat_min": 36.0,
    "lat_max": 69.0,
    "lon_min": -9.0,
    "lon_max": 39.0,
    "variables": ("t2m", "u10m", "msl", "q2m"),
    "n_timestamps": 13,
    "n_clim_draws": 50,
    "station_stride": 3,
    "targets": (config.TargetConfig("zurich", 46.5, 7.5),),
    "target_variables": ("t2m", "u10m"),
    "model_depths": (1, 2),
    "channels": 3,
    "stencil_radius": 1,
    "truth_noise_frac": 0.03,
    "truth_weight_jitter": 0.1,
    "ig_steps": 1,
    "ig_step_grid": (1, 4, 8),
    "patches": (1, 3, 5),
    "modes": ("additive_noise",),
    "perturb_magnitude": 0.2,
    "selection_budgets": (3, 4),
    "budget": 500.0,
    "bootstrap_resamples": 2000,
    "bootstrap_level": 0.9,
    "stability_top_k": 5,
    "bh_q": 0.1,
    "gaming": replace(tiny_config("unused").gaming, n_seeds=1, spoof_seeds=1),
}


def _store_computers(cfg, root) -> dict:
    """Per store, a function that computes its arrays for `cfg` in the directory `root`.

    The tables and gaming stores are one per config id; their arrays are keyed
    by (config id, array name).
    """
    state = runner.RunState(cfg, runner.Workspace(root))
    scenarios = {cid: runner.build_scenarios(state, cid)
                 for cid in state.config_ids(cfg.gaming.combos)}
    return {"data": state._synth_arrays,
            "tables": lambda: {(cid, name): arr for cid in state.config_ids()
                               for name, arr in state._compute_tables(cid).items()},
            "gaming": lambda: {(cid, name): arr for cid, scs in scenarios.items()
                               for name, arr in state._compute_gaming(cid, scs).items()}}


class TestStoreTags:
    def test_every_field_declares_the_stores_it_feeds(self):
        for f in dataclasses.fields(config.ExperimentConfig):
            assert "stores" in f.metadata, f"{f.name} declares no stores"
            stores = f.metadata["stores"]
            assert isinstance(stores, tuple) and len(set(stores)) == len(stores), f.name
            assert set(stores) <= set(config.STORES), f.name

    def test_a_field_moves_no_store_outside_its_tag(self, tmp_path):
        base = tiny_config(tmp_path / "unused")
        names = [f.name for f in dataclasses.fields(config.ExperimentConfig)]
        assert sorted(ALTERNATIVES) == sorted(names)  # a new field needs an alternative
        base_stores = _store_computers(base, tmp_path / "base")
        expected, checked = {}, set()
        for f in dataclasses.fields(config.ExperimentConfig):
            variant = replace(base, **{f.name: ALTERNATIVES[f.name]})
            assert variant != base, f.name
            outside = [s for s in config.STORES if s not in f.metadata["stores"]]
            if not outside:
                continue
            computers = _store_computers(variant, tmp_path / f.name)
            for store in outside:
                if store not in expected:
                    expected[store] = base_stores[store]()
                arrays = computers[store]()
                assert list(arrays) == list(expected[store]), (f.name, store)
                for name, arr in arrays.items():
                    assert np.array_equal(arr, expected[store][name], equal_nan=True), (
                        f.name, store, name)
                checked.add(store)
        assert checked == set(config.STORES)
