"""Tests for run configuration: presets, overrides, checks on construction."""

import json
import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edue.config import (
    ConfigError,
    PRESET_NAMES,
    RunConfig,
    from_dict,
    load_config,
    preset,
    save_config,
)
from edue.disagreement import LossWeights
from edue.harness import ARMS
from edue.model import build_model

FLOAT_KEYS = sorted(f.name for f in fields(RunConfig) if f.type == "float")


class TestPresets:
    def test_preset_names(self):
        assert set(PRESET_NAMES) == {"desk", "riga-like", "hecktor-like"}

    def test_desk_preset_is_minutes_scale(self):
        cfg = preset("desk")
        replace(cfg)  # the checks run again, and pass
        assert cfg.input_size == (32, 32)
        assert cfg.n_e == 4
        assert build_model(cfg.model_config()).n_heads == 3
        assert cfg.epochs == 30
        assert cfg.n_train == 200
        assert cfg.de_members == 3
        assert cfg.head_skip == 0

    def test_riga_like_preset_constants(self):
        cfg = preset("riga-like")
        replace(cfg)  # the checks run again, and pass
        assert cfg.n_e == 6
        assert build_model(cfg.model_config()).n_heads == 5
        assert cfg.input_size == (256, 256)
        assert cfg.in_channels == 3
        assert cfg.epochs == 200 and cfg.batch_size == 16
        assert cfg.lr == 5e-5 and cfg.beta == 5.0
        assert cfg.de_members == 5 and cfg.head_skip == 3
        assert cfg.structure == "nested" and cfg.n_raters == 6

    def test_hecktor_like_preset_constants(self):
        cfg = preset("hecktor-like")
        replace(cfg)  # the checks run again, and pass
        assert cfg.epochs == 120 and cfg.batch_size == 32
        assert cfg.lr == 5e-5 and cfg.beta == 2.5
        assert cfg.de_members == 5
        assert cfg.structure == "single_blob" and cfg.n_raters == 3

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_leaves_two_heads(self, name):
        cfg = preset(name)
        replace(cfg)  # the checks run again, and pass
        assert cfg.n_e - 1 - cfg.head_skip >= 2

    def test_head_skip_must_leave_two_heads(self):
        from_dict({"head_skip": 1})  # desk: three heads, two kept
        with pytest.raises(ConfigError, match="head_skip"):
            from_dict({"head_skip": 2})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="'preset' must be one of"):
            preset("warehouse")


class TestFromDict:
    def test_empty_dict_is_desk(self):
        assert from_dict({}) == preset("desk")

    def test_overrides_apply_on_top_of_preset(self):
        cfg = from_dict({"preset": "desk", "epochs": 3, "lr": 0.01,
                         "input_size": [16, 16], "base_channels": 4})
        assert cfg.epochs == 3
        assert cfg.lr == 0.01
        assert cfg.input_size == (16, 16)
        assert cfg.n_e == 4  # untouched preset value

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: 'epoch'"):
            from_dict({"epoch": 3})
        with pytest.raises(ConfigError, match="unknown config keys: 'head_hidden'"):
            from_dict({"head_hidden": 0})
        with pytest.raises(ConfigError, match="unknown config keys: 'n_d'"):
            from_dict({"n_d": 3})
        with pytest.raises(ConfigError, match="unknown config keys: 'n_test'"):
            from_dict({"n_test": 100})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
    def test_non_finite_numbers_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"run.json: config key '{key}' "
                                              f"must be a finite number"):
            from_dict({key: value}, where="run.json: config")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="'epochs' must be an integer"):
            from_dict({"epochs": "30"})
        with pytest.raises(ConfigError, match="'epochs' must be an integer"):
            from_dict({"epochs": True})
        with pytest.raises(ConfigError, match="'lr' must be a number"):
            from_dict({"lr": "fast"})
        with pytest.raises(ConfigError, match="'structure' must be a string"):
            from_dict({"structure": 3})
        with pytest.raises(ConfigError, match="pair of integers"):
            from_dict({"input_size": [32]})
        with pytest.raises(ConfigError, match="pair of integers"):
            from_dict({"input_size": [32, 32.0]})

    def test_integer_accepted_for_float_key(self):
        cfg = from_dict({"beta": 2})
        assert cfg.beta == 2.0
        assert isinstance(cfg.beta, float)

    def test_cross_validation_propagates(self):
        with pytest.raises(ConfigError):
            from_dict({"delta_high": 100.0})  # over a quarter of the image
        with pytest.raises(ConfigError):
            from_dict({"n_train": 0})
        with pytest.raises(ConfigError):
            from_dict({"structure": "spiral"})
        with pytest.raises(ConfigError):
            from_dict({"input_size": [30, 30]})  # not divisible by 2^n_e

    @pytest.mark.parametrize("doc, message", [
        ({"input_size": [2 ** 40, 2 ** 40]}, "'input_size' sides must be at most 4096"),
        ({"input_size": [8192, 32]}, "'input_size' sides must be at most 4096"),
        ({"base_channels": 100_000_000}, "'base_channels' * 'channel_growth' ** ('n_e' - 1)"),
        ({"channel_growth": 20}, "'base_channels' * 'channel_growth' ** ('n_e' - 1), the "
                                 "widest layer, must be at most 4096, got 64000"),
        ({"n_train": 100_001}, "'n_train' must be in [1, 100000], got 100001"),
    ], ids=["input_size-2^40", "input_size-8192", "base_channels", "channel_growth", "n_train"])
    def test_oversized_values_rejected(self, doc, message):
        with pytest.raises(ConfigError, match="^" + re.escape(f"big.json: config: {message}")):
            from_dict(doc, where="big.json: config")

    def test_bounds_are_inclusive(self):
        from_dict({"input_size": [4096, 4096]})
        from_dict({"base_channels": 512})  # 512 * 2 ** 3 = 4096 channels
        from_dict({"n_train": 100_000})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            from_dict(["desk"])


class TestDerivedConfigs:
    def test_model_config_mirrors_fields(self):
        cfg = from_dict({"base_channels": 16, "seed": 4})
        mc = cfg.model_config()
        assert mc.base_channels == 16
        assert mc.input_size == cfg.input_size
        assert mc.seed == 4
        assert replace(cfg, seed=11).model_config().seed == 11

    def test_scene_params_mirror_fields(self):
        cfg = from_dict({"n_raters": 5, "delta_low": 0.2, "in_channels": 2})
        sp = cfg.scene_params()
        assert sp.n_raters == 5
        assert sp.delta_low == 0.2

    @pytest.mark.parametrize("derive", [RunConfig.model_config, RunConfig.scene_params])
    def test_derived_fields_are_run_config_fields_of_the_same_name(self, derive):
        cfg = from_dict({"preset": "riga-like", "seed": 4, "delta_low": 0.2})
        derived = derive(cfg)
        names = [f.name for f in fields(derived)]
        assert set(names) <= {f.name for f in fields(RunConfig)}
        assert {name: getattr(derived, name) for name in names} == {
            name: getattr(cfg, name) for name in names}

    def test_arms_read_schedule_fields(self):
        cfg = from_dict({"beta": 3.5, "de_members": 4, "head_skip": 1})
        assert cfg.beta == 3.5
        assert cfg.de_members == 4
        assert ARMS["edue"].skipped_heads(cfg) == 1
        assert ARMS["de"].skipped_heads(cfg) == 0


class TestFileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        cfg = from_dict({"preset": "desk", "epochs": 7, "seed": 3,
                         "input_size": [16, 16], "base_channels": 4})
        path = tmp_path / "run.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_saved_file_is_sorted_json_with_newline(self, tmp_path):
        path = tmp_path / "run.json"
        save_config(path, preset("desk"))
        text = path.read_text()
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_as_dict_uses_json_types(self):
        doc = preset("desk").as_dict()
        assert doc["input_size"] == [32, 32]
        assert from_dict(doc) == preset("desk")


# A few keys per document, each with a value of its own type or any JSON
# value, so documents reach validation past the type check too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4)
SMALL_INTS = st.integers() | st.integers(0, 8)
TYPED = {
    "int": SMALL_INTS,
    "float": (st.floats() | st.floats(0.0, 1.0) | st.integers()
              | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])),
    "str": st.sampled_from(PRESET_NAMES + ("single_blob", "nested", "x")),
    "tuple[int, int]": st.lists(SMALL_INTS | st.sampled_from([16, 32, 64]),
                                min_size=2, max_size=2),
}
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
CONFIG_DOCS = st.lists(st.sampled_from(sorted(FIELD_TYPES)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: TYPED[FIELD_TYPES[key]] | JSON_VALUES for key in keys}))


@settings(max_examples=300, deadline=None)
@given(CONFIG_DOCS)
def test_from_dict_returns_valid_config_or_config_error(doc):
    try:
        cfg = from_dict(doc)
    except ConfigError:
        return
    replace(cfg)  # the checks run again, and pass
    assert all(math.isfinite(getattr(cfg, key)) for key in FLOAT_KEYS)


# Each config type checks itself when it is built, so no instance of it
# holds a bad value: replace() of a valid instance runs the checks again.
# The bad values are the ones the tests of each type use.
DESK = preset("desk")
BAD_VALUES = [
    (DESK.model_config(), {"n_e": 1}, "'n_e' must be >= 2, got 1"),
    (DESK.model_config(), {"input_size": (36, 36)},
     "'input_size' must be divisible by 2^4, got (36, 36)"),
    (DESK.scene_params(), {"n_raters": 1}, "'n_raters' must be in [2, 16], got 1"),
    (DESK.scene_params(), {"n_raters": 17}, "'n_raters' must be in [2, 16], got 17"),
    (DESK.scene_params(), {"delta_low": 3.0, "delta_high": 1.0},
     "need 0 <= 'delta_low' <= 'delta_high', got 3.0 and 1.0"),
    (DESK.scene_params(), {"delta_high": 8.0},
     "'delta_high' 8.0 must be under a quarter of 'input_size' (32, 32)"),
    (DESK.scene_params(), {"ambiguity_mix": 1.5}, "'ambiguity_mix' must be in [0, 1], got 1.5"),
    (DESK.scene_params(), {"structure": "donut"},
     "'structure' must be 'single_blob' or 'nested', got 'donut'"),
    (DESK.scene_params(), {"input_size": (8, 8)},
     "'input_size' must be at least 16x16, got (8, 8)"),
    (DESK.scene_params(), {"in_channels": 0}, "'in_channels' must be >= 1, got 0"),
    (LossWeights(1.0, 1.0), {"alpha": 0.0, "beta": 0.0}, "'alpha' and 'beta' cannot both be zero"),
    (LossWeights(1.0, 1.0), {"alpha": -1.0}, "'alpha' must be >= 0, got -1.0"),
    (DESK, {"epochs": 0}, "'epochs' must be >= 1, got 0"),
    (DESK, {"lr": 0.0}, "'lr' must be positive, got 0.0"),
    (DESK, {"de_members": 1}, "'de_members' must be >= 2, got 1"),
    (DESK, {"head_skip": -1}, "'head_skip' must be >= 0, got -1"),
    (DESK, {"head_skip": 2}, "'head_skip' 2 must leave at least 2 of the 3 heads"),
    (DESK, {"alpha": -0.5}, "'alpha' must be >= 0, got -0.5"),
    (DESK, {"seed": -1}, "'seed' must be >= 0, got -1"),
    (DESK, {"preset": "warehouse"}, "'preset' must be one of ['desk', 'hecktor-like', "
                                    "'riga-like'], got 'warehouse'"),
]


@pytest.mark.parametrize(
    "valid, change, message", BAD_VALUES,
    ids=[f"{type(valid).__name__}-" + ",".join(f"{k}={v}" for k, v in change.items())
         for valid, change, _ in BAD_VALUES])
def test_every_config_type_refuses_a_bad_value_when_built(valid, change, message):
    replace(valid)
    error = ConfigError if isinstance(valid, RunConfig) else ValueError
    with pytest.raises(error, match=re.escape(message)):
        replace(valid, **change)


# One bad value per RunConfig field.  Whichever check refuses it, the
# message names the config's own key, quoted: input_size's 16x16 floor is
# the scene generator's rule, stated there under the same key.
BAD_FIELD_VALUES = {
    "preset": "x", "seed": -1, "n_e": 1, "in_channels": 0, "base_channels": 0,
    "channel_growth": 0, "input_size": [0, 0], "alpha": -1.0, "beta": -1.0,
    "n_raters": 1, "delta_low": -1.0, "delta_high": 100.0, "ambiguity_mix": 1.5,
    "texture_noise": -1.0, "structure": "donut", "epochs": 0, "batch_size": 0,
    "lr": 0.0, "de_members": 1, "head_skip": -1, "n_train": 0,
}


def test_bad_values_cover_every_field():
    assert set(BAD_FIELD_VALUES) == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("key", sorted(BAD_FIELD_VALUES))
def test_from_dict_refusal_quotes_the_config_key(key):
    with pytest.raises(ConfigError) as info:
        from_dict({key: BAD_FIELD_VALUES[key]}, where="run.json: config")
    assert str(info.value).startswith("run.json: config: ")
    assert repr(key) in str(info.value)


def test_scene_floor_names_input_size():
    with pytest.raises(ConfigError, match=re.escape(
            "config: 'input_size' must be at least 16x16, got (8, 8)")):
        from_dict({"n_e": 2, "input_size": [8, 8]})
