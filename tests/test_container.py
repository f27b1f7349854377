"""EDT1 container round trips and corruption handling."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edue.config import preset
from edue.config import ConfigError
from edue.container import (ContainerError, DataError, entry_table, json_value,
                            load_container, read_json_object, save_container)
from edue.model import build_model, save_checkpoint


def test_roundtrip_is_bitwise_stable(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "weights": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
        "bias": rng.standard_normal(3).astype(np.float32),
        "scalar": np.array(4.25, dtype=np.float32),
    }
    path = tmp_path / "w.edt"
    save_container(path, tensors)
    loaded = load_container(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert loaded[name].tobytes() == tensors[name].tobytes()

    save_container(tmp_path / "w2.edt", loaded)
    assert (tmp_path / "w2.edt").read_bytes() == path.read_bytes()


def test_empty_container(tmp_path):
    path = tmp_path / "empty.edt"
    save_container(path, {})
    assert load_container(path) == {}
    # magic + count + crc only
    assert path.stat().st_size == 4 + 4 + 4


def test_float_payload_is_little_endian(tmp_path):
    path = tmp_path / "one.edt"
    save_container(path, {"x": np.array([1.0], dtype=np.float32)})
    blob = path.read_bytes()
    # entry: 4 magic, 4 count, 4 name_len, 1 name, 4 rank, 4 extent, payload
    payload = blob[4 + 4 + 4 + 1 + 4 + 4:-4]
    assert payload == bytes([0x00, 0x00, 0x80, 0x3F])


def test_crc_detects_flipped_byte(tmp_path):
    path = tmp_path / "w.edt"
    save_container(path, {"x": np.arange(6, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[15] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ContainerError, match="CRC"):
        load_container(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "w.edt"
    save_container(path, {"x": np.arange(6, dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(ContainerError):
        load_container(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "w.edt"
    body = b"NOPE" + struct.pack("<I", 0)
    path.write_bytes(body + struct.pack("<I", __import__("zlib").crc32(body)))
    with pytest.raises(ContainerError, match="magic"):
        load_container(path)


def test_duplicate_names_rejected_on_save(tmp_path):
    # dict keys are unique, so build the collision through encode internals
    class Cheat(dict):
        def items(self):
            return [("x", np.zeros(1)), ("x", np.zeros(1))]

    with pytest.raises(ContainerError, match="duplicate"):
        save_container(tmp_path / "w.edt", Cheat())


def test_unicode_names_roundtrip(tmp_path):
    path = tmp_path / "w.edt"
    save_container(path, {"enc/блок-1.weights": np.ones((2, 2), dtype=np.float32)})
    assert "enc/блок-1.weights" in load_container(path)


def test_entry_table(tmp_path):
    path = tmp_path / "w.edt"
    save_container(path, {"a": np.zeros((2, 3), dtype=np.float32), "b": np.zeros(5, dtype=np.float32)})
    table = entry_table(path)
    assert ("a", (2, 3), 24) in table and ("b", (5,), 20) in table


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(directory, build_model(preset("desk").model_config()))
    return directory / "weights.edt"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_weights_file_raises_container_error(weights_file, data):
    blob = bytearray(weights_file.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    broken = weights_file.with_name("broken.edt")
    broken.write_bytes(bytes(blob))
    with pytest.raises(ContainerError):
        load_container(broken)


@pytest.mark.parametrize("value, kind, minimum, what", [
    (True, int, None, "an integer"),
    (1.0, int, None, "an integer"),
    ("3", int, None, "an integer"),
    (0, int, 1, "an integer >= 1"),
    (-1, int, 0, "an integer >= 0"),
    (math.nan, float, None, "a finite number"),
    (math.inf, float, None, "a finite number"),
    (-math.inf, float, None, "a finite number"),
    (10 ** 400, float, None, "a finite number"),
    (False, float, None, "a number"),
    (3, str, None, "a string"),
    ([1], dict, None, "an object"),
    ([32], tuple[int, int], None, "a pair of integers"),
    ([32, 32.0], tuple[int, int], None, "a pair of integers"),
    ([32, True], tuple[int, int], None, "a pair of integers"),
])
def test_json_value_refuses_naming_where_and_key(value, kind, minimum, what):
    with pytest.raises(DataError) as info:
        json_value(value, kind, "f.json: config", "size", minimum=minimum)
    assert str(info.value) == f"f.json: config key 'size' must be {what}, got {value!r}"


@pytest.mark.parametrize("value, kind, minimum, expected", [
    (0, int, 0, 0),
    (2, float, None, 2.0),
    ([16, 32], tuple[int, int], None, (16, 32)),
    ({"a": 1}, dict, None, {"a": 1}),
])
def test_json_value_converts(value, kind, minimum, expected):
    got = json_value(value, kind, "f.json:", "k", minimum=minimum)
    assert got == expected and type(got) is type(expected)


def test_json_value_raises_the_passed_error():
    with pytest.raises(ConfigError, match="'k' must be a string"):
        json_value(1, str, "where", "k", ConfigError)


@pytest.mark.parametrize("error", [DataError, ConfigError])
def test_read_json_object_missing_file_raises_passed_error(tmp_path, error):
    path = tmp_path / "absent.json"
    with pytest.raises(error, match="absent.json: file not found"):
        read_json_object(path, error)
