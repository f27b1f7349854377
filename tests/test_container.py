"""EDT1 container round trips and corruption handling."""

import itertools
import math
import struct
import zlib

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


def encode_reference(tensors):
    """The earlier whole-file encoder: every chunk joined, then the CRC
    appended.  save_container must write exactly these bytes."""
    chunks = [b"EDT1", struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f4")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        for extent in arr.shape:
            chunks.append(struct.pack("<I", extent))
        chunks.append(arr.tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_save_writes_the_reference_encoding(tmp_path):
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((4, 6))
    tensors = {
        "f32": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
        "f64": rng.standard_normal((5, 7)),                  # cast to float32
        "transposed": grid.T,                                # not C-contiguous
        "strided": grid[::2, 1::3],
        "scalar": np.array(4.25, dtype=np.float32),
        "python scalar": 2.5,
        "empty": np.zeros((0, 3), dtype=np.float32),
        "big-endian": np.arange(6, dtype=">f4").reshape(2, 3),
        "enc/блок-1": np.ones((2, 2), dtype=np.float32),
    }
    for case in ({}, tensors):
        path = tmp_path / "w.edt"
        save_container(path, case)
        assert path.read_bytes() == encode_reference(case)


def test_loaded_arrays_are_writable_and_independent(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "w.edt"
    save_container(path, {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
                          "c": np.array(1.5), "d": np.zeros((2, 0))})
    loaded = list(load_container(path).values())
    for arr in loaded:
        assert arr.dtype == np.float32 and arr.flags.writeable and arr.flags.c_contiguous
    for x, y in itertools.combinations(loaded, 2):
        assert not np.shares_memory(x, y)
    loaded[0][...] = 7.0
    assert not np.any(loaded[1] == 7.0)


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
    assert list(tmp_path.iterdir()) == []


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
