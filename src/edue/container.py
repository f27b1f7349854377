"""File formats: the EDT1 tensor container, and JSON.

EDT1 is a CRC-guarded binary file of named float arrays.  Layout, all
integers unsigned 32-bit little-endian:

    magic  "EDT1"
    count  u32
    entry* { name_len u32, name utf-8, rank u32, extents u32 * rank,
             payload float32-le * prod(extents) }
    crc32  u32 over every preceding byte

JSON files are strict (no NaN or infinity), sorted-key and end in a
newline, so the same content gives the same bytes; readers check them
with ``read_json_object`` and ``json_value``.

Writes go to a temp file in the target directory and are renamed into
place, so readers never observe a partial file.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import typing
import zlib
from pathlib import Path

import numpy as np

__all__ = ["ContainerError", "DataError", "save_container", "load_container",
           "entry_table", "atomic_write_bytes", "atomic_write_text", "check_minimums",
           "write_json", "read_json_object", "json_value", "typed_fields"]

MAGIC = b"EDT1"
_U32 = struct.Struct("<I")


class ContainerError(ValueError):
    """Malformed, truncated, or corrupt container file."""


class DataError(ValueError):
    """Missing, inconsistent, or malformed dataset / checkpoint layout."""


def _chunks(tensors: dict[str, np.ndarray]) -> list:
    """The file's pieces in order, payloads as C-order float32 arrays and
    the CRC last; raises before anything is written."""
    chunks = [MAGIC, _U32.pack(len(tensors))]
    seen = set()
    for name, arr in tensors.items():
        if name in seen:
            raise ContainerError(f"duplicate entry name {name!r}")
        seen.add(name)
        raw = name.encode("utf-8")
        arr = np.asarray(arr, dtype="<f4")
        chunks.append(_U32.pack(len(raw)))
        chunks.append(raw)
        chunks.append(_U32.pack(arr.ndim))
        for extent in arr.shape:
            chunks.append(_U32.pack(extent))
        chunks.append(np.ascontiguousarray(arr).reshape(-1))
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks.append(_U32.pack(crc & 0xFFFFFFFF))
    return chunks


def atomic_write_bytes(path: str | os.PathLike, chunks) -> None:
    """Write the byte chunks in order to a temporary file in the same
    directory, then rename it into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def write_json(path: str | os.PathLike, obj) -> None:
    """Strict, sorted-key JSON, byte-stable given obj; numpy scalars and
    arrays are written as their Python values.  A NaN or infinite number
    raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=lambda value: value.tolist())
    atomic_write_text(path, text + "\n")


def read_json_object(path: str | os.PathLike,
                     error: type[Exception] = DataError) -> dict:
    """Parse a JSON file whose top level must be an object; a missing
    file, invalid JSON or another top level raises error naming path."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except ValueError as exc:  # invalid JSON text or invalid UTF-8
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be a JSON object, "
                    f"got {type(doc).__name__}")
    return doc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# value kind -> (description, accepts the JSON value, converts it)
_FIELD_TYPES = {
    int: ("an integer", _is_int, int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float), float),
    str: ("a string", lambda v: isinstance(v, str), str),
    dict: ("an object", lambda v: isinstance(v, dict), dict),
    tuple[int, int]: ("a pair of integers",
                      lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                      and all(map(_is_int, v)), tuple),
}


def json_value(value, kind, where: str, key: str,
               error: type[Exception] = DataError, minimum: int | None = None):
    """value, a JSON value found under key, checked as kind and converted.

    kind is int, float, str, dict or tuple[int, int].  Integers never accept a
    bool, numbers accept an integer and return a float but no NaN,
    infinity or integer beyond the float range, and pairs accept a JSON
    list.  With minimum, a smaller value is refused too.  A refused
    value raises error, naming where and the key.
    """
    what, accepts, convert = _FIELD_TYPES[kind]
    if minimum is not None:
        what = f"{what} >= {minimum}"
    if not accepts(value) or (minimum is not None and value < minimum):
        raise error(f"{where} key {key!r} must be {what}, got {value!r}")
    if convert is float and not abs(value) <= sys.float_info.max:
        raise error(f"{where} key {key!r} must be a finite number, got {value!r}")
    return convert(value)


def typed_fields(doc: dict, cls, where: str, error: type[Exception]) -> dict:
    """doc's values checked by json_value against the field types of
    dataclass cls; every key of doc must be a field of cls."""
    hints = typing.get_type_hints(cls)
    return {key: json_value(value, hints[key], where, key, error)
            for key, value in doc.items()}


def check_minimums(obj, minimums: dict, error: type[Exception] = ValueError) -> None:
    """Refuse, naming it, the first field of obj below its minimum."""
    for key, low in minimums.items():
        if getattr(obj, key) < low:
            raise error(f"{key!r} must be >= {low}, got {getattr(obj, key)}")


def save_container(path: str | os.PathLike, tensors: dict[str, np.ndarray]) -> None:
    """Write named float arrays atomically; values are stored as float32."""
    atomic_write_bytes(path, _chunks(tensors))


class _Reader:
    def __init__(self, body: memoryview, path: Path):
        self.body = body
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.body):
            raise ContainerError(f"{self.path}: truncated while reading {what}")
        piece = self.body[self.pos:self.pos + n]
        self.pos += n
        return piece

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]


def load_container(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a container, verifying magic, CRC, and shape arithmetic."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MAGIC) + 8:
        raise ContainerError(f"{path}: file too short for a container")
    body, stored = memoryview(blob)[:-4], _U32.unpack_from(blob, len(blob) - 4)[0]
    if (zlib.crc32(body) & 0xFFFFFFFF) != stored:
        raise ContainerError(f"{path}: CRC mismatch, file is truncated or corrupt")

    rd = _Reader(body, path)
    if rd.take(4, "magic") != MAGIC:
        raise ContainerError(f"{path}: bad magic, not an EDT1 container")
    count = rd.u32("entry count")
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        name_len = rd.u32(f"entry {k} name length")
        name = str(rd.take(name_len, f"entry {k} name"), "utf-8")
        if name in out:
            raise ContainerError(f"{path}: duplicate entry name {name!r}")
        rank = rd.u32(f"{name!r} rank")
        extents = tuple(rd.u32(f"{name!r} extent {d}") for d in range(rank))
        numel = 1
        for e in extents:
            numel *= e
        payload = rd.take(numel * 4, f"{name!r} payload")
        # the one copy of each payload: a writable array owning its memory
        out[name] = np.frombuffer(payload, dtype="<f4").reshape(extents).copy()
    if rd.pos != len(body):
        raise ContainerError(f"{path}: {len(body) - rd.pos} trailing bytes after last entry")
    return out


def entry_table(path: str | os.PathLike) -> list[tuple[str, tuple, int]]:
    """(name, extents, byte size) per entry, for the inspect command."""
    tensors = load_container(path)
    return [(name, arr.shape, arr.size * 4) for name, arr in tensors.items()]
