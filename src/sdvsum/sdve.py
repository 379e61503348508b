"""Binary containers for embeddings/labels ("SDVE") and checkpoints ("SDVC").

SDVE layout: magic ``SDVE`` | u32 version=1 | u32 rows | u32 cols | rows*cols
float32 values, row-major. Everything little-endian, no padding, no trailing
bytes. Labels ride in the same container with cols=1 so one reader and one
writer cover both.

SDVC layout: magic ``SDVC`` | u32 version=1 | u32 blob length | UTF-8 JSON
config blob | u32 tensor count | per tensor: u16 name length, name, u32 rows,
u32 cols, float32 data. Tensor names are the fixed identifiers documented in
the model module (e.g. ``attn.h3.wq``).

Each malformation is reported with a distinct exception type so negative
tests can pin the failure mode, not just "something raised".
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import (
    BadMagicError,
    DimensionOverflowError,
    NonFiniteValueError,
    TensorNameError,
    TensorShapeError,
    TrailingBytesError,
    TruncatedPayloadError,
    VersionMismatchError,
)

__all__ = [
    "EMBED_MAGIC",
    "CHECKPOINT_MAGIC",
    "FORMAT_VERSION",
    "write_embeddings",
    "read_embeddings",
    "read_embedding_header",
    "write_checkpoint_file",
    "read_checkpoint_file",
]

EMBED_MAGIC = b"SDVE"
CHECKPOINT_MAGIC = b"SDVC"
FORMAT_VERSION = 1

# rows*cols capped so total element count stays within a signed 32-bit range
_MAX_ELEMENTS = 2**31 - 1

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


def _check_dims(rows: int, cols: int, path) -> None:
    if rows < 1 or cols < 1:
        raise TensorShapeError(f"{path}: non-positive dimensions {rows}x{cols}")
    if rows * cols > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"{path}: {rows}x{cols} exceeds the {_MAX_ELEMENTS}-element limit"
        )


class _Reader:
    """Cursor over a byte string with typed, bounds-checked reads."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedPayloadError(
                f"{self.path}: truncated while reading {what} "
                f"(needed {n} bytes at offset {self.pos}, file has {len(self.buf)})"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u16(self, what: str) -> int:
        return _U16.unpack(self.take(2, what))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic), "magic")
        if got != magic:
            raise BadMagicError(f"{self.path}: bad magic {got!r}, expected {magic!r}")

    def expect_version(self) -> None:
        v = self.u32("version")
        if v != FORMAT_VERSION:
            raise VersionMismatchError(
                f"{self.path}: format version {v}, this reader handles {FORMAT_VERSION}"
            )

    def embedding_header(self) -> tuple[int, int]:
        """SDVE magic, version and (rows, cols), with the dimensions checked."""
        self.expect_magic(EMBED_MAGIC)
        self.expect_version()
        rows = self.u32("row count")
        cols = self.u32("column count")
        _check_dims(rows, cols, self.path)
        return rows, cols

    def matrix(self, rows: int, cols: int, what: str) -> np.ndarray:
        raw = self.take(rows * cols * 4, what)
        a = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
        if not np.isfinite(a).all():
            raise NonFiniteValueError(f"{self.path}: {what} holds NaN or infinite values")
        return np.ascontiguousarray(a).astype(np.float32, copy=False)

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise TrailingBytesError(
                f"{self.path}: {len(self.buf) - self.pos} trailing bytes after payload"
            )


def _as_f32_matrix(m, path) -> np.ndarray:
    a = np.ascontiguousarray(m, dtype=np.float32)
    if a.ndim != 2:
        raise TensorShapeError(f"{path}: expected a 2-D matrix, got shape {a.shape}")
    _check_dims(a.shape[0], a.shape[1], path)
    return a


def write_embeddings(m, path) -> None:
    """Write one matrix as an SDVE file."""
    a = _as_f32_matrix(m, path)
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(_U32.pack(FORMAT_VERSION))
        fh.write(_U32.pack(a.shape[0]))
        fh.write(_U32.pack(a.shape[1]))
        fh.write(a.astype("<f4", copy=False).tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    """Read an SDVE file back into a float32 matrix; byte-exact round-trip."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    rows, cols = r.embedding_header()
    m = r.matrix(rows, cols, f"{rows}x{cols} float payload")
    r.done()
    return m


def read_embedding_header(path) -> tuple[int, int]:
    """Read only (rows, cols), skipping the payload; cheap manifest validation."""
    with open(path, "rb") as fh:
        return _Reader(fh.read(16), path).embedding_header()


_MAX_NAME = 2**16 - 1


def write_checkpoint_file(config: dict, tensors: dict[str, np.ndarray], path) -> None:
    """Write a config blob plus named tensors as an SDVC file.

    Tensor order follows the dict's iteration order and is preserved on read.
    """
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, _U32.pack(FORMAT_VERSION),
              _U32.pack(len(blob)), blob, _U32.pack(len(tensors))]
    for name, t in tensors.items():
        raw_name = name.encode("utf-8")
        if not raw_name or len(raw_name) > _MAX_NAME:
            raise TensorNameError(f"{path}: tensor name {name!r} empty or too long")
        a = _as_f32_matrix(t, path)
        chunks.append(_U16.pack(len(raw_name)))
        chunks.append(raw_name)
        chunks.append(_U32.pack(a.shape[0]))
        chunks.append(_U32.pack(a.shape[1]))
        chunks.append(a.astype("<f4", copy=False).tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_checkpoint_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an SDVC file into (config dict, name -> tensor map)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    r.expect_magic(CHECKPOINT_MAGIC)
    r.expect_version()
    blob_len = r.u32("config blob length")
    blob = r.take(blob_len, "config blob")
    try:
        config = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TruncatedPayloadError(f"{path}: config blob is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise TruncatedPayloadError(f"{path}: config blob is not a JSON object")
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u16(f"tensor {i} name length")
        try:
            name = r.take(name_len, f"tensor {i} name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise TensorNameError(f"{path}: tensor {i} name is not UTF-8") from e
        if not name:
            raise TensorNameError(f"{path}: tensor {i} has an empty name")
        if name in tensors:
            raise TensorNameError(f"{path}: duplicate tensor name {name!r}")
        rows = r.u32(f"tensor {name!r} row count")
        cols = r.u32(f"tensor {name!r} column count")
        _check_dims(rows, cols, path)
        tensors[name] = r.matrix(rows, cols, f"tensor {name!r} payload")
    r.done()
    return config, tensors
