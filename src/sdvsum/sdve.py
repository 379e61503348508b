"""Binary containers for embeddings/labels ("SDVE") and checkpoints ("SDVC").

SDVE layout: magic ``SDVE`` | u32 version=1 | u32 rows | u32 cols | rows*cols
float32 values, row-major. Everything little-endian, no padding, no trailing
bytes. Labels ride in the same container with cols=1 so one reader and one
writer cover both.

SDVC layout: magic ``SDVC`` | u32 version=1 | u32 blob length | UTF-8 JSON
blob | u32 tensor count | per tensor: u16 name length, name, u32 rows, u32
cols, float32 data. One writer and one reader serve both of its uses: a
checkpoint (the blob is the model config, the tensors are the weights named
in the model module, e.g. ``attn.h3.wq``) and a dataset video (see the
datasets module).

Each malformation is reported with a distinct exception type so negative
tests can pin the failure mode, not just "something raised".

Every file the package writes goes through :func:`atomic_write`, so an
interrupted write never leaves a half-written file in place.
"""

from __future__ import annotations

import contextlib
import json
import os
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
    "atomic_write",
    "EMBED_MAGIC",
    "CHECKPOINT_MAGIC",
    "FORMAT_VERSION",
    "write_embeddings",
    "read_embeddings",
    "write_container",
    "read_container",
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


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_args):
    """Open a temp file beside ``path``; once the block ends, it replaces ``path``.

    If the block raises, the temp file is removed and any file already at
    ``path`` is left as it was: readers see the old contents or the new,
    never part of them.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, **open_args)
    except OSError as e:   # name the file the caller asked for, not the temp file
        raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


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
    """``m`` as the float32 matrix a writer stores, refused as its reader would refuse it."""
    with np.errstate(over="ignore"):   # beyond float32's range is refused just below
        a = np.ascontiguousarray(m, dtype=np.float32)
    if a.ndim != 2:
        raise TensorShapeError(f"{path}: expected a 2-D matrix, got shape {a.shape}")
    _check_dims(a.shape[0], a.shape[1], path)
    if not np.isfinite(a).all():
        raise NonFiniteValueError(f"{path}: matrix holds NaN or values infinite in float32")
    return a


def write_embeddings(m, path) -> None:
    """Write one matrix as an SDVE file."""
    a = _as_f32_matrix(m, path)
    with atomic_write(path) as fh:
        fh.write(EMBED_MAGIC)
        fh.write(_U32.pack(FORMAT_VERSION))
        fh.write(_U32.pack(a.shape[0]))
        fh.write(_U32.pack(a.shape[1]))
        fh.write(a.astype("<f4", copy=False).tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    """Read an SDVE file back into a float32 matrix; byte-exact round-trip."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    r.expect_magic(EMBED_MAGIC)
    r.expect_version()
    rows = r.u32("row count")
    cols = r.u32("column count")
    _check_dims(rows, cols, path)
    m = r.matrix(rows, cols, f"{rows}x{cols} float payload")
    r.done()
    return m


_MAX_NAME = 2**16 - 1


def write_container(blob: dict, tensors: dict[str, np.ndarray], path) -> None:
    """Write a JSON blob plus named tensors as an SDVC file.

    Tensor order follows the dict's iteration order and is preserved on read.
    Each tensor's bytes go straight to the file, so no second copy of the
    tensors is built in memory.
    """
    raw_blob = json.dumps(blob, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC + _U32.pack(FORMAT_VERSION) + _U32.pack(len(raw_blob))
                 + raw_blob + _U32.pack(len(tensors)))
        for name, t in tensors.items():
            raw_name = name.encode("utf-8")
            if not raw_name or len(raw_name) > _MAX_NAME:
                raise TensorNameError(f"{path}: tensor name {name!r} empty or too long")
            a = _as_f32_matrix(t, path).astype("<f4", copy=False)
            fh.write(_U16.pack(len(raw_name)) + raw_name + _U32.pack(a.shape[0])
                     + _U32.pack(a.shape[1]))
            fh.write(a.data)


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an SDVC file into (JSON blob, name -> tensor map)."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    r.expect_magic(CHECKPOINT_MAGIC)
    r.expect_version()
    blob_len = r.u32("blob length")
    raw_blob = r.take(blob_len, "blob")
    try:
        blob = json.loads(raw_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise TruncatedPayloadError(f"{path}: blob is not valid JSON: {e}") from e
    if not isinstance(blob, dict):
        raise TruncatedPayloadError(f"{path}: blob is not a JSON object")
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
    return blob, tensors


# A checkpoint is a container of the model config and the weights. Its I/O keeps
# names of its own, which perfbench/tracing.py wraps to time checkpoints alone.
write_checkpoint_file = write_container
read_checkpoint_file = read_container
