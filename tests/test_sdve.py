"""Binary container formats: byte-level layout, round-trips, negative controls."""

import errno
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from sdvsum.errors import (
    BadMagicError,
    DimensionOverflowError,
    NonFiniteValueError,
    TensorNameError,
    TensorShapeError,
    TrailingBytesError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from sdvsum import sdve
from sdvsum.sdve import (
    atomic_write,
    read_checkpoint_file,
    read_container,
    read_embeddings,
    write_checkpoint_file,
    write_container,
    write_embeddings,
)


def embed_bytes(rows, cols, values):
    """Reference encoder, written independently of the library."""
    head = b"SDVE" + struct.pack("<III", 1, rows, cols)
    return head + struct.pack(f"<{len(values)}f", *values)


# ---------------------------------------------------------------------------
# embeddings


def test_layout_matches_reference_encoder(tmp_path):
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
    p = tmp_path / "m.sdve"
    write_embeddings(m, p)
    assert p.read_bytes() == embed_bytes(2, 3, [1, 2, 3, 4, 5, 6])


def test_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (1, 7), (7, 1), (3, 4), (60, 64)]:
        m = rng.normal(size=shape).astype(np.float32)
        p = tmp_path / "m.sdve"
        write_embeddings(m, p)
        out = read_embeddings(p)
        assert out.dtype == np.float32
        assert np.array_equal(out, m)


def test_round_trip_preserves_special_values(tmp_path):
    m = np.array([[0.0, -0.0, np.float32(1e-38), np.float32(3.4e38)]], dtype=np.float32)
    p = tmp_path / "m.sdve"
    write_embeddings(m, p)
    assert read_embeddings(p).tobytes() == m.tobytes()


def test_wrong_magic(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0.0))
    with pytest.raises(BadMagicError):
        read_embeddings(p)


def test_wrong_version(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(b"SDVE" + struct.pack("<III", 2, 1, 1) + struct.pack("<f", 0.0))
    with pytest.raises(VersionMismatchError):
        read_embeddings(p)


def test_truncated_payload(tmp_path):
    # Header says 2x3 but only 5 floats follow (the sixth is missing).
    p = tmp_path / "m.sdve"
    p.write_bytes(embed_bytes(2, 3, [1, 2, 3, 4, 5]))
    with pytest.raises(TruncatedPayloadError):
        read_embeddings(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(b"SDVE" + struct.pack("<I", 1))
    with pytest.raises(TruncatedPayloadError):
        read_embeddings(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(embed_bytes(1, 2, [1, 2]) + b"\x00")
    with pytest.raises(TrailingBytesError):
        read_embeddings(p)


def test_dimension_overflow(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(b"SDVE" + struct.pack("<III", 1, 2**20, 2**20))
    with pytest.raises(DimensionOverflowError):
        read_embeddings(p)


def test_zero_extent_rejected(tmp_path):
    p = tmp_path / "m.sdve"
    p.write_bytes(b"SDVE" + struct.pack("<III", 1, 0, 3))
    with pytest.raises(Exception):
        read_embeddings(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(tmp_path, value):
    # the writers refuse such values, so the files are made by hand
    (tmp_path / "m.sdve").write_bytes(embed_bytes(1, 2, [1.0, value]))
    with pytest.raises(NonFiniteValueError):
        read_embeddings(tmp_path / "m.sdve")
    write_checkpoint_file({}, {"w": np.array([[1.0]])}, tmp_path / "c.sdvc")
    raw = (tmp_path / "c.sdvc").read_bytes()
    (tmp_path / "c.sdvc").write_bytes(raw[:-4] + struct.pack("<f", value))
    with pytest.raises(NonFiniteValueError, match="'w'"):
        read_checkpoint_file(tmp_path / "c.sdvc")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e39])
def test_writers_refuse_what_the_readers_refuse(tmp_path, value):
    # NaN, infinities and float64 values beyond float32's range: no file is
    # written, no temporary is left, a file already at the path is unchanged,
    # and the overflowing cast warns nothing
    m = np.array([[1.0, value]])
    old = embed_bytes(1, 1, [2.0])
    for write, name in ((lambda p: write_embeddings(m, p), "m.sdve"),
                        (lambda p: write_checkpoint_file({}, {"w": m}, p), "c.sdvc")):
        fresh, kept = tmp_path / f"fresh-{name}", tmp_path / f"kept-{name}"
        fresh.mkdir()
        kept.mkdir()
        (kept / name).write_bytes(old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for folder in (fresh, kept):
                with pytest.raises(NonFiniteValueError):
                    write(folder / name)
        assert list(fresh.iterdir()) == []
        assert [p.name for p in kept.iterdir()] == [name]
        assert (kept / name).read_bytes() == old


def test_write_rejects_non_matrix(tmp_path):
    with pytest.raises(Exception):
        write_embeddings(np.zeros((2, 2, 2), dtype=np.float32), tmp_path / "m.sdve")


# ---------------------------------------------------------------------------
# checkpoints


def ckpt_pair():
    config = {"dim": 16, "heads": 4, "note": "unit"}
    rng = np.random.default_rng(3)
    tensors = {
        "a.w": rng.normal(size=(4, 4)).astype(np.float32),
        "a.b": rng.normal(size=(1, 4)).astype(np.float32),
        "head.w": rng.normal(size=(4, 1)).astype(np.float32),
    }
    return config, tensors


def test_checkpoint_round_trip(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    config2, tensors2 = read_checkpoint_file(p)
    assert config2 == config
    assert list(tensors2) == list(tensors)  # order preserved
    for name in tensors:
        assert np.array_equal(tensors2[name], tensors[name])
        assert tensors2[name].dtype == np.float32


def test_checkpoint_magic_distinct_from_embeddings(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    assert p.read_bytes()[:4] == b"SDVC"
    with pytest.raises(BadMagicError):
        read_embeddings(p)


def test_checkpoint_empty_name_rejected(tmp_path):
    with pytest.raises(TensorNameError):
        write_checkpoint_file({}, {"": np.zeros((1, 1), dtype=np.float32)}, tmp_path / "c.sdvc")


def test_checkpoint_trailing_bytes(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(TrailingBytesError):
        read_checkpoint_file(p)


def test_checkpoint_truncation(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_checkpoint_file(p)


def container_bytes(blob, tensors):
    """Reference SDVC encoder, written independently of the library."""
    raw = json.dumps(blob, sort_keys=True).encode()
    out = b"SDVC" + struct.pack("<II", 1, len(raw)) + raw + struct.pack("<I", len(tensors))
    for name, values in tensors.items():
        rows, cols = len(values), len(values[0])
        flat = [x for row in values for x in row]
        raw_name = name.encode()
        out += struct.pack("<H", len(raw_name)) + raw_name + struct.pack("<II", rows, cols)
        out += struct.pack(f"<{len(flat)}f", *flat)
    return out


def test_container_bytes_equal_a_hand_built_encoding(tmp_path):
    values = {"frames": [[0.5, -1.0, 2.0], [3.25, 0.0, -0.125]], "labels_00": [[1.0], [0.0]],
              "é": [[7.0, 8.0]]}
    # float64, a transposed (non-contiguous) view and float32 are written alike
    tensors = {"frames": np.array(values["frames"]),
               "labels_00": np.array([[1.0, 0.0]], dtype=np.float32).T,
               "é": np.array(values["é"], dtype=np.float32)}
    blob = {"video": "v0", "a": [1, 2]}
    write_container(blob, tensors, tmp_path / "v.sdvc")
    assert (tmp_path / "v.sdvc").read_bytes() == container_bytes(blob, values)
    write_checkpoint_file(blob, tensors, tmp_path / "c.sdvc")
    assert (tmp_path / "c.sdvc").read_bytes() == (tmp_path / "v.sdvc").read_bytes()
    back_blob, back = read_container(tmp_path / "v.sdvc")
    assert back_blob == blob and list(back) == list(tensors)
    assert back["labels_00"].tolist() == values["labels_00"]


def test_container_writer_holds_no_copy_of_the_tensors(tmp_path):
    tensors = {f"t{i}": np.ones((512, 512), dtype=np.float32) for i in range(8)}   # 8 MiB
    tracemalloc.start()
    try:
        write_container({}, tensors, tmp_path / "big.sdvc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert (tmp_path / "big.sdvc").stat().st_size > 8 << 20


def test_container_refused_midway_leaves_no_file(tmp_path):
    bad = {"a": np.ones((2, 2)), "b": np.array([[np.nan]])}
    with pytest.raises(NonFiniteValueError):
        write_container({}, bad, tmp_path / "v.sdvc")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_bad_tensor_shape(tmp_path):
    with pytest.raises((TensorShapeError, Exception)):
        write_checkpoint_file({}, {"w": np.zeros((0, 3), dtype=np.float32)}, tmp_path / "c.sdvc")


def test_hypothesis_round_trip(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def inner(rows, cols, seed):
        m = np.random.default_rng(seed).normal(size=(rows, cols)).astype(np.float32)
        p = tmp_path / "h.sdve"
        write_embeddings(m, p)
        assert np.array_equal(read_embeddings(p), m)

    inner()


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "c.sdvc"
    write_checkpoint_file({"v": 1}, {"w": np.ones((2, 3), dtype=np.float32)}, target)
    old = target.read_bytes()

    # the disk fills up halfway through the payload
    with pytest.raises(OSError):
        with atomic_write(target) as fh:
            fh.write(old[:10])
            raise OSError(errno.ENOSPC, "No space left on device")
    assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sdvc"]

    # the last step fails: a whole new checkpoint is written but never replaces the old
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", str(dst))

    monkeypatch.setattr(sdve.os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_checkpoint_file({"v": 2}, {"w": np.zeros((2, 3), dtype=np.float32)}, target)
    assert target.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sdvc"]
    monkeypatch.undo()

    write_embeddings(np.zeros((1, 1)), target)
    assert read_embeddings(target).shape == (1, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.sdvc"]

    # a write into a missing directory names the file asked for
    with pytest.raises(FileNotFoundError, match="missing.c.sdvc'"):
        write_embeddings(np.zeros((1, 1)), tmp_path / "missing" / "c.sdvc")
