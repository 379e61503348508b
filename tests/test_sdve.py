"""Binary container formats: byte-level layout, round-trips, negative controls."""

import struct

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
from sdvsum.sdve import (
    read_checkpoint_file,
    read_embedding_header,
    read_embeddings,
    write_checkpoint_file,
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


def test_header_only_read(tmp_path):
    p = tmp_path / "m.sdve"
    write_embeddings(np.zeros((5, 3), dtype=np.float32), p)
    assert read_embedding_header(p) == (5, 3)


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
    write_embeddings(np.array([[1.0, value]]), tmp_path / "m.sdve")
    with pytest.raises(NonFiniteValueError):
        read_embeddings(tmp_path / "m.sdve")
    write_checkpoint_file({}, {"w": np.array([[value]])}, tmp_path / "c.sdvc")
    with pytest.raises(NonFiniteValueError, match="'w'"):
        read_checkpoint_file(tmp_path / "c.sdvc")


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
