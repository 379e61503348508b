"""The SDVC container and its embeddings files: byte-level layout, round-trips,
negative controls."""

import errno
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from sdvsum.errors import DataFormatError
from sdvsum import sdve
from sdvsum.model import ModelConfig, init_weights, save_checkpoint
from sdvsum.rng import Rng
from sdvsum.sdve import (
    atomic_write,
    read_checkpoint_file,
    read_container,
    read_embeddings,
    write_checkpoint_file,
    write_container,
    write_embeddings,
)


def embed_bytes(rows, cols, values, version=1):
    """Reference encoder of an embeddings file, written independently of the library."""
    head = b"SDVC" + struct.pack("<II", version, 2) + b"{}" + struct.pack("<I", 1)
    tensor = struct.pack("<H", 10) + b"embeddings" + struct.pack("<II", rows, cols)
    return head + tensor + struct.pack(f"<{len(values)}f", *values)


# ---------------------------------------------------------------------------
# embeddings files and the container reader's refusals


def test_layout_matches_reference_encoder(tmp_path):
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
    p = tmp_path / "m.sdvc"
    write_embeddings(m, p)
    assert p.read_bytes() == (
        b"SDVC"                                       # magic
        + b"\x01\x00\x00\x00"                         # version 1
        + b"\x02\x00\x00\x00" + b"{}"                 # blob length, blob
        + b"\x01\x00\x00\x00"                         # one tensor
        + b"\x0a\x00" + b"embeddings"                 # name length, name
        + b"\x02\x00\x00\x00" + b"\x03\x00\x00\x00"   # rows, cols
        + b"\x00\x00\x80\x3f" + b"\x00\x00\x00\x40" + b"\x00\x00\x40\x40"   # 1, 2, 3
        + b"\x00\x00\x80\x40" + b"\x00\x00\xa0\x40" + b"\x00\x00\xc0\x40"   # 4, 5, 6
    )
    assert p.read_bytes() == embed_bytes(2, 3, [1, 2, 3, 4, 5, 6])
    blob, tensors = read_container(p)
    assert blob == {} and list(tensors) == ["embeddings"]
    assert np.array_equal(tensors["embeddings"], m)


def test_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (1, 7), (7, 1), (3, 4), (60, 64)]:
        m = rng.normal(size=shape).astype(np.float32)
        p, q = tmp_path / "m.sdvc", tmp_path / "n.sdvc"
        write_embeddings(m, p)
        out = read_embeddings(p)
        assert out.dtype == np.float32
        assert np.array_equal(out, m)
        write_embeddings(out, q)
        assert q.read_bytes() == p.read_bytes()


def test_round_trip_preserves_special_values(tmp_path):
    m = np.array([[0.0, -0.0, np.float32(1e-38), np.float32(3.4e38)]], dtype=np.float32)
    p = tmp_path / "m.sdvc"
    write_embeddings(m, p)
    assert read_embeddings(p).tobytes() == m.tobytes()


def _checkpoint(path):
    config = ModelConfig(dim=4, heads=2, ffn_dim=4)
    save_checkpoint(init_weights(config, Rng(0)), config, path)


def _video(path):
    write_container({"video": "v0"}, {"frames": np.ones((2, 3)), "labels_00": np.ones((2, 1)),
                                      "script_00": np.ones((1, 3))}, path)


OTHER_CONTAINERS = {
    "checkpoint": _checkpoint,
    "video": _video,
    "blob": lambda p: write_container({"note": 1}, {"embeddings": np.ones((2, 3))}, p),
    "second_tensor": lambda p: write_container(
        {}, {"embeddings": np.ones((2, 3)), "x": np.ones((1, 3))}, p),
    "renamed_tensor": lambda p: write_container({}, {"frames": np.ones((2, 3))}, p),
}


@pytest.mark.parametrize("case", OTHER_CONTAINERS)
def test_read_embeddings_refuses_other_containers(tmp_path, case):
    # valid SDVC files that are not embeddings files: refused, naming what they hold
    path = tmp_path / "c.sdvc"
    OTHER_CONTAINERS[case](path)
    blob, tensors = read_container(path)
    got = (f"got {len(blob)} blob key(s) and {len(tensors)} tensor(s), "
           f"first {list(tensors)[:3]}")
    with pytest.raises(DataFormatError, match=r"expected the blob \{\} and one tensor "
                                              r"'embeddings', " + re.escape(got)):
        read_embeddings(path)


def test_wrong_magic(tmp_path):
    # a file of the earlier SDVE format: header, then one 1x1 matrix
    p = tmp_path / "m.sdve"
    p.write_bytes(b"SDVE" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0.0))
    for read in (read_container, read_embeddings):
        with pytest.raises(DataFormatError, match=r"bad magic b'SDVE', expected b'SDVC'"):
            read(p)


def test_wrong_version(tmp_path):
    p = tmp_path / "m.sdvc"
    p.write_bytes(embed_bytes(1, 1, [0.0], version=2))
    for read in (read_container, read_embeddings):
        with pytest.raises(DataFormatError, match="format version 2, this reader handles 1"):
            read(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "m.sdvc"
    p.write_bytes(b"SDVC" + struct.pack("<I", 1))
    with pytest.raises(DataFormatError, match="blob length"):
        read_container(p)


def test_dimension_overflow(tmp_path):
    # the header declares 2^40 floats; the reader refuses before reading any
    p = tmp_path / "m.sdvc"
    p.write_bytes(embed_bytes(2**20, 2**20, []))
    with pytest.raises(DataFormatError, match="1048576x1048576"):
        read_embeddings(p)


def test_zero_extent_rejected(tmp_path):
    p = tmp_path / "m.sdvc"
    p.write_bytes(embed_bytes(0, 3, []))
    with pytest.raises(DataFormatError, match="non-positive dimensions 0x3"):
        read_embeddings(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected(tmp_path, value):
    # the writers refuse such values, so the files are made by hand
    (tmp_path / "m.sdvc").write_bytes(embed_bytes(1, 2, [1.0, value]))
    with pytest.raises(DataFormatError, match="'embeddings'"):
        read_embeddings(tmp_path / "m.sdvc")
    write_checkpoint_file({}, {"w": np.array([[1.0]])}, tmp_path / "c.sdvc")
    raw = (tmp_path / "c.sdvc").read_bytes()
    (tmp_path / "c.sdvc").write_bytes(raw[:-4] + struct.pack("<f", value))
    with pytest.raises(DataFormatError, match="'w'"):
        read_checkpoint_file(tmp_path / "c.sdvc")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39, -1e39])
def test_writers_refuse_what_the_readers_refuse(tmp_path, value):
    # NaN, infinities and float64 values beyond float32's range: no file is
    # written, no temporary is left, a file already at the path is unchanged,
    # and the overflowing cast warns nothing
    m = np.array([[1.0, value]])
    old = embed_bytes(1, 1, [2.0])
    for write, name in ((lambda p: write_embeddings(m, p), "m.sdvc"),
                        (lambda p: write_checkpoint_file({}, {"w": m}, p), "c.sdvc")):
        fresh, kept = tmp_path / f"fresh-{name}", tmp_path / f"kept-{name}"
        fresh.mkdir()
        kept.mkdir()
        (kept / name).write_bytes(old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for folder in (fresh, kept):
                with pytest.raises(DataFormatError,
                                   match="matrix holds NaN or values infinite in float32"):
                    write(folder / name)
        assert list(fresh.iterdir()) == []
        assert [p.name for p in kept.iterdir()] == [name]
        assert (kept / name).read_bytes() == old


def test_write_rejects_non_matrix(tmp_path):
    with pytest.raises(DataFormatError, match="expected a 2-D matrix"):
        write_embeddings(np.zeros((2, 2, 2), dtype=np.float32), tmp_path / "m.sdvc")
    assert list(tmp_path.iterdir()) == []


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


def test_checkpoint_empty_name_rejected(tmp_path):
    with pytest.raises(DataFormatError, match="tensor name '' empty or too long"):
        write_checkpoint_file({}, {"": np.zeros((1, 1), dtype=np.float32)}, tmp_path / "c.sdvc")


def test_checkpoint_trailing_bytes(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(DataFormatError, match="c.sdvc: 4 trailing bytes after payload$"):
        read_checkpoint_file(p)


def test_checkpoint_truncation(tmp_path):
    config, tensors = ckpt_pair()
    p = tmp_path / "c.sdvc"
    write_checkpoint_file(config, tensors, p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(DataFormatError,
                       match=r"truncated while reading tensor 'head.w' payload \(needed 16 bytes"):
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
    with pytest.raises(DataFormatError, match="matrix holds NaN or values infinite in float32"):
        write_container({}, bad, tmp_path / "v.sdvc")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_bad_tensor_shape(tmp_path):
    with pytest.raises(DataFormatError, match="non-positive dimensions 0x3"):
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
        p = tmp_path / "h.sdvc"
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
