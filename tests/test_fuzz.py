"""Property tests: malformed inputs fail through the documented error classes.

Byte mutations of a valid embeddings file, checkpoint and video file (all SDVC),
random tensor sets in a video file, random config text and random JSON
manifests must either load or raise the class the CLI maps to an exit code
(``DataFormatError`` -> 2, ``ConfigError`` -> 1), never anything else.
"""

import json
import string

import numpy as np
import pytest

from sdvsum.config import RUN_KEYS, SPEC_KEYS, parse_config, parse_spec
from sdvsum.datasets import SPLITS, load_manifest, load_split
from sdvsum.errors import ConfigError, DataFormatError
from sdvsum.model import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from sdvsum.rng import Rng
from sdvsum.sdve import read_embeddings, write_container, write_embeddings

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a valid embeddings file and a valid checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    write_embeddings(np.random.default_rng(0).normal(size=(3, 4)), root / "e.sdvc")
    config = ModelConfig(dim=4, heads=2, ffn_dim=4)
    save_checkpoint(init_weights(config, Rng(0)), config, root / "c.sdvc")
    return (root / "e.sdvc").read_bytes(), (root / "c.sdvc").read_bytes()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three truncations, extensions or byte overwrites."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("truncate", "extend", "overwrite")))
        if kind == "truncate":
            del out[draw(st.integers(0, len(out))):]
        elif kind == "extend":
            out += draw(st.binary(min_size=1, max_size=16))
        elif out:
            at = draw(st.integers(0, len(out) - 1))
            patch = draw(st.binary(min_size=1, max_size=8))
            out[at:at + len(patch)] = patch
    return bytes(out)


def _returns_or_raises(load, path, allowed):
    try:
        load(path)
    except allowed:
        pass


@given(data=st.data())
@FUZZ
def test_mutated_embeddings_file_returns_or_raises_data_format_error(valid_files, tmp_path,
                                                                     data):
    path = tmp_path / "m.sdvc"
    path.write_bytes(data.draw(mutated(valid_files[0])))
    _returns_or_raises(read_embeddings, path, DataFormatError)


@given(data=st.data())
@FUZZ
def test_mutated_sdvc_returns_or_raises_data_format_error(valid_files, tmp_path, data):
    path = tmp_path / "m.sdvc"
    raw = valid_files[1]
    # half the examples hit the header and config blob, which the payload would swamp
    head = data.draw(st.booleans())
    blob = data.draw(mutated(raw[:200] if head else raw))
    path.write_bytes(blob + raw[200:] if head else blob)
    _returns_or_raises(load_checkpoint, path, DataFormatError)


_VALUE = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["true", "false", "True", "multi_vector", "hidden", "generic", "", "=",
                     "9" * 5000]),
    st.text(string.printable, max_size=12),
)


def _lines(keys):
    """Lists of ``key = value`` lines over ``keys``, mixed with random text."""
    return st.lists(st.one_of(
        st.builds("{} = {}".format, st.sampled_from(sorted(keys)), _VALUE),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    ), max_size=8)


@given(lines=_lines(RUN_KEYS))
@FUZZ
def test_random_config_text_raises_only_config_error(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    _returns_or_raises(parse_config, path, ConfigError)


@given(lines=_lines(RUN_KEYS.keys() | SPEC_KEYS.keys()))
@FUZZ
def test_random_spec_text_raises_only_config_error(tmp_path, lines):
    # the run configuration's keys too: each is an unknown key in a spec
    path = tmp_path / "spec.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    _returns_or_raises(parse_spec, path, ConfigError)


@given(raw=st.binary(max_size=64))
@example(raw=b"\x80")   # not UTF-8
@FUZZ
def test_random_config_bytes_raise_only_config_error(tmp_path, raw):
    path = tmp_path / "run.cfg"
    path.write_bytes(raw)
    for parse in (parse_config, parse_spec):
        _returns_or_raises(parse, path, ConfigError)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats(allow_nan=False)
    | st.sampled_from(["", "train", "test", "v0", "videos/v0.sdvc", "videos", "x" * 300]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=12,
)
_VALID_ENTRY = {"id": "v0", "split": "train", "file": "videos/v0.sdvc"}
# a valid entry with some of its fields replaced, so the checks behind the first ones run
_ENTRY = st.builds(lambda over: {**_VALID_ENTRY, **over}, st.dictionaries(
    st.sampled_from(("id", "split", "file", "fragments")),
    _JSON | st.lists(st.lists(st.integers(-1, 7), max_size=3), max_size=3), max_size=2))
_MANIFEST = st.one_of(
    _JSON,
    st.fixed_dictionaries({"dimension": _JSON, "videos": st.lists(_ENTRY | _JSON, max_size=3)}),
    st.fixed_dictionaries({"dimension": st.sampled_from([4, True, 4.0, -4]),
                           "videos": st.lists(_ENTRY, max_size=3)}),
)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A directory holding one valid video's file, for manifests to point at."""
    root = tmp_path_factory.mktemp("manifest")
    (root / "videos").mkdir()
    g = np.random.default_rng(0)
    write_container({"video": "v0"}, {"frames": g.normal(size=(6, 4)),
                                      "description": g.normal(size=(1, 4)),
                                      "labels_00": np.array([[1.0], [1], [0], [0], [0], [0]]),
                                      "script_00": g.normal(size=(2, 4))},
                    root / "videos" / "v0.sdvc")
    return root


def _loads_or_raises(path):
    """``load_manifest``, then loading each split of what it returns, returns or
    raises a ``DataFormatError``."""
    try:
        manifest = load_manifest(path)
    except DataFormatError:
        return
    for split in SPLITS:
        try:
            load_split(manifest, split)
        except DataFormatError:
            pass


@given(doc=_MANIFEST)
@example(doc={"dimension": 4, "videos": [{**_VALID_ENTRY, "frames": "x" * 300}]})
@FUZZ
def test_random_manifest_raises_only_manifest_error(manifest_dir, doc):
    path = manifest_dir / "manifest.json"
    path.write_text(json.dumps(doc))
    _loads_or_raises(path)


@given(raw=st.binary(max_size=64))
@example(raw=b"\x80")
@FUZZ
def test_random_manifest_bytes_raise_only_manifest_error(manifest_dir, raw):
    path = manifest_dir / "manifest.json"
    path.write_bytes(raw)
    _returns_or_raises(load_manifest, path, DataFormatError)


def _one_video_dataset(root, write_file):
    """A manifest at ``root`` naming one train video, whose file ``write_file`` writes."""
    (root / "videos").mkdir(exist_ok=True)
    write_file(root / "videos" / "v0.sdvc")
    (root / "manifest.json").write_text(json.dumps({"dimension": 4, "videos": [_VALID_ENTRY]}))
    return root / "manifest.json"


@given(data=st.data())
@FUZZ
def test_mutated_video_file_loads_or_raises_data_format_error(manifest_dir, tmp_path, data):
    raw = (manifest_dir / "videos" / "v0.sdvc").read_bytes()
    # half the examples hit the header, the blob and the first tensor names
    head = data.draw(st.booleans())
    blob = data.draw(mutated(raw[:80] if head else raw))
    _loads_or_raises(_one_video_dataset(
        tmp_path, lambda path: path.write_bytes(blob + raw[80:] if head else blob)))


_TENSOR_NAME = st.sampled_from(["frames", "description", "labels_00", "script_00", "labels_01",
                                "script_01", "labels_0", "script_02", "Frames", "x"])


@given(names=st.dictionaries(_TENSOR_NAME, st.tuples(st.integers(1, 7), st.integers(1, 5)),
                             max_size=6),
       fill=st.sampled_from([0.0, 1.0, 0.5]),
       blob=st.sampled_from([{"video": "v0"}, {"video": "v1"}, {}, {"video": 0},
                             {"video": "v0", "x": 1}]))
@example(names={"frames": (6, 4), "labels_00": (6, 1), "script_00": (2, 4)}, fill=1.0,
         blob={"video": "v0"})
@FUZZ
def test_random_video_tensors_load_or_raise_data_format_error(tmp_path, names, fill, blob):
    tensors = {name: np.full(shape, fill) for name, shape in names.items()}
    _loads_or_raises(_one_video_dataset(
        tmp_path, lambda path: write_container(blob, tensors, path)))
