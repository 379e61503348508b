"""Manifest validation, video loading, and planted-topic generator invariants."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import sdvsum.datasets
from sdvsum.datasets import (
    DatasetManifest,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_split,
    load_video,
    write_manifest,
)
from sdvsum.errors import ConfigError, DataFormatError
from sdvsum.rng import Rng
from sdvsum.sdve import write_container
from sdvsum.selection import TOP_FRACTION


SMALL = SynthSpec(
    topics=6,
    dim=64,
    videos_train=6,
    videos_validation=2,
    videos_test=2,
    frames_min=20,
    frames_max=28,
    sentences_min=3,
    sentences_max=6,
    summaries_per_video=4,
    seed=11,
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest = generate_synthetic(SMALL, out)
    return out, manifest


# ---------------------------------------------------------------------------
# hand-written manifests


def write_minimal(tmp_path, *, labels=None, fragments=None, dim=4, blob=None, edit=None):
    """One train video with 1 summary, in one file; returns the manifest path.

    ``edit`` may change the file's tensors (a dict) in place before it is written.
    """
    n = 6
    rng = np.random.default_rng(0)
    if labels is None:
        labels = np.zeros((n, 1), dtype=np.float32)
        labels[:2] = 1
    tensors = {"frames": rng.normal(size=(n, dim)), "labels_00": labels,
               "script_00": rng.normal(size=(2, dim))}
    if edit is not None:
        edit(tensors)
    (tmp_path / "videos").mkdir(exist_ok=True)
    write_container({"video": "v0"} if blob is None else blob, tensors,
                    tmp_path / "videos" / "v0.sdvc")
    entry = {"id": "v0", "split": "train", "file": "videos/v0.sdvc"}
    if fragments is not None:
        entry["fragments"] = fragments
    doc = {"dimension": dim, "videos": [entry]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_minimal_manifest_parses(tmp_path):
    m = load_manifest(write_minimal(tmp_path))
    assert len(m.videos) == 1
    assert m.videos[0].split == "train"
    v = load_video(m, m.videos[0])
    assert v.frames.shape == (6, 4)
    assert v.summaries[0].labels.shape == (6,)
    assert v.description is None


def test_missing_file_names_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path))
    (tmp_path / "videos" / "v0.sdvc").unlink()
    with pytest.raises(DataFormatError, match="video 'v0': missing file 'videos/v0.sdvc'"):
        load_split(m, "train")


def test_missing_labels_file_names_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path, edit=lambda t: t.pop("labels_00")))
    with pytest.raises(DataFormatError, match=r"video 'v0': .*missing \['labels_00'\], "
                                            r"unexpected \[\]"):
        load_split(m, "train")


TENSOR_SETS = {
    "no pair": lambda t: [t.pop("labels_00"), t.pop("script_00")],
    "no frames": lambda t: t.pop("frames"),
    "unpaired labels": lambda t: t.update(labels_01=t["labels_00"]),
    "unpaired script": lambda t: t.update(script_01=t["script_00"], description=t["script_00"]),
    "pair not from 00": lambda t: t.update(labels_01=t.pop("labels_00"),
                                           script_01=t.pop("script_00")),
    "unknown tensor": lambda t: t.update(extra=t["script_00"]),
    "wrong case": lambda t: t.update(Frames=t.pop("frames")),
}


@pytest.mark.parametrize("edit", TENSOR_SETS.values(), ids=TENSOR_SETS.keys())
def test_tensor_set_other_than_the_layout_names_video(tmp_path, edit):
    m = load_manifest(write_minimal(tmp_path, edit=edit))
    with pytest.raises(DataFormatError, match="video 'v0': file 'videos/v0.sdvc' needs tensors"):
        load_split(m, "train")


def test_summaries_are_the_file_pairs_in_order(tmp_path):
    def two_pairs(t):
        t.update(script_01=np.ones((3, 4)), labels_01=np.ones((6, 1)),
                 description=np.full((1, 4), 2.0))

    m = load_manifest(write_minimal(tmp_path, edit=two_pairs))
    v = load_video(m, m.videos[0])
    assert [s.script.shape for s in v.summaries] == [(2, 4), (3, 4)]
    assert v.summaries[1].labels.tolist() == [1.0] * 6
    assert v.description.tolist() == [[2.0] * 4]


@pytest.mark.parametrize("blob", [{"video": "v1"}, {}, {"video": "v0", "extra": 1}])
def test_file_that_does_not_name_its_video_is_refused(tmp_path, blob):
    m = load_manifest(write_minimal(tmp_path, blob=blob))
    with pytest.raises(DataFormatError, match="video 'v0': file 'videos/v0.sdvc' has blob"):
        load_split(m, "train")


def test_overlapping_fragments_rejected(tmp_path):
    m = load_manifest(write_minimal(tmp_path, fragments=[[0, 5], [4, 6]]))
    with pytest.raises(DataFormatError, match="v0"):
        load_split(m, "train")


@pytest.mark.parametrize("name", ["x" * 300, "v0/\x00"], ids=["too long", "NUL"])
def test_unreadable_file_names_video(tmp_path, name):
    path = write_minimal(tmp_path)
    doc = json.loads(path.read_text())
    doc["videos"][0]["file"] = name
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    with pytest.raises(DataFormatError, match="video 'v0': unreadable file"):
        load_split(m, "train")


def test_files_are_read_once_by_the_loader_of_their_split(small_dataset, monkeypatch):
    out, manifest = small_dataset
    opened = []
    real = open
    monkeypatch.setattr("builtins.open",
                        lambda path, *a, **k: opened.append(Path(path)) or real(path, *a, **k))
    m = load_manifest(out / "manifest.json")
    opened.clear()
    load_split(m, "test")
    # one data file per video, opened once
    assert opened == [m.resolve(v.file) for v in m.split_videos("test")]
    assert len(opened) == 2


# case: (an edit of the manifest, the fault its one message names); only a
# missing or null fragment list means none
MALFORMED = {
    "entry without file": (lambda d: d["videos"][0].pop("file"),
                           "video 'v0': file: expected str, got None"),
    "entry of the per-summary layout": (lambda d: d["videos"][0].update(
        file=None, frames="v0/frames.sdve",
        summaries=[{"labels": "v0/labels.sdve", "script": "v0/script.sdve"}]),
        "video 'v0': file: expected str, got None"),
    "fragment is a number": (lambda d: d["videos"][0].update(fragments=[5]),
                             r"video 'v0': fragment 5 is not a \[start, end\] pair"),
    "fragment is a triple": (lambda d: d["videos"][0].update(fragments=[[0, 2, 3]]),
                             r"video 'v0': fragment \[0, 2, 3\] is not a \[start, end\] pair"),
    "entry is a string": (lambda d: d.update(videos=["v0"]),
                          "manifest.json: video entry: expected dict, got 'v0'"),
    "file is a number": (lambda d: d["videos"][0].update(file=3),
                         "video 'v0': file: expected str, got 3"),
    "videos is a string": (lambda d: d.update(videos="abc"),
                           "manifest.json: videos: expected list, got 'abc'"),
    "dimension is a boolean": (lambda d: d.update(dimension=True),
                               "manifest.json: dimension must be a positive integer, got True"),
    "fragment bound is a boolean": (
        lambda d: d["videos"][0].update(fragments=[[False, 6]]),
        r"video 'v0': fragment \[False, 6\] is not a \[start, end\] pair"),
    **{f"fragments are {value!r}": (lambda d, value=value: d["videos"][0].update(fragments=value),
                                    f"video 'v0': fragments: expected list, got {value!r}")
       for value in (0, False, "", {})},
    "fragments are []": (lambda d: d["videos"][0].update(fragments=[]),
                         r"video 'v0': fragments cover \[0, 0\) but the video has 6 frames"),
}


@pytest.mark.parametrize("mutate, fault", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_is_manifest_error(tmp_path, mutate, fault):
    path = write_minimal(tmp_path, dim=1)   # width 1: a dimension of true (== 1) would fit
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=fault):   # from the manifest, or its one video
        load_split(load_manifest(path), "train")


def test_dimension_mismatch_names_video(tmp_path):
    path = write_minimal(tmp_path, dim=4)
    doc = json.loads(path.read_text())
    doc["dimension"] = 8
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    with pytest.raises(DataFormatError, match="video 'v0': frames has 4 columns, expected 8"):
        load_split(m, "train")


@pytest.mark.parametrize("name", ["script_00", "description"])
def test_text_of_another_width_names_video(tmp_path, name):
    m = load_manifest(write_minimal(tmp_path, edit=lambda t: t.update({name: np.ones((2, 5))})))
    with pytest.raises(DataFormatError, match=f"video 'v0': {name} has 5 columns, expected 4"):
        load_split(m, "train")


def test_labels_of_another_length_name_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path, labels=np.ones((5, 1))))
    with pytest.raises(DataFormatError, match=r"video 'v0': labels_00 has 5 rows, expected 6"):
        load_split(m, "train")


def test_labels_of_two_columns_name_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path, labels=np.ones((6, 2))))
    with pytest.raises(DataFormatError, match=r"video 'v0': labels_00 has 2 columns, expected 1"):
        load_split(m, "train")


def test_bad_split_label_rejected(tmp_path):
    path = write_minimal(tmp_path)
    doc = json.loads(path.read_text())
    doc["videos"][0]["split"] = "dev"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="v0"):
        load_manifest(path)


def test_non_binary_labels_rejected(tmp_path):
    labels = np.full((6, 1), 0.5, dtype=np.float32)
    path = write_minimal(tmp_path, labels=labels)
    m = load_manifest(path)
    with pytest.raises(DataFormatError, match="video 'v0': labels_00 holds non-binary values"):
        load_video(m, m.videos[0])


def test_all_zero_labels_rejected(tmp_path):
    labels = np.zeros((6, 1), dtype=np.float32)
    path = write_minimal(tmp_path, labels=labels)
    m = load_manifest(path)
    with pytest.raises(DataFormatError, match="video 'v0': labels_00 marks no positive frame"):
        load_video(m, m.videos[0])


def test_manifest_round_trip(small_dataset):
    out, manifest = small_dataset
    path = out / "manifest_copy.json"
    write_manifest(manifest, path)
    again = load_manifest(path)
    assert [v.id for v in again.videos] == [v.id for v in manifest.videos]
    assert again.dimension == manifest.dimension


# ---------------------------------------------------------------------------
# synthetic generator


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_generation_is_deterministic(tmp_path):
    spec = SynthSpec(**{**SMALL.__dict__, "videos_train": 3})
    a, b = tmp_path / "a", tmp_path / "b"
    generate_synthetic(spec, a)
    generate_synthetic(spec, b)
    assert tree_digest(a) == tree_digest(b)


def test_split_sizes_and_summary_count(small_dataset):
    _, manifest = small_dataset
    by_split = {s: manifest.split_videos(s) for s in ("train", "validation", "test")}
    assert [len(by_split[s]) for s in ("train", "validation", "test")] == [6, 2, 2]
    for split in by_split:
        for v in load_split(manifest, split):
            assert len(v.summaries) == 4
            assert v.description is not None


@pytest.mark.parametrize("spec, videos", [
    (SynthSpec(videos_train=12, videos_validation=3, videos_test=3), 18),   # the ref64 corpus
    (SynthSpec(), 300),   # the reference corpus
], ids=["ref64", "reference"])
def test_one_file_per_video_plus_the_manifest(tmp_path, spec, videos):
    manifest = generate_synthetic(spec, tmp_path)
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert len(files) == videos + 1
    assert files == sorted(["manifest.json", *(v.file for v in manifest.videos)])
    assert all(v.file == f"videos/{v.id}.sdvc" for v in manifest.videos)


def test_positive_fraction_band(small_dataset):
    _, manifest = small_dataset
    p = TOP_FRACTION
    lo, hi = p / 2, min(2 * p, 0.9)
    for split in ("train", "validation", "test"):
        for v in load_split(manifest, split):
            for s in v.summaries:
                frac = s.labels.mean()
                assert lo - 1e-9 <= frac <= hi + 1e-9, (v.id, frac)


def test_labels_match_frame_count(small_dataset):
    _, manifest = small_dataset
    for v in load_split(manifest, "train"):
        for s in v.summaries:
            assert s.labels.shape == (v.frames.shape[0],)
            assert set(np.unique(s.labels)) <= {0.0, 1.0}


def test_zero_noise_frames_are_exact_topics(tmp_path, monkeypatch):
    monkeypatch.setattr(sdvsum.datasets, "NOISE", 0.0)
    spec = SynthSpec(**{**SMALL.__dict__, "videos_train": 4})
    manifest = generate_synthetic(spec, tmp_path / "z")
    frames = np.concatenate([v.frames for v in load_split(manifest, "train")])
    distinct = np.unique(frames, axis=0)
    assert distinct.shape[0] <= spec.topics
    norms = np.linalg.norm(distinct.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_nearest_topic_classification(tmp_path, monkeypatch):
    # Same seed at sigma=0 exposes the planted topics; at sigma=0.1 the noisy
    # frames must still classify to their own topic nearly always.
    spec = SynthSpec(**{**SMALL.__dict__, "videos_train": 12, "videos_validation": 0,
                        "videos_test": 0, "frames_min": 30, "frames_max": 30})
    assert sdvsum.datasets.NOISE == 0.1
    noisy = generate_synthetic(spec, tmp_path / "n")
    monkeypatch.setattr(sdvsum.datasets, "NOISE", 0.0)
    clean = generate_synthetic(spec, tmp_path / "c")
    clean_frames = [v.frames for v in load_split(clean, "train")]
    noisy_frames = [v.frames for v in load_split(noisy, "train")]
    topics = np.unique(np.concatenate(clean_frames), axis=0)
    total = correct = 0
    for cf, nf in zip(clean_frames, noisy_frames):
        true_idx = np.argmax(cf @ topics.T, axis=1)
        got_idx = np.argmax(nf @ topics.T, axis=1)
        correct += int((true_idx == got_idx).sum())
        total += cf.shape[0]
    assert correct / total >= 0.99


def test_script_sentences_near_topics(small_dataset):
    _, manifest = small_dataset
    # recover topics from the generator's own stream, as the generator does
    g = Rng(SMALL.seed).stream("data")
    raw = g.normal(size=(SMALL.topics, SMALL.dim))
    topics = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
    for v in load_split(manifest, "train"):
        for s in v.summaries:
            cos = s.script @ topics.T
            assert cos.max(axis=1).min() >= 0.8


def test_sentence_counts_in_range(small_dataset):
    _, manifest = small_dataset
    for split in ("train", "validation", "test"):
        for v in load_split(manifest, split):
            for s in v.summaries:
                assert SMALL.sentences_min <= s.script.shape[0] <= SMALL.sentences_max


def test_fragments_cover_video(small_dataset):
    _, manifest = small_dataset
    for entry in manifest.videos:
        assert entry.fragments, entry.id
        assert entry.fragments[0][0] == 0
        for (a, b), (c, d) in zip(entry.fragments, entry.fragments[1:]):
            assert b == c


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(topics=1).validate()
    with pytest.raises(ConfigError):
        SynthSpec(frames_min=10, frames_max=5).validate()
    with pytest.raises(ConfigError, match="frames_min=6 is too short"):   # 6 * 15% < 1 frame
        SynthSpec(frames_min=6).validate()
    SynthSpec(frames_min=7).validate()
