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
from sdvsum.errors import ConfigError, LabelError, ManifestError
from sdvsum.rng import Rng
from sdvsum.sdve import write_embeddings


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
    noise=0.1,
    positive_fraction=0.2,
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


def write_minimal(tmp_path, *, labels=None, skip_labels=False, fragments=None, dim=4):
    """One train video with 1 summary, returning the manifest path."""
    vd = tmp_path / "v0"
    vd.mkdir(exist_ok=True)
    n = 6
    rng = np.random.default_rng(0)
    write_embeddings(rng.normal(size=(n, dim)).astype(np.float32), vd / "frames.sdve")
    write_embeddings(rng.normal(size=(2, dim)).astype(np.float32), vd / "script.sdve")
    if labels is None:
        labels = np.zeros((n, 1), dtype=np.float32)
        labels[:2] = 1
    if not skip_labels:
        write_embeddings(np.asarray(labels, dtype=np.float32), vd / "labels.sdve")
    entry = {
        "id": "v0",
        "split": "train",
        "frames": "v0/frames.sdve",
        "summaries": [{"labels": "v0/labels.sdve", "script": "v0/script.sdve"}],
    }
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


def test_missing_labels_file_names_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path, skip_labels=True))
    with pytest.raises(ManifestError, match="v0"):
        load_split(m, "train")


def test_overlapping_fragments_rejected(tmp_path):
    m = load_manifest(write_minimal(tmp_path, fragments=[[0, 5], [4, 6]]))
    with pytest.raises(ManifestError, match="v0"):
        load_split(m, "train")


@pytest.mark.parametrize("name", ["x" * 300, "v0/\x00"], ids=["too long", "NUL"])
def test_unreadable_file_names_video(tmp_path, name):
    path = write_minimal(tmp_path)
    doc = json.loads(path.read_text())
    doc["videos"][0]["frames"] = name
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    with pytest.raises(ManifestError, match="video 'v0': unreadable frame file"):
        load_split(m, "train")


def test_files_are_read_once_by_the_loader_of_their_split(small_dataset, monkeypatch):
    out, manifest = small_dataset
    read = []
    real = sdvsum.datasets.read_embeddings
    monkeypatch.setattr(sdvsum.datasets, "read_embeddings",
                        lambda path: read.append(Path(path)) or real(path))
    m = load_manifest(out / "manifest.json")
    assert read == []
    load_split(m, "test")
    expected = [m.resolve(rel) for v in m.split_videos("test")
                for rel in (v.frames, *(f for s in v.summaries for f in (s.labels, s.script)),
                            v.description)]
    assert len(read) == len(set(read))
    assert set(read) == set(expected)


MALFORMED = {
    "entry without frames": lambda d: d["videos"][0].pop("frames"),
    "summary without labels": lambda d: d["videos"][0]["summaries"][0].pop("labels"),
    "summary is a string": lambda d: d["videos"][0].update(summaries=["v0/labels.sdve"]),
    "fragment is a number": lambda d: d["videos"][0].update(fragments=[5]),
    "fragment is a triple": lambda d: d["videos"][0].update(fragments=[[0, 2, 3]]),
    "entry is a string": lambda d: d.update(videos=["v0"]),
    "frames is a number": lambda d: d["videos"][0].update(frames=3),
    "videos is a string": lambda d: d.update(videos="abc"),
    "dimension is a boolean": lambda d: d.update(dimension=True),
    "fragment bound is a boolean": lambda d: d["videos"][0].update(fragments=[[False, 6]]),
}


@pytest.mark.parametrize("mutate", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_is_manifest_error(tmp_path, mutate):
    path = write_minimal(tmp_path, dim=1)   # width 1: a dimension of true (== 1) would fit
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_dimension_mismatch_names_video(tmp_path):
    path = write_minimal(tmp_path, dim=4)
    doc = json.loads(path.read_text())
    doc["dimension"] = 8
    path.write_text(json.dumps(doc))
    m = load_manifest(path)
    with pytest.raises(ManifestError, match="v0"):
        load_split(m, "train")


def test_labels_of_another_length_name_video(tmp_path):
    m = load_manifest(write_minimal(tmp_path, labels=np.ones((5, 1))))
    with pytest.raises(ManifestError, match=r"video 'v0': labels\[0\] has 5 rows, expected 6"):
        load_split(m, "train")


def test_bad_split_label_rejected(tmp_path):
    path = write_minimal(tmp_path)
    doc = json.loads(path.read_text())
    doc["videos"][0]["split"] = "dev"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="v0"):
        load_manifest(path)


def test_non_binary_labels_rejected(tmp_path):
    labels = np.full((6, 1), 0.5, dtype=np.float32)
    path = write_minimal(tmp_path, labels=labels)
    m = load_manifest(path)
    with pytest.raises(LabelError):
        load_video(m, m.videos[0])


def test_all_zero_labels_rejected(tmp_path):
    labels = np.zeros((6, 1), dtype=np.float32)
    path = write_minimal(tmp_path, labels=labels)
    m = load_manifest(path)
    with pytest.raises(LabelError):
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
    for entry in manifest.videos:
        assert len(entry.summaries) == 4
        assert entry.description is not None


def test_positive_fraction_band(small_dataset):
    _, manifest = small_dataset
    p = SMALL.positive_fraction
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


def test_zero_noise_frames_are_exact_topics(tmp_path):
    spec = SynthSpec(**{**SMALL.__dict__, "noise": 0.0, "videos_train": 4})
    manifest = generate_synthetic(spec, tmp_path / "z")
    frames = np.concatenate([v.frames for v in load_split(manifest, "train")])
    distinct = np.unique(frames, axis=0)
    assert distinct.shape[0] <= spec.topics
    norms = np.linalg.norm(distinct.astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_nearest_topic_classification(tmp_path):
    # Same seed at sigma=0 exposes the planted topics; at sigma=0.1 the noisy
    # frames must still classify to their own topic nearly always.
    base = {**SMALL.__dict__, "videos_train": 12, "videos_validation": 0,
            "videos_test": 0, "frames_min": 30, "frames_max": 30}
    clean = generate_synthetic(SynthSpec(**{**base, "noise": 0.0}), tmp_path / "c")
    noisy = generate_synthetic(SynthSpec(**{**base, "noise": 0.1}), tmp_path / "n")
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
        SynthSpec(positive_fraction=0.0).validate()
    with pytest.raises(ConfigError):
        SynthSpec(noise=-0.1).validate()
    with pytest.raises(ConfigError):
        SynthSpec(frames_min=10, frames_max=5).validate()
    with pytest.raises(ConfigError):
        SynthSpec(frames_min=3, positive_fraction=0.2).validate()
