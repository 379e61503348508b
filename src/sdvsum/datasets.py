"""Dataset manifest, cached video loading, and the synthetic topic-planted corpus.

A dataset on disk is a JSON manifest plus SDVE files. The manifest declares
the embedding dimension and, per video, the split, the frame-embedding file,
the (labels, script) file pair for every reference summary, an optional
full-video description embedding, and optional fragment boundaries. All paths
are relative to the manifest file. Loading turns manifest entries into
in-memory videos, through a cache that training epochs and evaluations share.

The synthetic generator plants ``K`` unit topic vectors and builds videos
whose frames are noisy copies of their topic. Each reference summary picks a
topic subset, emits sentence embeddings for those topics, and labels exactly
the frames whose topic is in the subset, with subset sizes steered so the
positive fraction lands near a target ``p``. A model therefore has to match
sentences to frames to score well, which is what makes end-to-end training
effects measurable at desk scale.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, LabelError, ManifestError
from .rng import Rng
from .sdve import read_embedding_header, read_embeddings, write_embeddings
from .selection import validate_fragments

__all__ = [
    "SPLITS",
    "SummaryFiles",
    "VideoEntry",
    "DatasetManifest",
    "load_manifest",
    "write_manifest",
    "LoadedSummary",
    "LoadedVideo",
    "load_video",
    "load_videos",
    "load_split",
    "SynthSpec",
    "generate_synthetic",
]

SPLITS = ("train", "validation", "test")


@dataclass
class SummaryFiles:
    labels: str
    script: str


@dataclass
class VideoEntry:
    id: str
    split: str
    frames: str
    summaries: list[SummaryFiles]
    description: str | None = None
    fragments: list[tuple[int, int]] | None = None


@dataclass
class DatasetManifest:
    dimension: int
    videos: list[VideoEntry]
    base_dir: Path = field(default_factory=Path)

    def resolve(self, rel: str) -> Path:
        return self.base_dir / rel

    def split_videos(self, split: str) -> list[VideoEntry]:
        if split not in SPLITS:
            raise ManifestError(f"unknown split {split!r}, expected one of {SPLITS}")
        return [v for v in self.videos if v.split == split]


def _rows_checked(manifest: DatasetManifest, rel: str, vid: str, what: str, cols: int) -> int:
    """Row count of an SDVE file that must exist and have ``cols`` columns."""
    path = manifest.resolve(rel)
    if not path.is_file():
        raise ManifestError(f"video {vid!r}: missing {what} file {rel!r}")
    try:
        rows, got = read_embedding_header(path)
    except Exception as e:
        raise ManifestError(f"video {vid!r}: unreadable {what} file {rel!r}: {e}") from e
    if got != cols:
        raise ManifestError(
            f"video {vid!r}: {what} file {rel!r} has {got} columns, expected {cols}"
        )
    return rows


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ManifestError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value


def _fragment_pairs(raw, vid: str) -> list[tuple[int, int]]:
    pairs = []
    for f in _typed(raw, list, f"video {vid!r}: fragments"):
        if not (isinstance(f, list) and len(f) == 2 and all(isinstance(x, int) for x in f)):
            raise ManifestError(f"video {vid!r}: fragment {f!r} is not a [start, end] pair")
        pairs.append((f[0], f[1]))
    return pairs


def _parse_entry(raw, where) -> VideoEntry:
    raw = _typed(raw, dict, f"{where}: video entry")
    vid = raw.get("id")
    if not isinstance(vid, str) or not vid:
        raise ManifestError(f"{where}: video without a string id: {raw!r}")
    split = raw.get("split")
    if split not in SPLITS:
        raise ManifestError(f"video {vid!r}: invalid split {split!r}, expected one of {SPLITS}")
    summaries = raw.get("summaries") or []
    if not summaries:
        raise ManifestError(f"video {vid!r}: needs at least one summary entry")
    files = []
    for j, s in enumerate(_typed(summaries, list, f"video {vid!r}: summaries")):
        s = _typed(s, dict, f"video {vid!r}: summary {j}")
        files.append(SummaryFiles(
            labels=_typed(s.get("labels"), str, f"video {vid!r}: labels[{j}]"),
            script=_typed(s.get("script"), str, f"video {vid!r}: script[{j}]"),
        ))
    description = raw.get("description")
    if description is not None:
        _typed(description, str, f"video {vid!r}: description")
    return VideoEntry(
        id=vid,
        split=split,
        frames=_typed(raw.get("frames"), str, f"video {vid!r}: frames"),
        summaries=files,
        description=description,
        fragments=_fragment_pairs(raw["fragments"], vid) if raw.get("fragments") else None,
    )


def load_manifest(path) -> DatasetManifest:
    """Parse and fully validate a manifest: types, files exist, dimensions agree."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(doc, dict) or "dimension" not in doc or "videos" not in doc:
        raise ManifestError(f"{path}: manifest needs top-level 'dimension' and 'videos'")
    dim = doc["dimension"]
    if not isinstance(dim, int) or dim < 1:
        raise ManifestError(f"{path}: dimension must be a positive integer, got {dim!r}")

    videos = []
    seen_ids = set()
    for raw in _typed(doc["videos"], list, f"{path}: videos"):
        entry = _parse_entry(raw, path)
        if entry.id in seen_ids:
            raise ManifestError(f"duplicate video id {entry.id!r}")
        seen_ids.add(entry.id)
        videos.append(entry)

    manifest = DatasetManifest(dimension=dim, videos=videos, base_dir=path.parent)
    for v in manifest.videos:
        n_frames = _rows_checked(manifest, v.frames, v.id, "frame", dim)
        for j, s in enumerate(v.summaries):
            rows = _rows_checked(manifest, s.labels, v.id, f"labels[{j}]", 1)
            if rows != n_frames:
                raise ManifestError(
                    f"video {v.id!r}: labels[{j}] has {rows} rows, expected {n_frames}"
                )
            _rows_checked(manifest, s.script, v.id, f"script[{j}]", dim)
        if v.description is not None:
            _rows_checked(manifest, v.description, v.id, "description", dim)
        if v.fragments is not None:
            try:
                validate_fragments(v.fragments, n_frames)
            except ValueError as e:
                raise ManifestError(f"video {v.id!r}: {e}") from e
    return manifest


def write_manifest(manifest: DatasetManifest, path) -> None:
    path = Path(path)
    doc = {
        "dimension": manifest.dimension,
        "videos": [
            {
                "id": v.id,
                "split": v.split,
                "frames": v.frames,
                "summaries": [{"labels": s.labels, "script": s.script} for s in v.summaries],
                **({"description": v.description} if v.description else {}),
                **({"fragments": [list(f) for f in v.fragments]} if v.fragments else {}),
            }
            for v in manifest.videos
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# in-memory loading


@dataclass
class LoadedSummary:
    labels: np.ndarray   # (N,) float32, strictly 0/1
    script: np.ndarray   # (M, D) float32


@dataclass
class LoadedVideo:
    id: str
    frames: np.ndarray   # (N, D) float32
    summaries: list[LoadedSummary]
    description: np.ndarray | None = None   # (1, D) or more rows
    fragments: list[tuple[int, int]] | None = None

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def _load_labels(manifest: DatasetManifest, rel: str, vid: str) -> np.ndarray:
    raw = read_embeddings(manifest.resolve(rel))
    flat = raw[:, 0]
    if not np.all((flat == 0.0) | (flat == 1.0)):
        raise LabelError(f"video {vid!r}: labels file {rel!r} contains non-binary values")
    if flat.sum() < 1:
        raise LabelError(f"video {vid!r}: labels file {rel!r} marks no positive frame")
    return flat


def load_video(manifest: DatasetManifest, entry: VideoEntry) -> LoadedVideo:
    return LoadedVideo(
        id=entry.id,
        frames=read_embeddings(manifest.resolve(entry.frames)),
        summaries=[
            LoadedSummary(
                labels=_load_labels(manifest, s.labels, entry.id),
                script=read_embeddings(manifest.resolve(s.script)),
            )
            for s in entry.summaries
        ],
        description=(
            read_embeddings(manifest.resolve(entry.description))
            if entry.description is not None else None
        ),
        fragments=entry.fragments,
    )


def load_videos(manifest: DatasetManifest, entries: list[VideoEntry],
                cache: dict[str, LoadedVideo] | None = None) -> list[LoadedVideo]:
    """Load the given videos in order; an optional cache persists across calls."""
    out = []
    for entry in entries:
        if cache is not None and entry.id in cache:
            out.append(cache[entry.id])
            continue
        video = load_video(manifest, entry)
        if cache is not None:
            cache[entry.id] = video
        out.append(video)
    return out


def load_split(manifest: DatasetManifest, split: str,
               cache: dict[str, LoadedVideo] | None = None) -> list[LoadedVideo]:
    """Load every video of a split; an optional cache persists across epochs."""
    return load_videos(manifest, manifest.split_videos(split), cache)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SynthSpec:
    """Parameters of the planted-topic corpus.

    ``noise`` is the expected Euclidean norm of the perturbation added to a
    unit topic vector (per-coordinate sigma = noise/sqrt(dim)), so its effect
    on cosine similarity is dimension-independent: cos ~ 1/sqrt(1 + noise^2).
    """

    topics: int = 8
    dim: int = 64
    videos_train: int = 200
    videos_validation: int = 50
    videos_test: int = 50
    frames_min: int = 60
    frames_max: int = 60
    sentences_min: int = 3
    sentences_max: int = 6
    noise: float = 0.1
    positive_fraction: float = 0.15
    summaries_per_video: int = 10
    seed: int = 42

    def validate(self) -> None:
        if self.topics < 2:
            raise ConfigError(f"topics must be >= 2, got {self.topics}")
        if self.dim < 8:
            raise ConfigError(f"dim must be >= 8, got {self.dim}")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError(
                f"positive_fraction must be in (0, 1), got {self.positive_fraction}"
            )
        if self.noise < 0.0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ConfigError(
                f"need 1 <= frames_min <= frames_max, got [{self.frames_min}, {self.frames_max}]"
            )
        if not 1 <= self.sentences_min <= self.sentences_max:
            raise ConfigError(
                "need 1 <= sentences_min <= sentences_max, got "
                f"[{self.sentences_min}, {self.sentences_max}]"
            )
        if self.summaries_per_video < 1:
            raise ConfigError(f"summaries_per_video must be >= 1, got {self.summaries_per_video}")
        if min(self.videos_train, self.videos_validation, self.videos_test) < 0:
            raise ConfigError("split sizes must be >= 0")
        if self.frames_min * self.positive_fraction < 1.0:
            raise ConfigError(
                f"frames_min={self.frames_min} is too short for positive_fraction="
                f"{self.positive_fraction}; need frames_min >= 1/positive_fraction"
            )


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32)


def _noisy_copy(vecs: np.ndarray, sigma_norm: float, dim: int, g) -> np.ndarray:
    """Rows perturbed by Gaussian noise of expected norm ``sigma_norm``, re-unit-normed."""
    noise = g.normal(0.0, sigma_norm / math.sqrt(dim), size=vecs.shape)
    if sigma_norm == 0.0:
        # keep the zero-noise limit bit-exact; the draw above still consumes
        # the stream so frame/topic assignments match across sigma values
        return np.asarray(vecs, dtype=np.float32).copy()
    return _unit_rows(vecs + noise)


def _topic_counts(n: int, p: float, k: int, g) -> list[int]:
    """Frame counts per active topic for one video.

    The script-sized frame mass is split into pairs of "half anchors" (two
    topics whose counts sum to ~p*n), so a script can combine two or more
    topics and still land near the target positive fraction. Single-topic
    scripts are avoided on purpose: with keys/values coming from the text,
    a script whose sentences all share one topic gives every frame the same
    attention target and carries no frame-discriminative signal. Remaining
    frames go to background topics that only appear as negatives.
    """
    target = int(np.clip(round(n * p), 1, n - 1))
    n_pairs = min((k - 1) // 2, n // max(1, 2 * target), 3)
    counts: list[int] = []
    for _ in range(n_pairs):
        half_a = max(1, target // 2)
        counts += [half_a, max(1, target - half_a)]
    if not counts:
        counts = [target]
    rest = n - sum(counts)
    if rest > 0:
        n_bg = min(k - len(counts), max(1, round(rest / target)))
        base, extra = divmod(rest, n_bg)
        counts += [base + (1 if i < extra else 0) for i in range(n_bg)]
    return [c for c in counts if c > 0]


def _script_topics(slots: list[int], counts: list[int], target: int,
                   lo: int, hi: int, cap: int, g) -> list[int]:
    """Topic-slot subset whose frame count approaches ``target``.

    Enumerates all subsets of size 2..cap (slot counts are tiny), keeps those
    whose totals land in [lo, hi], and picks uniformly among the near-best by
    distance to the target; the randomness is what varies the annotators.
    Falls back to the closest single slot only when no pair fits the band.
    """
    idx = range(len(slots))
    candidates: list[tuple[int, tuple[int, ...]]] = []
    for size in range(2, min(cap, len(slots)) + 1):
        for combo in itertools.combinations(idx, size):
            total = sum(counts[i] for i in combo)
            if lo <= total <= hi:
                candidates.append((abs(total - target), combo))
    if candidates:
        best = min(gap for gap, _ in candidates)
        pool = [combo for gap, combo in candidates if gap <= best + 2]
        chosen = pool[int(g.integers(len(pool)))]
    else:
        chosen = (int(np.argmin([abs(c - target) for c in counts])),)
    return [slots[i] for i in chosen]


def generate_synthetic(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write a full synthetic dataset under ``out_dir`` and return its manifest.

    Pure function of the spec: equal specs give byte-identical trees.
    """
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = Rng(spec.seed)
    d = spec.dim
    p = spec.positive_fraction

    g_topics = root.stream("data")
    topic_vecs = _unit_rows(g_topics.normal(0.0, 1.0, size=(spec.topics, d)))

    videos: list[VideoEntry] = []
    split_sizes = {"train": spec.videos_train, "validation": spec.videos_validation,
                   "test": spec.videos_test}
    for split_idx, split in enumerate(SPLITS):
        for vid_idx in range(split_sizes[split]):
            vid = f"{split}_{vid_idx:04d}"
            g = root.stream("data", split_idx, vid_idx)
            n = int(g.integers(spec.frames_min, spec.frames_max + 1))

            counts = _topic_counts(n, p, spec.topics, g)
            slots = list(g.choice(spec.topics, size=len(counts), replace=False))
            run_order = g.permutation(len(slots))

            topic_of_frame = np.empty(n, dtype=np.intp)
            fragments: list[tuple[int, int]] = []
            cursor = 0
            for i in run_order:
                end = cursor + counts[i]
                topic_of_frame[cursor:end] = slots[i]
                fragments.append((cursor, end))
                cursor = end

            vdir = out_dir / "videos" / vid
            vdir.mkdir(parents=True, exist_ok=True)
            frames = _noisy_copy(topic_vecs[topic_of_frame], spec.noise, d, g)
            write_embeddings(frames, vdir / "frames.sdve")

            present = sorted(set(int(t) for t in slots))
            desc = _noisy_copy(topic_vecs[present].mean(axis=0, keepdims=True),
                               spec.noise, d, g)
            write_embeddings(desc, vdir / "description.sdve")

            lo = max(1, math.ceil(n * p / 2))
            hi = max(lo, math.floor(n * min(2 * p, 0.9)))
            cap = max(1, spec.topics // 2)
            summaries = []
            for j in range(spec.summaries_per_video):
                target = int(np.clip(round(n * p * g.uniform(0.85, 1.15)), lo, hi))
                script_set = _script_topics(slots, counts, target, lo, hi, cap, g)
                labels = np.isin(topic_of_frame, script_set).astype(np.float32)

                m = int(g.integers(spec.sentences_min, spec.sentences_max + 1))
                topic_seq = [script_set[i % len(script_set)] for i in range(m)]
                sentences = _noisy_copy(topic_vecs[topic_seq], spec.noise, d, g)

                write_embeddings(labels.reshape(-1, 1), vdir / f"labels_{j:02d}.sdve")
                write_embeddings(sentences, vdir / f"script_{j:02d}.sdve")
                summaries.append(SummaryFiles(labels=f"videos/{vid}/labels_{j:02d}.sdve",
                                              script=f"videos/{vid}/script_{j:02d}.sdve"))

            videos.append(VideoEntry(
                id=vid, split=split, frames=f"videos/{vid}/frames.sdve",
                summaries=summaries, description=f"videos/{vid}/description.sdve",
                fragments=fragments,
            ))

    manifest = DatasetManifest(dimension=d, videos=videos, base_dir=out_dir)
    write_manifest(manifest, out_dir / "manifest.json")
    return manifest
