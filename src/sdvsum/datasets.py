"""Dataset manifest, cached video loading, and the synthetic topic-planted corpus.

A dataset on disk is a JSON manifest plus one SDVC file per video. The
manifest declares the embedding dimension and, per video, its split, its
file (relative to the manifest) and optional fragment boundaries. A video's
file has the blob ``{"video": "<id>"}`` and the tensors ``frames`` (N x D),
an optional full-video ``description`` (rows x D), and one ``labels_JJ``
(N x 1) and ``script_JJ`` (M x D) pair per reference summary, for J = 00,
01, ..., contiguous, at least one pair. Parsing the manifest checks its JSON
only; each file is checked as it is read, once, when its video is loaded: it
must exist and parse as SDVC, name its video, hold exactly those tensors at
the declared width, labels must be binary with one row per frame and a
positive frame, and fragments must tile the frames. Loading turns manifest
entries into in-memory videos, through a cache that training epochs and
evaluations share.

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
from .rng import Rng, check_seed
# read_embeddings is not called here, but perfbench/tracing.py wraps it by this name
from .sdve import atomic_write, read_container, read_embeddings, write_container  # noqa: F401
from .selection import validate_fragments

__all__ = [
    "SPLITS",
    "VideoEntry",
    "DatasetManifest",
    "load_manifest",
    "write_manifest",
    "LoadedSummary",
    "LoadedVideo",
    "load_video",
    "load_split",
    "SynthSpec",
    "generate_synthetic",
]

SPLITS = ("train", "validation", "test")


@dataclass
class VideoEntry:
    id: str
    split: str
    file: str
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


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ManifestError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value


def _fragment_pairs(raw, vid: str) -> list[tuple[int, int]]:
    pairs = []
    for f in _typed(raw, list, f"video {vid!r}: fragments"):
        if not (isinstance(f, list) and len(f) == 2 and all(type(x) is int for x in f)):
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
    return VideoEntry(
        id=vid,
        split=split,
        file=_typed(raw.get("file"), str, f"video {vid!r}: file"),
        fragments=_fragment_pairs(raw["fragments"], vid) if raw.get("fragments") else None,
    )


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest and check its JSON types; the files it names are checked by
    ``load_video``, as they are read."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:   # ValueError: not UTF-8, not JSON
        raise ManifestError(f"cannot read manifest {path}: {e}") from e
    if not isinstance(doc, dict) or "dimension" not in doc or "videos" not in doc:
        raise ManifestError(f"{path}: manifest needs top-level 'dimension' and 'videos'")
    dim = doc["dimension"]
    if type(dim) is not int or dim < 1:   # JSON true/false are Python ints
        raise ManifestError(f"{path}: dimension must be a positive integer, got {dim!r}")

    videos = []
    seen_ids = set()
    for raw in _typed(doc["videos"], list, f"{path}: videos"):
        entry = _parse_entry(raw, path)
        if entry.id in seen_ids:
            raise ManifestError(f"duplicate video id {entry.id!r}")
        seen_ids.add(entry.id)
        videos.append(entry)

    return DatasetManifest(dimension=dim, videos=videos, base_dir=path.parent)


def write_manifest(manifest: DatasetManifest, path) -> None:
    path = Path(path)
    doc = {
        "dimension": manifest.dimension,
        "videos": [
            {
                "id": v.id,
                "split": v.split,
                "file": v.file,
                **({"fragments": [list(f) for f in v.fragments]} if v.fragments else {}),
            }
            for v in manifest.videos
        ],
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


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


def _pair_names(j: int) -> tuple[str, str]:
    return f"labels_{j:02d}", f"script_{j:02d}"


def _read_video_file(manifest: DatasetManifest,
                     entry: VideoEntry) -> tuple[dict[str, np.ndarray], int]:
    """The tensors of ``entry``'s file, whose blob must name the video, and its
    number of summaries."""
    vid, rel = entry.id, entry.file
    try:
        blob, tensors = read_container(manifest.resolve(rel))
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ManifestError(f"video {vid!r}: missing file {rel!r}") from None
    except (OSError, ValueError) as e:   # a name too long or holding NUL, or not SDVC
        raise ManifestError(f"video {vid!r}: unreadable file {rel!r}: {e}") from e
    if blob != {"video": vid}:
        raise ManifestError(f"video {vid!r}: file {rel!r} has blob "
                            f"{json.dumps(blob, sort_keys=True)[:80]}, expected "
                            f"{json.dumps({'video': vid})}")
    # frames and pairs from 00 up: an odd tensor out shows as its missing partner
    pairs = max(1, (len(tensors) - ("description" in tensors)) // 2)
    expected = {"frames", *(["description"] if "description" in tensors else []),
                *(name for j in range(pairs) for name in _pair_names(j))}
    missing, unexpected = sorted(expected - set(tensors)), sorted(set(tensors) - expected)
    if missing or unexpected:
        raise ManifestError(f"video {vid!r}: file {rel!r} needs tensors frames, an optional "
                            f"description and labels_JJ/script_JJ pairs from 00 on; "
                            f"missing {missing}, unexpected {unexpected}")
    return tensors, pairs


def _checked(tensors, name: str, vid: str, cols: int, rows: int | None = None) -> np.ndarray:
    """Tensor ``name`` of video ``vid``, which must be ``rows`` x ``cols``."""
    m = tensors[name]
    if m.shape[1] != cols:
        raise ManifestError(f"video {vid!r}: {name} has {m.shape[1]} columns, expected {cols}")
    if rows is not None and m.shape[0] != rows:
        raise ManifestError(f"video {vid!r}: {name} has {m.shape[0]} rows, expected {rows}")
    return m


def load_video(manifest: DatasetManifest, entry: VideoEntry) -> LoadedVideo:
    """Read a video's one file, checked as read (see the module docstring)."""
    vid, dim = entry.id, manifest.dimension
    tensors, pairs = _read_video_file(manifest, entry)
    frames = _checked(tensors, "frames", vid, dim)
    n_frames = frames.shape[0]
    summaries = []
    for j in range(pairs):
        labels_name, script_name = _pair_names(j)
        labels = _checked(tensors, labels_name, vid, 1, n_frames)[:, 0]
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise LabelError(f"video {vid!r}: {labels_name} holds non-binary values")
        if labels.sum() < 1:
            raise LabelError(f"video {vid!r}: {labels_name} marks no positive frame")
        summaries.append(LoadedSummary(labels=labels,
                                       script=_checked(tensors, script_name, vid, dim)))
    description = (_checked(tensors, "description", vid, dim)
                   if "description" in tensors else None)
    if entry.fragments is not None:
        try:
            validate_fragments(entry.fragments, n_frames)
        except ValueError as e:
            raise ManifestError(f"video {vid!r}: {e}") from e
    return LoadedVideo(id=vid, frames=frames, summaries=summaries, description=description)


def load_split(manifest: DatasetManifest, split: str,
               cache: dict[str, LoadedVideo] | None = None) -> list[LoadedVideo]:
    """Load every video of a nonempty split; an optional cache persists across epochs."""
    cache = {} if cache is None else cache
    entries = manifest.split_videos(split)
    if not entries:
        raise ManifestError(f"{split} split is empty")
    for entry in entries:
        if entry.id not in cache:
            cache[entry.id] = load_video(manifest, entry)
    return [cache[entry.id] for entry in entries]


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
        check_seed(self.seed)


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


def _subset_totals(counts: list[int], cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """Every subset of 2..cap topic slots (slot counts are tiny), with its frame count."""
    return [(sum(counts[i] for i in combo), combo)
            for size in range(2, min(cap, len(counts)) + 1)
            for combo in itertools.combinations(range(len(counts)), size)]


def _script_topics(slots: list[int], counts: list[int], subsets, target: int,
                   lo: int, hi: int, g) -> list[int]:
    """Topic-slot subset whose frame count approaches ``target``.

    Keeps the ``_subset_totals`` whose totals land in [lo, hi], and picks
    uniformly among the near-best by distance to the target; the randomness
    is what varies the annotators. Falls back to the closest single slot only
    when no pair fits the band.
    """
    candidates = [(abs(total - target), combo) for total, combo in subsets
                  if lo <= total <= hi]
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
    (out_dir / "videos").mkdir(parents=True, exist_ok=True)
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

            frames = _noisy_copy(topic_vecs[topic_of_frame], spec.noise, d, g)
            present = sorted(set(int(t) for t in slots))
            tensors = {"frames": frames,
                       "description": _noisy_copy(topic_vecs[present].mean(axis=0, keepdims=True),
                                                  spec.noise, d, g)}

            lo = max(1, math.ceil(n * p / 2))
            hi = max(lo, math.floor(n * min(2 * p, 0.9)))
            subsets = _subset_totals(counts, max(1, spec.topics // 2))
            for j in range(spec.summaries_per_video):
                target = int(np.clip(round(n * p * g.uniform(0.85, 1.15)), lo, hi))
                script_set = _script_topics(slots, counts, subsets, target, lo, hi, g)
                labels = np.isin(topic_of_frame, script_set).astype(np.float32)

                m = int(g.integers(spec.sentences_min, spec.sentences_max + 1))
                topic_seq = [script_set[i % len(script_set)] for i in range(m)]
                labels_name, script_name = _pair_names(j)
                tensors[labels_name] = labels.reshape(-1, 1)
                tensors[script_name] = _noisy_copy(topic_vecs[topic_seq], spec.noise, d, g)

            rel = f"videos/{vid}.sdvc"
            write_container({"video": vid}, tensors, out_dir / rel)
            videos.append(VideoEntry(id=vid, split=split, file=rel, fragments=fragments))

    manifest = DatasetManifest(dimension=d, videos=videos, base_dir=out_dir)
    write_manifest(manifest, out_dir / "manifest.json")
    return manifest
