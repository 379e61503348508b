"""Command-line operator surface.

Subcommands: ``synth`` (build a synthetic dataset), ``train`` (fit and
checkpoint), ``eval`` (protocol evaluation, optional overlap matrix),
``summarize`` (score one video and emit a summary), ``ablate`` (train and
compare the five architecture variants on shared data and seed).

Exit codes: 0 success, 1 usage/configuration error, 2 data or format error,
3 numeric failure (non-finite loss), 4 out of memory. ``synth``, ``train``
and ``ablate`` accept ``--seed`` (inference draws nothing); an explicit flag
beats the config file's ``seed`` key, which beats 42. Paths are flags only.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, parse_spec
from .datasets import (SPLITS, DatasetManifest, LoadedVideo, VideoEntry, generate_synthetic,
                       load_manifest, load_split, load_video)
from .errors import ConfigError, DataFormatError, NumericError, UsageError
from .metrics import evaluate_generic, evaluate_script_driven, overlap_matrix
from .model import ModelConfig, load_checkpoint, make_score_fn, parameter_count
from .sdve import atomic_write, read_embeddings
from .selection import TOP_FRACTION, fixed_fragmentation, fragment_knapsack, select_top_fraction
from .training import train_run

__all__ = ["main", "build_parser", "ABLATION_VARIANTS"]

# Architecture variants compared by `ablate`: (name, text_rep, heads, use_scaling)
ABLATION_VARIANTS = [
    ("SD-VSum", "multi_vector", 8, False),
    ("Variant1", "single_vector", 8, False),
    ("Variant2", "single_vector", 8, True),
    ("Variant3", "single_vector", 4, True),
    ("Variant4", "multi_vector", 8, True),
]

FIXED_SEGMENT = 5   # frames per `summarize` fragment when no manifest gives them


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not SystemExit(2)."""

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdvsum",
                     description="Script-driven video summarization toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def seeded(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config file; default 42)")
        return p

    p = seeded(sub.add_parser("synth", help="generate a synthetic dataset"))
    p.add_argument("--spec", required=True, help="synthesis spec (key = value file)")
    p.add_argument("--out", required=True, help="output dataset directory")

    p = seeded(sub.add_parser("train", help="train a model"))
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--config", help="run configuration (key = value file)")
    p.add_argument("--out", required=True, help="output directory for best.sdvc and the report")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, choices=["validation", "test"])
    p.add_argument("--mode", required=True, choices=["script", "generic"])
    p.add_argument("--overlap", metavar="IDS_FILE",
                   help="file with one video id per line; also emit the overlap matrix")
    p.add_argument("--overlap-out",
                   help="where to write the overlap CSV (default overlap.csv); needs --overlap")

    p = sub.add_parser("summarize", help="summarize one video")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", help="frame embeddings file (SDVC); or give --manifest and --video")
    p.add_argument("--script", help="script sentence embeddings file (SDVC); or give --summary")
    p.add_argument("--manifest", help="dataset manifest that holds --video")
    p.add_argument("--video", help="video id in --manifest: its frames, its fragments for "
                   "--fragments from-manifest, and the output's name (default: the "
                   "--frames file's stem)")
    p.add_argument("--summary", type=int, metavar="J",
                   help="script: the J-th reference summary's script of --video")
    p.add_argument("--budget-frac", type=float, default=TOP_FRACTION)
    p.add_argument("--fragments", default=f"fixed:{FIXED_SEGMENT}",
                   help="'from-manifest' (needs --manifest and --video) or 'fixed:<len>'; "
                   "a fixed length above the frame budget is cut to the budget")

    p = seeded(sub.add_parser("ablate", help="train and compare the five variants"))
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--config", help="run configuration (key = value file)")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _check_width(source: str, width: int, checkpoint, model_config: ModelConfig) -> None:
    if width != model_config.dim:
        raise DataFormatError(f"{source} has width {width} but checkpoint {checkpoint} "
                              f"has dim {model_config.dim}")


def _training_setup(args) -> tuple[RunConfig, DatasetManifest, Path]:
    """``train``'s and ``ablate``'s config, manifest and output directory.

    The config is parsed with ``--seed`` applied and the model as wide as the
    manifest's embeddings. Its training settings are checked here, its model by
    ``train_run`` or per ``ablate`` variant, before any split is read.
    """
    out = Path(args.out)
    near = out   # a file on its path is refused before training, not at the first write
    while not near.exists() and near != near.parent:
        near = near.parent
    if near.exists() and not near.is_dir():
        raise DataFormatError(f"--out {out}: {near} exists and is not a directory")
    manifest = load_manifest(args.manifest)
    config = parse_config(args.config, args.seed, manifest.dimension)
    return config, manifest, out


def _cmd_synth(args) -> int:
    out = Path(args.out)
    generate_synthetic(parse_spec(args.spec, args.seed), out)
    print(out / "manifest.json")
    return 0


def _cmd_train(args) -> int:
    config, manifest, out = _training_setup(args)
    report = train_run(manifest, config.model, config.train, out,
                       on_epoch=lambda record: print(record.to_json(), flush=True))
    print(json.dumps({"best_epoch": report.best_epoch,
                      "best_val_fscore": report.best_val_fscore,
                      "checkpoint": str(out / report.checkpoint)}))
    return 0


def _cmd_eval(args) -> int:
    if args.overlap_out is not None and not args.overlap:
        raise UsageError("--overlap-out needs --overlap")
    overlap_out = "overlap.csv" if args.overlap_out is None else args.overlap_out
    if args.overlap:
        try:
            text = Path(args.overlap).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"--overlap file {args.overlap} is not UTF-8: {e}") from None
        ids = [line.strip() for line in text.splitlines() if line.strip()]
        if not ids:
            raise UsageError(f"--overlap file {args.overlap} lists no video ids")
    manifest = load_manifest(args.manifest)
    weights, model_config = load_checkpoint(args.checkpoint)
    _check_width(f"manifest {args.manifest}", manifest.dimension, args.checkpoint, model_config)
    score_fn = make_score_fn(weights, model_config)
    if args.mode == "script":
        result = evaluate_script_driven(score_fn, manifest, args.split)
    else:
        result = evaluate_generic(score_fn, manifest, args.split)
        if result.degenerate:
            print(f"note: excluded from rank-correlation averages: "
                  f"{result.degenerate} all-tied videos", file=sys.stderr)
    if args.overlap:   # written before the result, so that a failed eval prints none
        matrix = overlap_matrix(result, ids)
        with atomic_write(overlap_out, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_csv())
        print(f"overlap matrix written to {overlap_out}", file=sys.stderr)
    print(result.to_json())
    return 0


def _fragments_for(spec: str, entry: VideoEntry | None, n_frames: int,
                   budget: int) -> list[tuple[int, int]]:
    """``summarize``'s fragments: a manifest video's (checked when it was loaded), or
    fixed ones of at most ``budget`` frames, so that each fits."""
    if spec == "from-manifest":
        return entry.fragments or fixed_fragmentation(n_frames, min(FIXED_SEGMENT, budget))
    if spec.startswith("fixed:"):
        try:
            seg = int(spec.split(":", 1)[1])
        except ValueError:
            seg = 0
        if seg < 1:
            raise UsageError(f"bad fragment spec {spec!r}, expected fixed:<len> with len >= 1")
        return fixed_fragmentation(n_frames, min(seg, budget))
    raise UsageError(f"bad --fragments value {spec!r}")


def _manifest_video(args, checkpoint_config: ModelConfig) -> tuple[VideoEntry, LoadedVideo]:
    """``--video``'s manifest entry and its loaded frames, scripts and labels."""
    manifest = load_manifest(args.manifest)
    _check_width(f"manifest {args.manifest}", manifest.dimension, args.checkpoint,
                 checkpoint_config)
    entries = [v for v in manifest.videos if v.id == args.video]
    if not entries:
        raise UsageError(f"video {args.video!r} is not in the manifest")
    return entries[0], load_video(manifest, entries[0])


def _cmd_summarize(args) -> int:
    if not 0.0 < args.budget_frac <= 1.0:
        raise UsageError(f"--budget-frac must be in (0, 1], got {args.budget_frac}")
    # each input has exactly one source: a file, or the manifest's video
    if (args.manifest is None) != (args.video is None):
        raise UsageError("--manifest and --video go together")
    if (args.frames is None) == (args.video is None):
        raise UsageError("give the frames once: --frames, or --manifest with --video")
    if (args.script is None) == (args.summary is None):
        raise UsageError("give the script once: --script, or --summary")
    if args.video is None and (args.summary is not None or args.fragments == "from-manifest"):
        raise UsageError("--summary and --fragments from-manifest need --manifest and --video")
    weights, model_config = load_checkpoint(args.checkpoint)
    entry = None
    if args.video is None:
        x = read_embeddings(args.frames)
        _check_width(f"--frames {args.frames}", x.shape[1], args.checkpoint, model_config)
    else:
        entry, video = _manifest_video(args, model_config)
        x = video.frames
    if args.summary is None:
        y = read_embeddings(args.script)
        _check_width(f"--script {args.script}", y.shape[1], args.checkpoint, model_config)
    elif 0 <= args.summary < len(video.summaries):
        y = video.summaries[args.summary].script
    else:
        raise UsageError(f"--summary {args.summary}: video {args.video!r} has "
                         f"{len(video.summaries)} summaries")
    scores = make_score_fn(weights, model_config)(x, y)
    n = scores.shape[0]
    selection = select_top_fraction(scores, args.budget_frac)
    budget = max(1, math.floor(args.budget_frac * n))
    fragments = _fragments_for(args.fragments, entry, n, budget)
    chosen = fragment_knapsack(scores, fragments, budget)
    shortest = min(end - start for start, end in fragments)
    if shortest > budget:   # fixed fragments are cut to the budget, so only a manifest's can be
        print(f"note: no manifest fragment fits the budget of {budget} frames "
              f"(the shortest has {shortest})", file=sys.stderr)
    print(json.dumps({
        "video_id": args.video or Path(args.frames).stem,
        "selected_frames": [int(i) for i in np.nonzero(selection)[0]],
        "selected_fragments": [[int(fragments[i][0]), int(fragments[i][1])] for i in chosen],
    }, indent=1))
    return 0


def _cmd_ablate(args) -> int:
    config, manifest, out = _training_setup(args)
    # the variants' own text_rep, heads and use_scaling are checked, not the config's
    variants = {name: replace(config.model, text_rep=text_rep, heads=heads, use_scaling=scaling)
                for name, text_rep, heads, scaling in ABLATION_VARIANTS}
    for variant in variants.values():
        variant.validate()
    cache: dict = {}   # every file read once, and a bad one refused before any write
    for split in SPLITS:
        load_split(manifest, split, cache)
    rows = []
    for name, variant in variants.items():
        report = train_run(manifest, variant, config.train, out / name, cache=cache)
        weights, _ = load_checkpoint(out / name / report.checkpoint)
        result = evaluate_script_driven(make_score_fn(weights, variant), manifest, "test",
                                        cache=cache)
        rows.append({
            "name": name,
            "text_rep": variant.text_rep,
            "heads": variant.heads,
            "use_scaling": variant.use_scaling,
            "parameters": parameter_count(variant),
            "best_val_fscore": report.best_val_fscore,
            "test_fscore": result.fscore,
        })
        print(f"{name}: test F-Score {result.fscore:.2f} "
              f"({parameter_count(variant)} parameters)", flush=True)

    with atomic_write(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps(rows, indent=1))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "summarize": _cmd_summarize,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
