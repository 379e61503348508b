"""Command-line operator surface.

Subcommands: ``synth`` (build a synthetic dataset), ``train`` (fit and
checkpoint), ``eval`` (protocol evaluation, optional overlap matrix),
``summarize`` (score one video and emit a summary), ``ablate`` (train and
compare the five architecture variants on shared data and seed).

Exit codes: 0 success, 1 usage/configuration error, 2 data or format error,
3 numeric failure (non-finite loss). Every subcommand accepts ``--seed``;
an explicit flag beats the config file's ``seed`` key, which beats 42.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .datasets import generate_synthetic, load_manifest
from .errors import ConfigError, DataFormatError, ManifestError, NumericError, UsageError
from .metrics import evaluate_generic, evaluate_script_driven, overlap_matrix
from .model import (
    ModelConfig,
    load_checkpoint,
    make_score_fn,
    parameter_count,
    score_frames,
)
from .selection import fixed_fragmentation, fragment_knapsack, select_top_fraction
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
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--config", help="run configuration (key = value file)")
    p.add_argument("--out", help="output directory for checkpoints and the report")

    p = seeded(sub.add_parser("eval", help="evaluate a checkpoint"))
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, choices=["validation", "test"])
    p.add_argument("--mode", required=True, choices=["script", "generic"])
    p.add_argument("--overlap", metavar="IDS_FILE",
                   help="file with one video id per line; also emit the overlap matrix")
    p.add_argument("--overlap-out", default="overlap.csv",
                   help="where to write the overlap CSV (default overlap.csv)")

    p = seeded(sub.add_parser("summarize", help="summarize one video"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--frames", required=True, help="frame embeddings (SDVE)")
    p.add_argument("--script", required=True, help="script sentence embeddings (SDVE)")
    p.add_argument("--budget-frac", type=float, default=0.15)
    p.add_argument("--fragments", default="fixed:5",
                   help="'from-manifest' (needs --manifest and --video) or 'fixed:<len>'")
    p.add_argument("--manifest", help="manifest providing fragment boundaries")
    p.add_argument("--video", help="video id for --fragments from-manifest")

    p = seeded(sub.add_parser("ablate", help="train and compare the five variants"))
    p.add_argument("--manifest", help="dataset manifest JSON")
    p.add_argument("--config", help="run configuration (key = value file)")
    p.add_argument("--out", help="output directory")
    return parser


def _resolve(flag_value, config_value, name: str) -> str:
    value = flag_value if flag_value is not None else config_value
    if value is None:
        raise UsageError(f"--{name} is required (flag or config key {name!r})")
    return value


def _apply_seed(config: RunConfig, seed_flag) -> None:
    if seed_flag is not None:
        if not 0 <= seed_flag < 2**64:
            raise UsageError(f"--seed must be an unsigned 64-bit integer, got {seed_flag}")
        config.seed = seed_flag
        config.train.seed = seed_flag
        config.synth.seed = seed_flag


def _model_for_manifest(config: RunConfig, dimension: int) -> ModelConfig:
    """The model dimension follows the data unless the config pins it."""
    if config.was_set("dim"):
        if config.model.dim != dimension:
            raise ConfigError(
                f"config sets dim={config.model.dim} but the manifest declares "
                f"dimension {dimension}"
            )
    else:
        config.model.dim = dimension
        config.model.validate()
    return config.model


def _cmd_synth(args) -> int:
    config = parse_config(args.spec)
    _apply_seed(config, args.seed)
    out = Path(args.out)
    generate_synthetic(config.synth, out)
    print(out / "manifest.json")
    return 0


def _cmd_train(args) -> int:
    config = parse_config(args.config)
    _apply_seed(config, args.seed)
    manifest_path = _resolve(args.manifest, config.manifest, "manifest")
    out = Path(_resolve(args.out, config.out, "out"))
    manifest = load_manifest(manifest_path)
    model_config = _model_for_manifest(config, manifest.dimension)

    def on_epoch(record):
        print(json.dumps({"epoch": record.epoch, "train_loss": record.train_loss,
                          "val_fscore": record.val_fscore}), flush=True)

    report = train_run(manifest, model_config, config.train, out, on_epoch=on_epoch)
    print(json.dumps({"best_epoch": report.best_epoch,
                      "best_val_fscore": report.best_val_fscore,
                      "checkpoint": str(out / report.checkpoint)}))
    return 0


def _cmd_eval(args) -> int:
    if args.overlap:
        ids = [line.strip() for line in Path(args.overlap).read_text(encoding="utf-8").splitlines()
               if line.strip()]
        if not ids:
            raise UsageError(f"--overlap file {args.overlap} lists no video ids")
    manifest = load_manifest(args.manifest)
    weights, model_config = load_checkpoint(args.checkpoint)
    score_fn = make_score_fn(weights, model_config)
    cache: dict = {}
    mode = "script_driven" if args.mode == "script" else "generic"
    if mode == "script_driven":
        result = evaluate_script_driven(score_fn, manifest, args.split, cache=cache)
    else:
        result = evaluate_generic(score_fn, manifest, args.split, cache=cache)
        if result.degenerate_tau or result.degenerate_rho:
            print(
                f"note: excluded from rank-correlation averages: "
                f"{result.degenerate_tau} all-tied videos (tau), "
                f"{result.degenerate_rho} (rho)",
                file=sys.stderr,
            )
    print(result.to_json())
    if args.overlap:
        matrix = overlap_matrix(score_fn, manifest, ids, mode, cache=cache)
        Path(args.overlap_out).write_text(matrix.to_csv(), encoding="utf-8")
        print(f"overlap matrix written to {args.overlap_out}", file=sys.stderr)
    return 0


def _fragments_for(args, n_frames: int) -> list[tuple[int, int]]:
    spec = args.fragments
    if spec == "from-manifest":
        if not args.manifest or not args.video:
            raise UsageError("--fragments from-manifest needs --manifest and --video")
        manifest = load_manifest(args.manifest)
        entries = [v for v in manifest.videos if v.id == args.video]
        if not entries:
            raise UsageError(f"video {args.video!r} is not in the manifest")
        fragments = entries[0].fragments
        if not fragments:
            return fixed_fragmentation(n_frames, 5)
        # load_manifest has checked that the fragments tile the manifest's video
        if fragments[-1][1] != n_frames:
            raise ManifestError(
                f"video {args.video!r}: manifest fragments cover {fragments[-1][1]} frames "
                f"but --frames has {n_frames}"
            )
        return fragments
    if spec.startswith("fixed:"):
        try:
            seg = int(spec.split(":", 1)[1])
        except ValueError:
            seg = 0
        if seg < 1:
            raise UsageError(f"bad fragment spec {spec!r}, expected fixed:<len> with len >= 1")
        return fixed_fragmentation(n_frames, seg)
    raise UsageError(f"bad --fragments value {spec!r}")


def _cmd_summarize(args) -> int:
    from .sdve import read_embeddings

    if not 0.0 < args.budget_frac <= 1.0:
        raise UsageError(f"--budget-frac must be in (0, 1], got {args.budget_frac}")
    weights, model_config = load_checkpoint(args.checkpoint)
    x = read_embeddings(args.frames)
    y = read_embeddings(args.script)
    scores = score_frames(x, y, weights, model_config)
    n = scores.shape[0]
    selection = select_top_fraction(scores, args.budget_frac)
    fragments = _fragments_for(args, n)
    budget = max(1, math.floor(args.budget_frac * n))
    chosen = fragment_knapsack(scores, fragments, budget)
    video_id = args.video if args.video else Path(args.frames).stem
    print(json.dumps({
        "video_id": video_id,
        "selected_frames": [int(i) for i in np.nonzero(selection)[0]],
        "selected_fragments": [[int(fragments[i][0]), int(fragments[i][1])] for i in chosen],
    }, indent=1))
    return 0


def _cmd_ablate(args) -> int:
    config = parse_config(args.config)
    _apply_seed(config, args.seed)
    manifest_path = _resolve(args.manifest, config.manifest, "manifest")
    out = Path(_resolve(args.out, config.out, "out"))
    manifest = load_manifest(manifest_path)
    base_model = _model_for_manifest(config, manifest.dimension)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for name, text_rep, heads, use_scaling in ABLATION_VARIANTS:
        variant = ModelConfig(**{**base_model.to_dict(), "text_rep": text_rep,
                                 "heads": heads, "use_scaling": use_scaling})
        variant.validate()
        report = train_run(manifest, variant, config.train, out / name)
        weights, _ = load_checkpoint(out / name / report.checkpoint)
        cache: dict = {}
        result = evaluate_script_driven(make_score_fn(weights, variant), manifest,
                                        "test", cache=cache)
        rows.append({
            "name": name,
            "text_rep": text_rep,
            "heads": heads,
            "use_scaling": use_scaling,
            "parameters": parameter_count(variant),
            "best_val_fscore": report.best_val_fscore,
            "test_fscore": result.fscore,
        })
        print(f"{name}: test F-Score {result.fscore:.2f} "
              f"({parameter_count(variant)} parameters)", flush=True)

    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
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
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
