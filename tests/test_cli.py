"""Operator surface: subcommand wiring, exit codes, emitted artifacts."""

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import sdvsum.cli
from sdvsum.cli import ABLATION_VARIANTS, main
from sdvsum.model import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from sdvsum.rng import Rng
from sdvsum.sdve import (read_checkpoint_file, read_embeddings, write_checkpoint_file,
                         write_embeddings)

SPEC_TEXT = """
topics = 4
dim = 16
videos_train = 2
videos_validation = 1
videos_test = 1
frames_min = 12
frames_max = 16
sentences_min = 3
sentences_max = 4
summaries_per_video = 3
"""

TRAIN_TEXT = """
heads = 4
dropout_rate = 0.0
learning_rate = 0.01
epochs = 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train round shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SPEC_TEXT, encoding="utf-8")
    (root / "train.cfg").write_text(TRAIN_TEXT, encoding="utf-8")
    assert main(["synth", "--spec", str(root / "synth.cfg"),
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--manifest", str(root / "data" / "manifest.json"),
                 "--config", str(root / "train.cfg"),
                 "--out", str(root / "run")]) == 0
    report = [json.loads(line)
              for line in (root / "run" / "train_report.jsonl").read_text().splitlines()]
    return root, report


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "visualize")
    assert code == 1
    assert "usage" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "synth", "--spec", "x.cfg")
    assert code == 1


def test_synth_emits_manifest(workspace, capsys):
    root, _ = workspace
    manifest = root / "data" / "manifest.json"
    assert manifest.exists()
    data = json.loads(manifest.read_text())
    assert data["dimension"] == 16


def test_synth_seed_flag_beats_config_seed(tmp_path, capsys):
    spec = tmp_path / "s.cfg"
    spec.write_text(SPEC_TEXT + "seed = 5\n", encoding="utf-8")
    for out in ("a", "b"):
        code, _, _ = run(capsys, "synth", "--spec", str(spec),
                         "--out", str(tmp_path / out), "--seed", "7")
    code, _, _ = run(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "c"))
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_train_emits_checkpoints_and_report(workspace):
    root, report = workspace
    assert (root / "run" / "epoch_001.sdvc").exists()
    assert (root / "run" / "epoch_002.sdvc").exists()
    assert {"epoch", "train_loss", "val_fscore"} <= set(report[0])
    assert {"best_epoch", "best_val_fscore", "checkpoint"} <= set(report[-1])


def test_train_model_dim_follows_manifest(workspace):
    root, report = workspace
    _, config = load_checkpoint(root / "run" / "epoch_001.sdvc")
    assert config.dim == 16
    assert config.heads == 4


def test_train_dim_conflict_is_config_error(workspace, tmp_path, capsys):
    root, _ = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text(TRAIN_TEXT + "dim = 32\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--manifest", str(root / "data" / "manifest.json"),
                       "--config", str(bad), "--out", str(tmp_path / "r"))
    assert code == 1
    assert "dim" in err


def test_eval_reports_fscore_and_is_deterministic(workspace, capsys):
    root, report = workspace
    best = root / "run" / report[-1]["checkpoint"].split("/")[-1]
    argv = ["eval", "--manifest", str(root / "data" / "manifest.json"),
            "--checkpoint", str(best), "--split", "test", "--mode", "script"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    result = json.loads(out1)
    assert result["split"] == "test" and result["mode"] == "script_driven"
    assert 0.0 <= result["fscore"] <= 100.0
    assert len(result["videos"]) == 1


def test_eval_validation_matches_train_report(workspace, capsys):
    root, report = workspace
    best_line = report[-1]
    best = root / "run" / best_line["checkpoint"].split("/")[-1]
    code, out, _ = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(best), "--split", "validation",
                       "--mode", "script")
    assert code == 0
    assert json.loads(out)["fscore"] == best_line["best_val_fscore"]


def test_eval_generic_mode_reports_rank_stats(workspace, capsys):
    root, report = workspace
    ckpt = root / "run" / "epoch_001.sdvc"
    code, out, _ = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(ckpt), "--split", "test", "--mode", "generic")
    assert code == 0
    result = json.loads(out)
    assert result["mode"] == "generic"
    assert "tau" in result and "rho" in result


def test_eval_overlap_matrix_csv(workspace, tmp_path, capsys):
    root, report = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    test_ids = [v["id"] for v in manifest["videos"] if v["split"] == "test"]
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("\n".join(test_ids) + "\n", encoding="utf-8")
    out_csv = tmp_path / "m.csv"
    code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--split", "test", "--mode", "script",
                       "--overlap", str(ids_file), "--overlap-out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) >= 2  # header plus one row per script


def test_eval_overlap_with_no_ids_is_usage_error(workspace, tmp_path, capsys):
    root, _ = workspace
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("\n  \n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--split", "test", "--mode", "script",
                       "--overlap", str(ids_file), "--overlap-out", str(tmp_path / "m.csv"))
    assert code == 1
    assert "no video ids" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.csv").exists()


def test_eval_overlap_scores_each_pair_once(workspace, tmp_path, capsys, monkeypatch):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    pairs = sum(len(v["summaries"]) for v in manifest["videos"] if v["split"] == "test")
    calls = []

    def counting_score_fn(weights, config, make=sdvsum.cli.make_score_fn):
        score_fn = make(weights, config)
        return lambda x, y: calls.append(1) or score_fn(x, y)

    monkeypatch.setattr(sdvsum.cli, "make_score_fn", counting_score_fn)
    for split, expected_code in (("test", 0), ("train", 2)):
        ids_file = tmp_path / f"{split}.txt"
        ids_file.write_text("\n".join(v["id"] for v in manifest["videos"]
                                      if v["split"] == split), encoding="utf-8")
        out_csv = tmp_path / f"{split}.csv"
        calls.clear()
        code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                           "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                           "--split", "test", "--mode", "script",
                           "--overlap", str(ids_file), "--overlap-out", str(out_csv))
        assert code == expected_code
        assert len(calls) == pairs
        assert out_csv.exists() == (code == 0)
    assert "not in the evaluated 'test' split" in err


def test_eval_missing_checkpoint_is_data_error(workspace, capsys):
    root, _ = workspace
    code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(root / "nope.sdvc"),
                       "--split", "test", "--mode", "script")
    assert code == 2


def test_eval_malformed_manifest_is_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    doc = json.loads((root / "data" / "manifest.json").read_text())
    del doc["videos"][0]["frames"]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "eval", "--manifest", str(bad),
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--split", "test", "--mode", "script")
    assert code == 2
    assert "frames" in err


def test_eval_bad_split_is_usage_error(workspace, capsys):
    root, _ = workspace
    code, _, _ = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                     "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                     "--split", "train", "--mode", "script")
    assert code == 1


def test_summarize_budget_and_shape(workspace, capsys):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    video = next(v for v in manifest["videos"] if v["split"] == "test")
    frames = root / "data" / video["frames"]
    script = root / "data" / video["summaries"][0]["script"]
    code, out, _ = run(capsys, "summarize",
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--frames", str(frames), "--script", str(script),
                       "--fragments", "fixed:4", "--budget-frac", "0.4")
    assert code == 0
    result = json.loads(out)
    n = read_embeddings(frames).shape[0]
    budget = max(1, math.floor(0.4 * n))
    assert len(result["selected_frames"]) == budget
    total = sum(b - a for a, b in result["selected_fragments"])
    assert 0 < total <= budget
    for a, b in result["selected_fragments"]:
        assert 0 <= a < b <= n

    # a budget below the shortest fragment admits no fragment at all
    code, out, _ = run(capsys, "summarize",
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--frames", str(frames), "--script", str(script),
                       "--fragments", "fixed:4", "--budget-frac", "0.15")
    assert code == 0
    tight = json.loads(out)
    assert len(tight["selected_frames"]) == max(1, math.floor(0.15 * n))
    assert tight["selected_fragments"] == []


def test_summarize_bad_budget_is_usage_error(workspace, capsys):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    video = next(v for v in manifest["videos"] if v["split"] == "test")
    code, _, _ = run(capsys, "summarize",
                     "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                     "--frames", str(root / "data" / video["frames"]),
                     "--script", str(root / "data" / video["summaries"][0]["script"]),
                     "--budget-frac", "1.5")
    assert code == 1


@pytest.mark.parametrize("spec", ["fixed:0", "fixed:-2"])
def test_summarize_non_positive_fragment_length_is_usage_error(workspace, capsys, spec):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    video = next(v for v in manifest["videos"] if v["split"] == "test")
    code, _, err = run(capsys, "summarize",
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--frames", str(root / "data" / video["frames"]),
                       "--script", str(root / "data" / video["summaries"][0]["script"]),
                       "--fragments", spec)
    assert code == 1
    assert spec in err


def test_summarize_fragments_of_another_length_is_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    video = next(v for v in manifest["videos"] if v["split"] == "test")
    n = read_embeddings(root / "data" / video["frames"]).shape[0]
    longer = tmp_path / "frames.sdve"
    write_embeddings(np.random.default_rng(0).normal(size=(n + 8, 16)), longer)
    code, _, err = run(capsys, "summarize",
                       "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                       "--frames", str(longer),
                       "--script", str(root / "data" / video["summaries"][0]["script"]),
                       "--fragments", "from-manifest",
                       "--manifest", str(root / "data" / "manifest.json"),
                       "--video", video["id"])
    assert code == 2
    assert video["id"] in err


def test_summarize_corrupt_embeddings_is_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    bad = tmp_path / "bad.sdve"
    bad.write_bytes(b"not an embedding file")
    code, _, _ = run(capsys, "summarize",
                     "--checkpoint", str(root / "run" / "epoch_001.sdvc"),
                     "--frames", str(bad), "--script", str(bad))
    assert code == 2


def _test_video(root):
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    return next(v for v in manifest["videos"] if v["split"] == "test")


def _summarize(root, frames=None, script=None, checkpoint=None):
    video = _test_video(root)
    return ["summarize", "--checkpoint", str(checkpoint or root / "run" / "epoch_001.sdvc"),
            "--frames", str(frames or root / "data" / video["frames"]),
            "--script", str(script or root / "data" / video["summaries"][0]["script"])]


def _eval(root, manifest=None, checkpoint=None):
    return ["eval", "--manifest", str(manifest or root / "data" / "manifest.json"),
            "--checkpoint", str(checkpoint or root / "run" / "epoch_001.sdvc"),
            "--split", "test", "--mode", "script"]


def _written(path, m):
    write_embeddings(m, path)
    return path


def _poisoned(src, dst, value):
    m = read_embeddings(src).copy()
    m[0, 0] = value
    return _written(dst, m)


def _corpus_with_inf_frames(root, tmp):
    shutil.copytree(root / "data", tmp / "data")
    frames = tmp / "data" / _test_video(root)["frames"]
    _poisoned(frames, frames, np.inf)
    return tmp / "data" / "manifest.json"


def _checkpoint_with(root, tmp, edit):
    blob, tensors = read_checkpoint_file(root / "run" / "epoch_001.sdvc")
    tensors = {name: t.copy() for name, t in tensors.items()}
    edit(blob, tensors)
    write_checkpoint_file(blob, tensors, tmp / "edited.sdvc")
    return tmp / "edited.sdvc"


def _narrow_checkpoint(tmp):
    config = ModelConfig(dim=8, heads=4)
    save_checkpoint(init_weights(config, Rng(0)), config, tmp / "narrow.sdvc")
    return tmp / "narrow.sdvc"


MALFORMED = {
    "nan_frames": lambda root, tmp: _summarize(
        root, frames=_poisoned(root / "data" / _test_video(root)["frames"],
                               tmp / "nan.sdve", np.nan)),
    "inf_corpus_frames": lambda root, tmp: _eval(root, manifest=_corpus_with_inf_frames(root, tmp)),
    "nan_checkpoint_tensor": lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: tensors["post.ln.gain"].fill(np.nan))),
    "frames_width": lambda root, tmp: _summarize(root, checkpoint=_narrow_checkpoint(tmp)),
    "script_width": lambda root, tmp: _summarize(root, script=_written(
        tmp / "narrow.sdve", np.ones((3, 8)))),
    "manifest_dimension": lambda root, tmp: _eval(root, checkpoint=_narrow_checkpoint(tmp)),
    "config_blob_type": lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(dim=str(blob["dim"])))),
    "config_blob_bool_string": lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(use_scaling="false"))),
    "config_blob_float_dim": lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(dim=float(blob["dim"])))),
    "config_blob_bool_heads": lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(heads=True))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_data_error(workspace, tmp_path, capsys, case):
    root, _ = workspace
    code, _, err = run(capsys, *MALFORMED[case](root, tmp_path))
    assert code == 2
    assert err.startswith("data error: ")


def test_ablate_runs_five_variants(workspace, tmp_path, capsys):
    root, _ = workspace
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("heads = 8\ndropout_rate = 0.0\nepochs = 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "ablate",
                       "--manifest", str(root / "data" / "manifest.json"),
                       "--config", str(cfg), "--out", str(tmp_path / "ab"))
    assert code == 0
    start = out.index("[")
    rows = json.loads(out[start:])
    assert [r["name"] for r in rows] == [v[0] for v in ABLATION_VARIANTS]
    assert [r["name"] for r in rows] == \
        ["SD-VSum", "Variant1", "Variant2", "Variant3", "Variant4"]
    sdvsum = rows[0]
    for row in rows:
        if row["text_rep"] == "single_vector":
            assert sdvsum["parameters"] < row["parameters"]
    csv_lines = (tmp_path / "ab" / "ablation.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 6  # header + five variants
