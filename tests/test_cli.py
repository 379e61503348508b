"""Operator surface: subcommand wiring, exit codes, emitted artifacts."""

import errno
import hashlib
import json
import math
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import sdvsum.cli
import sdvsum.datasets
import sdvsum.errors
from sdvsum.cli import ABLATION_VARIANTS, main
from sdvsum.config import RUN_KEYS, SPEC_KEYS
from sdvsum.datasets import DatasetManifest, VideoEntry, load_manifest, load_split, write_manifest
from sdvsum.errors import ConfigError, DataFormatError, NumericError, UsageError
from sdvsum.model import ModelConfig, init_weights, load_checkpoint, save_checkpoint
from sdvsum.rng import Rng
from sdvsum.sdve import (read_checkpoint_file, read_container, write_checkpoint_file,
                         write_container, write_embeddings)

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


# case: (what a command raises, the exit code, the one stderr line)
FAILURES = {
    "UsageError": (UsageError("--budget-frac must be in (0, 1], got 2.0"), 1,
                   "error: --budget-frac must be in (0, 1], got 2.0"),
    "ConfigError": (ConfigError("t.cfg:3: unknown key 'depth'"), 1,
                    "configuration error: t.cfg:3: unknown key 'depth'"),
    "DataFormatError": (DataFormatError("m.sdvc: bad magic b'SDVE', expected b'SDVC'"), 2,
                        "data error: m.sdvc: bad magic b'SDVE', expected b'SDVC'"),
    "OSError": (OSError(errno.ENOENT, "No such file or directory", "m.sdvc"), 2,
                "data error: [Errno 2] No such file or directory: 'm.sdvc'"),
    "NumericError": (NumericError("non-finite training loss at epoch 1"), 3,
                     "numeric failure: non-finite training loss at epoch 1"),
    "MemoryError": (MemoryError("Unable to allocate 7.63 GiB for an array with shape "
                                "(8, 16000, 16000)"), 4,
                    "out of memory: Unable to allocate 7.63 GiB for an array with shape "
                    "(8, 16000, 16000)"),
}


@pytest.mark.parametrize("failure, code, line", FAILURES.values(), ids=FAILURES.keys())
def test_each_failure_is_one_line_and_its_exit_code(monkeypatch, capsys, failure, code, line):
    def failing(args):
        raise failure

    monkeypatch.setitem(sdvsum.cli._COMMANDS, "synth", failing)
    assert run(capsys, "synth", "--spec", "x.cfg", "--out", "y") == (code, "", f"{line}\n")


def test_errors_define_one_class_per_failure_line():
    classes = {name for name, value in vars(sdvsum.errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    assert classes == {"UsageError", "ConfigError", "DataFormatError", "NumericError"}


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
    assert sorted(p.name for p in (root / "run").iterdir()) == \
        ["best.sdvc", "train_report.jsonl"]
    assert {"epoch", "train_loss", "val_fscore"} <= set(report[0])
    scores = [line["val_fscore"] for line in report[:-1]]
    assert report[-1] == {"best_epoch": scores.index(max(scores)) + 1,
                          "best_val_fscore": max(scores), "checkpoint": "best.sdvc"}


def test_train_model_dim_follows_manifest(workspace):
    root, report = workspace
    _, config = load_checkpoint(root / "run" / "best.sdvc")
    assert config.dim == 16
    assert config.heads == 4


def test_synth_validates_only_the_corpus_settings(tmp_path, capsys):
    # synth builds no model, so a width no head count divides is a corpus;
    # train on it, at the default 8 heads, is refused as before
    (tmp_path / "s.cfg").write_text(SPEC_TEXT.replace("dim = 16", "dim = 20"), encoding="utf-8")
    code, stdout, err = run(capsys, "synth", "--spec", str(tmp_path / "s.cfg"),
                            "--out", str(tmp_path / "data"))
    assert (code, err) == (0, "")
    manifest = tmp_path / "data" / "manifest.json"
    assert stdout == f"{manifest}\n"
    assert json.loads(manifest.read_text())["dimension"] == 20
    code, stdout, err = run(capsys, "train", "--manifest", str(manifest),
                            "--out", str(tmp_path / "r"))
    assert (code, stdout) == (1, "")
    assert err == "configuration error: dim 20 is not divisible by heads 8\n"
    assert not (tmp_path / "r").exists()


def test_train_heads_divide_the_manifest_dimension(tmp_path, capsys):
    # the model is validated at the data's width (48), not the default 512
    (tmp_path / "s.cfg").write_text(SPEC_TEXT.replace("dim = 16", "dim = 48"), encoding="utf-8")
    (tmp_path / "t.cfg").write_text("heads = 6\nepochs = 1\n", encoding="utf-8")
    assert main(["synth", "--spec", str(tmp_path / "s.cfg"), "--out", str(tmp_path / "data")]) == 0
    code, _, err = run(capsys, "train", "--manifest", str(tmp_path / "data" / "manifest.json"),
                       "--config", str(tmp_path / "t.cfg"), "--out", str(tmp_path / "r"))
    assert (code, err) == (0, "")
    _, config = load_checkpoint(tmp_path / "r" / "best.sdvc")
    assert (config.dim, config.heads) == (48, 6)


def test_train_checks_no_corpus_setting(tmp_path, capsys):
    # synth refuses dim < 8, but train builds no corpus: on a dim-4 manifest,
    # the model is 4 wide
    g = np.random.default_rng(0)
    entries = []
    for split in ("train", "validation"):
        write_container({"video": split}, {"frames": g.normal(size=(6, 4)),
                                           "labels_00": np.array([[1.0], [1], [0], [0], [0], [0]]),
                                           "script_00": g.normal(size=(2, 4))},
                        tmp_path / f"{split}.sdvc")
        entries.append(VideoEntry(split, split, f"{split}.sdvc"))
    write_manifest(DatasetManifest(4, entries), tmp_path / "manifest.json")
    (tmp_path / "t.cfg").write_text("heads = 2\nepochs = 1\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--manifest", str(tmp_path / "manifest.json"),
                       "--config", str(tmp_path / "t.cfg"), "--out", str(tmp_path / "r"))
    assert (code, err) == (0, "")
    _, config = load_checkpoint(tmp_path / "r" / "best.sdvc")
    assert (config.dim, config.heads) == (4, 2)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_config_dim_other_than_the_manifest_writes_nothing(workspace, tmp_path, capsys, command):
    # the model's width is the manifest's: dim is no key of a run configuration
    root, _ = workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TRAIN_TEXT + "dim = 32\n", encoding="utf-8")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, command, "--manifest", str(root / "data" / "manifest.json"),
                            "--config", str(cfg), "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == f"configuration error: {cfg}:5: unknown key 'dim'\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


# (command, line): a line setting each value fixed in the command's file kind,
# the architecture and recipe of train, the noise and summary fraction of synth
FIXED = [("train", line) for line in ("encoder_layers = 1", "scorer_head = direct",
                                      "single_vector_t = 8", "dropout_rate = 0.0",
                                      "l2_factor = 0", "batch_size = 3")] + \
    [("synth", line) for line in ("noise = 0.0", "positive_fraction = 0.2")]
# command -> the key each of its fixed values would have
FIXED_KEYS = {command: {line.split()[0] for c, line in FIXED if c == command}
              for command in ("train", "synth")}

# (command, key): every key of one file kind only, and every fixed value's
# key, in the other kind's file
ONE_KIND_KEYS = \
    [("train", key) for key in sorted(SPEC_KEYS.keys() - RUN_KEYS.keys() | FIXED_KEYS["synth"])] \
    + [("synth", key) for key in sorted(RUN_KEYS.keys() - SPEC_KEYS.keys() | FIXED_KEYS["train"])]


@pytest.mark.parametrize("command, key", ONE_KIND_KEYS, ids=[f"{c}-{k}" for c, k in ONE_KIND_KEYS])
def test_a_key_of_the_other_file_kind_writes_nothing(workspace, tmp_path, capsys, command, key):
    # a corpus key in a run configuration, or a model or training key in a
    # spec, would be ignored: it is refused as unknown
    root, _ = workspace
    cfg = tmp_path / "other.cfg"
    if command == "train":
        cfg.write_text(f"{TRAIN_TEXT}{key} = 1\n", encoding="utf-8")
        source = ["--manifest", str(root / "data" / "manifest.json"), "--config", str(cfg)]
    else:
        cfg.write_text(f"{SPEC_TEXT}{key} = 1\n", encoding="utf-8")
        source = ["--spec", str(cfg)]
    line = len(cfg.read_text(encoding="utf-8").splitlines())
    code, stdout, err = run(capsys, command, *source, "--out", str(tmp_path / "out"))
    assert (code, stdout) == (1, "")
    assert err == f"configuration error: {cfg}:{line}: unknown key '{key}'\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, line", FIXED, ids=[line for _, line in FIXED])
def test_fixed_architecture_is_no_key(workspace, tmp_path, capsys, command, line):
    # one encoder block, a linear head, T = 8, dropout 0.5, L2 1e-4 and batches
    # of 4 are the model and its recipe, noise 0.1 and 15% summaries the
    # corpus, not settings
    root, _ = workspace
    cfg = tmp_path / "arch.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    source = (["--spec", str(cfg)] if command == "synth" else
              ["--manifest", str(root / "data" / "manifest.json"), "--config", str(cfg)])
    code, stdout, err = run(capsys, command, *source, "--out", str(tmp_path / "r"))
    assert (code, stdout) == (1, "")
    assert err == f"configuration error: {cfg}:1: unknown key '{line.split()[0]}'\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("command", ["synth", "train"])
def test_seed_out_of_range_is_one_config_error(workspace, tmp_path, capsys, command, seed):
    root, _ = workspace
    out = tmp_path / "r"
    source = (["--spec", str(root / "synth.cfg")] if command == "synth"
              else ["--manifest", str(root / "data" / "manifest.json")])
    code, stdout, err = run(capsys, command, *source, "--out", str(out), "--seed", seed)
    assert code == 1 and stdout == ""
    assert err == f"configuration error: seed must be an unsigned 64-bit integer, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("missing", ["--manifest", "--out"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_paths_are_required_flags(workspace, tmp_path, capsys, command, missing):
    root, _ = workspace
    flags = {"--manifest": str(root / "data" / "manifest.json"), "--out": str(tmp_path / "r")}
    del flags[missing]
    code, stdout, err = run(capsys, command, *[x for item in flags.items() for x in item])
    assert code == 1 and stdout == ""
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and missing in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_train_non_finite_weights_exit_3_before_any_write(workspace, tmp_path, capsys,
                                                          monkeypatch):
    """An Adam step that leaves a non-finite weight, forced here since the
    config refuses the settings that would overflow, wrecks the epoch's last
    update; no later loss would show it, so the run must stop on the weights
    themselves, before validation and the checkpoint."""
    root, _ = workspace
    real = sdvsum.training.adam_step

    def overflowing_step(w, *args):
        real(w, *args)
        w[0] = np.inf

    monkeypatch.setattr(sdvsum.training, "adam_step", overflowing_step)
    # all 6 training samples in one group: that group's update is the epoch's last
    monkeypatch.setattr(sdvsum.training, "BATCH_SIZE", 6)
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("heads = 4\nepochs = 1\n", encoding="utf-8")
    out = tmp_path / "r"
    code, _, err = run(capsys, "train", "--manifest", str(root / "data" / "manifest.json"),
                       "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "non-finite weights after epoch 1" in err
    assert not out.exists()


def test_train_overflow_is_one_numeric_failure_line(workspace, tmp_path, capsys):
    """learning_rate 3e38 is finite in float32: the first group's Adam step
    leaves weights near 3e38 and the next group's forward overflows. numpy
    must print nothing: the run's only word is the numeric failure."""
    root, _ = workspace
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("heads = 4\nepochs = 1\nlearning_rate = 3e38\n", encoding="utf-8")
    out = tmp_path / "r"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "train", "--manifest",
                                str(root / "data" / "manifest.json"),
                                "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("numeric failure: non-finite training loss at epoch 1, sample ")
    assert err.endswith(", after 1 Adam step(s); largest |weight| 3e+38\n")
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("line", ["learning_rate = 1e39"])
def test_train_float32_unsafe_setting_exits_1_before_any_write(workspace, tmp_path, capsys,
                                                              line):
    root, _ = workspace
    cfg = tmp_path / "f32.cfg"
    cfg.write_text(TRAIN_TEXT + line + "\n", encoding="utf-8")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "train", "--manifest", str(root / "data" / "manifest.json"),
                            "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert err.startswith("configuration error: ") and "float32" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("shape", ["file", "under_file"])
def test_unusable_out_is_refused_before_training(workspace, tmp_path, capsys, monkeypatch,
                                                 command, shape):
    """An --out that is a file, or lies under one, exits 2 before any split
    is loaded, not after an epoch when the first checkpoint is written."""
    root, _ = workspace

    def forbidden(*args, **kwargs):
        raise AssertionError("nothing may be loaded or trained")

    monkeypatch.setattr(sdvsum.cli, "train_run", forbidden)
    monkeypatch.setattr(sdvsum.cli, "load_split", forbidden)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker if shape == "file" else blocker / "sub" / "run"
    code, stdout, err = run(capsys, command, "--manifest", str(root / "data" / "manifest.json"),
                            "--config", str(root / "train.cfg"), "--out", str(out))
    assert code == 2
    assert err == f"data error: --out {out}: {blocker} exists and is not a directory\n"
    assert stdout == ""
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_train_epoch_lines_are_the_report_lines(workspace, tmp_path, capsys):
    root, _ = workspace
    out = tmp_path / "r"
    code, stdout, _ = run(capsys, "train", "--manifest", str(root / "data" / "manifest.json"),
                          "--config", str(root / "train.cfg"), "--out", str(out))
    assert code == 0
    printed = stdout.encode().splitlines()
    written = (out / "train_report.jsonl").read_bytes().splitlines()
    assert len(printed) == len(written) == 3   # two epochs and the best
    assert printed[:2] == written[:2]


def _rewrite_video(data, video, edit):
    """Rewrite ``video``'s file under ``data`` after ``edit`` changed its tensors in place."""
    path = data / video["file"]
    blob, tensors = read_container(path)
    edit(tensors)
    write_container(blob, tensors, path)


def _refused_corpus(root, tmp, refusal):
    """A copy of the workspace corpus with no validation videos, with no
    descriptions, with none on its validation videos, or without the file
    of its first train or test video."""
    data = tmp / "data"
    shutil.copytree(root / "data", data)
    doc = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    if refusal.startswith("missing_labels_"):
        video = next(v for v in doc["videos"] if v["split"] == refusal.split("_")[-1])
        (data / video["file"]).unlink()
    elif refusal == "no_validation":
        doc["videos"] = [v for v in doc["videos"] if v["split"] != "validation"]
    else:
        for v in doc["videos"]:
            if refusal == "no_description" or v["split"] == "validation":
                _rewrite_video(data, v, lambda tensors: tensors.pop("description"))
    (data / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
    return data / "manifest.json"


@pytest.mark.parametrize("refusal, mode, message", [
    ("no_validation", "script_driven", "validation split is empty"),
    ("no_description", "generic", "generic mode needs a description embedding"),
    ("no_validation_description", "generic", "generic mode needs a description embedding"),
    ("missing_labels_train", "script_driven", "video 'train_0000': missing file"),
])
def test_train_refused_before_its_first_epoch_writes_nothing(workspace, tmp_path, capsys,
                                                             refusal, mode, message):
    root, _ = workspace
    manifest = _refused_corpus(root, tmp_path, refusal)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TRAIN_TEXT + f"mode = {mode}\n", encoding="utf-8")
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "train", "--manifest", str(manifest),
                            "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert err.startswith("data error: ") and message in err
    assert stdout == "" and not out.exists()


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


def test_eval_reads_only_the_files_of_its_split(workspace, tmp_path, capsys):
    root, _ = workspace
    manifest = _refused_corpus(root, tmp_path, "missing_labels_train")
    code, out, _ = run(capsys, *_eval(root, manifest=manifest))
    assert code == 0
    assert json.loads(out)["split"] == "test"


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
    ckpt = root / "run" / "best.sdvc"
    code, out, _ = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(ckpt), "--split", "test", "--mode", "generic")
    assert code == 0
    result = json.loads(out)
    assert result["mode"] == "generic"
    assert "tau" in result and "rho" in result


def test_eval_generic_one_frame_video_is_degenerate(workspace, tmp_path, capsys):
    root, _ = workspace
    shutil.copytree(root / "data", tmp_path / "data")
    manifest_path = tmp_path / "data" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    video = next(v for v in manifest["videos"] if v["split"] == "test")

    def one_frame(tensors):
        for name in tensors:
            if name == "frames":
                tensors[name] = tensors[name][:1]
            elif name.startswith("labels_"):
                tensors[name] = np.ones((1, 1), dtype=np.float32)

    _rewrite_video(tmp_path / "data", video, one_frame)
    video.pop("fragments", None)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--manifest", str(manifest_path),
                         "--checkpoint", str(root / "run" / "best.sdvc"),
                         "--split", "test", "--mode", "generic")
    assert code == 0
    assert err == "note: excluded from rank-correlation averages: 1 all-tied videos\n"
    record = next(r for r in json.loads(out)["videos"] if r["id"] == video["id"])
    assert record["tau"] is None and record["rho"] is None


def test_eval_overlap_matrix_csv(workspace, tmp_path, capsys):
    root, report = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    test_ids = [v["id"] for v in manifest["videos"] if v["split"] == "test"]
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("\n".join(test_ids) + "\n", encoding="utf-8")
    out_csv = tmp_path / "m.csv"
    code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(root / "run" / "best.sdvc"),
                       "--split", "test", "--mode", "script",
                       "--overlap", str(ids_file), "--overlap-out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) >= 2  # header plus one row per script


def test_eval_overlap_csv_unwritable_prints_no_result(workspace, tmp_path, capsys):
    root, _ = workspace
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("test_0000\n", encoding="utf-8")
    out_csv = tmp_path / "missing" / "m.csv"
    code, stdout, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                            "--checkpoint", str(root / "run" / "best.sdvc"),
                            "--split", "test", "--mode", "script",
                            "--overlap", str(ids_file), "--overlap-out", str(out_csv))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("data error: ")
    assert str(out_csv) in err
    assert sorted(tmp_path.iterdir()) == [ids_file]


def test_eval_overlap_with_no_ids_is_usage_error(workspace, tmp_path, capsys):
    root, _ = workspace
    ids_file = tmp_path / "ids.txt"
    ids_file.write_text("\n  \n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                       "--checkpoint", str(root / "run" / "best.sdvc"),
                       "--split", "test", "--mode", "script",
                       "--overlap", str(ids_file), "--overlap-out", str(tmp_path / "m.csv"))
    assert code == 1
    assert "no video ids" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.csv").exists()


def test_eval_overlap_out_without_overlap_is_usage_error(workspace, tmp_path, capsys):
    # the CSV path would be ignored: no matrix is made without --overlap
    root, _ = workspace
    out_csv = tmp_path / "m.csv"
    code, stdout, err = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                            "--checkpoint", str(root / "run" / "best.sdvc"),
                            "--split", "test", "--mode", "script", "--overlap-out", str(out_csv))
    assert (code, stdout) == (1, "")
    assert err == "error: --overlap-out needs --overlap\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_overlap_scores_each_pair_once(workspace, tmp_path, capsys, monkeypatch):
    root, _ = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    pairs = sum(len(v.summaries)
                for v in load_split(load_manifest(root / "data" / "manifest.json"), "test"))
    assert pairs == 3   # one test video, three summaries
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
                           "--checkpoint", str(root / "run" / "best.sdvc"),
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
    del doc["videos"][0]["file"]
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "eval", "--manifest", str(bad),
                       "--checkpoint", str(root / "run" / "best.sdvc"),
                       "--split", "test", "--mode", "script")
    assert code == 2
    assert err == "data error: video 'train_0000': file: expected str, got None\n"


def test_eval_bad_split_is_usage_error(workspace, capsys):
    root, _ = workspace
    code, _, _ = run(capsys, "eval", "--manifest", str(root / "data" / "manifest.json"),
                     "--checkpoint", str(root / "run" / "best.sdvc"),
                     "--split", "train", "--mode", "script")
    assert code == 1


def test_summarize_budget_and_shape(workspace, capsys):
    root, _ = workspace
    n = _test_frames(root).shape[0]
    code, out, _ = run(capsys, *_summarize(root), "--fragments", "fixed:4",
                       "--budget-frac", "0.4")
    assert code == 0
    result = json.loads(out)
    budget = max(1, math.floor(0.4 * n))
    assert len(result["selected_frames"]) == budget
    total = sum(b - a for a, b in result["selected_fragments"])
    assert 0 < total <= budget
    for a, b in result["selected_fragments"]:
        assert 0 <= a < b <= n

    # a budget below the fixed length cuts the fragments to the budget, so one fits
    code, out, _ = run(capsys, *_summarize(root), "--fragments", "fixed:4",
                       "--budget-frac", "0.15")
    assert code == 0
    tight = json.loads(out)
    budget = max(1, math.floor(0.15 * n))
    assert budget < 4
    assert len(tight["selected_frames"]) == budget
    assert [b - a for a, b in tight["selected_fragments"]] == [budget]


def test_summarize_default_fragments_are_five_frames(workspace, capsys):
    # at the whole budget every fragment is chosen, so the output lists them all
    root, _ = workspace
    n = _test_frames(root).shape[0]
    code, out, _ = run(capsys, *_summarize(root), "--budget-frac", "1")
    assert code == 0
    assert json.loads(out)["selected_fragments"] == [[a, min(a + 5, n)] for a in range(0, n, 5)]


def test_summarize_default_fragments_fit_a_short_video(workspace, capsys):
    # below 34 frames the budget, floor(0.15 n), is under 5 frames: the default
    # fixed:5 fragments are cut to the budget, and the summary is never empty
    root, _ = workspace
    n = _test_frames(root).shape[0]
    budget = max(1, math.floor(0.15 * n))
    assert n < 34 and budget < 5
    code, out, _ = run(capsys, *_summarize(root))
    assert code == 0
    chosen = json.loads(out)["selected_fragments"]
    assert [b - a for a, b in chosen] == [budget]
    assert chosen[0][0] % budget == 0


def test_summarize_files_give_the_manifest_video_output(workspace, tmp_path, capsys):
    # the same frames and script, read from embeddings files, summarize the same way
    root, _ = workspace
    video = _test_video(root)
    frames = _written(tmp_path / "f.sdvc", _test_frames(root))
    script = _written(tmp_path / "s.sdvc", _loaded_test_video(root).summaries[1].script)
    outputs = []
    for argv in (_summarize(root, summary=1), _summarize(root, script=script),
                 _summarize(root, frames=frames, script=script)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs.append(json.loads(out))
    assert outputs[0]["video_id"] == video["id"] and outputs[2]["video_id"] == "f"
    assert outputs[0] == outputs[1] == {**outputs[2], "video_id": video["id"]}


def test_summarize_names_the_video_without_video(workspace, tmp_path, capsys, monkeypatch):
    # a --frames file is named by its stem, whatever its directory
    root, _ = workspace
    frames = _test_frames(root)
    (tmp_path / "test_0000").mkdir()
    named = {_written(tmp_path / "test_0000" / "frames.sdvc", frames): "frames",
             _written(tmp_path / "clip_7.sdvc", frames): "clip_7",
             "frames.sdvc": "frames"}
    script = _script_file(root, tmp_path)
    monkeypatch.chdir(tmp_path / "test_0000")   # a bare file name is read from here
    for path, video_id in named.items():
        code, out, _ = run(capsys, *_summarize(root, frames=path, script=script))
        assert (code, json.loads(out)["video_id"]) == (0, video_id)


SOURCES = {
    "no frames": lambda a: _without(a, "--manifest", "--video"),
    "frames twice": lambda a: [*a, "--frames", "f.sdvc"],
    "manifest without video": lambda a: _without(a, "--video"),
    "video without manifest": lambda a: _without(a, "--manifest"),
    "no script": lambda a: _without(a, "--summary"),
    "script twice": lambda a: [*a, "--script", "s.sdvc"],
    "summary of a file": lambda a: [*_without(a, "--manifest", "--video"),
                                    "--frames", "f.sdvc"],
    "fragments of a file": lambda a: [*_without(a, "--manifest", "--video", "--summary"),
                                      "--frames", "f.sdvc", "--script", "s.sdvc",
                                      "--fragments", "from-manifest"],
}


@pytest.mark.parametrize("edit", SOURCES.values(), ids=SOURCES.keys())
def test_summarize_input_without_exactly_one_source_is_usage_error(workspace, capsys, edit):
    root, _ = workspace
    code, stdout, err = run(capsys, *edit(_summarize(root)))
    assert code == 1 and stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("summary", ["3", "-1"])
def test_summarize_summary_out_of_range_is_usage_error(workspace, capsys, summary):
    root, _ = workspace
    code, stdout, err = run(capsys, *_summarize(root, summary=summary))
    assert code == 1 and stdout == ""
    assert err == f"error: --summary {summary}: video 'test_0000' has 3 summaries\n"


def test_summarize_unknown_video_is_usage_error(workspace, capsys):
    root, _ = workspace
    argv = _summarize(root)
    argv[argv.index("--video") + 1] = "test_0099"
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err == "error: video 'test_0099' is not in the manifest\n"


def test_summarize_bad_budget_is_usage_error(workspace, capsys):
    root, _ = workspace
    code, _, _ = run(capsys, *_summarize(root), "--budget-frac", "1.5")
    assert code == 1


@pytest.mark.parametrize("spec", ["fixed:0", "fixed:-2"])
def test_summarize_non_positive_fragment_length_is_usage_error(workspace, capsys, spec):
    root, _ = workspace
    code, _, err = run(capsys, *_summarize(root), "--fragments", spec)
    assert code == 1
    assert spec in err


def _summarize_manifest_fragments(root, tmp_path, capsys, fragments):
    """summarize --fragments from-manifest on a copy of the corpus whose test
    video has ``fragments``: its exit code, stdout and stderr."""
    shutil.copytree(root / "data", tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.json"
    doc = json.loads(manifest.read_text())
    next(v for v in doc["videos"] if v["split"] == "test")["fragments"] = fragments
    manifest.write_text(json.dumps(doc))
    return run(capsys, *_summarize(root, manifest=manifest), "--fragments", "from-manifest")


def _summarize_refused_fragments(root, tmp_path, capsys, fragments):
    """summarize's stderr on a copy of the corpus whose test video has ``fragments``."""
    code, stdout, err = _summarize_manifest_fragments(root, tmp_path, capsys, fragments)
    assert code == 2 and stdout == ""
    return err


def test_summarize_fragments_of_another_length_is_data_error(workspace, tmp_path, capsys):
    # the manifest's fragments cover 8 frames more than the video's file holds
    root, _ = workspace
    n = _test_frames(root).shape[0]
    err = _summarize_refused_fragments(root, tmp_path, capsys, [[0, n + 8]])
    assert err.startswith(f"data error: video 'test_0000': fragments must be sorted, "
                          f"disjoint and cover [0, {n}); offending fragment (0, {n + 8})")


def test_summarize_manifest_fragments_that_overlap_are_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    n = _test_frames(root).shape[0]
    err = _summarize_refused_fragments(root, tmp_path, capsys, [[0, 5], [4, n]])
    assert err.startswith(f"data error: video 'test_0000': fragments must be sorted, "
                          f"disjoint and cover [0, {n})")


def test_summarize_manifest_fragments_over_the_budget_are_noted(workspace, tmp_path, capsys):
    # each manifest fragment is longer than the budget: nothing is chosen, and stderr says why
    root, _ = workspace
    n = _test_frames(root).shape[0]
    budget = max(1, math.floor(0.15 * n))
    assert budget < 3
    code, out, err = _summarize_manifest_fragments(root, tmp_path, capsys, [[0, 3], [3, n]])
    assert code == 0
    assert json.loads(out)["selected_fragments"] == []
    assert err == (f"note: no manifest fragment fits the budget of {budget} frames "
                   f"(the shortest has 3)\n")


def test_summarize_corrupt_embeddings_is_data_error(workspace, tmp_path, capsys):
    root, _ = workspace
    bad = tmp_path / "bad.sdvc"
    bad.write_bytes(b"not an embedding file")
    code, _, err = run(capsys, *_summarize(root, frames=bad, script=bad))
    assert code == 2
    assert err == f"data error: {bad}: bad magic b'not ', expected b'SDVC'\n"


def _test_video(root):
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    return next(v for v in manifest["videos"] if v["split"] == "test")


def _loaded_test_video(root):
    return load_split(load_manifest(root / "data" / "manifest.json"), "test")[0]


def _test_frames(root):
    return _loaded_test_video(root).frames


def _script_file(root, tmp):
    return _written(tmp / "script.sdvc", _loaded_test_video(root).summaries[0].script)


def _without(argv, *flags):
    """``argv`` without each of ``flags`` and the value after it."""
    out = list(argv)
    for flag in flags:
        i = out.index(flag)
        del out[i:i + 2]
    return out


def _summarize(root, frames=None, script=None, checkpoint=None, manifest=None, summary=0):
    """summarize on the test video: its frames from the manifest and its first
    script, unless ``frames`` or ``script`` names an embeddings file."""
    argv = ["summarize", "--checkpoint", str(checkpoint or root / "run" / "best.sdvc")]
    if frames is None:
        argv += ["--manifest", str(manifest or root / "data" / "manifest.json"),
                 "--video", _test_video(root)["id"]]
    else:
        argv += ["--frames", str(frames)]
    return [*argv, *(["--summary", str(summary)] if script is None else ["--script", str(script)])]


def _eval(root, manifest=None, checkpoint=None):
    return ["eval", "--manifest", str(manifest or root / "data" / "manifest.json"),
            "--checkpoint", str(checkpoint or root / "run" / "best.sdvc"),
            "--split", "test", "--mode", "script"]


def _written(path, m):
    write_embeddings(m, path)
    return path


def _raw(path, data: bytes):
    path.write_bytes(data)
    return path


def _poisoned(m, dst, value):
    # write_embeddings refuses non-finite values, so the file is made by hand:
    # the blob {} and one tensor, 'embeddings'
    m = m.copy()
    m[0, 0] = value
    return _raw(dst, b"SDVC" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<IH", 1, 10)
                + b"embeddings" + struct.pack("<II", *m.shape) + m.astype("<f4").tobytes())


def _corpus_with_inf_frames(root, tmp):
    # write_container refuses non-finite values too: the first frame value is patched
    shutil.copytree(root / "data", tmp / "data")
    path = tmp / "data" / _test_video(root)["file"]
    raw = path.read_bytes()
    at = raw.index(b"\x06\x00frames") + 8 + 8   # name length and name, rows and cols
    path.write_bytes(raw[:at] + struct.pack("<f", np.inf) + raw[at + 4:])
    return tmp / "data" / "manifest.json"


def _checkpoint_with(root, tmp, edit):
    blob, tensors = read_checkpoint_file(root / "run" / "best.sdvc")
    tensors = {name: t.copy() for name, t in tensors.items()}
    edit(blob, tensors)
    write_checkpoint_file(blob, tensors, tmp / "edited.sdvc")
    return tmp / "edited.sdvc"


def _narrow_checkpoint(tmp):
    config = ModelConfig(dim=8, heads=4)
    save_checkpoint(init_weights(config, Rng(0)), config, tmp / "narrow.sdvc")
    return tmp / "narrow.sdvc"


def _sdve_file(root, tmp):
    # the earlier one-matrix format, which no reader accepts
    m = _test_frames(root)
    return _raw(tmp / "f.sdve", b"SDVE" + struct.pack("<III", 1, *m.shape)
                + m.astype("<f4").tobytes())


# case: (the command line, a fragment its one stderr line must hold)
_WIDTH = "has width 16 but checkpoint"
_NOT_EMBEDDINGS = "expected the blob {} and one tensor 'embeddings', got "
MALFORMED = {
    "nan_frames": (lambda root, tmp: _summarize(
        root, frames=_poisoned(_test_frames(root), tmp / "nan.sdvc", np.nan),
        script=_script_file(root, tmp)), "tensor 'embeddings' payload holds NaN"),
    "inf_corpus_frames": (lambda root, tmp: _eval(
        root, manifest=_corpus_with_inf_frames(root, tmp)), "tensor 'frames' payload holds NaN"),
    "nan_checkpoint_tensor": (lambda root, tmp: _eval(root, checkpoint=_raw(
        tmp / "nan.sdvc",   # the last tensor's last value
        (root / "run" / "best.sdvc").read_bytes()[:-4] + struct.pack("<f", np.nan))),
        "tensor 'scorer.head.b' payload holds NaN"),
    "sdve_frames": (lambda root, tmp: _summarize(
        root, frames=_sdve_file(root, tmp), script=_script_file(root, tmp)),
        "f.sdve: bad magic b'SDVE', expected b'SDVC'"),
    "checkpoint_as_frames": (lambda root, tmp: _summarize(
        root, frames=root / "run" / "best.sdvc", script=_script_file(root, tmp)),
        "best.sdvc: " + _NOT_EMBEDDINGS),
    "video_file_as_frames": (lambda root, tmp: _summarize(
        root, frames=root / "data" / _test_video(root)["file"], script=_script_file(root, tmp)),
        "test_0000.sdvc: " + _NOT_EMBEDDINGS + "1 blob key(s)"),
    "frames_width": (lambda root, tmp: _summarize(
        root, frames=_written(tmp / "f.sdvc", _test_frames(root)),
        script=_script_file(root, tmp), checkpoint=_narrow_checkpoint(tmp)),
        "f.sdvc " + _WIDTH),
    "manifest_video_width": (lambda root, tmp: _summarize(
        root, checkpoint=_narrow_checkpoint(tmp)), "manifest.json " + _WIDTH),
    "script_width": (lambda root, tmp: _summarize(root, script=_written(
        tmp / "narrow.sdvc", np.ones((3, 8)))), "narrow.sdvc has width 8 but checkpoint"),
    "manifest_dimension": (lambda root, tmp: _eval(
        root, checkpoint=_narrow_checkpoint(tmp)), "manifest.json " + _WIDTH),
    "config_blob_type": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(dim=str(blob["dim"])))),
        "key 'dim' needs a int, got '16'"),
    "config_blob_bool_string": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(use_scaling="false"))),
        "key 'use_scaling' needs a bool, got 'false'"),
    "config_blob_float_dim": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(dim=float(blob["dim"])))),
        "key 'dim' needs a int, got 16.0"),
    "config_blob_bool_heads": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(heads=True))),
        "key 'heads' needs a int, got True"),
    "config_blob_encoder_layers": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(encoder_layers=2))),
        "bad model config: encoder_layers 2 is not this model's architecture"),
    "config_blob_scorer_head": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(scorer_head="hidden"))),
        "bad model config: scorer_head 'hidden' is not this model's architecture"),
    "config_blob_single_vector_t": (lambda root, tmp: _eval(root, checkpoint=_checkpoint_with(
        root, tmp, lambda blob, tensors: blob.update(single_vector_t=3))),
        "bad model config: single_vector_t 3 is not this model's architecture"),
    "overlap_ids_not_utf8": (lambda root, tmp: [*_eval(root), "--overlap", str(_raw(
        tmp / "ids.txt", b"\xff\xfe"))], "ids.txt is not UTF-8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_data_error(workspace, tmp_path, capsys, case):
    # one "data error: " line, and it names this case's fault
    root, _ = workspace
    argv, fragment = MALFORMED[case]
    code, stdout, err = run(capsys, *argv(root, tmp_path))
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("data error: ")
    assert fragment in err


@pytest.mark.parametrize("argv", [_eval, _summarize])
def test_inference_takes_no_seed(workspace, capsys, argv):
    code, stdout, err = run(capsys, *argv(workspace[0]), "--seed", "1")
    assert code == 1 and stdout == ""
    assert err.startswith("error: unrecognized arguments: --seed 1\n")


def test_ablate_runs_five_variants(workspace, tmp_path, capsys):
    root, _ = workspace
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("heads = 8\nepochs = 1\n", encoding="utf-8")
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
    for row in rows:   # each variant keeps one checkpoint
        assert sorted(p.name for p in (tmp_path / "ab" / row["name"]).iterdir()) == \
            ["best.sdvc", "train_report.jsonl"]


def test_ablate_checks_the_variants_not_the_config(workspace, tmp_path, capsys):
    # every variant sets its own heads, text_rep and use_scaling, so the config's
    # are never run: 5 heads do not divide dim 16, and no variant uses them
    root, _ = workspace
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("heads = 5\ntext_rep = both\nepochs = 1\n", encoding="utf-8")
    argv = ["ablate", "--manifest", str(root / "data" / "manifest.json"), "--config", str(cfg)]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "ab"))
    assert (code, err) == (0, "")
    rows = json.loads(out[out.index("["):])
    assert [r["heads"] for r in rows] == [v[2] for v in ABLATION_VARIANTS]
    # a setting the variants keep is still checked before anything is written
    cfg.write_text("heads = 5\nffn_dim = 0\nepochs = 1\n", encoding="utf-8")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "refused"))
    assert (code, out) == (1, "")
    assert err == "configuration error: ffn_dim must be >= 1, got 0\n"
    assert not (tmp_path / "refused").exists()


def test_ablate_reads_each_dataset_file_once(workspace, tmp_path, capsys, monkeypatch):
    root, _ = workspace
    reads = []
    real = sdvsum.datasets.read_container

    def counted(path):
        reads.append(Path(path).resolve())
        return real(path)

    monkeypatch.setattr(sdvsum.datasets, "read_container", counted)
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("heads = 4\nepochs = 1\n", encoding="utf-8")
    manifest = root / "data" / "manifest.json"
    code, _, _ = run(capsys, "ablate", "--manifest", str(manifest),
                     "--config", str(cfg), "--out", str(tmp_path / "ab"))
    assert code == 0
    files = [v["file"] for v in json.loads(manifest.read_text(encoding="utf-8"))["videos"]]
    assert sorted(reads) == sorted((root / "data" / f).resolve() for f in files)


def _ablate_refused(root, tmp_path, capsys, refusal, message):
    manifest = _refused_corpus(root, tmp_path, refusal)
    out = tmp_path / "ab"
    code, stdout, err = run(capsys, "ablate", "--manifest", str(manifest),
                            "--config", str(root / "train.cfg"), "--out", str(out))
    assert code == 2
    assert err.startswith("data error: ") and message in err
    assert stdout == "" and not out.exists()


def test_ablate_refused_before_its_first_epoch_writes_nothing(workspace, tmp_path, capsys):
    _ablate_refused(workspace[0], tmp_path, capsys, "no_validation", "validation split is empty")


def test_ablate_missing_train_file_is_refused_before_any_write(workspace, tmp_path, capsys):
    _ablate_refused(workspace[0], tmp_path, capsys, "missing_labels_train",
                    "video 'train_0000': missing file")


def test_ablate_missing_test_file_is_refused_before_any_write(workspace, tmp_path, capsys):
    _ablate_refused(workspace[0], tmp_path, capsys, "missing_labels_test",
                    "video 'test_0000': missing file")
