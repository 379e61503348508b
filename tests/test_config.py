"""Flat key=value run configuration: defaults, fan-out keys, rejection rules."""

import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from sdvsum.config import KNOWN_KEYS, parse_config
from sdvsum.datasets import SynthSpec
from sdvsum.errors import ConfigError
from sdvsum.model import ModelConfig, scalar_fields
from sdvsum.training import TrainConfig

REFERENCE_CFG = Path(__file__).resolve().parents[1] / "scripts" / "reference.cfg"


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return p


def test_empty_file_gives_reference_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.model.dim == 512
    assert cfg.model.heads == 8
    assert cfg.model.dropout_rate == 0.5
    assert cfg.model.use_scaling is False
    assert cfg.model.text_rep == "multi_vector"
    assert cfg.train.learning_rate == 5e-5
    assert cfg.train.l2_factor == 1e-4
    assert cfg.train.batch_size == 4
    assert cfg.train.epochs == 50
    assert cfg.train.seed == 42 and cfg.synth.seed == 42


def test_none_path_same_as_empty(tmp_path):
    a = parse_config(None)
    b = parse_config(write(tmp_path, "# nothing but a comment\n\n"))
    assert a.model == b.model and a.train == b.train and a.synth == b.synth


def test_values_comments_and_types(tmp_path):
    cfg = parse_config(write(tmp_path, """
# experiment settings
learning_rate = 1e-3   # bigger steps
batch_size = 8
use_scaling = true
text_rep = single_vector
"""))
    assert cfg.train.learning_rate == 1e-3
    assert cfg.train.batch_size == 8
    assert cfg.model.use_scaling is True
    assert cfg.model.text_rep == "single_vector"


def test_divisibility_checked_after_assembly(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "heads = 4\ndim = 510\n"))


def test_variant3_combination(tmp_path):
    cfg = parse_config(write(tmp_path,
                             "use_scaling = true\ntext_rep = single_vector\nheads = 4\n"))
    assert (cfg.model.use_scaling, cfg.model.text_rep, cfg.model.heads) \
        == (True, "single_vector", 4)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="momentum"):
        parse_config(write(tmp_path, "momentum = 0.9\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write(tmp_path, "epochs = 5\nepochs = 6\n"))


def test_malformed_lines_rejected(tmp_path):
    with pytest.raises(ConfigError, match="2"):  # line number in the message
        parse_config(write(tmp_path, "epochs = 5\nepochs\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "epochs = five\n"))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "use_scaling = 1\n"))  # bools are true/false
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, "batch_size = 0\n"))  # validated range
    floats = {key for cls in (ModelConfig, TrainConfig, SynthSpec)
              for key, kind in scalar_fields(cls).items() if kind is float}
    assert {"learning_rate", "noise", "dropout_rate"} <= floats
    for key in sorted(floats):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="must be finite"):
                parse_config(write(tmp_path, f"{key} = {value}\n"))


@pytest.mark.parametrize("line", [
    "learning_rate = 1e39",     # inf in float32
    "l2_factor = 1e39",         # inf in float32
    "learning_rate = 1e-50",    # 0 in float32
])
def test_training_settings_float32_changes_are_rejected(tmp_path, line):
    # adam_step computes in float32; the refusal warns nothing about the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="float32"):
            parse_config(write(tmp_path, line + "\n"))


def test_training_settings_float32_holds_are_accepted(tmp_path):
    cfg = parse_config(write(tmp_path, "learning_rate = 3e38\nl2_factor = 3e38\n"))
    assert cfg.train.learning_rate == cfg.train.l2_factor == 3e38


def test_adam_constants_are_no_keys(tmp_path):
    # Adam's betas and epsilon are constants of training.adam_step
    for key in ("adam_beta1", "adam_beta2", "adam_eps"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(write(tmp_path, f"{key} = 0.5\n"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_dim_fans_out_to_model_and_synth(tmp_path):
    cfg = parse_config(write(tmp_path, "dim = 128\n"))
    assert cfg.model.dim == 128
    assert cfg.synth.dim == 128
    defaults = parse_config(None)
    assert defaults.model.dim == 512
    assert defaults.synth.dim == 64


def test_seed_fans_out(tmp_path):
    cfg = parse_config(write(tmp_path, "seed = 9\n"))
    assert cfg.train.seed == 9
    assert cfg.synth.seed == 9


def test_paths_are_no_keys(tmp_path):
    # the manifest and output paths are the --manifest and --out flags
    for key in ("manifest", "out"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(write(tmp_path, f"{key} = data\n"))


def test_seed_argument_beats_the_file(tmp_path):
    cfg = parse_config(write(tmp_path, "seed = 5\n"), seed=7)
    assert cfg.train.seed == 7 and cfg.synth.seed == 7
    assert parse_config(write(tmp_path, "seed = 5\n")).train.seed == 5


def test_dim_argument_sets_only_the_model(tmp_path):
    cfg = parse_config(write(tmp_path, "heads = 6\n"), dim=48)
    assert (cfg.model.dim, cfg.model.heads) == (48, 6)
    assert cfg.synth.dim == 64
    # a file may repeat the data's width but not contradict it
    assert parse_config(write(tmp_path, "dim = 48\n"), dim=48).model.dim == 48
    with pytest.raises(ConfigError, match="config sets dim=32 but the manifest declares "
                                          "dimension 48"):
        parse_config(write(tmp_path, "dim = 32\n"), dim=48)


def test_known_keys_cover_all_tables():
    for key in ("heads", "learning_rate", "topics", "dim", "seed"):
        assert key in KNOWN_KEYS
    assert "dropout" not in KNOWN_KEYS  # the full name dropout_rate is the key


def test_keys_are_the_section_fields():
    sections = {f.name for cls in (ModelConfig, TrainConfig, SynthSpec) for f in fields(cls)}
    assert KNOWN_KEYS == sections
    assert "checkpoint" not in KNOWN_KEYS


def test_a_new_field_is_a_key_of_its_type():
    @dataclass
    class Extended(TrainConfig):
        warmup_steps: int | None = None
        schedule: str = "constant"

    keys = scalar_fields(Extended)
    assert keys["warmup_steps"] is int and keys["schedule"] is str
    assert {k: keys[k] for k in ("learning_rate", "batch_size", "mode")} \
        == {"learning_rate": float, "batch_size": int, "mode": str}
    assert scalar_fields(ModelConfig)["ffn_dim"] is int
    assert scalar_fields(ModelConfig)["use_scaling"] is bool


def test_reference_cfg_lists_every_key(tmp_path):
    text = REFERENCE_CFG.read_text(encoding="utf-8")
    listed = re.findall(r"^# (\w+) = ", text, flags=re.MULTILINE)
    assert sorted(listed) == sorted(KNOWN_KEYS)
    # every listed line parses once uncommented
    parse_config(write(tmp_path, re.sub(r"^# (\w+ = )", r"\1", text, flags=re.MULTILINE)))
