"""Flat key=value files: a run configuration and a synthesis spec, each with
its own keys; defaults and rejection rules."""

import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from sdvsum.config import RUN_KEYS, SPEC_KEYS, parse_config, parse_spec
from sdvsum.datasets import NOISE, SynthSpec
from sdvsum.errors import ConfigError
from sdvsum.model import DROPOUT_RATE, ModelConfig, scalar_fields
from sdvsum.selection import TOP_FRACTION
from sdvsum.training import BATCH_SIZE, L2_FACTOR, TrainConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return p


def test_empty_file_gives_reference_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.model.dim == 512
    assert cfg.model.heads == 8
    assert cfg.model.use_scaling is False
    assert cfg.model.text_rep == "multi_vector"
    assert cfg.train.learning_rate == 5e-5
    assert cfg.train.epochs == 50
    assert cfg.train.seed == 42
    assert parse_spec(write(tmp_path, "")) == SynthSpec()
    # the recipe's values that are no keys
    assert (DROPOUT_RATE, L2_FACTOR, BATCH_SIZE, NOISE, TOP_FRACTION) == (0.5, 1e-4, 4, 0.1, 0.15)


def test_none_path_same_as_empty(tmp_path):
    a = parse_config(None)
    b = parse_config(write(tmp_path, "# nothing but a comment\n\n"))
    assert a.model == b.model and a.train == b.train
    assert parse_spec(None) == parse_spec(write(tmp_path, "# nothing\n"))


def test_values_comments_and_types(tmp_path):
    cfg = parse_config(write(tmp_path, """
# experiment settings
learning_rate = 1e-3   # bigger steps
epochs = 8
use_scaling = true
text_rep = single_vector
"""))
    assert cfg.train.learning_rate == 1e-3
    assert cfg.train.epochs == 8
    assert cfg.model.use_scaling is True
    assert cfg.model.text_rep == "single_vector"


def test_divisibility_checked_after_assembly(tmp_path):
    # the model is checked at the data's width, where it is built
    model = parse_config(write(tmp_path, "heads = 4\n"), dim=510).model
    with pytest.raises(ConfigError, match="dim 510 is not divisible by heads 4"):
        model.validate()


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
        parse_config(write(tmp_path, "epochs = 0\n"))  # validated range
    with pytest.raises(ConfigError, match="frames_min"):
        parse_spec(write(tmp_path, "frames_min = 9\nframes_max = 8\n"))   # validated range
    floats = [(parse, key) for parse, keys in ((parse_config, RUN_KEYS), (parse_spec, SPEC_KEYS))
              for key, kind in keys.items() if kind is float]
    assert [key for _, key in floats] == ["learning_rate"]
    for parse, key in floats:
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="must be finite"):
                parse(write(tmp_path, f"{key} = {value}\n"))


@pytest.mark.parametrize("line", [
    "learning_rate = 1e39",     # inf in float32
    "learning_rate = 1e-50",    # 0 in float32
])
def test_training_settings_float32_changes_are_rejected(tmp_path, line):
    # adam_step computes in float32; the refusal warns nothing about the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="float32"):
            parse_config(write(tmp_path, line + "\n"))


def test_training_settings_float32_holds_are_accepted(tmp_path):
    cfg = parse_config(write(tmp_path, "learning_rate = 3e38\n"))
    assert cfg.train.learning_rate == 3e38


def test_adam_constants_are_no_keys(tmp_path):
    # Adam's betas and epsilon are constants of training.adam_step
    for key in ("adam_beta1", "adam_beta2", "adam_eps"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(write(tmp_path, f"{key} = 0.5\n"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_dim_is_a_spec_key_only(tmp_path):
    # the model's width is the data's: a run configuration has no dim
    assert parse_spec(write(tmp_path, "dim = 128\n")).dim == 128
    with pytest.raises(ConfigError, match="run.cfg:1: unknown key 'dim'"):
        parse_config(write(tmp_path, "dim = 128\n"))
    assert parse_config(None).model.dim == 512
    assert parse_spec(None).dim == 64


def test_each_file_kind_reads_its_own_seed(tmp_path):
    assert parse_config(write(tmp_path, "seed = 9\n")).train.seed == 9
    assert parse_spec(write(tmp_path, "seed = 9\n")).seed == 9


def test_paths_are_no_keys(tmp_path):
    # the manifest and output paths are the --manifest and --out flags
    for key in ("manifest", "out"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(write(tmp_path, f"{key} = data\n"))


def test_seed_argument_beats_the_file(tmp_path):
    assert parse_config(write(tmp_path, "seed = 5\n"), seed=7).train.seed == 7
    assert parse_spec(write(tmp_path, "seed = 5\n"), seed=7).seed == 7
    assert parse_config(write(tmp_path, "seed = 5\n")).train.seed == 5


def test_dim_argument_sets_only_the_model(tmp_path):
    cfg = parse_config(write(tmp_path, "heads = 6\n"), dim=48)
    assert (cfg.model.dim, cfg.model.heads) == (48, 6)
    assert cfg.train == TrainConfig()


def test_known_keys_cover_all_tables():
    assert {"heads", "learning_rate", "seed"} <= set(RUN_KEYS)
    assert {"topics", "dim", "seed"} <= set(SPEC_KEYS)


def test_keys_are_the_section_fields():
    run = {f.name for cls in (ModelConfig, TrainConfig) for f in fields(cls)} - {"dim"}
    assert set(RUN_KEYS) == run
    assert list(RUN_KEYS) == ["heads", "use_scaling", "text_rep", "ffn_dim",
                              "learning_rate", "epochs", "mode", "seed"]
    assert list(SPEC_KEYS) == [f.name for f in fields(SynthSpec)] and len(SPEC_KEYS) == 11
    assert set(RUN_KEYS) & set(SPEC_KEYS) == {"seed"}
    assert "checkpoint" not in RUN_KEYS


def test_a_new_field_is_a_key_of_its_type():
    @dataclass
    class Extended(TrainConfig):
        warmup_steps: int | None = None
        schedule: str = "constant"

    keys = scalar_fields(Extended)
    assert keys["warmup_steps"] is int and keys["schedule"] is str
    assert {k: keys[k] for k in ("learning_rate", "epochs", "mode")} \
        == {"learning_rate": float, "epochs": int, "mode": str}
    assert scalar_fields(ModelConfig)["ffn_dim"] is int
    assert scalar_fields(ModelConfig)["use_scaling"] is bool


def test_reference_cfg_lists_every_key(tmp_path):
    # the run configuration's file and the spec's, each against its own keys
    for name, keys, parse in (("reference.cfg", RUN_KEYS, parse_config),
                              ("synth.cfg", SPEC_KEYS, parse_spec)):
        text = (SCRIPTS / name).read_text(encoding="utf-8")
        listed = re.findall(r"^# (\w+) = ", text, flags=re.MULTILINE)
        assert sorted(listed) == sorted(keys)
        # every listed line parses once uncommented
        parse(write(tmp_path, re.sub(r"^# (\w+ = )", r"\1", text, flags=re.MULTILINE)))
