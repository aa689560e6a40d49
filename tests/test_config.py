from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab.config import (ConfigError, ExperimentConfig, config_to_text,
                            load_config_file, parse_config_text)

# Keys of the layer widths, which are constants in harness.py, not config fields.
DELETED_KEYS = ["text_embed", "text_hidden", "speech_latent", "video_latent",
                "d_fuse", "disc_hidden", "head_hidden", "dec_embed", "dec_hidden"]


def test_defaults_validate():
    ExperimentConfig().validate()


def test_modality_aliases_normalized():
    cfg = ExperimentConfig(modalities=("v", "s", "t"))
    assert cfg.modalities == ("video", "speech", "text")


def test_duplicate_modalities_collapse():
    cfg = ExperimentConfig(modalities=("t", "text", "v"))
    assert cfg.modalities == ("text", "video")


def test_text_round_trip():
    cfg = ExperimentConfig(task="translation", fusion="gan", lambda1=0.5,
                           saturating_gan=True, modalities=("s", "t"),
                           train_path="/x/y.tsv")
    back = parse_config_text(config_to_text(cfg))
    assert back == cfg


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("# a comment\n\nlr = 0.01  # trailing\nepochs = 3\n")
    assert cfg.lr == 0.01 and cfg.epochs == 3


def test_parse_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("no_such_field = 1\n")


def test_parse_bad_bool_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("saturating_gan = maybe\n")


@pytest.mark.parametrize("text, message", [
    ("epochs = abc", "line 1: epochs: expected an integer, got 'abc'"),
    ("lr = 0.01\nbatch_size = 2.5", "line 2: batch_size: expected an integer, got '2.5'"),
    ("lr = fast", "line 1: lr: expected a float, got 'fast'"),
    ("\nsaturating_gan = maybe", "line 2: saturating_gan: expected true/false, got 'maybe'"),
])
def test_parse_bad_value_names_line_and_key(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("key", DELETED_KEYS)
def test_deleted_width_keys_rejected(key):
    assert key not in {f.name for f in fields(ExperimentConfig)}
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        parse_config_text(f"{key} = 16\n")


def test_parse_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


@pytest.mark.parametrize("text", [
    "task = regression",
    "fusion = late",
    "modalities = audio",
    "lambda1 = -1.0",
    "dropout_p = 1.0",
    "classification_loss = mse",
    "epochs = 0",
    "patience = 0",
    "seed = -1",
    "max_decode_len = 0",
    "max_decode_len = 1025",
    "max_decode_len = 10000000000000",
])
def test_invariant_violations(text):
    cfg = parse_config_text(text + "\n")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_gan_needs_two_modalities():
    cfg = ExperimentConfig(fusion="gan", modalities=("text",))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_translation_needs_text():
    cfg = ExperimentConfig(task="translation", modalities=("video", "speech"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_output_root_env(monkeypatch):
    monkeypatch.setenv("FUSELAB_OUT", "/tmp/somewhere")
    assert ExperimentConfig().output_root == "/tmp/somewhere"
    assert ExperimentConfig(out_dir="/explicit").output_root == "/explicit"
    monkeypatch.delenv("FUSELAB_OUT")
    assert ExperimentConfig().output_root == "."


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("task = translation\nfusion = auto\nepochs = 7\n")
    cfg = load_config_file(path)
    assert (cfg.task, cfg.fusion, cfg.epochs) == ("translation", "auto", 7)


def test_flags_override_base():
    base = parse_config_text("lr = 0.01\nepochs = 5\n")
    cfg = parse_config_text("epochs = 9\n", base=base)
    assert cfg.lr == 0.01 and cfg.epochs == 9
    assert base.epochs == 5  # base is copied, not mutated


_KEYS = st.sampled_from([f.name for f in fields(ExperimentConfig)] + DELETED_KEYS) \
    | st.text(max_size=12)
_VALUES = st.sampled_from(["", "0", "-1", "1.5", "1e-3", "nan", "inf", "true",
                           "gan", "translation", "v,s", ",", "abc"]) \
    | st.integers().map(str) | st.floats().map(repr) | st.text(max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_KEYS, _VALUES), max_size=6))
def test_fuzzed_config_text_parses_or_raises_config_error(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        parse_config_text(text).validate()
    except ConfigError:
        pass
