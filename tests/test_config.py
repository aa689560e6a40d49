import pytest

from fuselab.config import (ConfigError, ExperimentConfig, config_to_text,
                            load_config_file, parse_config_text)


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
