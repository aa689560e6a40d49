"""Declarative experiment configuration with a key = value file format."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

VALID_TASKS = ("classification", "translation")
VALID_FUSIONS = ("concat", "auto", "gan")
MODALITY_ALIASES = {"v": "video", "s": "speech", "t": "text",
                    "video": "video", "speech": "speech", "text": "text"}
# Far above the generators' targets (at most 11 tokens); decode buffers are
# batch x max_decode_len, so an unbounded value exhausts memory at validation.
MAX_DECODE_LEN = 1024


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    task: str = "classification"
    modalities: tuple[str, ...] = ("video", "speech", "text")
    fusion: str = "auto"

    # fusion and heads; the layer widths are constants in harness.py
    d_noise: int = 8
    noise_sigma: float = 1.0
    max_decode_len: int = 16
    classification_loss: str = "cross_entropy"
    condition_every_step: bool = False

    # objective / optimization
    lambda1: float = 1.0
    lambda2: float = 1.0
    lr: float = 1e-3
    saturating_gan: bool = False
    dropout_p: float = 0.0
    epochs: int = 20
    batch_size: int = 32
    patience: int = 10
    seed: int = 0

    # data / evaluation
    train_path: str = ""
    val_path: str = ""
    out_dir: str = ""

    def __post_init__(self):
        self.modalities = tuple(dict.fromkeys(
            MODALITY_ALIASES.get(m, m) for m in self.modalities))

    @property
    def output_root(self) -> str:
        return self.out_dir or os.environ.get("FUSELAB_OUT", ".")

    def validate(self) -> None:
        if self.task not in VALID_TASKS:
            raise ConfigError(f"task must be one of {VALID_TASKS}, got {self.task!r}")
        if self.fusion not in VALID_FUSIONS:
            raise ConfigError(f"fusion must be one of {VALID_FUSIONS}, got {self.fusion!r}")
        bad = [m for m in self.modalities if m not in ("video", "speech", "text")]
        if bad or not self.modalities:
            raise ConfigError(f"modalities must be a non-empty subset of v/s/t, got {self.modalities}")
        for key in ("lambda1", "lambda2", "noise_sigma"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.d_noise < 0:
            raise ConfigError(f"d_noise must be >= 0, got {self.d_noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.max_decode_len <= MAX_DECODE_LEN:
            raise ConfigError(f"max_decode_len must be >= 1 and <= {MAX_DECODE_LEN}, "
                              f"got {self.max_decode_len}")
        if self.fusion == "gan" and len(self.modalities) < 2:
            raise ConfigError("fusion=gan requires at least 2 modalities")
        if self.task == "translation" and "text" not in self.modalities:
            raise ConfigError("translation requires the text modality")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.classification_loss not in ("cross_entropy", "hinge"):
            raise ConfigError(f"unknown classification_loss {self.classification_loss!r}")
        for key in ("epochs", "batch_size", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(v)
    return str(v)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_value(name: str, raw: str):
    """The typed value of the config key `name` (a field of ExperimentConfig)
    from its text `raw`. A bad value raises ConfigError saying what was
    expected; the caller names the key and where the text came from."""
    raw = raw.strip()
    default = {f.name: f.default for f in fields(ExperimentConfig)}[name]
    if name == "modalities":
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false"):
            raise ConfigError(f"expected true/false, got {raw!r}")
        return raw.lower() == "true"
    expected = {int: "an integer", float: "a float"}.get(type(default))
    if expected is None:
        return raw
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"expected {expected}, got {raw!r}") from None


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Apply key = value lines on top of a copy of base (or the defaults)."""
    cfg = ExperimentConfig() if base is None else replace(base)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in {f.name for f in fields(ExperimentConfig)}:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, parse_value(key, raw))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    cfg.__post_init__()
    return cfg


def load_config_file(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config_text(text, base=base)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
