"""Seeded synthetic trimodal datasets plus the on-disk dataset format.

Two generators: an interaction (XOR) classification set where no single
modality can predict the label, and a toy translation corpus whose homograph
tokens are only resolvable through the speech/video topic signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vocab import UNK

SCHEMA_HEADER = "#schema=fuselab-v1"


class SchemaError(Exception):
    """Dataset file does not carry the expected schema header or framing."""


@dataclass
class RawSample:
    """One event before vocabulary encoding; missing modalities are None."""

    topic: int
    label: int | None = None
    target_tokens: list[str] | None = None
    text_tokens: list[str] | None = None
    speech: np.ndarray | None = None
    video: np.ndarray | None = None


def _sample_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _check_noise(noise: float) -> None:
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")


# -- interaction (XOR) classification dataset --------------------------------

INTERACTION_SPEECH_DIM = 32
INTERACTION_VIDEO_DIM = 48
_FILLER = ["the", "sample", "shows", "a", "typical", "recording", "of",
           "routine", "daily", "activity", "nothing", "special", "here"]


def gen_interaction_dataset(n: int, seed: int, noise: float = 0.3) -> list[RawSample]:
    """4-class task: label = 2*d + (a xor b).

    Speech features prototype-encode (a, d) and video features (b, d), so a
    single modality can recover d but never the xor bit; text is label-free
    filler. Joint information makes the label deterministic at zero noise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_noise(noise)
    proto_rng = _sample_rng(seed, 0, stream=1)
    speech_protos = proto_rng.normal(0.0, 1.0, size=(2, 2, INTERACTION_SPEECH_DIM))
    video_protos = proto_rng.normal(0.0, 1.0, size=(2, 2, INTERACTION_VIDEO_DIM))

    samples = []
    for i in range(n):
        rng = _sample_rng(seed, i)
        a, b, d = rng.integers(0, 2, size=3).tolist()
        label = int(2 * d + (a ^ b))
        speech = speech_protos[a, d] + rng.normal(0.0, noise, size=INTERACTION_SPEECH_DIM)
        video = video_protos[b, d] + rng.normal(0.0, noise, size=INTERACTION_VIDEO_DIM)
        length = int(rng.integers(4, 9))
        # the draw Generator.choice makes, without its list-to-array copy
        text = [_FILLER[j] for j in rng.integers(0, len(_FILLER), size=length)]
        samples.append(RawSample(topic=int(d * 4 + a * 2 + b), label=label,
                                 text_tokens=text, speech=speech, video=video))
    return samples


# -- toy translation corpus --------------------------------------------------

TRANSLATION_SPEECH_DIM = 16
TRANSLATION_VIDEO_DIM = 24
TRANSLATION_MIN_LEN, TRANSLATION_MAX_LEN = 4, 10     # source tokens per sentence


def gen_toy_translation(n: int, seed: int, vocab_size: int = 24,
                        ambiguity_rate: float = 0.0, topic_skew: float = 0.75,
                        noise: float = 0.3) -> list[RawSample]:
    """Parallel corpus with a deterministic token map plus one local reorder.

    Source types split into regular tokens (translated one-to-one) and
    homographs whose translation depends on the sample's hidden topic (two
    topics). Regular tokens are drawn with probability `topic_skew` from the
    topic's own half of the regular vocabulary, so text carries a weak topic
    cue; speech/video features carry it strongly (noisy topic prototypes).
    The target sequence is the mapped source with its first two tokens
    swapped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if vocab_size < 20:
        raise ValueError("vocab_size must be >= 20")
    if not 0.0 <= ambiguity_rate <= 1.0:
        raise ValueError("ambiguity_rate must lie in [0, 1]")
    if not 0.0 <= topic_skew <= 1.0:
        raise ValueError("topic_skew must lie in [0, 1]")
    _check_noise(noise)

    n_homo = max(1, vocab_size // 4) if ambiguity_rate > 0 else 0
    homographs = [f"s{j:02d}" for j in range(n_homo)]
    regular = [f"s{j:02d}" for j in range(n_homo, vocab_size)]
    half = len(regular) // 2
    topic_pool = [regular[:half], regular[half:]]

    proto_rng = _sample_rng(seed, 0, stream=1)
    speech_protos = proto_rng.normal(0.0, 1.0, size=(2, TRANSLATION_SPEECH_DIM))
    video_protos = proto_rng.normal(0.0, 1.0, size=(2, TRANSLATION_VIDEO_DIM))

    samples = []
    for i in range(n):
        rng = _sample_rng(seed, i)
        topic = int(rng.integers(0, 2))
        length = int(rng.integers(TRANSLATION_MIN_LEN, TRANSLATION_MAX_LEN + 1))
        src: list[str] = []
        for _ in range(length):
            # each draw is the one Generator.choice(pool) makes, taken by index
            if n_homo and rng.random() < ambiguity_rate:
                pool = homographs
            elif rng.random() < topic_skew:
                pool = topic_pool[topic]
            else:
                pool = topic_pool[1 - topic]
            src.append(pool[rng.integers(0, len(pool))])
        tgt = reference_translation(src, topic, n_homo)
        speech = speech_protos[topic] + rng.normal(0.0, noise, size=TRANSLATION_SPEECH_DIM)
        video = video_protos[topic] + rng.normal(0.0, noise, size=TRANSLATION_VIDEO_DIM)
        samples.append(RawSample(topic=topic, target_tokens=tgt, text_tokens=src,
                                 speech=speech, video=video))
    return samples


def reference_translation(src: list[str], topic: int, homograph_count: int) -> list[str]:
    """Oracle target for a source sentence under the generator's rule."""
    out = []
    for tok in src:
        idx = int(tok[1:])
        if idx < homograph_count:
            out.append(f"t{idx:02d}{'ab'[topic]}")
        else:
            out.append(f"t{idx:02d}")
    if len(out) >= 2:
        out[0], out[1] = out[1], out[0]
    return out


# -- ablation ---------------------------------------------------------------

def apply_word_drop(token_ids: list[int], p: float,
                    rng: np.random.Generator) -> list[int]:
    """Replace each non-reserved token id by UNK independently with prob p,
    which lies in [0, 1] (``harness.evaluate_model`` checks it)."""
    return [UNK if t >= 4 and rng.random() < p else t for t in token_ids]


# -- on-disk format ----------------------------------------------------------

def _fmt_count(value, field: str) -> str:
    """A topic id or class label, written as ASCII digits."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{field}: {value!r} is not an integer >= 0")
    return str(value)


def _fmt_tokens(tokens: list[str], field: str) -> str:
    line = " ".join(tokens)
    if not tokens or line.split() != tokens:
        raise ValueError(f"{field}: tokens must form a non-empty list, "
                         "none of them empty or holding whitespace")
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{field}: {line[exc.start]!r} is not encodable "
                             "as UTF-8") from None
    return line


def _fmt_floats(v: np.ndarray | None, field: str, widths: dict[str, int]) -> str:
    """Comma-separated reprs, which read back bit-exact."""
    if v is None:
        return ""
    if v.ndim != 1 or not v.size:
        raise ValueError(f"{field}: vector of shape {v.shape} is not one-dimensional "
                         "and non-empty")
    if not np.isfinite(v).all():
        raise ValueError(f"{field}: non-finite value in vector")
    width = widths.setdefault(field, v.size)
    if v.size != width:
        raise ValueError(f"{field}: vector has {v.size} values, earlier samples have {width}")
    return ",".join(map(repr, v.tolist()))


def _fmt_row(s: RawSample, widths: dict[str, int]) -> str:
    if s.label is not None:
        if s.target_tokens is not None:
            raise ValueError("target: a sample with a class label cannot also have a target")
        label_or_target = _fmt_count(s.label, "label")
    elif s.target_tokens is not None:
        label_or_target = _fmt_tokens(s.target_tokens, "target")
        if label_or_target.isdigit():
            raise ValueError(f"target: {label_or_target!r} would be read as a class label")
    else:
        raise ValueError("label: sample has neither a class label nor a target")
    text = "" if s.text_tokens is None else _fmt_tokens(s.text_tokens, "text")
    return "\t".join((_fmt_count(s.topic, "topic"), label_or_target, text,
                      _fmt_floats(s.speech, "speech", widths),
                      _fmt_floats(s.video, "video", widths)))


def write_dataset(path, samples: list[RawSample]) -> None:
    """Write samples in the fuselab-v1 format. Every sample is checked before
    the file is opened: one that `read_dataset` would not return unchanged
    raises ValueError naming its index and field, and no file is written."""
    widths: dict[str, int] = {}
    lines = [SCHEMA_HEADER]
    for i, s in enumerate(samples):
        try:
            lines.append(_fmt_row(s, widths))
        except ValueError as exc:
            raise ValueError(f"sample {i}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_vector(raw: str, kind: str, widths: dict[str, int], where: str
                  ) -> np.ndarray | None:
    """Comma-separated floats; every row of one modality has the first row's
    width, and every value is finite."""
    if not raw:
        return None
    try:
        v = np.array(raw.split(","), dtype=np.float64)
    except ValueError as exc:
        raise SchemaError(f"{where}: {kind} vector: {exc}") from None
    width = widths.setdefault(kind, v.size)
    if v.size != width:
        raise SchemaError(f"{where}: {kind} vector has {v.size} values, "
                          f"earlier rows have {width}")
    if not np.isfinite(v).all():
        raise SchemaError(f"{where}: non-finite value in {kind} vector")
    return v


def _shown(field: str, limit: int = 40) -> str:
    """A field as an error message quotes it: its repr, cut after limit
    characters."""
    if len(field) <= limit:
        return repr(field)
    return f"{field[:limit]!r}... ({len(field)} characters)"


def read_dataset(path) -> list[RawSample]:
    samples = []
    widths: dict[str, int] = {}
    # an undecodable byte becomes a lone surrogate, so it can be reported
    # with its line rather than as an offset into the file
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if header != SCHEMA_HEADER:
            raise SchemaError(f"bad schema header in {path}: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise SchemaError(f"{where}: byte 0x{byte:02x} is not UTF-8") from None
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 5:
                raise SchemaError(f"{where}: expected 5 fields, got {len(fields)}")
            topic, label_or_target, text, speech, video = fields
            digits = topic.strip()
            try:
                topic_id = int(digits) if digits.isascii() and digits.isdigit() else None
            except ValueError:                          # more digits than int() converts
                topic_id = None
            if topic_id is None:
                raise SchemaError(f"{where}: topic {_shown(topic)} is not an integer")
            label = None
            if label_or_target.strip().isdigit():       # a class label
                if not label_or_target.strip().isascii():
                    raise SchemaError(f"{where}: class label {_shown(label_or_target)} "
                                      "is not made of ASCII digits")
                try:
                    label = int(label_or_target)
                except ValueError as exc:
                    raise SchemaError(f"{where}: class label: {exc}") from None
            samples.append(RawSample(
                topic=topic_id,
                label=label,
                target_tokens=None if label is not None else label_or_target.split(),
                text_tokens=text.split() if text else None,
                speech=_parse_vector(speech, "speech", widths, where),
                video=_parse_vector(video, "video", widths, where),
            ))
    return samples


def split_dataset(samples: list[RawSample], train: float = 0.8, val: float = 0.1
                  ) -> tuple[list[RawSample], list[RawSample], list[RawSample]]:
    """Disjoint index-based split (generation order is already random)."""
    n = len(samples)
    n_train = int(n * train)
    n_val = int(n * val)
    return (samples[:n_train], samples[n_train:n_train + n_val],
            samples[n_train + n_val:])
