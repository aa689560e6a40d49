import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import checkpoint as ckpt_io
from fuselab import data as fdata
from fuselab import harness
from fuselab.cli import main
from fuselab.config import ExperimentConfig
from fuselab.data import (RawSample, SchemaError, apply_word_drop,
                          gen_interaction_dataset, gen_toy_translation,
                          read_dataset, reference_translation, split_dataset,
                          write_dataset)
from fuselab.vocab import RESERVED, UNK, Vocabulary


def test_interaction_label_is_xor_plus_bit():
    samples = gen_interaction_dataset(200, seed=0, noise=0.0)
    for s in samples:
        d, a, b = s.topic // 4, (s.topic // 2) % 2, s.topic % 2
        assert s.label == 2 * d + (a ^ b)


def test_interaction_class_balance():
    samples = gen_interaction_dataset(10_000, seed=1)
    counts = np.bincount([s.label for s in samples], minlength=4) / 10_000
    assert np.all(np.abs(counts - 0.25) < 0.02)


def test_interaction_unimodal_bayes_is_half():
    # noiseless prototypes: decode (a, d) from speech exactly; the xor bit
    # stays unpredictable, so the best single-modality rule gets 50%
    samples = gen_interaction_dataset(4000, seed=2, noise=0.0)
    protos = {}
    for s in samples:
        protos.setdefault(s.speech.tobytes(), []).append(s.label)
    accs = []
    for labels in protos.values():
        best = np.bincount(labels, minlength=4).max() / len(labels)
        accs.append((best, len(labels)))
    overall = sum(a * n for a, n in accs) / sum(n for _, n in accs)
    assert overall == pytest.approx(0.5, abs=0.03)


def test_interaction_joint_bayes_is_one_at_zero_noise():
    samples = gen_interaction_dataset(2000, seed=3, noise=0.0)
    table = {}
    for s in samples:
        key = (s.speech.tobytes(), s.video.tobytes())
        table.setdefault(key, set()).add(s.label)
    assert all(len(v) == 1 for v in table.values())


def test_interaction_text_is_label_free():
    samples = gen_interaction_dataset(500, seed=4)
    assert all(set(s.text_tokens) <= set(fdata._FILLER) for s in samples)


def test_interaction_requires_positive_n():
    with pytest.raises(ValueError):
        gen_interaction_dataset(0, seed=0)


@pytest.mark.parametrize("gen, kwargs", [
    (gen_interaction_dataset, {}),
    (gen_toy_translation, {"ambiguity_rate": 0.3}),
])
@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
def test_generator_rejects_bad_noise(gen, kwargs, noise):
    with pytest.raises(ValueError, match=r"noise must be finite and >= 0, got"):
        gen(10, seed=0, noise=noise, **kwargs)


def test_translation_deterministic_mapping_when_unambiguous():
    samples = gen_toy_translation(300, seed=5, ambiguity_rate=0.0)
    seen = {}
    for s in samples:
        key = tuple(s.text_tokens)
        assert seen.setdefault(key, tuple(s.target_tokens)) == tuple(s.target_tokens)
        assert s.target_tokens == reference_translation(s.text_tokens, s.topic, 0)


def test_translation_homographs_fork_on_topic():
    samples = gen_toy_translation(4000, seed=6, vocab_size=24, ambiguity_rate=0.5)
    n_homo = 24 // 4
    by_topic = {0: set(), 1: set()}
    for s in samples:
        for src, tgt in zip(s.text_tokens,
                            [s.target_tokens[1], s.target_tokens[0]] + s.target_tokens[2:]):
            if int(src[1:]) < n_homo:
                by_topic[s.topic].add((src, tgt))
    forked = {src for src, _ in by_topic[0]} & {src for src, _ in by_topic[1]}
    assert forked
    for src in forked:
        t0 = {t for s, t in by_topic[0] if s == src}
        t1 = {t for s, t in by_topic[1] if s == src}
        assert t0.isdisjoint(t1)


def test_translation_reorder_swaps_first_two():
    samples = gen_toy_translation(50, seed=7, ambiguity_rate=0.0)
    for s in samples:
        mapped = [f"t{int(tok[1:]):02d}" for tok in s.text_tokens]
        assert s.target_tokens[0] == mapped[1] and s.target_tokens[1] == mapped[0]


def test_translation_lengths_in_range():
    samples = gen_toy_translation(200, seed=8)
    assert all(4 <= len(s.text_tokens) <= 10 for s in samples)


def test_translation_seeded_regeneration_identical():
    a = gen_toy_translation(100, seed=9, ambiguity_rate=0.3)
    b = gen_toy_translation(100, seed=9, ambiguity_rate=0.3)
    for x, y in zip(a, b):
        assert x.text_tokens == y.text_tokens
        assert x.target_tokens == y.target_tokens
        np.testing.assert_array_equal(x.speech, y.speech)


def test_translation_requires_positive_n():
    with pytest.raises(ValueError, match="n must be >= 1"):
        gen_toy_translation(0, seed=0)


def test_translation_vocab_floor():
    with pytest.raises(ValueError):
        gen_toy_translation(10, seed=0, vocab_size=19)


@pytest.mark.parametrize("skew", [-0.1, 1.5, float("nan")])
def test_translation_topic_skew_out_of_range(skew):
    with pytest.raises(ValueError, match=r"topic_skew must lie in \[0, 1\]"):
        gen_toy_translation(10, seed=0, topic_skew=skew)


def test_word_drop_identity_and_saturation():
    rng = np.random.default_rng(0)
    ids = [0, 1, 4, 5, 6]
    assert apply_word_drop(ids, 0.0, rng) == ids
    dropped = apply_word_drop(ids, 1.0, rng)
    assert dropped == [0, 1, UNK, UNK, UNK]
    assert len(dropped) == len(ids)


def test_word_drop_empirical_rate():
    rng = np.random.default_rng(1)
    ids = [7] * 100_000
    out = apply_word_drop(ids, 0.35, rng)
    rate = out.count(UNK) / len(out)
    assert rate == pytest.approx(0.35, abs=0.01)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=40),
       st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_word_drop_preserves_length_and_reserved(ids, p, seed):
    out = apply_word_drop(ids, p, np.random.default_rng(seed))
    assert len(out) == len(ids)
    for orig, new in zip(ids, out):
        if orig < 4:
            assert new == orig
        else:
            assert new in (orig, UNK)


def test_dataset_roundtrip_classification(tmp_path):
    samples = gen_interaction_dataset(20, seed=10)
    path = tmp_path / "train.tsv"
    write_dataset(path, samples)
    assert open(path).readline().strip() == "#schema=fuselab-v1"
    loaded = read_dataset(path)
    for a, b in zip(samples, loaded):
        assert a.label == b.label and a.topic == b.topic
        assert a.text_tokens == b.text_tokens
        np.testing.assert_array_equal(a.speech, b.speech)
        np.testing.assert_array_equal(a.video, b.video)


def test_dataset_roundtrip_translation(tmp_path):
    samples = gen_toy_translation(20, seed=11, ambiguity_rate=0.2)
    path = tmp_path / "t.tsv"
    write_dataset(path, samples)
    loaded = read_dataset(path)
    for a, b in zip(samples, loaded):
        assert b.label is None
        assert a.target_tokens == b.target_tokens
        np.testing.assert_array_equal(a.video, b.video)


# sha256 of write_dataset's bytes for the corpora the acceptance thresholds
# were measured on: a changed draw, draw order or number format shows here
@pytest.mark.parametrize("make, digest", [
    (lambda: gen_toy_translation(300, seed=1, ambiguity_rate=0.3, topic_skew=0.6),
     "72e01c825310ba98abc7d4d57adbafd3b923eddca78f45479167e3907df3b098"),
    (lambda: gen_toy_translation(300, seed=2, ambiguity_rate=0.3, topic_skew=0.6),
     "b82d19a56aba9adabebe7f53532265b2aa4f6c61c6c13a5fafe1c9be0aaa81b8"),
    (lambda: gen_toy_translation(200, seed=3),
     "dcb9e9454c69f93569a5c6cc8f8a11191588d9c91a59d656657b8bc3f4db610e"),
    (lambda: gen_toy_translation(200, seed=4, vocab_size=40, ambiguity_rate=1.0),
     "b6270b8a55cdf4764043f81a7b048a5d91c51d6b637723daa46cbe10d3d80ca5"),
    (lambda: gen_interaction_dataset(500, seed=1),
     "3ffbc8eb488f99130127d3e3387dd2367dbe6029f3f3c56fca39431556d35b3a"),
    (lambda: gen_interaction_dataset(500, seed=42),
     "da54a39bef700a02ad5eb5bbf265b534e12e60a49dc9fc9ac2e1946d295ffe44"),
], ids=["translation-1", "translation-2", "translation-3", "translation-4",
        "interaction-1", "interaction-42"])
def test_golden_corpus_bytes(tmp_path, make, digest):
    path = tmp_path / "corpus.tsv"
    write_dataset(path, make())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _good_sample(**changes) -> RawSample:
    fields = dict(topic=1, target_tokens=["t01", "t02"], text_tokens=["s02", "s01"],
                  speech=np.array([0.5, -1.0]), video=np.array([2.0]))
    fields.update(changes)
    return RawSample(**fields)


@pytest.mark.parametrize("changes, message", [
    ({"speech": np.array([0.5, np.nan])}, "speech: non-finite value"),
    ({"video": np.array([np.inf])}, "video: non-finite value"),
    ({"speech": np.zeros(0)}, r"speech: vector of shape \(0,\) is not"),
    ({"video": np.zeros((1, 1))}, r"video: vector of shape \(1, 1\) is not"),
    ({"speech": np.zeros(3)}, "speech: vector has 3 values, earlier samples have 2"),
    ({"text_tokens": ["s01 s02"]}, "text: tokens must form"),
    ({"text_tokens": ["s01\ts02"]}, "text: tokens must form"),
    ({"text_tokens": []}, "text: tokens must form"),
    ({"target_tokens": ["t01", ""]}, "target: tokens must form"),
    ({"target_tokens": ["12"]}, "target: '12' would be read as a class label"),
    ({"target_tokens": ["\u00b2"]}, "target: '\u00b2' would be read as a class label"),
    ({"target_tokens": None}, "label: sample has neither"),
    ({"label": 2}, "target: a sample with a class label cannot also have a target"),
    ({"label": -1, "target_tokens": None}, "label: -1 is not an integer >= 0"),
    ({"topic": True}, "topic: True is not an integer >= 0"),
    ({"topic": -2}, "topic: -2 is not an integer >= 0"),
    ({"text_tokens": ["caf\udce9"]}, r"text: '\\udce9' is not encodable as UTF-8"),
])
def test_write_dataset_refuses_what_reads_back_changed(tmp_path, changes, message):
    path = tmp_path / "d.tsv"
    samples = [_good_sample(), _good_sample(topic=0), _good_sample(**changes)]
    with pytest.raises(ValueError, match=f"^sample 2: {message}"):
        write_dataset(path, samples)
    assert not path.exists()


_TOKEN = st.one_of(st.sampled_from(["s01", "t02", "7", "12", "caf\u00e9"]),
                   st.text(st.sampled_from("ab1\u00b2\u00e9 \t\n"), max_size=3))
_TOKENS = st.one_of(st.none(), st.lists(_TOKEN, max_size=3))
_VECTOR = st.one_of(st.none(), st.lists(st.floats(width=64), max_size=2).map(np.array))


@st.composite
def _raw_sample(draw) -> RawSample:
    label = draw(st.one_of(st.none(), st.integers(-1, 12)))
    target = (draw(st.lists(_TOKEN, max_size=3))
              if label is None or draw(st.integers(0, 3)) == 0 else None)
    return RawSample(topic=draw(st.integers(-1, 3)), label=label, target_tokens=target,
                     text_tokens=draw(_TOKENS), speech=draw(_VECTOR), video=draw(_VECTOR))


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_sample(), max_size=3))
def test_write_dataset_round_trips_or_refuses(samples):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "d.tsv"
        try:
            write_dataset(path, samples)
        except ValueError:
            assert not path.exists()
            return
        loaded = read_dataset(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert (a.topic, a.label, a.target_tokens, a.text_tokens) == (
            b.topic, b.label, b.target_tokens, b.text_tokens)
        for va, vb in ((a.speech, b.speech), (a.video, b.video)):
            assert (va is None and vb is None) or va.tobytes() == vb.tobytes()


def test_dataset_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#schema=other\n")
    with pytest.raises(SchemaError):
        read_dataset(path)


def test_dataset_bad_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#schema=fuselab-v1\n1\t2\t3\n")
    with pytest.raises(SchemaError):
        read_dataset(path)


def _corrupt_field(path, lineno, column, edit):
    """Rewrite one field of a file: topic (column 0), label (1), text (2),
    speech (3) or video (4). A surrogate U+DC80..U+DCFF in the edit is
    written as the lone byte 0x80..0xFF."""
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split("\t")
    fields[column] = edit(fields[column])
    lines[lineno - 1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")


@pytest.mark.parametrize("column, edit, message", [
    (3, lambda v: v.rsplit(",", 1)[0], "speech vector has 31 values"),
    (4, lambda v: v + ",0.5", "video vector has 49 values"),
    (3, lambda v: "nan," + v.split(",", 1)[1], "non-finite value in speech"),
    (4, lambda v: v.rsplit(",", 1)[0] + ",-inf", "non-finite value in video"),
    (3, lambda v: "abc," + v.split(",", 1)[1],
     "speech vector: could not convert string to float: 'abc'"),
    (0, lambda v: "x", "topic 'x' is not an integer"),
    (0, lambda v: "\u0663", "topic '\u0663' is not an integer"),
    (0, lambda v: "1_0", "topic '1_0' is not an integer"),
    (0, lambda v: "9" * 4400,
     "topic '" + "9" * 40 + r"'\.\.\. \(4400 characters\) is not an integer$"),
    (1, lambda v: "\u00b2" * 100,
     "class label '" + "\u00b2" * 40 + r"'\.\.\. \(100 characters\) is not made of ASCII digits$"),
    (1, lambda v: "\u00b2", "class label '\u00b2' is not made of ASCII digits"),
    (1, lambda v: "7" * 4301, "class label: Exceeds the limit"),
    (2, lambda v: v + " caf\udce9", "byte 0xe9 is not UTF-8"),
])
def test_dataset_bad_vector_names_line(tmp_path, column, edit, message):
    path = tmp_path / "bad.tsv"
    write_dataset(path, gen_interaction_dataset(5, seed=13))
    _corrupt_field(path, 4, column, edit)
    with pytest.raises(SchemaError, match=f"bad.tsv:4: {message}"):
        read_dataset(path)


def test_dataset_label_padded_with_unicode_space(tmp_path):
    path = tmp_path / "pad.tsv"
    write_dataset(path, gen_interaction_dataset(5, seed=13))
    _corrupt_field(path, 4, 1, lambda v: v + "\u00a0")
    assert [s.label for s in read_dataset(path)] == [
        s.label for s in gen_interaction_dataset(5, seed=13)]


def test_split_disjoint_and_complete():
    samples = gen_interaction_dataset(100, seed=12)
    tr, va, te = split_dataset(samples)
    assert len(tr) == 80 and len(va) == 10 and len(te) == 10
    assert tr + va + te == samples


def test_vocabulary_reserved_and_bijection():
    v = Vocabulary(["b", "a", "b"])
    assert v.id_to_token[:4] == list(RESERVED)
    assert len(v) == 6
    assert v.encode(["a", "b", "zzz"]) == [4, 5, UNK]
    assert [v.token_to_id[t] for t in v.id_to_token] == list(range(len(v)))


# -- fuzzing the reader with mutations of a small valid file ------------------

_FUZZ_ROWS = gen_toy_translation(30, seed=14, ambiguity_rate=0.3)
_CHARS = "0123456789 ,.-+einaft\t\n\u00b2\u00e9"
_FIELDS = st.one_of(st.text(_CHARS, max_size=8), st.sampled_from(
    ["", "nan", "-inf", "1e999", "-1", "9" * 4400, "\u00b2", "t00 t01", "s05"]))


@st.composite
def _mutation(draw, text: str) -> str:
    """One edit, insertion or deletion of a field or a character, or one
    injected non-UTF-8 byte (as its surrogate-escape character)."""
    kind = draw(st.sampled_from(["byte", "char", "field", "add_field", "drop_field"]))
    if kind in ("char", "byte"):
        pos = draw(st.integers(0, len(text)))
        if kind == "byte":
            return text[:pos] + chr(0xDC00 + draw(st.integers(0x80, 0xFF))) + text[pos:]
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        new = "" if op == "delete" else draw(st.sampled_from(_CHARS))
        return text[:pos] + new + text[pos + (op != "insert"):]
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split("\t")
    j = draw(st.integers(0, len(fields) - (kind != "add_field")))
    if kind == "drop_field":
        del fields[j]
    else:
        fields[j:j + (kind == "field")] = [draw(_FIELDS)]
    lines[i] = "\t".join(fields)
    return "\n".join(lines)


@st.composite
def _mutated_file(draw, text: str) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        text = draw(_mutation(text))
    return text.encode("utf-8", errors="surrogateescape")


@pytest.fixture(scope="module")
def fuzz_setup(tmp_path_factory):
    """The valid file the fuzz mutates (6 rows), and a GAN translation
    checkpoint that `fuselab eval` scores the mutated file with."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, part in (("train", _FUZZ_ROWS[:16]), ("val", _FUZZ_ROWS[16:24]),
                       ("valid", _FUZZ_ROWS[24:])):
        write_dataset(root / f"{name}.tsv", part)
    ckpt, _ = harness.train(ExperimentConfig(
        task="translation", fusion="gan", epochs=1, batch_size=8,
        train_path=str(root / "train.tsv"), val_path=str(root / "val.tsv")))
    ckpt_io.save_checkpoint(root / "checkpoint.bin", ckpt)
    return root, (root / "valid.tsv").read_text()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_dataset_parses_or_names_the_file(fuzz_setup, data):
    root, valid = fuzz_setup
    path = root / "mutated.tsv"
    path.write_bytes(data.draw(_mutated_file(valid)))
    try:
        samples = read_dataset(path)
    except SchemaError as exc:
        assert str(path) in str(exc)
    else:
        assert all(isinstance(s, RawSample) for s in samples)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["eval", "--checkpoint", str(root / "checkpoint.bin"),
                   "--dataset", str(path)])
    assert rc in (0, 1)
