import json
import os
import re
import shlex
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fuselab import data as data_mod
from fuselab import harness
from fuselab.checkpoint import load_checkpoint, save_checkpoint
from fuselab.cli import build_parser, main
from fuselab.config import ExperimentConfig, parse_config_text
from fuselab.data import SCHEMA_HEADER, read_dataset
from fuselab.gradcheck import gradcheck_cases


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen-data", "--kind", "translation", "--n", "160",
               "--seed", "5", "--ambiguity-rate", "0.3",
               "--out", str(root / "dsets")])
    assert rc == 0
    return root


def test_gen_data_writes_three_splits(workdir):
    for name, count in (("train", 128), ("val", 16), ("test", 16)):
        path = workdir / "dsets" / f"{name}.tsv"
        assert path.read_text().splitlines()[0] == SCHEMA_HEADER
        assert len(read_dataset(path)) == count


def test_gen_data_interaction(tmp_path):
    rc = main(["gen-data", "--kind", "interaction", "--n", "50",
               "--out", str(tmp_path)])
    assert rc == 0
    samples = read_dataset(tmp_path / "train.tsv")
    assert all(s.label is not None for s in samples)


def test_gen_data_translation_writes_generator_corpus(tmp_path):
    rc = main(["gen-data", "--kind", "translation", "--n", "60", "--seed", "3",
               "--ambiguity-rate", "0.3", "--out", str(tmp_path / "cli")])
    assert rc == 0
    samples = data_mod.gen_toy_translation(60, 3, ambiguity_rate=0.3, topic_skew=0.6)
    for name, part in zip(("train", "val", "test"), data_mod.split_dataset(samples)):
        data_mod.write_dataset(tmp_path / f"{name}.tsv", part)
        assert ((tmp_path / "cli" / f"{name}.tsv").read_bytes()
                == (tmp_path / f"{name}.tsv").read_bytes())


@pytest.mark.parametrize("flag, value", [("--ambiguity-rate", "0.3"), ("--vocab-size", "30")])
def test_gen_data_interaction_rejects_translation_flags(tmp_path, capsys, flag, value):
    assert main(["gen-data", "--kind", "interaction", "--n", "10", flag, value,
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {flag} applies only to --kind translation\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["interaction", "translation"])
def test_gen_data_rejects_n_below_one(tmp_path, capsys, kind):
    assert main(["gen-data", "--kind", kind, "--n", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "config error: n must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["interaction", "translation"])
def test_gen_data_refuses_an_empty_split(tmp_path, capsys, kind):
    assert main(["gen-data", "--kind", kind, "--n", "9", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: --n 9 leaves the val split empty; gen-data needs --n >= 10\n")
    assert list(tmp_path.iterdir()) == []
    assert main(["gen-data", "--kind", kind, "--n", "10", "--out", str(tmp_path)]) == 0
    assert [len(read_dataset(tmp_path / f"{name}.tsv"))
            for name in ("train", "val", "test")] == [8, 1, 1]


def test_train_eval_ablate_pipeline(workdir):
    run = workdir / "run"
    rc = main(["train", "--task", "translation", "--fusion", "auto",
               "--epochs", "2", "--batch-size", "32",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv"),
               "--out-dir", str(run)])
    assert rc == 0
    assert (run / "checkpoint.bin").exists()
    metrics_lines = (run / "metrics.csv").read_text().splitlines()
    assert metrics_lines[0] == "epoch,split,metric,value"
    assert json.loads((run / "summary.json").read_text())["epochs_run"] == 2

    out = workdir / "eval.json"
    rc = main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
               "--dataset", str(workdir / "dsets" / "test.tsv"),
               "--out", str(out)])
    assert rc == 0
    assert "bleu4" in json.loads(out.read_text())

    abl = workdir / "abl.csv"
    rc = main(["ablate", "--checkpoint", str(run / "checkpoint.bin"),
               "--dataset", str(workdir / "dsets" / "test.tsv"),
               "--p-grid", "0.0,0.4", "--out", str(abl)])
    assert rc == 0
    lines = abl.read_text().splitlines()
    assert lines[0] == "p,bleu1,bleu2,bleu3,bleu4"
    assert len(lines) == 3


def test_config_file_with_flag_override(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task = translation\nfusion = concat\nepochs = 5\n"
        f"train_path = {workdir / 'dsets' / 'train.tsv'}\n"
        f"val_path = {workdir / 'dsets' / 'val.tsv'}\n")
    run = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--epochs", "1",
               "--out-dir", str(run)])
    assert rc == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["epochs_run"] == 1  # flag wins over the file's 5


def test_invalid_config_exit_code_1(workdir):
    rc = main(["train", "--task", "nonsense",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv")])
    assert rc == 1


@pytest.mark.parametrize("flag, value, key", [
    ("--d-noise", "-1", "d_noise"),
    ("--noise-sigma", "-1", "noise_sigma"),
    ("--noise-sigma", "nan", "noise_sigma"),
    ("--lr", "0", "lr"),
    ("--lr", "nan", "lr"),
    ("--lambda1", "inf", "lambda1"),
    ("--lambda2", "nan", "lambda2"),
    ("--max-decode-len", "0", "max_decode_len"),
    ("--max-decode-len", "1025", "max_decode_len"),
    ("--max-decode-len", "10000000000000", "max_decode_len"),
    ("--patience", "0", "patience"),
    ("--seed", "-1", "seed"),
])
def test_out_of_range_value_exit_code_1(workdir, tmp_path, capsys, flag, value, key):
    rc = main(["train", "--task", "translation", "--fusion", "gan", "--epochs", "1",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv"),
               "--out-dir", str(tmp_path), flag, value])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")


@pytest.mark.parametrize("argv, flag", [
    (["gen-data", "--kind", "interaction", "--seed", "-1"], "--seed"),
    (["gen-data", "--kind", "translation", "--noise", "-1"], "--noise"),
    (["gen-data", "--kind", "interaction", "--noise", "nan"], "--noise"),
    (["gen-data", "--kind", "interaction", "--noise", "inf"], "--noise"),
    (["eval", "--checkpoint", "c.bin", "--dataset", "d.tsv", "--drop-seed", "-1",
      "--word-drop-p", "0.2"], "--drop-seed"),
])
def test_out_of_range_flag_names_the_flag(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {flag} must be finite and >= 0")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "-9999999999"])
def test_gradcheck_seed_out_of_range_names_the_flag(capsys, seed):
    assert main(["gradcheck", "--seed", seed, "--repeats", "1"]) == 1
    assert capsys.readouterr().err == (
        f"config error: --seed must be finite and >= 0, got {seed}\n")


def test_bad_config_file_value_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs = abc\n")
    assert main(["train", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {bad}: line 1: epochs: expected an integer, got 'abc'\n")


def test_bad_flag_value_names_the_flag(capsys):
    assert main(["train", "--lr", "0.1", "--epochs", "abc"]) == 1
    assert capsys.readouterr().err == (
        "config error: --epochs: expected an integer, got 'abc'\n")


@pytest.mark.parametrize("argv", [
    ["train", "--bogus", "1"],
    ["gen-data", "--kind", "interaction", "--n", "abc"],
    ["train", "--text-hidden", "64"],
])
def test_usage_error_exit_code_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage: fuselab" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_help_exits_0_without_width_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--d-noise" in out
    for flag in ("--text-embed", "--text-hidden", "--speech-latent",
                 "--video-latent", "--d-fuse", "--disc-hidden",
                 "--head-hidden", "--dec-embed", "--dec-hidden"):
        assert flag not in out


def test_missing_dataset_exit_code_1(tmp_path):
    rc = main(["train", "--train-path", str(tmp_path / "nope.tsv"),
               "--val-path", str(tmp_path / "nope.tsv")])
    assert rc == 1


def test_corrupt_checkpoint_exit_code_2(workdir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"FUSE" + b"\x01\x00\x00\x00" + b"\xff" * 3)
    rc = main(["eval", "--checkpoint", str(bad),
               "--dataset", str(workdir / "dsets" / "test.tsv")])
    assert rc == 2


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw + b"\x00", "1 trailing bytes after the config block"),
    (lambda raw: raw[:-2] + b"\xff" + raw[-1:], "config block is not UTF-8"),
])
def test_corrupt_checkpoint_bytes_exit_code_2(misfit_paths, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.bin"
    with open(misfit_paths["ckpt"], "rb") as fh:
        bad.write_bytes(edit(fh.read()))
    rc = main(["eval", "--checkpoint", str(bad), "--dataset", misfit_paths["mt_val"]])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"runtime error: {message}")


@pytest.mark.parametrize("shape", [(1,), (), (2,)])
def test_buffer_of_wrong_shape_exit_code_2(misfit_paths, tmp_path, capsys, shape):
    """A normalisation buffer is copied in only at the model's own shape."""
    ckpt = load_checkpoint(misfit_paths["ckpt"])
    ckpt.tensors["video_enc.norm_std"] = np.full(shape, 2.0)
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, ckpt)
    rc = main(["eval", "--checkpoint", str(bad), "--dataset", misfit_paths["mt_val"]])
    assert rc == 2
    assert capsys.readouterr().err == "runtime error: shape mismatch for video_enc.norm_std\n"


def test_hostile_checkpoint_header_exit_code_2(workdir, tmp_path):
    bad = tmp_path / "bad.bin"
    # one tensor claiming dims (2**31, 2**31, 4), then empty blocks
    bad.write_bytes(b"FUSE" + struct.pack("<II", 1, 1) + struct.pack("<H", 1)
                    + b"w" + struct.pack("<B3I", 3, 2**31, 2**31, 4)
                    + struct.pack("<dIII", 1.0, 0, 0, 0))
    rc = main(["eval", "--checkpoint", str(bad),
               "--dataset", str(workdir / "dsets" / "test.tsv")])
    assert rc == 2


@pytest.mark.parametrize("edit, message", [
    (lambda v: "nan," + v.split(",", 1)[1], "non-finite value in speech vector"),
    (lambda v: "1.0,2.0", "speech vector has 2 values"),
    (lambda v: "abc," + v.split(",", 1)[1], "speech vector: could not convert"),
])
def test_bad_speech_vector_exit_code_1(workdir, tmp_path, capsys, edit, message):
    lines = (workdir / "dsets" / "train.tsv").read_text().splitlines()
    fields = lines[5].split("\t")
    fields[3] = edit(fields[3])
    lines[5] = "\t".join(fields)
    bad = tmp_path / "train.tsv"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--task", "translation", "--fusion", "gan",
               "--epochs", "1", "--train-path", str(bad),
               "--val-path", str(workdir / "dsets" / "val.tsv"),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 1
    assert f"{bad}:6: {message}" in capsys.readouterr().err


def _edit_column(src, dst, column, edit, rows=None):
    """Copy src to dst with edit applied to one column of the given data
    rows (line numbers, the header being line 1), or of every row."""
    lines = src.read_text().splitlines()
    for i in range(1, len(lines)) if rows is None else [r - 1 for r in rows]:
        fields = lines[i].split("\t")
        fields[column] = edit(fields[column])
        lines[i] = "\t".join(fields)
    dst.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def misfit_paths(workdir):
    """Datasets that parse but do not fit a config, a translation checkpoint
    with 16-wide speech vectors and a classification checkpoint."""
    root = workdir / "misfit"
    assert main(["gen-data", "--kind", "interaction", "--n", "40",
                 "--out", str(root), "--prefix", "cls_"]) == 0
    mt = workdir / "dsets"
    _edit_column(mt / "train.tsv", root / "no_text.tsv", 2, lambda v: "")
    _edit_column(root / "cls_train.tsv", root / "no_speech.tsv", 3, lambda v: "")
    _edit_column(root / "cls_train.tsv", root / "negative.tsv", 1, lambda v: "-1")
    _edit_column(root / "cls_val.tsv", root / "big_label.tsv", 1, lambda v: "7")
    _edit_column(root / "cls_train.tsv", root / "huge_label.tsv", 1,
                 lambda v: "1000000000000000")
    _edit_column(mt / "test.tsv", root / "narrow.tsv", 3,
                 lambda v: ",".join(v.split(",")[:3]))
    (root / "empty.tsv").write_text(SCHEMA_HEADER + "\n")
    # one row whose text or target is whitespace alone, which holds no token
    _edit_column(mt / "train.tsv", root / "blank_text.tsv", 2, lambda v: " ", rows=[4])
    _edit_column(mt / "val.tsv", root / "blank_val_text.tsv", 2, lambda v: "  ", rows=[3])
    _edit_column(mt / "test.tsv", root / "blank_target.tsv", 1, lambda v: " ", rows=[5])
    assert main(["train", "--task", "translation", "--fusion", "concat",
                 "--epochs", "1", "--train-path", str(mt / "train.tsv"),
                 "--val-path", str(mt / "val.tsv"), "--out-dir", str(root)]) == 0
    assert main(["train", "--task", "classification", "--fusion", "concat",
                 "--epochs", "1", "--train-path", str(root / "cls_train.tsv"),
                 "--val-path", str(root / "cls_val.tsv"),
                 "--out-dir", str(root / "cls_run")]) == 0
    return {"mt": str(mt / "train.tsv"), "mt_val": str(mt / "val.tsv"),
            "cls": str(root / "cls_train.tsv"), "cls_val": str(root / "cls_val.tsv"),
            "no_text": str(root / "no_text.tsv"),
            "no_speech": str(root / "no_speech.tsv"),
            "negative": str(root / "negative.tsv"),
            "big_label": str(root / "big_label.tsv"),
            "huge_label": str(root / "huge_label.tsv"),
            "narrow": str(root / "narrow.tsv"), "empty": str(root / "empty.tsv"),
            "blank_text": str(root / "blank_text.tsv"),
            "blank_val_text": str(root / "blank_val_text.tsv"),
            "blank_target": str(root / "blank_target.tsv"),
            "ckpt": str(root / "checkpoint.bin"),
            "cls_ckpt": str(root / "cls_run" / "checkpoint.bin")}


TRAIN = ["train", "--epochs", "1", "--out-dir", "{out}"]
MISFITS = {
    "classification_on_translation_tsv": (TRAIN + [
        "--task", "classification", "--train-path", "{mt}", "--val-path", "{mt_val}"], "mt"),
    "translation_on_classification_tsv": (TRAIN + [
        "--task", "translation", "--train-path", "{cls}", "--val-path", "{cls_val}"], "cls"),
    "translation_with_classification_val": (TRAIN + [
        "--task", "translation", "--train-path", "{mt}", "--val-path", "{cls_val}"], "cls_val"),
    "empty_text_column": (TRAIN + [
        "--task", "translation", "--train-path", "{no_text}", "--val-path", "{mt_val}"],
        "no_text"),
    "empty_speech_column": (TRAIN + [
        "--task", "classification", "--modalities", "video,speech",
        "--train-path", "{no_speech}", "--val-path", "{cls_val}"], "no_speech"),
    "negative_class_label": (TRAIN + [
        "--task", "classification", "--train-path", "{negative}", "--val-path", "{cls_val}"],
        "negative"),
    "train_label_beyond_train_rows": (TRAIN + [
        "--task", "classification", "--train-path", "{huge_label}",
        "--val-path", "{cls_val}"], "huge_label"),
    "val_label_beyond_train_classes": (TRAIN + [
        "--task", "classification", "--train-path", "{cls}", "--val-path", "{big_label}"],
        "big_label"),
    "blank_text_train_row": (TRAIN + [
        "--task", "translation", "--train-path", "{blank_text}", "--val-path", "{mt_val}"],
        "blank_text"),
    "blank_text_val_row": (TRAIN + [
        "--task", "translation", "--train-path", "{mt}", "--val-path", "{blank_val_text}"],
        "blank_val_text"),
    "eval_blank_target_row": (
        ["eval", "--checkpoint", "{ckpt}", "--dataset", "{blank_target}"], "blank_target"),
    "empty_train_set": (TRAIN + [
        "--task", "translation", "--train-path", "{empty}", "--val-path", "{mt_val}"], "empty"),
    "ablate_translation_on_classification_tsv": (
        ["ablate", "--checkpoint", "{ckpt}", "--dataset", "{cls}",
         "--out", "{out}/abl.csv"], "cls"),
    "eval_narrow_speech": (
        ["eval", "--checkpoint", "{ckpt}", "--dataset", "{narrow}"], "narrow"),
    "eval_label_beyond_checkpoint_classes": (
        ["eval", "--checkpoint", "{cls_ckpt}", "--dataset", "{big_label}"], "big_label"),
}


@pytest.mark.parametrize("argv, bad", MISFITS.values(), ids=list(MISFITS))
def test_dataset_misfit_exit_code_1(misfit_paths, tmp_path, capsys, argv, bad):
    paths = dict(misfit_paths, out=str(tmp_path))
    rc = main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"config error: {paths[bad]}:")


def test_checkpoint_with_width_key_exit_code_1(misfit_paths, tmp_path, capsys):
    ckpt = load_checkpoint(misfit_paths["ckpt"])
    ckpt.config_text = "text_embed = 16\n" + ckpt.config_text
    old = tmp_path / "old.bin"
    save_checkpoint(old, ckpt)
    rc = main(["eval", "--checkpoint", str(old), "--dataset", misfit_paths["mt_val"]])
    assert rc == 1
    assert capsys.readouterr().err == "config error: unknown config key 'text_embed'\n"


def test_checkpoint_with_huge_max_decode_len_exit_code_1(misfit_paths, tmp_path, capsys):
    """A config block edited past the decode-length cap fails before the
    model is built, not at the decoder's (batch, max_len) buffer."""
    ckpt = load_checkpoint(misfit_paths["ckpt"])
    edited = ckpt.config_text.replace("max_decode_len = 16", "max_decode_len = 10000000000000")
    assert edited != ckpt.config_text
    ckpt.config_text = edited
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, ckpt)
    rc = main(["eval", "--checkpoint", str(bad), "--dataset", misfit_paths["mt_val"]])
    assert rc == 1
    assert capsys.readouterr().err == ("config error: max_decode_len must be >= 1 and "
                                       "<= 1024, got 10000000000000\n")


def _edit_data_block(text, edit):
    head, _, block = text.partition("[data]\n")
    return head + "[data]\n" + edit(block)


DATA_BLOCK_EDITS = {
    "no_src_vocab": ("ckpt", lambda b: "".join(
        ln for ln in b.splitlines(True) if not ln.startswith("src_vocab")), "src_vocab"),
    "no_speech_dim": ("ckpt", lambda b: "".join(
        ln for ln in b.splitlines(True) if not ln.startswith("speech_dim")), "speech_dim"),
    "misspelt_key": ("ckpt", lambda b: b.replace("speech_dim", "speech_dimm"), "speech_dimm"),
    "negative_width": ("ckpt", lambda b: b.replace("speech_dim = 16", "speech_dim = -3"),
                       "speech_dim"),
    "huge_width": ("ckpt", lambda b: b.replace("speech_dim = 16",
                                               "speech_dim = 1000000000000"), "speech_dim"),
    "wrong_width": ("ckpt", lambda b: b.replace("video_dim = 24", "video_dim = 25"),
                    "video_dim"),
    "not_a_number": ("ckpt", lambda b: b.replace("video_dim = 24", "video_dim = 2x4"),
                     "video_dim"),
    "too_many_digits": ("ckpt", lambda b: b.replace("video_dim = 24",
                                                    "video_dim = " + "1" * 5000), "video_dim"),
    "line_without_equals": ("ckpt", lambda b: "speech_dim 16\n" + b, "speech_dim 16"),
    "duplicate_key": ("ckpt", lambda b: b + "video_dim = 24\n", "video_dim"),
    "huge_class_count": ("cls_ckpt", lambda b: b.replace(
        "n_classes = 4", "n_classes = 1000000000000"), "n_classes"),
}


@pytest.mark.parametrize("which, edit, key", DATA_BLOCK_EDITS.values(),
                         ids=list(DATA_BLOCK_EDITS))
def test_malformed_data_block_exit_code_2(misfit_paths, tmp_path, capsys, monkeypatch,
                                          which, edit, key):
    ckpt = load_checkpoint(misfit_paths[which])
    edited = _edit_data_block(ckpt.config_text, edit)
    assert edited != ckpt.config_text
    ckpt.config_text = edited
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, ckpt)

    def build(*args, **kwargs):
        raise AssertionError("the model was built from a malformed [data] block")

    monkeypatch.setattr(harness, "FusionModel", build)
    dataset = misfit_paths["mt_val" if which == "ckpt" else "cls_val"]
    rc = main(["eval", "--checkpoint", str(bad), "--dataset", dataset])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("runtime error: checkpoint [data] block: ")
    assert key in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--word-drop-p", "-0.5"],
    ["eval", "--word-drop-p", "nan"],
    ["eval", "--word-drop-p", "1.5"],
    ["ablate", "--p-grid=-0.5,nan", "--out", "{out}"],
    ["ablate", "--p-grid=0.0,nan", "--out", "{out}"],
])
def test_word_drop_p_outside_unit_interval_exit_code_1(misfit_paths, tmp_path, capsys,
                                                        argv):
    out = tmp_path / "abl.csv"
    rc = main([a.format(out=out) for a in argv]
              + ["--checkpoint", misfit_paths["ckpt"], "--dataset", misfit_paths["mt_val"]])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "config error: word-drop probability must lie in [0, 1], got ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["ablate", "--p-grid", ""], "--p-grid: '' is not a number"),
    (["ablate", "--p-grid", "0.0,,0.4"], "--p-grid: '' is not a number"),
    (["ablate", "--p-grid", "0.0,x"], "--p-grid: 'x' is not a number"),
    (["ablate", "--p-grid", "0.0,0.2,1.5"],
     "word-drop probability must lie in [0, 1], got 1.5 in --p-grid"),
    (["sweep", "--lambda1-grid", ""], "--lambda1-grid: '' is not a number"),
    (["sweep", "--lambda1-grid", "0.5,"], "--lambda1-grid: '' is not a number"),
    (["sweep", "--lambda2-grid", "1.0,two"], "--lambda2-grid: 'two' is not a number"),
])
def test_bad_grid_exit_code_1_before_any_load_or_run(tmp_path, capsys, monkeypatch,
                                                     argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint was read or a model trained")

    monkeypatch.setattr("fuselab.checkpoint.load_checkpoint", refuse)
    monkeypatch.setattr(harness, "train", refuse)
    out = tmp_path / "out"
    rest = (["--checkpoint", "ckpt.bin", "--dataset", "test.tsv", "--out", str(out / "a.csv")]
            if argv[0] == "ablate" else ["--task", "translation", "--out-dir", str(out)])
    assert main(argv + rest) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("task, kind, modalities", [
    ("translation", "translation", "speech,text"),
    ("classification", "interaction", "video,text"),
])
def test_bimodal_gan_with_text_trains(tmp_path, capsys, task, kind, modalities):
    """The non-text module's one complement, the text latent, is wider than
    the fused width; every parameter that maps it there must get a gradient."""
    assert main(["gen-data", "--kind", kind, "--n", "60", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    rc = main(["train", "--task", task, "--fusion", "gan", "--modalities", modalities,
               "--epochs", "1", "--train-path", str(tmp_path / "train.tsv"),
               "--val-path", str(tmp_path / "val.tsv"),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 0, capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert f"gradcheck passed: {len(gradcheck_cases())} cases" in out


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_gradcheck_rejects_repeats_below_one(capsys, repeats):
    assert main(["gradcheck", "--repeats", repeats]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: --repeats must be >= 1, got {repeats}\n"
    assert "passed" not in captured.out


def test_fuselab_out_env_default(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("FUSELAB_OUT", str(tmp_path / "envroot"))
    rc = main(["train", "--task", "translation", "--fusion", "concat",
               "--epochs", "1",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv")])
    assert rc == 0
    assert (tmp_path / "envroot" / "checkpoint.bin").exists()


def test_sweep_writes_grid(workdir, tmp_path):
    run = tmp_path / "sweep"
    rc = main(["sweep", "--task", "translation", "--fusion", "auto",
               "--epochs", "1",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv"),
               "--out-dir", str(run),
               "--lambda1-grid", "0.5,1.0", "--lambda2-grid", "1.0"])
    assert rc == 0
    lines = (run / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,best_val_metric"
    assert len(lines) == 3
    for l1 in ("0.5", "1.0"):
        ckpt = load_checkpoint(run / f"l1_{l1}_l2_1.0" / "checkpoint.bin")
        echo = ckpt.config_text.splitlines()
        assert f"lambda1 = {l1}" in echo
        assert "epochs = 1" in echo


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks() -> list[list[str]]:
    return [block.splitlines() for block in
            re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)]


def test_readme_commands_parse():
    commands = 0
    for block in _readme_blocks():
        variables = {}
        for line in block:
            line = line.split(" #", 1)[0].strip()
            assignment = re.fullmatch(r'(\w+)="(.*)"', line)
            if assignment:
                variables[assignment[1]] = assignment[2]
            elif line.startswith("fuselab "):
                for name, value in variables.items():
                    line = line.replace("$" + name, value)
                build_parser().parse_args(shlex.split(line)[1:])
                commands += 1
    assert commands >= 13


def test_readme_config_example_parses():
    examples = [block for block in _readme_blocks()
                if block and all(re.fullmatch(r"\w+ = .+", ln) for ln in block)]
    assert examples
    names = {f.name for f in fields(ExperimentConfig)}
    for block in examples:
        assert {ln.split(" = ", 1)[0] for ln in block} <= names
        parse_config_text("\n".join(block)).validate()


def test_sweep_checks_whole_grid_before_training(workdir, tmp_path, capsys):
    run = tmp_path / "sweep"
    rc = main(["sweep", "--task", "translation", "--fusion", "auto", "--epochs", "1",
               "--train-path", str(workdir / "dsets" / "train.tsv"),
               "--val-path", str(workdir / "dsets" / "val.tsv"),
               "--out-dir", str(run), "--lambda1-grid", "0.5,-1"])
    assert rc == 1
    assert capsys.readouterr().err == "config error: lambda1 must be finite and >= 0, got -1.0\n"
    assert not run.exists()
