import json
import os
import struct

import pytest

from fuselab.checkpoint import load_checkpoint
from fuselab.cli import main
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


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert f"gradcheck passed: {len(gradcheck_cases())} cases" in out


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
