import hashlib
import json
import os

import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab import checkpoint as ckpt_io
from fuselab import data as data_mod
from fuselab import harness
from fuselab.autodiff import Tensor
from fuselab.config import ConfigError, ExperimentConfig
from fuselab.encoders import TextEncoder
from fuselab.layers import AdamState, adam_step
from fuselab.metrics import classification_report, corpus_bleu, silhouette


@pytest.fixture(scope="module")
def cls_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cls")
    samples = data_mod.gen_interaction_dataset(240, seed=11, noise=0.3)
    tr, va, te = data_mod.split_dataset(samples)
    paths = {}
    for name, part in (("train", tr), ("val", va), ("test", te)):
        p = root / f"{name}.tsv"
        data_mod.write_dataset(p, part)
        paths[name] = str(p)
    return paths


@pytest.fixture(scope="module")
def mt_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("mt")
    samples = data_mod.gen_toy_translation(240, seed=12, ambiguity_rate=0.3)
    tr, va, te = data_mod.split_dataset(samples)
    paths = {}
    for name, part in (("train", tr), ("val", va), ("test", te)):
        p = root / f"{name}.tsv"
        data_mod.write_dataset(p, part)
        paths[name] = str(p)
    return paths


def quick_config(paths, **kw):
    base = dict(epochs=2, batch_size=32, seed=7,
                train_path=paths["train"], val_path=paths["val"])
    base.update(kw)
    return ExperimentConfig(**base)


def test_make_batch_pads_like_a_per_row_loop(mt_paths):
    samples = data_mod.read_dataset(mt_paths["train"])[:20]
    cfg = ExperimentConfig(task="translation", modalities=("speech", "text"))
    info = harness.DataInfo.from_samples(samples, cfg.task)
    rows = harness.encode_samples(samples, cfg, info)
    rows[3]["text"] = []                      # an empty sentence
    batch = harness.make_batch(rows, cfg)
    for key, got in (("text", batch.text_ids), ("target", batch.targets)):
        want = np.full((len(rows), max(len(r[key]) for r in rows)), harness.PAD)
        for i, r in enumerate(rows):
            want[i, :len(r[key])] = r[key]
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert batch.lengths.tolist() == [len(r["text"]) for r in rows]


# -- training-loop contracts -------------------------------------------------

def test_same_seed_bit_identical_records(cls_paths):
    cfg = quick_config(cls_paths, fusion="gan")
    _, rec_a = harness.train(cfg)
    _, rec_b = harness.train(quick_config(cls_paths, fusion="gan"))
    assert rec_a.rows == rec_b.rows
    assert rec_a.steps == rec_b.steps


def test_different_seed_changes_records(cls_paths):
    _, rec_a = harness.train(quick_config(cls_paths))
    _, rec_b = harness.train(quick_config(cls_paths, seed=8))
    assert rec_a.steps != rec_b.steps


def test_loss_decomposition_identity(cls_paths):
    cfg = quick_config(cls_paths, fusion="auto", lambda1=0.7, lambda2=1.3)
    _, rec = harness.train(cfg)
    assert rec.steps
    for _, j_fusion, j_task, j_total in rec.steps:
        assert abs(j_total - (0.7 * j_fusion + 1.3 * j_task)) < 1e-12


def test_concat_fusion_loss_is_zero(cls_paths):
    _, rec = harness.train(quick_config(cls_paths, fusion="concat"))
    assert all(step[1] == 0.0 for step in rec.steps)
    for _, j_fusion, j_task, j_total in rec.steps:
        assert j_total == pytest.approx(j_task, abs=1e-15)


def test_lambda1_zero_gradient_matches_task_only(cls_paths):
    """With lambda1=0 the reconstruction term contributes nothing to grads."""
    samples = data_mod.read_dataset(cls_paths["train"])[:32]
    cfg = quick_config(cls_paths, fusion="auto")
    info = harness.DataInfo.from_samples(samples, cfg.task)
    batch = harness.make_batch(harness.encode_samples(samples, cfg, info), cfg)

    def grads(weighted):
        model = harness.FusionModel(cfg, info, np.random.default_rng(3))
        bundle = model.encode(batch)
        fused = model.fuse(bundle, None)
        j_task = model.task_loss(fused, bundle, batch, None)
        loss = Tensor(0.0) * fused.j_fusion + j_task if weighted else j_task
        loss.backward()
        return {n: np.array(t.grad) for n, t in model.parameters().items()
                if t.grad is not None}

    ga, gb = grads(True), grads(False)
    for name in gb:
        assert np.array_equal(ga[name], gb[name]), name


def test_nonfinite_loss_aborts_with_term_name():
    with pytest.raises(harness.TrainingDiverged, match="j_task"):
        harness._check_finite("j_task", float("nan"))
    with pytest.raises(harness.TrainingDiverged, match="discriminator"):
        harness._check_finite("discriminator", float("inf"))


def test_discriminator_frozen_during_task_step(cls_paths):
    """Hash discriminator parameter bytes around the generator/task update."""
    samples = data_mod.read_dataset(cls_paths["train"])[:32]
    cfg = quick_config(cls_paths, fusion="gan")
    info = harness.DataInfo.from_samples(samples, cfg.task)
    model = harness.FusionModel(cfg, info, np.random.default_rng(4))
    batch = harness.make_batch(harness.encode_samples(samples, cfg, info), cfg)
    opt = AdamState(lr=cfg.lr)
    main_params = model.non_discriminator_parameters()
    assert set(model.discriminator_parameters()) == {
        f"fusion.{m}.discriminator.fc{k}.{p}" for m in cfg.modalities
        for k in (1, 2) for p in "Wb"}

    def disc_hash():
        h = hashlib.sha256()
        for name in sorted(model.discriminator_parameters()):
            h.update(model.discriminator_parameters()[name].data.tobytes())
        return h.hexdigest()

    bundle = model.encode(batch)
    forwards = model.fusion.gan_forwards(bundle, np.random.default_rng(1))
    model.zero_grads()
    fused = model.fusion.compose(forwards)
    j_task = model.task_loss(fused, bundle, batch, None)
    before = disc_hash()
    (fused.j_fusion + j_task).backward()
    adam_step(main_params, opt)
    assert disc_hash() == before


def test_word_drop_eval_does_not_perturb_training(cls_paths, mt_paths):
    cfg = quick_config(mt_paths, task="translation", fusion="auto")
    ckpt, _ = harness.train(cfg)
    path_samples = data_mod.read_dataset(mt_paths["test"])
    model, _, info = harness.model_from_checkpoint(ckpt)
    base = harness.evaluate_model(model, info, path_samples)
    harness.evaluate_model(model, info, path_samples, word_drop_p=0.5,
                           drop_seed=3)
    again = harness.evaluate_model(model, info, path_samples)
    assert base == again


@pytest.mark.parametrize("p", [-0.5, float("nan"), 1.5])
def test_word_drop_p_outside_unit_interval_rejected_without_text(cls_paths, p):
    """A model that reads no text still rejects a probability outside [0, 1]."""
    samples = data_mod.read_dataset(cls_paths["test"])
    cfg = quick_config(cls_paths, modalities=("video", "speech"))
    info = harness.DataInfo.from_samples(samples, cfg.task)
    model = harness.FusionModel(cfg, info, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"word-drop probability must lie in \[0, 1\]"):
        harness.evaluate_model(model, info, samples, word_drop_p=p)


# -- checkpoint integration --------------------------------------------------

def test_checkpoint_round_trip_eval_bit_identical(cls_paths, tmp_path):
    cfg = quick_config(cls_paths, fusion="gan")
    ckpt, _ = harness.train(cfg)
    path = tmp_path / "c.bin"
    ckpt_io.save_checkpoint(path, ckpt)
    model_a, _, info_a = harness.model_from_checkpoint(ckpt)
    model_b, _, info_b = harness.model_from_checkpoint(
        ckpt_io.load_checkpoint(path))
    samples = data_mod.read_dataset(cls_paths["test"])
    ma = harness.evaluate_model(model_a, info_a, samples)
    mb = harness.evaluate_model(model_b, info_b, samples)
    assert ma == mb


def test_loaded_model_parameter_count_matches_fresh(cls_paths):
    cfg = quick_config(cls_paths, fusion="auto")
    ckpt, _ = harness.train(cfg)
    model, cfg2, info = harness.model_from_checkpoint(ckpt)
    fresh = harness.FusionModel(cfg2, info, np.random.default_rng(0))
    assert ({n: t.shape for n, t in model.parameters().items()}
            == {n: t.shape for n, t in fresh.parameters().items()})


def test_checkpoint_name_mismatch_rejected(cls_paths):
    cfg = quick_config(cls_paths)
    ckpt, _ = harness.train(cfg)
    ckpt.tensors["bogus.W"] = np.zeros((2, 2))
    with pytest.raises(ckpt_io.CheckpointError, match="bogus"):
        harness.model_from_checkpoint(ckpt)


def test_task_dataset_mismatch_rejected(cls_paths, mt_paths, tmp_path):
    cfg = quick_config(cls_paths)
    ckpt, _ = harness.train(cfg)
    path = tmp_path / "c.bin"
    ckpt_io.save_checkpoint(path, ckpt)
    with pytest.raises(ConfigError):
        harness.evaluate_checkpoint(path, mt_paths["test"])


def test_rng_streams_saved_and_restorable(cls_paths):
    ckpt, _ = harness.train(quick_config(cls_paths))
    for name in ("shuffle", "noise", "dropout"):
        gen = ckpt_io.generator_state_from_array(ckpt.rng[name])
        assert isinstance(gen.normal(), float)


def test_discriminator_adam_at_half_lr(cls_paths):
    ckpt, _ = harness.train(quick_config(cls_paths, fusion="gan", lr=4e-3))
    assert ckpt.optimizer["adam.hyper"][0] == 4e-3
    assert ckpt.optimizer["adam_disc.hyper"][0] == 2e-3


# -- evaluation and ablation -------------------------------------------------

def test_silhouette_only_for_gan(cls_paths):
    for fusion, expect in (("auto", False), ("gan", True)):
        ckpt, _ = harness.train(quick_config(cls_paths, fusion=fusion))
        model, _, info = harness.model_from_checkpoint(ckpt)
        m = harness.evaluate_model(model, info,
                                   data_mod.read_dataset(cls_paths["test"]))
        assert ("silhouette" in m) is expect


def test_one_topic_validation_split_trains_without_silhouette(tmp_path):
    """A set of one topic has no silhouette, so training on a val split of
    one topic runs on and logs every other val metric."""
    train, val, _ = data_mod.split_dataset(data_mod.gen_toy_translation(60, seed=1))
    assert {s.topic for s in val} == {0} and len({s.topic for s in train}) > 1
    paths = {"train": str(tmp_path / "train.tsv"), "val": str(tmp_path / "val.tsv")}
    data_mod.write_dataset(paths["train"], train)
    data_mod.write_dataset(paths["val"], val)
    _, record = harness.train(quick_config(paths, task="translation", fusion="gan"))
    val_metrics = {metric for _, split, metric, _ in record.rows if split == "val"}
    assert "bleu4" in val_metrics and "silhouette" not in val_metrics


def test_eval_encodes_each_batch_once(mt_paths, monkeypatch):
    """The silhouette's text z_g comes from the forward that predicts."""
    samples = data_mod.read_dataset(mt_paths["test"])
    cfg = quick_config(mt_paths, task="translation", fusion="gan")
    info = harness.DataInfo.from_samples(
        data_mod.read_dataset(mt_paths["train"]), cfg.task)
    model = harness.FusionModel(cfg, info, np.random.default_rng(3))

    calls = {"infer": 0, "encode": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TextEncoder, "infer", counted("infer", TextEncoder.infer))
    monkeypatch.setattr(harness.FusionModel, "encode",
                        counted("encode", harness.FusionModel.encode))
    monkeypatch.setattr(harness, "EVAL_BATCH", 10)
    metrics = harness.evaluate_model(model, info, samples)
    monkeypatch.undo()
    n_batches = -(-len(samples) // 10)
    assert n_batches > 1 and calls == {"infer": n_batches, "encode": 0}

    rows = harness.encode_samples(samples, cfg, info)
    z_g = [model.fusion.modules["text"].gan_forward(
               model.encode(harness.make_batch(rows[i:i + 10], cfg)), None).z_g.data
           for i in range(0, len(rows), 10)]
    topics = np.array([s.topic for s in samples])
    assert metrics["silhouette"] == silhouette(np.vstack(z_g), topics)


def _input_order_eval(model, info, samples, word_drop_p, drop_seed):
    """evaluate_model as it was before length ordering: batches of
    EVAL_BATCH rows in input order, each encoded by the graph forward.
    Returns the metrics and the predictions they were scored from."""
    cfg = model.cfg
    rows = harness.encode_samples(samples, cfg, info)
    if word_drop_p > 0.0 and "text" in cfg.modalities:
        drop_rng = np.random.default_rng([cfg.seed, 7, drop_seed])
        for r in rows:
            r["text"] = data_mod.apply_word_drop(r["text"], word_drop_p, drop_rng)
    preds, text_zg = [], []
    for start in range(0, len(rows), harness.EVAL_BATCH):
        batch = harness.make_batch(rows[start:start + harness.EVAL_BATCH], cfg)
        bundle = model.encode(batch)
        z_g = model.fusion.generate(bundle) if cfg.fusion == "gan" else {}
        z_fuse = model.fusion.project(z_g) if z_g else model.fuse(bundle, None).z_fuse
        if cfg.task == "classification":
            preds.extend(model.head(z_fuse).data.argmax(axis=1))
        else:
            preds.extend(model.decoder.decode_greedy(
                z_fuse, bundle.text_states, bundle.text_mask, cfg.max_decode_len))
        if "text" in z_g:
            text_zg.append(z_g["text"].data)
    if cfg.task == "classification":
        p, r, f1, acc = classification_report(
            preds, [r["label"] for r in rows], info.n_classes)
        metrics = dict(precision=p, recall=r, f1=f1, accuracy=acc)
    else:
        report = corpus_bleu(preds, [r["target"][:-1] for r in rows])
        metrics = dict(bleu1=report.bleu1, bleu2=report.bleu2, bleu3=report.bleu3,
                       bleu4=report.bleu4, brevity_penalty=report.brevity_penalty)
    topics = np.array([r["topic"] for r in rows])
    if text_zg and len(np.unique(topics)) >= 2:
        metrics["silhouette"] = silhouette(np.vstack(text_zg), topics)
    return metrics, preds


@pytest.mark.parametrize("task, fusion, modalities, word_drop_p", [
    ("translation", "gan", ("video", "speech", "text"), 0.0),
    ("translation", "gan", ("video", "speech", "text"), 0.4),
    ("classification", "gan", ("video", "speech", "text"), 0.0),
    ("classification", "gan", ("video", "speech"), 0.0),
], ids=["translation", "translation_word_drop", "classification", "classification_no_text"])
def test_eval_in_length_order_equals_input_order_loop(mt_paths, cls_paths, monkeypatch,
                                                      task, fusion, modalities, word_drop_p):
    """Batches cut longest source first score the same predictions, in the
    same order, and the same metrics, as input-order batches."""
    paths = mt_paths if task == "translation" else cls_paths
    cfg = quick_config(paths, task=task, fusion=fusion, modalities=modalities)
    info = harness.DataInfo.from_samples(data_mod.read_dataset(paths["train"]), task)
    model = harness.FusionModel(cfg, info, np.random.default_rng(3))
    samples = data_mod.read_dataset(paths["test"])
    monkeypatch.setattr(harness, "EVAL_BATCH", 5)
    want, want_preds = _input_order_eval(model, info, samples, word_drop_p, 3)

    scorer = "classification_report" if task == "classification" else "corpus_bleu"
    scored, score = [], getattr(harness, scorer)
    monkeypatch.setattr(harness, scorer,
                        lambda preds, *rest: scored.append(preds) or score(preds, *rest))
    got = harness.evaluate_model(model, info, samples, word_drop_p=word_drop_p, drop_seed=3)
    assert scored == [want_preds]
    assert got == want and ("silhouette" in got) == ("text" in modalities)


def test_classification_metric_keys(cls_paths):
    ckpt, _ = harness.train(quick_config(cls_paths))
    model, _, info = harness.model_from_checkpoint(ckpt)
    m = harness.evaluate_model(model, info,
                               data_mod.read_dataset(cls_paths["test"]))
    assert {"precision", "recall", "f1", "accuracy"} <= set(m)


def test_translation_metric_keys(mt_paths):
    cfg = quick_config(mt_paths, task="translation", fusion="auto")
    ckpt, _ = harness.train(cfg)
    model, _, info = harness.model_from_checkpoint(ckpt)
    m = harness.evaluate_model(model, info,
                               data_mod.read_dataset(mt_paths["test"]))
    assert {"bleu1", "bleu2", "bleu3", "bleu4"} <= set(m)


def test_ablate_requires_translation(cls_paths):
    ckpt, _ = harness.train(quick_config(cls_paths))
    model, _, info = harness.model_from_checkpoint(ckpt)
    with pytest.raises(ConfigError):
        harness.ablate(model, info, data_mod.read_dataset(cls_paths["test"]))


def test_ablate_single_point_equals_evaluate(mt_paths):
    cfg = quick_config(mt_paths, task="translation", fusion="auto")
    ckpt, _ = harness.train(cfg)
    model, _, info = harness.model_from_checkpoint(ckpt)
    samples = data_mod.read_dataset(mt_paths["test"])
    rows = harness.ablate(model, info, samples, p_grid=[0.0])
    direct = harness.evaluate_model(model, info, samples)
    assert rows[0][1:] == (direct["bleu1"], direct["bleu2"],
                           direct["bleu3"], direct["bleu4"])


def test_ablation_csv_format(mt_paths, tmp_path):
    cfg = quick_config(mt_paths, task="translation", fusion="auto")
    ckpt, _ = harness.train(cfg)
    model, _, info = harness.model_from_checkpoint(ckpt)
    rows = harness.ablate(model, info, data_mod.read_dataset(mt_paths["test"]),
                          p_grid=[0.0, 0.3])
    path = tmp_path / "abl.csv"
    harness.write_ablation_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,bleu1,bleu2,bleu3,bleu4"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")


# -- RunRecord ----------------------------------------------------------------

def test_run_record_monotone_epochs():
    rec = harness.RunRecord()
    rec.log(0, "train", "j_total", 1.0)
    rec.log(1, "val", "accuracy", 0.5)
    with pytest.raises(ValueError):
        rec.log(0, "train", "j_total", 0.9)


def test_run_record_csv_and_summary(tmp_path):
    rec = harness.RunRecord()
    rec.log(0, "train", "j_total", 1.25)
    rec.summary = {"best_epoch": 0}
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "s.json"
    rec.write_csv(csv_path)
    rec.write_summary(json_path)
    assert csv_path.read_text() == "epoch,split,metric,value\n0,train,j_total,1.25\n"
    assert json.loads(json_path.read_text()) == {"best_epoch": 0}


def test_early_stopping_restores_best(cls_paths):
    cfg = quick_config(cls_paths, epochs=8, patience=1, lr=0.01)
    ckpt, rec = harness.train(cfg)
    epochs_run, best = rec.summary["epochs_run"], rec.summary["best_val_metric"]
    assert rec.summary["best_epoch"] == epochs_run - 2 < epochs_run < cfg.epochs
    val_acc = {e: v for e, split, m, v in rec.rows if (split, m) == ("val", "accuracy")}
    assert val_acc[rec.summary["best_epoch"]] == best != val_acc[epochs_run - 1]
    model, _, info = harness.model_from_checkpoint(ckpt)
    val = data_mod.read_dataset(cls_paths["val"])
    assert harness.evaluate_model(model, info, val)["accuracy"] == best

    # each epoch's train rows are the means of that epoch's steps
    per_epoch = len(rec.steps) // epochs_run
    for e in range(epochs_run):
        steps = np.array(rec.steps[e * per_epoch:(e + 1) * per_epoch])
        rows = {m: v for epoch, split, m, v in rec.rows if (epoch, split) == (e, "train")}
        assert [rows[m] for m in ("j_fusion", "j_task", "j_total")] == \
            [float(np.mean(col)) for col in steps[:, 1:].T]
