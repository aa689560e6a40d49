"""The three benchmark workloads: set-up, one timed op, and its checks.

Each workload object is built with the data seed and a scratch directory.
``setup()`` makes the inputs (the runner times it), ``op()`` is the unit of
timed work and returns the number of items it processed, ``check()`` verifies
the outputs of the op that just ran against ``reference``, and
``gradient_check()`` runs once per run. Checks raise ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

import reference as ref
from fuselab import checkpoint as ckpt_io
from fuselab import cli, harness
from fuselab import data as data_mod
from fuselab.autodiff import Tensor
from fuselab.config import ExperimentConfig
from reference import CheckFailed, close, require

EVAL_BATCH = 64          # evaluate_model's default batch
METRIC_TOL = 1e-9
IDENTITY_TOL = 1e-12
# Settings of the acceptance suite's ambiguous GAN-Fusion translation model.
AMB_GAN = dict(task="translation", fusion="gan", modalities=("video", "speech", "text"),
               batch_size=32, lr=2e-3, lambda1=0.2, noise_sigma=0.0, seed=0)
AMB_RATE, AMB_SKEW = 0.3, 0.6
TRANSLATION_KEYS = ["bleu4", "bleu1", "bleu2", "bleu3", "brevity_penalty", "silhouette"]


def _tensor_digest(ckpt) -> str:
    """Hash of a checkpoint's arrays. The config echo is left out: it names
    the run's own file paths."""
    digest = hashlib.sha256()
    for block in (ckpt.tensors, ckpt.optimizer, ckpt.rng):
        for name, arr in block.items():
            digest.update(name.encode() + arr.tobytes())
    return digest.hexdigest()


def _params(model) -> dict[str, np.ndarray]:
    p = {n: t.data.copy() for n, t in model.parameters().items()}
    p.update({n: b.copy() for n, b in model.buffers().items()})
    return p


def _vocab_maps(info):
    src = info.src_vocab.token_to_id if info.src_vocab else {}
    tgt = info.tgt_vocab.token_to_id if info.tgt_vocab else None
    return src, tgt


def program_predictions(model, cfg, info, samples) -> list:
    """The program's own predictions, batched as evaluate_model batches them."""
    rows = harness.encode_samples(samples, cfg, info)
    preds: list = []
    for start in range(0, len(rows), EVAL_BATCH):
        preds.extend(model.predict(harness.make_batch(rows[start:start + EVAL_BATCH], cfg)))
    return preds


def verify_model(model, cfg, info, samples) -> dict:
    """Reference metrics of a model on samples, after checking its predictions."""
    require(ref.supported(cfg), "configuration outside the reference's coverage")
    p = _params(model)
    src, tgt = _vocab_maps(info)
    batches = [ref.encode_batch(samples[s:s + EVAL_BATCH], cfg, src, tgt)
               for s in range(0, len(samples), EVAL_BATCH)]
    return ref.evaluate(p, cfg, batches, program_predictions(model, cfg, info, samples))


def compare_metrics(program: dict, reference: dict, keys) -> None:
    for k in keys:
        require(k in program and close(program[k], reference[k], METRIC_TOL),
                f"{k}: program {program.get(k)!r}, reference {reference[k]!r}")


def gradient_check(model, cfg, info, samples, seed: int) -> None:
    """Central-difference directional derivative of one batch's J_total
    (reference forward) against the program's autodiff gradient."""
    rows = harness.encode_samples(samples, cfg, info)
    batch = harness.make_batch(rows, cfg)
    model.zero_grads()
    bundle = model.encode(batch)
    fused = model.fuse(bundle, None)
    j_task = model.task_loss(fused, bundle, batch, None)
    j = Tensor(cfg.lambda1) * fused.j_fusion + Tensor(cfg.lambda2) * j_task
    j.backward()

    rng = np.random.default_rng(seed)
    params = model.non_discriminator_parameters()
    direction = {n: rng.normal(size=t.shape) for n, t in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((t.grad * direction[n]).sum()) / norm
                   for n, t in params.items() if t.grad is not None)
    model.zero_grads()

    p = _params(model)
    src, tgt = _vocab_maps(info)
    rb = ref.encode_batch(samples, cfg, src, tgt)
    require(close(ref.j_total(p, cfg, rb), j.item(), 1e-10),
            f"J_total: program {j.item()!r}, reference {ref.j_total(p, cfg, rb)!r}")
    h = 1e-5

    def shifted(sign):
        q = dict(p)
        for n, d in direction.items():
            q[n] = p[n] + sign * h * d / norm
        return ref.j_total(q, cfg, rb)

    numeric = (shifted(1.0) - shifted(-1.0)) / (2 * h)
    require(abs(numeric - analytic) <= 1e-7 + 1e-5 * abs(analytic),
            f"directional derivative: autodiff {analytic!r}, central difference {numeric!r}")


def _fresh_paths(parent: str, prefix: str) -> dict[str, str]:
    """train/val TSV paths in a new numbered directory under parent."""
    n = sum(name.startswith(prefix) for name in os.listdir(parent))
    d = os.path.join(parent, f"{prefix}{n}")
    os.makedirs(d)
    return {k: os.path.join(d, f"{k}.tsv") for k in ("train", "val")}


class TrainWorkload:
    """One op is one ``fuselab train`` run, called in-process via cli.main.

    Every set-up and every op writes into a directory of its own, as a
    first run in a fresh checkout does. Rewriting the same files instead
    makes ext4 flush the old data on each rewrite, which was both slower and
    noisier in trials.
    """

    per_step = True
    # set-up takes well under a second, so it is repeated often enough
    # for its median to rise above timer and allocator jitter
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.count = 0
        self.out = self.checked = None
        self.verified: dict[str, dict] = {}
        self.ties = 0

    def make_samples(self) -> list:
        raise NotImplementedError

    def config(self) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.paths = _fresh_paths(self.dir, "setup")
        train, val, _ = data_mod.split_dataset(self.make_samples())
        data_mod.write_dataset(self.paths["train"], train)
        data_mod.write_dataset(self.paths["val"], val)
        self.train, self.val = train, val

    @property
    def argv(self) -> list[str]:
        cfg = self.config()
        flags = {"task": cfg.task, "fusion": cfg.fusion,
                 "modalities": ",".join(cfg.modalities), "batch-size": cfg.batch_size,
                 "lr": cfg.lr, "lambda1": cfg.lambda1, "noise-sigma": cfg.noise_sigma,
                 "epochs": cfg.epochs, "patience": cfg.patience, "seed": cfg.seed,
                 "train-path": self.paths["train"], "val-path": self.paths["val"],
                 "out-dir": self.out}
        return ["train"] + [x for k, v in flags.items() for x in (f"--{k}", str(v))]

    @property
    def ckpt_path(self) -> str:
        return os.path.join(self.out, "checkpoint.bin")

    def op(self) -> int:
        self.count += 1
        self.out = os.path.join(self.dir, f"op{self.count}")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv)
        if rc != 0:
            raise CheckFailed(f"fuselab train exited with {rc}")
        return len(self.train) * self.config().epochs

    def _read_outputs(self):
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        rows: dict[tuple[int, str], dict[str, float]] = {}
        with open(os.path.join(self.out, "metrics.csv"), encoding="utf-8") as fh:
            require(fh.readline().strip() == "epoch,split,metric,value", "metrics.csv header")
            for line in fh:
                epoch, split, metric, value = line.strip().split(",")
                rows.setdefault((int(epoch), split), {})[metric] = float(value)
        return summary, rows

    def check(self) -> None:
        cfg = self.config()
        summary, rows = self._read_outputs()
        require(summary["epochs_run"] == cfg.epochs, f"ran {summary['epochs_run']} epochs")
        train_rows = [rows[(e, "train")] for e in range(cfg.epochs)]
        for r in train_rows:
            for k in ("j_fusion", "j_task", "j_total"):
                require(math.isfinite(r[k]), f"non-finite {k}")
            want = cfg.lambda1 * r["j_fusion"] + cfg.lambda2 * r["j_task"]
            require(abs(r["j_total"] - want) <= IDENTITY_TOL,
                    f"J_total {r['j_total']!r} != {want!r}")
        require(train_rows[-1]["j_task"] < train_rows[0]["j_task"], "J_task did not fall")

        ckpt = ckpt_io.load_checkpoint(self.ckpt_path)
        digest = _tensor_digest(ckpt)
        if digest not in self.verified:
            model, mcfg, info = harness.model_from_checkpoint(ckpt)
            self.verified[digest] = verify_model(model, mcfg, info, self.val)
            self.ties += self.verified[digest]["ties"]
        expected = self.verified[digest]
        best = rows[(summary["best_epoch"], "val")]
        compare_metrics(best, expected, self.metric_keys)
        require(close(summary["best_val_metric"], expected[self.metric_keys[0]], METRIC_TOL),
                f"best_val_metric {summary['best_val_metric']!r}, "
                f"reference {expected[self.metric_keys[0]]!r}")
        if self.checked:
            shutil.rmtree(self.checked)
        self.checked = self.out

    def gradient_check(self) -> None:
        model, cfg, info = harness.model_from_checkpoint(ckpt_io.load_checkpoint(self.ckpt_path))
        gradient_check(model, cfg, info, self.train[:cfg.batch_size], self.seed)

    def describe(self) -> str:
        return (f"{len(self.train)} train / {len(self.val)} val samples, "
                f"{self.config().epochs} epochs per op")


class TranslationGanTrain(TrainWorkload):
    name = "translation_gan_train"
    metric_keys = TRANSLATION_KEYS

    def make_samples(self):
        return data_mod.gen_toy_translation(300, seed=self.seed, ambiguity_rate=AMB_RATE,
                                            topic_skew=AMB_SKEW)

    def config(self):
        return ExperimentConfig(**AMB_GAN, epochs=3, patience=3)


class XorGanTrain(TrainWorkload):
    name = "xor_gan_train"
    metric_keys = ["accuracy"]

    def make_samples(self):
        return data_mod.gen_interaction_dataset(1000, seed=self.seed, noise=0.3)

    def config(self):
        return ExperimentConfig(task="classification", fusion="gan",
                                modalities=("video", "speech"), batch_size=32,
                                lr=1e-3, noise_sigma=1.0, lambda1=1.0, seed=0,
                                epochs=3, patience=3)


class TranslationGanEval:
    """One op is ``harness.evaluate_model`` over one held-out chunk.

    The checkpoint comes from a fixed corpus (seed 22, as the acceptance
    suite's ambiguous corpus), so every data seed evaluates the same model;
    the seed draws which held-out sentences of that corpus form the chunks.
    A model trained per seed would decode with different lengths and make
    the op time depend on how well that seed's model trained.
    """

    name = "translation_gan_eval"
    per_step = False
    setup_repeats = 3
    CORPUS_SEED = 22
    N_TRAIN, N_VAL, POOL = 480, 60, 4800
    CHUNK, CHUNKS = 240, 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.digests: list[str] = []
        self.verified: dict[int, dict] = {}
        self.ties = 0
        self.next_chunk = 0

    def config(self):
        return ExperimentConfig(**dict(AMB_GAN, lr=1e-2), epochs=8, patience=8,
                                train_path=self.paths["train"], val_path=self.paths["val"])

    def setup(self) -> None:
        self.paths = _fresh_paths(self.dir, "setup")
        self.ckpt_path = os.path.join(os.path.dirname(self.paths["train"]), "checkpoint.bin")
        corpus = data_mod.gen_toy_translation(
            self.N_TRAIN + self.N_VAL + self.POOL, seed=self.CORPUS_SEED,
            ambiguity_rate=AMB_RATE, topic_skew=AMB_SKEW)
        data_mod.write_dataset(self.paths["train"], corpus[:self.N_TRAIN])
        data_mod.write_dataset(self.paths["val"], corpus[self.N_TRAIN:self.N_TRAIN + self.N_VAL])
        pool = corpus[self.N_TRAIN + self.N_VAL:]
        pick = np.random.default_rng(self.seed).choice(
            len(pool), size=self.CHUNK * self.CHUNKS, replace=False)
        self.chunks = [[pool[i] for i in pick[k * self.CHUNK:(k + 1) * self.CHUNK]]
                       for k in range(self.CHUNKS)]
        ckpt, _ = harness.train(self.config())
        ckpt_io.save_checkpoint(self.ckpt_path, ckpt)
        loaded = ckpt_io.load_checkpoint(self.ckpt_path)
        self.model, self.cfg, self.info = harness.model_from_checkpoint(loaded)
        self.digests.append(_tensor_digest(loaded))

    def check_setup(self) -> None:
        require(len(set(self.digests)) == 1, "repeated set-ups trained different tensors")

    def op(self) -> int:
        k = self.next_chunk % self.CHUNKS
        self.last = (k, harness.evaluate_model(self.model, self.info, self.chunks[k]))
        self.next_chunk += 1
        return len(self.chunks[k])

    def check(self) -> None:
        k, metrics = self.last
        if k not in self.verified:
            self.verified[k] = verify_model(self.model, self.cfg, self.info, self.chunks[k])
            self.ties += self.verified[k]["ties"]
        compare_metrics(metrics, self.verified[k], TRANSLATION_KEYS)

    def gradient_check(self) -> None:
        gradient_check(self.model, self.cfg, self.info, self.chunks[0][:32], self.seed)

    def describe(self) -> str:
        return (f"checkpoint: {self.N_TRAIN} train / {self.N_VAL} val samples of corpus seed "
                f"{self.CORPUS_SEED}, {self.config().epochs} epochs at lr {self.config().lr}; "
                f"{self.CHUNKS} held-out chunks of {self.CHUNK} sentences drawn by the seed")


WORKLOADS = {w.name: w for w in (TranslationGanTrain, XorGanTrain, TranslationGanEval)}
