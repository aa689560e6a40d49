"""Training loop, evaluation, ablation sweeps, and run bookkeeping.

A run's state is one TrainState: train builds it, runs train_step per batch
and end_epoch per epoch (validation, best tensors, early stopping), and
returns to_checkpoint's checkpoint. The objective per batch is
lambda1 * J_fusion + lambda2 * J_task. With GAN fusion each batch first
takes one discriminator Adam step at lr / 2, then one Adam step over every
non-discriminator parameter.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from . import layers
from .autodiff import Tensor
from .autofusion import AutoFusionNet, FusionOutput
from .config import ConfigError, ExperimentConfig, config_to_text, parse_config_text
from .data import RawSample, apply_word_drop, read_dataset
from .encoders import MODALITIES, LatentBundle, TextEncoder, VectorEncoder
from .ganfusion import GanFusionStack
from .heads import AttentiveDecoder, ClassifierHead
from .layers import AdamState, adam_step, dropout
from .metrics import classification_report, corpus_bleu, silhouette
from .vocab import EOS, PAD, Vocabulary


@dataclass
class DataInfo:
    """Everything beyond the config needed to rebuild a model for a dataset."""

    n_classes: int = 0
    src_vocab: Vocabulary | None = None
    tgt_vocab: Vocabulary | None = None
    speech_dim: int = 0
    video_dim: int = 0

    @classmethod
    def from_samples(cls, samples: list[RawSample], task: str) -> "DataInfo":
        info = cls()
        texts = [s.text_tokens for s in samples if s.text_tokens]
        if texts:
            info.src_vocab = Vocabulary.from_corpus(texts)
        if task == "classification":
            info.n_classes = max(s.label for s in samples) + 1
        else:
            info.tgt_vocab = Vocabulary.from_corpus(
                s.target_tokens for s in samples)
        for s in samples:
            if s.speech is not None:
                info.speech_dim = len(s.speech)
            if s.video is not None:
                info.video_dim = len(s.video)
        return info

    def to_text(self) -> str:
        lines = [f"n_classes = {self.n_classes}",
                 f"speech_dim = {self.speech_dim}",
                 f"video_dim = {self.video_dim}"]
        if self.src_vocab is not None:
            lines.append("src_vocab = " + " ".join(self.src_vocab.id_to_token[4:]))
        if self.tgt_vocab is not None:
            lines.append("tgt_vocab = " + " ".join(self.tgt_vocab.id_to_token[4:]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DataInfo":
        """Parse a checkpoint's [data] block. A line that is not `key = value`
        with a field name seen once, or a count that is not a u32, raises
        CheckpointError."""
        info, seen = cls(), set()
        for line in filter(str.strip, text.splitlines()):
            key, eq, raw = (x.strip() for x in line.partition("="))
            if not eq or key in seen or key not in {f.name for f in fields(cls)}:
                raise ckpt_io.CheckpointError(
                    f"checkpoint [data] block: unknown, repeated or malformed line {line!r:.60}")
            seen.add(key)
            if key.endswith("_vocab"):
                setattr(info, key, Vocabulary(raw.split()))
            elif raw.isdecimal() and len(raw) <= 10:  # a stored dim is a u32
                setattr(info, key, int(raw))
            else:
                raise ckpt_io.CheckpointError(
                    f"checkpoint [data] block: {key} = {raw!r:.60} is not a u32 count")
        return info


@dataclass
class Batch:
    text_ids: np.ndarray | None = None      # (b, L)
    lengths: np.ndarray | None = None
    speech: np.ndarray | None = None
    video: np.ndarray | None = None
    labels: np.ndarray | None = None
    targets: np.ndarray | None = None       # (b, T), EOS-terminated, PAD-filled


def encode_samples(samples: list[RawSample], cfg: ExperimentConfig,
                   info: DataInfo) -> list[dict]:
    encoded = []
    for s in samples:
        row: dict = {"topic": s.topic}
        if "text" in cfg.modalities:
            row["text"] = info.src_vocab.encode(s.text_tokens)
        if "speech" in cfg.modalities:
            row["speech"] = s.speech
        if "video" in cfg.modalities:
            row["video"] = s.video
        if cfg.task == "classification":
            row["label"] = s.label
        else:
            row["target"] = info.tgt_vocab.encode(s.target_tokens) + [EOS]
        encoded.append(row)
    return encoded


def _padded(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token lists as a PAD-filled (b, longest) int64 matrix, and their lengths."""
    lengths = np.array([len(s) for s in seqs])
    ids = np.full((len(seqs), int(lengths.max())), PAD, dtype=np.int64)
    # a boolean mask fills row by row, the order in which the lists chain
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    return ids, lengths


def make_batch(rows: list[dict], cfg: ExperimentConfig) -> Batch:
    b = Batch()
    if "text" in cfg.modalities:
        b.text_ids, b.lengths = _padded([r["text"] for r in rows])
    if "speech" in cfg.modalities:
        b.speech = np.array([r["speech"] for r in rows])
    if "video" in cfg.modalities:
        b.video = np.array([r["video"] for r in rows])
    if cfg.task == "classification":
        b.labels = np.array([r["label"] for r in rows])
    else:
        b.targets = _padded([r["target"] for r in rows])[0]
    return b


# Layer widths. The fusion networks are lightweight and of fixed size, so
# every model is built at these; the layer classes still take explicit widths.
TEXT_EMBED = 16
TEXT_HIDDEN = 64
SPEECH_LATENT = 32
VIDEO_LATENT = 32
D_FUSE = 32          # Auto-Fusion bottleneck; GAN-Fusion z_g and fused width
DISC_HIDDEN = 32
HEAD_HIDDEN = 64
DEC_EMBED = 24
DEC_HIDDEN = 64


class FusionModel(layers.Module):
    """Encoders -> fusion -> task head, assembled from one config."""

    def __init__(self, cfg: ExperimentConfig, info: DataInfo,
                 rng: np.random.Generator):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.info = info
        dims: dict[str, int] = {}
        if "video" in cfg.modalities:
            self.video_enc = self.add_child(
                "video_enc", VectorEncoder(info.video_dim, VIDEO_LATENT, rng))
            dims["video"] = VIDEO_LATENT
        if "speech" in cfg.modalities:
            self.speech_enc = self.add_child(
                "speech_enc", VectorEncoder(info.speech_dim, SPEECH_LATENT, rng))
            dims["speech"] = SPEECH_LATENT
        if "text" in cfg.modalities:
            self.text_enc = self.add_child(
                "text_enc", TextEncoder(len(info.src_vocab), TEXT_EMBED,
                                        TEXT_HIDDEN, rng))
            dims["text"] = TEXT_HIDDEN
        self.latent_dims = dims

        if cfg.fusion == "concat":
            self.d_fuse = sum(dims.values())
            self.fusion = None
        elif cfg.fusion == "auto":
            self.d_fuse = D_FUSE
            ordered = [dims[m] for m in MODALITIES if m in dims]
            self.fusion = self.add_child(
                "fusion", AutoFusionNet(ordered, D_FUSE, rng))
        else:
            self.d_fuse = D_FUSE
            self.fusion = self.add_child(
                "fusion", GanFusionStack(dims, D_FUSE, cfg.d_noise, DISC_HIDDEN,
                                         cfg.noise_sigma, rng, cfg.saturating_gan))

        if cfg.task == "classification":
            self.head = self.add_child(
                "head", ClassifierHead(self.d_fuse, HEAD_HIDDEN, info.n_classes,
                                       rng, cfg.classification_loss))
        else:
            self.decoder = self.add_child(
                "decoder", AttentiveDecoder(
                    len(info.tgt_vocab), DEC_EMBED, DEC_HIDDEN,
                    TEXT_HIDDEN, self.d_fuse, rng,
                    condition_every_step=cfg.condition_every_step))

    # -- forward pieces ------------------------------------------------------
    def encode(self, batch: Batch) -> LatentBundle:
        return self._encode(batch, inference=False)

    def _encode(self, batch: Batch, inference: bool) -> LatentBundle:
        """The latents of every present modality; with inference, text runs
        through the encoder's graph-free forward."""
        latents: dict[str, Tensor] = {}
        states = mask = None
        if "video" in self.latent_dims:
            latents["video"] = self.video_enc(batch.video)
        if "speech" in self.latent_dims:
            latents["speech"] = self.speech_enc(batch.speech)
        if "text" in self.latent_dims:
            text_forward = self.text_enc.infer if inference else self.text_enc
            z, states, mask = text_forward(batch.text_ids, batch.lengths)
            latents["text"] = z
        return LatentBundle(latents=latents, text_states=states, text_mask=mask)

    def fuse(self, bundle: LatentBundle,
             noise_rng: np.random.Generator | None) -> FusionOutput:
        if self.cfg.fusion == "gan":
            return self.fusion.fuse(bundle, noise_rng)
        ordered = [bundle.latents[m] for m in MODALITIES if m in bundle.latents]
        if self.cfg.fusion == "auto":
            return self.fusion(ordered)
        z = ad.concat(ordered, axis=1) if len(ordered) > 1 else ordered[0]
        return FusionOutput(z_fuse=z, j_fusion=Tensor(0.0))

    def task_loss(self, fused: FusionOutput, bundle: LatentBundle, batch: Batch,
                  drop_rng: np.random.Generator | None) -> Tensor:
        """J_task of the fused vector; dropout applies to it only when
        drop_rng is given, as in training, and dropout_p > 0."""
        z = fused.z_fuse
        if self.cfg.dropout_p > 0.0 and drop_rng is not None:
            z = dropout(z, self.cfg.dropout_p, drop_rng)
        if self.cfg.task == "classification":
            return self.head.loss(self.head(z), batch.labels)
        return self.decoder.teacher_forced_loss(
            z, bundle.text_states, bundle.text_mask, batch.targets)

    def predict(self, batch: Batch) -> list:
        """Deterministic inference: no GAN noise, no dropout."""
        return self._predict(batch)[0]

    def _predict(self, batch: Batch) -> tuple[list, dict[str, Tensor]]:
        """Predictions plus the GAN-Fusion generator outputs z_g they were
        made from (empty for other fusions). No fusion loss is computed."""
        bundle = self._encode(batch, inference=True)
        z_g: dict[str, Tensor] = {}
        if self.cfg.fusion == "gan":
            z_g = self.fusion.generate(bundle)
            z_fuse = self.fusion.project(z_g)
        else:
            z_fuse = self.fuse(bundle, None).z_fuse
        if self.cfg.task == "classification":
            return list(self.head(z_fuse).data.argmax(axis=1)), z_g
        return self.decoder.decode_greedy(
            z_fuse, bundle.text_states, bundle.text_mask,
            self.cfg.max_decode_len), z_g

    def non_discriminator_parameters(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.parameters().items()
                if ".discriminator." not in n}

    def discriminator_parameters(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.parameters().items()
                if ".discriminator." in n}


@dataclass
class RunRecord:
    """Append-only log of one training run."""

    rows: list[tuple[int, str, str, float]] = field(default_factory=list)
    steps: list[tuple[int, float, float, float]] = field(default_factory=list)
    disc_accuracy: list[float] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def log(self, epoch: int, split: str, metric: str, value: float) -> None:
        if self.rows and epoch < self.rows[-1][0]:
            raise ValueError("epoch numbering must be monotone")
        self.rows.append((epoch, split, metric, float(value)))

    def log_step(self, step: int, j_fusion: float, j_task: float,
                 j_total: float) -> None:
        self.steps.append((step, j_fusion, j_task, j_total))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,split,metric,value\n")
            for epoch, split, metric, value in self.rows:
                fh.write(f"{epoch},{split},{metric},{value!r}\n")

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


class TrainingDiverged(RuntimeError):
    """A loss term became non-finite."""


def _check_finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(f"non-finite loss term {name}: {value}")


@dataclass
class TrainState:
    """Everything a training run carries from one step to the next."""

    model: FusionModel
    info: DataInfo
    rngs: dict[str, np.random.Generator]    # shuffle, noise, dropout: the checkpoint's order
    opt: AdamState
    disc_opt: AdamState
    main_params: dict[str, Tensor]
    disc_params: dict[str, Tensor]
    # listed once, so a step clears grads without walking the module tree
    all_params: list[Tensor]
    record: RunRecord = field(default_factory=RunRecord)
    step: int = 0
    epoch: int = 0
    best_metric: float = -np.inf
    best_epoch: int = -1
    best_tensors: dict[str, np.ndarray] = field(default_factory=dict)
    stale: int = 0

    @classmethod
    def start(cls, cfg: ExperimentConfig, info: DataInfo,
              train_raw: list[RawSample]) -> "TrainState":
        """A fresh run from cfg.seed, vector encoders normalised on train_raw."""
        rngs = dict(zip(("init", "shuffle", "noise", "dropout"),
                        map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(4))))
        model = FusionModel(cfg, info, rngs.pop("init"))
        for m in ("speech", "video"):
            if m in cfg.modalities:
                getattr(model, f"{m}_enc").fit_normalization(
                    np.array([getattr(s, m) for s in train_raw]))
        main, disc = model.non_discriminator_parameters(), model.discriminator_parameters()
        return cls(model=model, info=info, rngs=rngs, opt=AdamState(lr=cfg.lr),
                   disc_opt=AdamState(lr=cfg.lr / 2.0), main_params=main,
                   disc_params=disc, all_params=[*main.values(), *disc.values()])


def train_step(state: TrainState, batch: Batch) -> None:
    """One batch. Grads are cleared once, up front: the discriminator loss
    detaches its inputs and the generator loss freezes D, so neither backward
    reaches the other step's parameters."""
    model, cfg = state.model, state.model.cfg
    for t in state.all_params:
        t.grad = None
    bundle = model.encode(batch)
    if cfg.fusion == "gan":
        forwards = model.fusion.gan_forwards(bundle, state.rngs["noise"])
        terms = [model.fusion.modules[f.name].discriminator_loss(f.z_tr, f.z_g) for f in forwards]
        d_loss = sum(terms[1:], terms[0])
        _check_finite("discriminator", d_loss.item())
        d_loss.backward()
        adam_step(state.disc_params, state.disc_opt)
        fused = model.fusion.compose(forwards)
        # the fake half reuses the updated D's logits from the generator loss
        state.record.disc_accuracy.append(float(np.mean(
            [model.fusion.modules[f.name].discriminator_accuracy(f.z_tr, f.z_g, f.fake_logits)
             for f in forwards])))
    else:
        fused = model.fuse(bundle, state.rngs["noise"])
    j_task = model.task_loss(fused, bundle, batch, state.rngs["dropout"])
    j_total = Tensor(cfg.lambda1) * fused.j_fusion + Tensor(cfg.lambda2) * j_task
    _check_finite("j_fusion", fused.j_fusion.item())
    _check_finite("j_task", j_task.item())
    j_total.backward()
    adam_step(state.main_params, state.opt)
    state.record.log_step(state.step, fused.j_fusion.item(), j_task.item(), j_total.item())
    state.step += 1


def end_epoch(state: TrainState, val_raw: list[RawSample]) -> bool:
    """Log the epoch's mean train losses and val metrics, keep the best
    epoch's tensors and the summary; True when early stopping ends the run."""
    model, record, epoch = state.model, state.record, state.epoch
    # every epoch runs the same number of steps
    epoch_steps = record.steps[state.step - state.step // (epoch + 1):]
    for name, values in zip(("j_fusion", "j_task", "j_total"), list(zip(*epoch_steps))[1:]):
        record.log(epoch, "train", name, float(np.mean(values)))

    val_metrics = evaluate_model(model, state.info, val_raw, word_drop_p=0.0, drop_seed=0)
    for name, value in sorted(val_metrics.items()):
        record.log(epoch, "val", name, value)

    metric = val_metrics["accuracy" if model.cfg.task == "classification" else "bleu4"]
    improved = metric > state.best_metric
    if improved:
        state.best_metric, state.best_epoch = metric, epoch
        state.best_tensors = {n: t.data.copy() for n, t in model.parameters().items()}
        state.best_tensors.update({n: b.copy() for n, b in model.buffers().items()})
    state.stale = 0 if improved else state.stale + 1
    record.summary = {"best_epoch": state.best_epoch, "best_val_metric": state.best_metric,
                      "epochs_run": epoch + 1}
    return not improved and state.stale >= model.cfg.patience


def to_checkpoint(state: TrainState) -> ckpt_io.Checkpoint:
    """The best epoch's tensors, the optimizers and RNG streams as they
    stand, and the config with its [data] block."""
    return ckpt_io.Checkpoint(
        tensors=dict(sorted(state.best_tensors.items())),
        optimizer=_optimizer_entries(state.opt, state.disc_opt),
        rng={name: ckpt_io.generator_state_to_array(g) for name, g in state.rngs.items()},
        config_text=config_to_text(state.model.cfg) + "[data]\n" + state.info.to_text(),
    )


def train(cfg: ExperimentConfig) -> tuple[ckpt_io.Checkpoint, RunRecord]:
    cfg.validate()
    train_raw = read_dataset_for(cfg.train_path, cfg)
    info = DataInfo.from_samples(train_raw, cfg.task)
    val_raw = read_dataset_for(cfg.val_path, cfg, info)
    state = TrainState.start(cfg, info, train_raw)
    rows = encode_samples(train_raw, cfg, info)
    for state.epoch in range(cfg.epochs):
        order = state.rngs["shuffle"].permutation(len(rows)).tolist()
        for start in range(0, len(rows), cfg.batch_size):
            train_step(state, make_batch(
                [rows[i] for i in order[start:start + cfg.batch_size]], cfg))
        if end_epoch(state, val_raw):
            break
    return to_checkpoint(state), state.record


def _optimizer_entries(opt: AdamState, disc_opt: AdamState) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for prefix, state in (("adam", opt), ("adam_disc", disc_opt)):
        out[f"{prefix}.step"] = np.array(float(state.step_count))
        out[f"{prefix}.hyper"] = np.array([state.lr, state.beta1, state.beta2,
                                           state.eps])
        for name, m in state.m.items():
            out[f"{prefix}.m.{name}"] = m
        for name, v in state.v.items():
            out[f"{prefix}.v.{name}"] = v
    return out


def model_from_checkpoint(ckpt: ckpt_io.Checkpoint) -> tuple[FusionModel, ExperimentConfig, DataInfo]:
    cfg_text, _, data_text = ckpt.config_text.partition("[data]")
    cfg = parse_config_text(cfg_text)
    info = DataInfo.from_text(data_text)
    _check_data_info(cfg, info, ckpt.tensors)
    model = FusionModel(cfg, info, np.random.default_rng(0))
    # every parameter and buffer array, filled in place from the checkpoint
    arrays = {n: t.data for n, t in model.parameters().items()} | model.buffers()
    if arrays.keys() != ckpt.tensors.keys():
        missing = sorted(arrays.keys() - ckpt.tensors.keys())[:3]
        extra = sorted(ckpt.tensors.keys() - arrays.keys())[:3]
        raise ckpt_io.CheckpointError(
            f"tensor names do not match the model: missing {missing}, extra {extra}")
    for name, a in arrays.items():
        if a.shape != ckpt.tensors[name].shape:
            raise ckpt_io.CheckpointError(f"shape mismatch for {name}")
        a[...] = ckpt.tensors[name]
    return model, cfg, info


def _check_data_info(cfg: ExperimentConfig, info: DataInfo,
                     tensors: dict[str, np.ndarray]) -> None:
    """Raise CheckpointError unless info has the vocabularies cfg's model
    needs, and each width or class count that sizes one of its layers is the
    length of the tensor stored for it. Runs before the model is built, so
    no count from the [data] block sizes an allocation unchecked."""
    sized = {f"{m}_dim": f"{m}_enc.norm_mean" for m in ("video", "speech")
             if m in cfg.modalities}
    if cfg.task == "classification":
        sized["n_classes"] = "head.fc2.b"
    for key, name in sized.items():
        value, shape = getattr(info, key), getattr(tensors.get(name), "shape", None)
        if value < 1 or shape != (value,):
            raise ckpt_io.CheckpointError(f"checkpoint [data] block: {key} = {value} "
                                          f"does not match tensor {name} of shape {shape}")
    for key, needed in (("src_vocab", "text" in cfg.modalities),
                        ("tgt_vocab", cfg.task == "translation")):
        if needed and getattr(info, key) is None:
            raise ckpt_io.CheckpointError(f"checkpoint [data] block: no {key} line")


EVAL_BATCH = 128        # rows per forward pass in evaluate_model


def evaluate_model(model: FusionModel, info: DataInfo, samples: list[RawSample],
                   word_drop_p: float = 0.0, drop_seed: int = 0) -> dict[str, float]:
    """Metric map for one dataset; GAN noise and dropout are off at
    evaluation. A GAN model that reads text also gets the silhouette of its
    text z_g by topic, when the set holds at least two topics. A word-drop
    probability outside [0, 1] raises ValueError, whether or not the model
    reads text.

    A model that reads text predicts its rows longest source first, so each
    batch holds sentences of similar length; every row's prediction and z_g
    are those of input order, and are put back in it before scoring."""
    if not 0.0 <= word_drop_p <= 1.0:
        raise ValueError(f"word-drop probability must lie in [0, 1], got {word_drop_p}")
    cfg = model.cfg
    rows = encode_samples(samples, cfg, info)
    if word_drop_p > 0.0 and "text" in cfg.modalities:
        drop_rng = np.random.default_rng([cfg.seed, 7, drop_seed])
        for r in rows:
            r["text"] = apply_word_drop(r["text"], word_drop_p, drop_rng)

    order = np.arange(len(rows))
    if "text" in cfg.modalities:
        order = np.argsort([-len(r["text"]) for r in rows], kind="stable")
    preds: list = []
    text_zg: list[np.ndarray] = []
    for start in range(0, len(rows), EVAL_BATCH):
        batch = make_batch([rows[i] for i in order[start:start + EVAL_BATCH]], cfg)
        batch_preds, z_g = model._predict(batch)
        preds.extend(batch_preds)
        if "text" in z_g:
            text_zg.append(z_g["text"].data)
    position = np.argsort(order)        # where each input row was predicted
    preds = [preds[j] for j in position]

    metrics: dict[str, float] = {}
    if cfg.task == "classification":
        labels = [r["label"] for r in rows]
        p, r, f1, acc = classification_report(preds, labels, info.n_classes)
        metrics.update(precision=p, recall=r, f1=f1, accuracy=acc)
    else:
        refs = [r["target"][:-1] for r in rows]  # strip terminal EOS
        report = corpus_bleu(preds, refs)
        metrics.update(bleu1=report.bleu1, bleu2=report.bleu2,
                       bleu3=report.bleu3, bleu4=report.bleu4,
                       brevity_penalty=report.brevity_penalty)
    topics = np.array([r["topic"] for r in rows])
    if text_zg and len(np.unique(topics)) >= 2:
        metrics["silhouette"] = silhouette(np.vstack(text_zg)[position], topics)
    return metrics


def evaluate_checkpoint(path, dataset_path, word_drop_p: float = 0.0,
                        drop_seed: int = 0) -> dict[str, float]:
    model, cfg, info = model_from_checkpoint(ckpt_io.load_checkpoint(path))
    samples = read_dataset_for(dataset_path, cfg, info)
    return evaluate_model(model, info, samples, word_drop_p=word_drop_p,
                          drop_seed=drop_seed)


def read_dataset_for(path, cfg: ExperimentConfig,
                     info: DataInfo | None = None) -> list[RawSample]:
    """read_dataset, then check that every row has what the task and the
    modalities of cfg need and, given info, the vector widths and class count
    the model was built for. Without info, a training set's labels must lie
    below its row count. A dataset that does not fit raises ConfigError."""
    samples = read_dataset(path)
    if not samples:
        raise ConfigError(f"{path}: no samples")
    need, what = (("label", "class label") if cfg.task == "classification"
                  else ("target_tokens", "target sentence"))
    widths = {} if info is None else {"speech": info.speech_dim,
                                      "video": info.video_dim}
    for lineno, s in enumerate(samples, start=2):
        if getattr(s, need) is None:
            raise ConfigError(f"{path}:{lineno}: {cfg.task} needs a {what}")
        if need == "label":
            bound = len(samples) if info is None else info.n_classes
            if s.label >= bound:
                raise ConfigError(f"{path}:{lineno}: class label {s.label} out of "
                                  f"range [0, {bound})")
        for m in cfg.modalities:
            value = getattr(s, "text_tokens" if m == "text" else m)
            if value is None:
                raise ConfigError(f"{path}:{lineno}: the {m} column is empty")
            if len(value) != widths.get(m, len(value)):
                raise ConfigError(f"{path}:{lineno}: {m} vector has {len(value)} "
                                  f"values, the model expects {widths[m]}")
    return samples


def ablate(model: FusionModel, info: DataInfo, samples: list[RawSample],
           p_grid: list[float] | None = None) -> list[tuple[float, float, float, float, float]]:
    """Word-drop sweep; returns rows of (p, bleu1, bleu2, bleu3, bleu4)."""
    if model.cfg.task != "translation":
        raise ConfigError("ablation sweep requires a translation model")
    if p_grid is None:
        p_grid = [round(0.1 * i, 1) for i in range(10)]
    rows = []
    for k, p in enumerate(p_grid):
        m = evaluate_model(model, info, samples, word_drop_p=p, drop_seed=1000 + k)
        rows.append((p, m["bleu1"], m["bleu2"], m["bleu3"], m["bleu4"]))
    return rows


def write_ablation_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p,bleu1,bleu2,bleu3,bleu4\n")
        for p, b1, b2, b3, b4 in rows:
            fh.write(f"{p!r},{b1!r},{b2!r},{b3!r},{b4!r}\n")
