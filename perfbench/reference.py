"""Plain-numpy reference for the models and metrics the benchmark exercises.

Everything here is computed apart from the program: the forward passes read
only the parameter and buffer arrays of a trained model, batches are built
from raw samples and vocabulary tables, and BLEU and silhouette are written
out from their definitions. The checks in ``workloads.py`` compare the
program's outputs against these functions.

Only the configurations the workloads train are covered: GAN-Fusion with the
non-saturating generator loss, no dropout, and either the classifier head or
the attentive decoder conditioned through its initial state.
"""

from __future__ import annotations

import math

import numpy as np

PAD, SOS, EOS, UNK = 0, 1, 2, 3
MODALITY_ORDER = ("video", "speech", "text")
LOG_FLOOR = 1e-12
# Two logits closer than this are a near-tie: float rounding may pick either.
TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- batches -----------------------------------------------------------------

def encode_batch(samples, cfg, src_ids: dict, tgt_ids: dict | None) -> dict:
    """Padded arrays for a list of RawSample, built without the harness."""
    batch = {"topics": np.array([s.topic for s in samples])}
    if "text" in cfg.modalities:
        seqs = [[src_ids.get(t, UNK) for t in s.text_tokens] for s in samples]
        lengths = np.array([len(q) for q in seqs])
        ids = np.zeros((len(seqs), lengths.max()), dtype=np.int64)
        for i, q in enumerate(seqs):
            ids[i, :len(q)] = q
        batch["text"], batch["lengths"] = ids, lengths
    for m in ("speech", "video"):
        if m in cfg.modalities:
            batch[m] = np.array([getattr(s, m) for s in samples], dtype=np.float64)
    if cfg.task == "classification":
        batch["labels"] = np.array([s.label for s in samples])
    else:
        seqs = [[tgt_ids.get(t, UNK) for t in s.target_tokens] + [EOS] for s in samples]
        tgt = np.zeros((len(seqs), max(len(q) for q in seqs)), dtype=np.int64)
        for i, q in enumerate(seqs):
            tgt[i, :len(q)] = q
        batch["targets"] = tgt
        batch["refs"] = [q[:-1] for q in seqs]
    return batch


# -- forward pieces ----------------------------------------------------------

def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def leaky(x, alpha=0.2):
    return np.where(x >= 0.0, x, alpha * x)


def affine(p, prefix, x):
    return x @ p[prefix + ".W"] + p[prefix + ".b"]


def lstm_step(p, prefix, x, h, c):
    hd = h.shape[1]
    gates = x @ p[prefix + ".W"] + h @ p[prefix + ".U"] + p[prefix + ".b"]
    i = sigmoid(gates[:, :hd])
    f = sigmoid(gates[:, hd:2 * hd])
    o = sigmoid(gates[:, 2 * hd:3 * hd])
    g = np.tanh(gates[:, 3 * hd:])
    c_next = f * c + i * g
    return o * np.tanh(c_next), c_next


def text_encode(p, ids, lengths):
    b, L = ids.shape
    hd = p["text_enc.lstm.U"].shape[0]
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.float64)
    h = np.zeros((b, hd))
    c = np.zeros((b, hd))
    states = np.zeros((b, L, hd))
    for t in range(L):
        x = p["text_enc.embed.table"][ids[:, t]]
        h_new, c_new = lstm_step(p, "text_enc.lstm", x, h, c)
        keep = mask[:, t:t + 1]
        h = np.where(keep > 0, h_new, h)
        c = np.where(keep > 0, c_new, c)
        states[:, t] = h_new * keep
    return h, states, mask


def latents(p, cfg, batch) -> tuple[dict, np.ndarray | None, np.ndarray | None]:
    out = {}
    states = mask = None
    for m in ("video", "speech"):
        if m in cfg.modalities:
            pre = f"{m}_enc"
            x = (batch[m] - p[pre + ".norm_mean"]) / p[pre + ".norm_std"]
            out[m] = np.tanh(affine(p, pre + ".proj", x))
    if "text" in cfg.modalities:
        out["text"], states, mask = text_encode(p, batch["text"], batch["lengths"])
    return out, states, mask


def discriminate(p, prefix, x):
    return sigmoid(affine(p, prefix + ".fc2", leaky(affine(p, prefix + ".fc1", x))))


def gan_fuse(p, cfg, lat: dict) -> tuple[np.ndarray, float, dict]:
    """(z_fuse, J_fusion, generator output per modality) with zero noise."""
    present = [m for m in MODALITY_ORDER if m in lat]
    b = next(iter(lat.values())).shape[0]
    z_gs, j_fusion = {}, 0.0
    for m in present:
        pre = f"fusion.{m}"
        z_in = np.concatenate([lat[m], np.zeros((b, cfg.d_noise))], axis=1)
        z_g = affine(p, pre + ".generator.fc2",
                     leaky(affine(p, pre + ".generator.fc1", z_in)))
        comp = [lat[n] for n in present if n != m]
        if len(comp) >= 2:
            z_k = np.concatenate(comp, axis=1)
            z_t = np.tanh(affine(p, pre + ".inner.compress", z_k))
            diff = affine(p, pre + ".inner.reconstruct", z_t) - z_k
            j_fusion += float(np.mean(np.sum(diff * diff, axis=1)))
        d_fake = discriminate(p, pre + ".discriminator", z_g)
        j_fusion += float(-np.mean(np.log(np.maximum(d_fake, LOG_FLOOR))))
        z_gs[m] = z_g
    z_fuse = affine(p, "fusion.fc", np.concatenate([z_gs[m] for m in present], axis=1))
    return z_fuse, j_fusion, z_gs


def classifier_logits(p, z):
    return affine(p, "head.fc2", leaky(affine(p, "head.fc1", z)))


def _decoder_start(p, z):
    h = np.tanh(affine(p, "decoder.bridge", z))
    return h, np.zeros_like(h)


def decoder_step(p, prev, h, c, states, mask):
    x = p["decoder.embed.table"][prev]
    h, c = lstm_step(p, "decoder.lstm", x, h, c)
    scores = np.einsum("blh,bh->bl", states, h @ p["decoder.attn_W"])
    scores = scores + np.where(mask > 0.0, 0.0, -1e9)
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    context = np.einsum("blh,bl->bh", states, w)
    return affine(p, "decoder.out", np.concatenate([h, context], axis=1)), h, c


def log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def teacher_forced_loss(p, z, states, mask, targets) -> float:
    b, T = targets.shape
    h, c = _decoder_start(p, z)
    prev = np.full(b, SOS)
    nll, count = 0.0, 0
    for j in range(T):
        logits, h, c = decoder_step(p, prev, h, c, states, mask)
        valid = targets[:, j] != PAD
        lp = log_softmax(logits)
        nll -= float(lp[np.arange(b), targets[:, j]][valid].sum())
        count += int(valid.sum())
        prev = np.where(valid, targets[:, j], prev)
    return nll / count


def _near_tie(row_logits, chosen) -> bool:
    """True when the best other logit is within TIE_TOL of the chosen one."""
    gap = row_logits[chosen] - np.delete(row_logits, chosen).max()
    return abs(gap) <= TIE_TOL * max(1.0, abs(row_logits[chosen]))


def check_forced_tokens(p, z, states, mask, decoded, max_len) -> int:
    """Verify the program's greedy tokens step by step against the reference.

    Every emitted token, and the EOS that ends a row shorter than max_len,
    must be the reference argmax given the program's previous tokens, or a
    near-tie with it. Returns the number of near-ties.
    """
    b = z.shape[0]
    h, c = _decoder_start(p, z)
    prev = np.full(b, SOS)
    ties = 0
    steps = max(min(len(d) + 1, max_len) for d in decoded)
    for j in range(steps):
        logits, h, c = decoder_step(p, prev, h, c, states, mask)
        nxt = prev.copy()
        for i, row in enumerate(decoded):
            if j > len(row):
                continue
            want = row[j] if j < len(row) else EOS
            best = int(logits[i].argmax())
            if best != want:
                require(_near_tie(logits[i], want),
                        f"row {i} step {j}: program token {want}, reference {best}")
                ties += 1
            if j < len(row):
                nxt[i] = want
        prev = nxt
    return ties


def j_total(p, cfg, batch) -> float:
    """lambda1 * J_fusion + lambda2 * J_task for one batch, noise off."""
    lat, states, mask = latents(p, cfg, batch)
    z, j_fusion, _ = gan_fuse(p, cfg, lat)
    if cfg.task == "classification":
        lp = log_softmax(classifier_logits(p, z))
        j_task = float(-lp[np.arange(len(z)), batch["labels"]].mean())
    else:
        j_task = teacher_forced_loss(p, z, states, mask, batch["targets"])
    return cfg.lambda1 * j_fusion + cfg.lambda2 * j_task


def supported(cfg) -> bool:
    return (cfg.fusion == "gan" and not cfg.saturating_gan and cfg.dropout_p == 0.0
            and not cfg.condition_every_step
            and cfg.classification_loss == "cross_entropy")


def evaluate(p, cfg, batches, program_preds) -> dict:
    """Verify the program's predictions and compute the metrics from them.

    ``batches`` come from ``encode_batch`` and together hold the rows of
    ``program_preds`` in order. Classes and tokens must be the reference
    argmax or a near-tie with it; metrics are computed here, not by the
    program.
    """
    refs, labels, text_zg, topics = [], [], [], []
    ties = row = 0
    for batch in batches:
        lat, states, mask = latents(p, cfg, batch)
        z, _, z_gs = gan_fuse(p, cfg, lat)
        preds = program_preds[row:row + len(z)]
        row += len(z)
        topics.extend(batch["topics"])
        if "text" in z_gs:
            text_zg.append(z_gs["text"])
        if cfg.task == "classification":
            logits = classifier_logits(p, z)
            for i, k in enumerate(preds):
                if k != logits[i].argmax():
                    require(_near_tie(logits[i], k), f"row {i}: class {k} is not the argmax")
                    ties += 1
            labels.extend(batch["labels"])
        else:
            ties += check_forced_tokens(p, z, states, mask, preds, cfg.max_decode_len)
            refs.extend(batch["refs"])
    require(row == len(program_preds), "prediction count differs from the sample count")
    out = {"ties": ties}
    if cfg.task == "classification":
        out["accuracy"] = sum(int(a) == int(b) for a, b in zip(program_preds, labels)) / row
    else:
        out.update(bleu(program_preds, refs))
        out["decoded_len"] = sum(len(t) for t in program_preds) / row
    if text_zg:
        out["silhouette"] = silhouette(np.vstack(text_zg), np.array(topics))
    return out


# -- metrics -----------------------------------------------------------------

def bleu(candidates, references, max_order: int = 4) -> dict:
    """Corpus BLEU-1..4 (0-100) and brevity penalty, counted n-gram by n-gram."""
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    matched = [0] * max_order
    possible = [0] * max_order
    for cand, ref in zip(candidates, references):
        for n in range(1, max_order + 1):
            ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
            cand_grams = [tuple(cand[i:i + n]) for i in range(len(cand) - n + 1)]
            possible[n - 1] += len(cand_grams)
            for g in set(cand_grams):
                matched[n - 1] += min(cand_grams.count(g), ref_grams.count(g))
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / max(c_len, 1))
    prec = [m / t if t else 0.0 for m, t in zip(matched, possible)]
    out = {"brevity_penalty": bp}
    for n in range(1, max_order + 1):
        logs = [math.log(q) for q in prec[:n] if q > 0.0]
        out[f"bleu{n}"] = 100.0 * bp * math.exp(sum(logs) / n) if len(logs) == n else 0.0
    return out


def silhouette(points: np.ndarray, groups: np.ndarray) -> float:
    """Mean silhouette over points, one distance row at a time."""
    labels = np.unique(groups)
    scores = np.zeros(len(points))
    for i, x in enumerate(points):
        d = np.sqrt(((points - x) ** 2).sum(axis=1))
        own = groups == groups[i]
        if own.sum() < 2:
            continue
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[groups == g].mean() for g in labels if g != groups[i])
        if max(a, b) > 0:
            scores[i] = (b - a) / max(a, b)
    return float(scores.mean())
