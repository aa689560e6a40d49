"""Evaluation metrics: corpus BLEU, macro P/R/F1/accuracy, silhouette."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class BleuReport:
    """Corpus BLEU-1..4 on the 0-100 scale plus the quantities behind them."""

    bleu: dict[int, float] = field(default_factory=dict)
    precisions: dict[int, float] = field(default_factory=dict)
    brevity_penalty: float = 1.0
    candidate_length: int = 0
    reference_length: int = 0

    @property
    def bleu1(self): return self.bleu[1]

    @property
    def bleu2(self): return self.bleu[2]

    @property
    def bleu3(self): return self.bleu[3]

    @property
    def bleu4(self): return self.bleu[4]


def _clipped_counts(candidates: list[list], references: list[list],
                    max_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Clipped and total candidate n-gram counts for n = 1..max_order.

    Tokens become dense ints; each n-gram is the rank of its (n-1)-gram
    prefix and last token, and each (sentence pair, n-gram) one int64, so
    counting is np.unique and clipping a searchsorted. Every code stays below
    S * (N + 1) for S sentence pairs and N tokens in the corpus.
    """
    n_pairs = len(candidates)
    seqs = list(candidates) + list(references)
    ids: dict = {}
    tok = np.fromiter((ids.setdefault(t, len(ids)) for s in seqs for t in s),
                      dtype=np.int64)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    owner = np.repeat(np.arange(len(seqs)), lengths)       # sequence of each token
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(tok.size)
    pair = owner % n_pairs                                  # candidate i pairs reference i
    base = tok.size + 1
    clipped = np.zeros(max_order, dtype=np.int64)
    total = np.zeros(max_order, dtype=np.int64)
    gram = tok.copy()
    for n in range(1, max_order + 1):
        at = np.flatnonzero(left >= n)                      # starts of n-grams
        if n > 1:
            gram[at] = np.unique(gram[at] * base + tok[at + n - 1], return_inverse=True)[1]
        keys = pair[at] * base + gram[at]
        is_cand = owner[at] < n_pairs
        cand_keys, cand_counts = np.unique(keys[is_cand], return_counts=True)
        ref_keys, ref_counts = np.unique(keys[~is_cand], return_counts=True)
        # a sentinel above every key keeps each searchsorted index in range
        ref_keys = np.append(ref_keys, np.iinfo(np.int64).max)
        ref_counts = np.append(ref_counts, 0)
        hit = np.searchsorted(ref_keys, cand_keys)
        in_ref = np.where(ref_keys[hit] == cand_keys, ref_counts[hit], 0)
        clipped[n - 1] = np.minimum(cand_counts, in_ref).sum()
        total[n - 1] = cand_counts.sum()
    return clipped, total


def corpus_bleu(candidates: list[list], references: list[list],
                max_order: int = 4) -> BleuReport:
    """Single-reference corpus BLEU with clipped n-gram counts, no smoothing.

    BLEU-N = BP * exp(mean of log p_n for n <= N); any zero precision makes
    that BLEU-N zero. BP = exp(1 - r/c) when c < r, else 1. Tokens may be any
    hashable values.
    """
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("empty corpus")

    clipped, total = _clipped_counts(candidates, references, max_order)
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / max(c_len, 1))
    report = BleuReport(brevity_penalty=bp, candidate_length=c_len,
                        reference_length=r_len)
    for n in range(1, max_order + 1):
        report.precisions[n] = clipped[n - 1] / total[n - 1] if total[n - 1] else 0.0
    for n in range(1, max_order + 1):
        ps = [report.precisions[k] for k in range(1, n + 1)]
        if min(ps) <= 0.0:
            report.bleu[n] = 0.0
        else:
            report.bleu[n] = 100.0 * bp * math.exp(sum(math.log(p) for p in ps) / n)
    return report


def classification_report(predictions, labels, n_classes: int
                          ) -> tuple[float, float, float, float]:
    """Macro-averaged (precision, recall, f1) and accuracy.

    Classes with a zero denominator contribute 0 to the macro average;
    classes absent from both labels and predictions are skipped entirely.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.size == 0:
        raise ValueError("empty input")
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes})")

    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        if not np.any(predictions == c) and not np.any(labels == c):
            continue
        tp = int(((predictions == c) & (labels == c)).sum())
        fp = int(((predictions == c) & (labels != c)).sum())
        fn = int(((predictions != c) & (labels == c)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    accuracy = float((predictions == labels).mean())
    return (float(np.mean(precisions)), float(np.mean(recalls)),
            float(np.mean(f1s)), accuracy)


SILHOUETTE_BLOCK = 256  # distance-matrix rows computed at once


def silhouette(points: np.ndarray, group_ids) -> float:
    """Mean silhouette with Euclidean distance.

    Singleton groups contribute 0; so do points where max(a, b) == 0.
    Identical points are merged first, so their distance is exactly 0. For
    each block of rows, one Gram-matrix GEMM of the mean-centred points gives
    the squared distances |x|^2 + |y|^2 - 2 x.y, and one more GEMM with the
    count of each group's points at each distinct point sums them per group.
    Memory stays O(block n).
    """
    points = np.asarray(points, dtype=np.float64)
    groups, gidx = np.unique(np.asarray(group_ids), return_inverse=True)
    if groups.size < 2:
        raise ValueError("silhouette needs at least two groups")

    n, k = points.shape[0], groups.size
    x = points - points.mean(axis=0)
    # the difference of squares cancels to rounding noise, not 0, between
    # identical points, so each distinct row is kept once
    _, first, inv = np.unique(x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel(),
                              return_index=True, return_inverse=True)
    x = x[first]
    u = x.shape[0]
    weight = np.bincount(inv * k + gidx, minlength=u * k).reshape(u, k).astype(np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    sums = np.empty((u, k))          # summed distance from each distinct point to each group
    for i in range(0, u, SILHOUETTE_BLOCK):
        blk = x[i:i + SILHOUETTE_BLOCK]
        m = blk.shape[0]
        d2 = blk @ x.T
        d2 *= -2.0
        d2 += sq[i:i + m, None]
        d2 += sq
        np.maximum(d2, 0.0, out=d2)     # rounding can leave a tiny negative
        d2[np.arange(m), np.arange(i, i + m)] = 0.0
        np.sqrt(d2, out=d2)
        np.matmul(d2, weight, out=sums[i:i + m])
    sums = sums[inv]
    counts = np.bincount(gidx, minlength=k)
    own = counts[gidx]
    rows = np.arange(n)
    a = sums[rows, gidx] / np.maximum(own - 1, 1)
    means = sums / counts
    means[rows, gidx] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=(own > 1) & (denom > 0))
    return float(scores.mean())
