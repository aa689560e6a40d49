"""Evaluation metrics: corpus BLEU, macro P/R/F1/accuracy, silhouette."""

from __future__ import annotations

import math
from collections import Counter
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


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates: list[list], references: list[list],
                max_order: int = 4) -> BleuReport:
    """Single-reference corpus BLEU with clipped n-gram counts, no smoothing.

    BLEU-N = BP * exp(mean of log p_n for n <= N); any zero precision makes
    that BLEU-N zero. BP = exp(1 - r/c) when c < r, else 1.
    """
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ValueError("empty corpus")

    clipped = np.zeros(max_order, dtype=np.int64)
    total = np.zeros(max_order, dtype=np.int64)
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_order + 1):
            cand_counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            total[n - 1] += sum(cand_counts.values())
            clipped[n - 1] += sum(min(c, ref_counts[g]) for g, c in cand_counts.items())

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


def silhouette(points: np.ndarray, group_ids) -> float:
    """Mean silhouette with Euclidean distance.

    Singleton groups contribute 0; so do points where max(a, b) == 0.
    """
    points = np.asarray(points, dtype=np.float64)
    group_ids = np.asarray(group_ids)
    groups = np.unique(group_ids)
    if groups.size < 2:
        raise ValueError("silhouette needs at least two groups")

    n = points.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        own = group_ids == group_ids[i]
        n_own = int(own.sum())
        if n_own == 1:
            scores[i] = 0.0
            continue
        # one row of the distance matrix at a time keeps memory at O(n d)
        diff = points[i] - points
        dist = np.sqrt((diff * diff).sum(axis=1))
        a = dist[own].sum() / (n_own - 1)
        b = min(dist[group_ids == g].mean() for g in groups if g != group_ids[i])
        denom = max(a, b)
        scores[i] = (b - a) / denom if denom > 0 else 0.0
    return float(scores.mean())
