import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuselab.metrics import BleuReport, classification_report, corpus_bleu, silhouette


# -- independent brute-force BLEU oracle -------------------------------------

def oracle_bleu(candidates, references, max_order=4):
    """Direct transcription of clipped n-gram corpus BLEU, kept free of any
    shared code with the implementation under test."""
    results = {}
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    precisions = []
    for n in range(1, max_order + 1):
        clip_total = 0
        count_total = 0
        for cand, ref in zip(candidates, references):
            cand_ngrams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            for g, cnt in cand_ngrams.items():
                clip_total += min(cnt, ref_ngrams.get(g, 0))
                count_total += cnt
        precisions.append(clip_total / count_total if count_total else 0.0)
    for n in range(1, max_order + 1):
        if any(p == 0.0 for p in precisions[:n]):
            results[n] = 0.0
        else:
            geo = math.exp(sum(math.log(p) for p in precisions[:n]) / n)
            results[n] = 100.0 * bp * geo
    return results


def random_corpus(rng, n_pairs, overlap=0.6):
    cands, refs = [], []
    for _ in range(n_pairs):
        ref = [f"w{int(t)}" for t in rng.integers(0, 12, size=rng.integers(3, 12))]
        cand = [t if rng.random() < overlap else f"w{int(rng.integers(0, 12))}"
                for t in ref]
        if rng.random() < 0.3 and len(cand) > 3:
            cand = cand[:-2]
        cands.append(cand)
        refs.append(ref)
    return cands, refs


def test_perfect_match_is_100():
    sents = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w", "v"]]
    rep = corpus_bleu(sents, [list(s) for s in sents])
    assert all(rep.bleu[n] == 100.0 for n in range(1, 5))
    assert rep.brevity_penalty == 1.0


def test_the_the_the_the_hand_example():
    rep = corpus_bleu([["the", "the", "the", "the"]], [["the", "cat"]])
    assert rep.precisions[1] == pytest.approx(0.25)
    assert rep.brevity_penalty == 1.0
    assert rep.bleu1 == pytest.approx(25.0)


def test_disjoint_tokens_zero():
    rep = corpus_bleu([["a", "b"]], [["c", "d"]])
    assert rep.bleu1 == 0.0 and rep.bleu4 == 0.0


def test_brevity_penalty_applied():
    rep = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]])
    assert rep.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))
    assert rep.bleu1 == pytest.approx(100.0 * math.exp(-1.0))


def test_matches_oracle_on_1000_random_pairs():
    rng = np.random.default_rng(0)
    cands, refs = random_corpus(rng, 1000)
    rep = corpus_bleu(cands, refs)
    expect = oracle_bleu(cands, refs)
    for n in range(1, 5):
        assert abs(rep.bleu[n] - expect[n]) < 1e-9


def test_pair_order_permutation_invariant():
    rng = np.random.default_rng(1)
    cands, refs = random_corpus(rng, 50)
    rep = corpus_bleu(cands, refs)
    perm = rng.permutation(50)
    rep2 = corpus_bleu([cands[i] for i in perm], [refs[i] for i in perm])
    for n in range(1, 5):
        assert rep.bleu[n] == pytest.approx(rep2.bleu[n], abs=1e-12)


def counter_bleu(candidates, references, max_order=4):
    """The dict-of-Counter corpus BLEU that the array counting replaced."""
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    clipped = np.zeros(max_order, dtype=np.int64)
    total = np.zeros(max_order, dtype=np.int64)
    c_len = r_len = 0
    for cand, ref in zip(candidates, references):
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_order + 1):
            cand_counts, ref_counts = ngrams(cand, n), ngrams(ref, n)
            total[n - 1] += sum(cand_counts.values())
            clipped[n - 1] += sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / max(c_len, 1))
    precisions = {n: clipped[n - 1] / total[n - 1] if total[n - 1] else 0.0
                  for n in range(1, max_order + 1)}
    bleu = {}
    for n in range(1, max_order + 1):
        ps = [precisions[k] for k in range(1, n + 1)]
        bleu[n] = 0.0 if min(ps) <= 0.0 else \
            100.0 * bp * math.exp(sum(math.log(p) for p in ps) / n)
    return bleu, precisions, bp, c_len, r_len


# a small alphabet of mixed hashable tokens makes repeated n-grams common
_SENTENCE = st.lists(st.sampled_from(["a", "b", "c", "the", 7, ("x", 1)]), max_size=9)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SENTENCE, _SENTENCE), min_size=1, max_size=8))
@example([([], ["a", "b"]), (["a", "a", "a", "a"], ["a", "a"])])
@example([([], [])])
def test_bleu_equals_counter_implementation_exactly(pairs):
    cands, refs = [c for c, _ in pairs], [r for _, r in pairs]
    rep = corpus_bleu(cands, refs)
    bleu, precisions, bp, c_len, r_len = counter_bleu(cands, refs)
    assert rep.bleu == bleu and rep.precisions == precisions
    assert rep.brevity_penalty == bp
    assert (rep.candidate_length, rep.reference_length) == (c_len, r_len)


def test_bleu_errors():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_bleu_report_range():
    rng = np.random.default_rng(2)
    cands, refs = random_corpus(rng, 100, overlap=0.4)
    rep = corpus_bleu(cands, refs)
    assert isinstance(rep, BleuReport)
    for n in range(1, 5):
        assert 0.0 <= rep.bleu[n] <= 100.0
    assert rep.brevity_penalty <= 1.0


def test_classification_perfect():
    p, r, f, a = classification_report([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert (p, r, f, a) == (1.0, 1.0, 1.0, 1.0)


def test_classification_all_one_class_binary():
    preds = [0, 0, 0, 0]
    labels = [0, 0, 1, 1]
    p, r, f, a = classification_report(preds, labels, 2)
    assert a == 0.5
    assert f == pytest.approx((2 / 3 + 0.0) / 2)
    assert p == pytest.approx((0.5 + 0.0) / 2)
    assert r == pytest.approx((1.0 + 0.0) / 2)


def test_classification_single_correct_sample():
    assert classification_report([2], [2], 3) == (1.0, 1.0, 1.0, 1.0)


def test_classification_hand_confusion_cases():
    # confusion matrix: rows=label, cols=pred: [[2,1],[1,2]]
    preds = [0, 0, 1, 1, 1, 0]
    labels = [0, 0, 0, 1, 1, 1]
    p, r, f, a = classification_report(preds, labels, 2)
    assert a == pytest.approx(4 / 6)
    assert p == pytest.approx(2 / 3)
    assert r == pytest.approx(2 / 3)
    assert f == pytest.approx(2 / 3)


def test_classification_accuracy_is_mean_indicator():
    rng = np.random.default_rng(3)
    preds = rng.integers(0, 4, size=200)
    labels = rng.integers(0, 4, size=200)
    _, _, _, a = classification_report(preds, labels, 4)
    assert a == pytest.approx(np.mean(preds == labels))


def test_classification_errors():
    with pytest.raises(ValueError):
        classification_report([], [], 2)
    with pytest.raises(ValueError):
        classification_report([0, 1], [0, 5], 2)
    with pytest.raises(ValueError):
        classification_report([0], [0, 1], 2)


def test_silhouette_tight_far_clusters():
    rng = np.random.default_rng(4)
    a = rng.normal(0.0, 0.05, size=(40, 3))
    b = rng.normal(10.0, 0.05, size=(40, 3))
    s = silhouette(np.vstack([a, b]), [0] * 40 + [1] * 40)
    assert s > 0.9


def test_silhouette_identical_points_zero():
    pts = np.zeros((6, 2))
    assert silhouette(pts, [0, 0, 0, 1, 1, 1]) == 0.0


def test_silhouette_random_near_zero():
    rng = np.random.default_rng(5)
    pts = rng.uniform(size=(500, 4))
    groups = rng.integers(0, 3, size=500)
    assert abs(silhouette(pts, groups)) < 0.1


def test_silhouette_singleton_contributes_zero():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    s = silhouette(pts, [0, 0, 1])
    by_hand_0 = (np.linalg.norm(pts[0] - pts[2]) - 0.1) / np.linalg.norm(pts[0] - pts[2])
    by_hand_1 = (np.linalg.norm(pts[1] - pts[2]) - 0.1) / np.linalg.norm(pts[1] - pts[2])
    assert s == pytest.approx((by_hand_0 + by_hand_1 + 0.0) / 3)


def per_row_silhouette(points, group_ids):
    """One distance row and one mean per other group at a time."""
    group_ids = np.asarray(group_ids)
    scores = np.zeros(len(points))
    for i in range(len(points)):
        own = group_ids == group_ids[i]
        if own.sum() == 1:
            continue
        dist = np.sqrt(((points[i] - points) ** 2).sum(axis=1))
        a = dist[own].sum() / (own.sum() - 1)
        b = min(dist[group_ids == g].mean() for g in np.unique(group_ids)
                if g != group_ids[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return scores.mean()


def test_silhouette_matches_per_row_reference():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(70, 5))
    pts[10:14] = pts[3]                        # duplicate points
    groups = rng.integers(0, 4, size=70)
    groups[[0, 1]] = [7, 9]                    # two singleton groups
    groups[3], groups[10:12] = 0, 1            # duplicates within and across groups
    assert silhouette(pts, groups) == pytest.approx(
        per_row_silhouette(pts, groups), abs=1e-12)
    labels = np.array(["x", "y", "z"])[rng.integers(0, 3, size=70)]
    assert silhouette(pts, labels) == pytest.approx(
        per_row_silhouette(pts, labels), abs=1e-12)


def test_silhouette_near_duplicates_far_from_origin():
    # |x|^2 + |y|^2 - 2 x.y of points near 1e3 cancels unless they are centred
    rng = np.random.default_rng(8)
    base = rng.normal(size=(40, 6))
    pts = np.vstack([base, base + rng.normal(scale=1e-6, size=base.shape)]) + 1e3
    groups = rng.integers(0, 3, size=80)
    assert silhouette(pts, groups) == pytest.approx(
        per_row_silhouette(pts, groups), abs=1e-9)


def test_silhouette_duplicates_are_at_distance_zero():
    # |x|^2 + |y|^2 - 2 x.y between two copies of a point is rounding noise
    rng = np.random.default_rng(9)
    for _ in range(20):
        a, b = rng.normal(scale=100.0, size=(2, 32))
        pts = np.vstack([a, a, a, b, b, b])
        assert silhouette(pts, [0, 0, 0, 1, 1, 1]) == 1.0


def test_silhouette_memory_is_linear():
    # a full n x n x d difference array at (600, 32) would take 92 MB
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(600, 32))
    groups = rng.integers(0, 4, size=600)
    tracemalloc.start()
    try:
        silhouette(pts, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"silhouette peak {peak / 1e6:.1f} MB"


def test_silhouette_one_group_rejected():
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 2)), [0, 0, 0])
