"""Classification metrics: thresholded accuracy and rank-based AUC."""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def metric_accuracy(probs, labels, threshold: float = 0.5) -> float:
    """Fraction of correct decisions; a score equal to the threshold predicts positive."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.size == 0:
        raise UsageError("accuracy of an empty prediction set is undefined")
    if p.shape != y.shape:
        raise UsageError(f"probs shape {p.shape} != labels shape {y.shape}")
    pred = p >= threshold
    return float((pred == (y == 1)).mean())


def metric_auc(scores, labels) -> float:
    """Area under the ROC curve via the Mann-Whitney statistic.

    Equals (concordant pairs + half the tied pairs) / (positives x negatives),
    which is also the trapezoidal ROC area. Tied scores get averaged ranks.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise UsageError(f"scores {s.shape} and labels {y.shape} must be equal-length vectors")
    pos = int((y == 1).sum())
    neg = int(y.size - pos)
    if pos == 0 or neg == 0:
        raise UsageError("AUC needs at least one positive and one negative label")
    if not np.isfinite(s).all():
        raise UsageError("AUC needs finite scores")

    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    ranks = np.empty(y.size, dtype=np.float64)
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank of the tie group
        i = j + 1
    rank_sum_pos = float(ranks[np.asarray(y) == 1].sum())
    return (rank_sum_pos - pos * (pos + 1) / 2.0) / (pos * neg)
