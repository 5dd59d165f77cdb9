"""Adaptive scaling weights for negative-instance loss.

The weight is the ratio of marginal negative utility to marginal positive
utility under micro F-beta.  It answers: right now, how much is one more
correct negative worth relative to one more correct positive?  Scaling the
loss of every negative instance by this ratio keeps a cross-entropy
training loop pointed at F-beta instead of accuracy, with no extra
hyper-parameter to tune.

Two forms are provided: the exact dataset-level weight from full confusion
counts, and a batch-wise estimator that replaces tp/tn with their expected
values (sums of the gold-class softmax probabilities inside the batch) so
the weight can be refreshed at every optimization step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ConfusionStats, _check_beta

__all__ = [
    "BatchPrediction",
    "w_exact",
    "batch_expected_counts",
    "w_batch",
]


@dataclass(frozen=True)
class BatchPrediction:
    """Per-instance gold-class probabilities plus positive/negative flags.

    ``gold_probs[i]`` is the model's softmax probability of instance i's gold
    label; ``is_positive[i]`` says whether that gold label is a positive
    class.  Softmax outputs are strictly positive, so probabilities lie in
    (0, 1] in real use; exact 0.0 is also accepted so hard 0/1 prediction
    vectors can be analyzed with the same machinery.
    """

    gold_probs: np.ndarray
    is_positive: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.gold_probs, dtype=np.float64)
        flags = np.asarray(self.is_positive, dtype=bool)
        if probs.ndim != 1 or flags.ndim != 1:
            raise ValueError("gold_probs and is_positive must be one-dimensional")
        if probs.shape != flags.shape:
            raise ValueError(
                f"length mismatch: {probs.size} probabilities vs {flags.size} flags"
            )
        if probs.size == 0:
            raise ValueError("batch must contain at least one instance")
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
            raise ValueError("gold_probs must lie in [0, 1]")
        object.__setattr__(self, "gold_probs", probs)
        object.__setattr__(self, "is_positive", flags)


def w_exact(stats: ConfusionStats, beta: float = 1.0) -> float:
    """Exact scaling weight: tp / (beta^2 * p + n - tn + pe).

    Equal to mu_tn / mu_tp of the micro F-beta metric.  Raises when the
    denominator is zero (no gold positives and every negative already
    correct), where the ratio is undefined.
    """
    beta = _check_beta(beta)
    den = beta * beta * stats.p + stats.n - stats.tn + stats.pe
    if den <= 0.0:
        raise ValueError("scaling weight undefined: zero denominator")
    return stats.tp / den


def batch_expected_counts(batch: BatchPrediction) -> tuple[float, float, int, int]:
    """Expected tp/tn inside a batch, plus the positive/negative counts.

    The expectation of the number of correct predictions in a class is the
    sum of the gold-class probabilities of its instances, which stays
    informative even for small batches where hard counts would be 0 or 1.
    """
    is_positive, is_negative, p_b = _masks(batch.is_positive)
    tp_b, tn_b = _expected_counts(batch.gold_probs, is_positive, is_negative)
    return tp_b, tn_b, p_b, batch.gold_probs.size - p_b


def _expected_counts(gold_probs: np.ndarray, is_positive: np.ndarray, is_negative: np.ndarray) -> tuple[float, float]:
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    return float(np.add.reduce(gold_probs[is_positive])), float(np.add.reduce(gold_probs[is_negative]))


def _masks(is_positive: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The positive and negative masks of a batch and its positive count."""
    return is_positive, ~is_positive, int(np.count_nonzero(is_positive))


def w_batch(batch: BatchPrediction, beta: float = 1.0) -> float:
    """Batch-wise scaling weight estimate: tp_b / (beta^2 * p_b + n_b - tn_b).

    Positive-positive confusions are ignored here: they are much rarer than
    the positive/negative imbalance this weight corrects for, and cannot be
    attributed from gold-class probabilities alone.  A batch with no
    positives yields 0.0, which zeroes that step's negative gradient.
    """
    return _w_batch(batch.gold_probs, *_masks(batch.is_positive), _check_beta(beta))


def _w_batch(
    gold_probs: np.ndarray, is_positive: np.ndarray, is_negative: np.ndarray, n_positive: int, beta: float
) -> float:
    """:func:`w_batch`'s kernel, for a training step's own arrays: ``gold_probs``
    a non-empty float64 vector, ``is_positive`` and ``is_negative`` its
    complementary bool masks, ``n_positive`` the count of the first and
    ``beta`` a checked one.  Non-finite probabilities pass through, so a
    diverged step yields a NaN weight rather than an error."""
    tp_b, tn_b = _expected_counts(gold_probs, is_positive, is_negative)
    den = beta * beta * n_positive + (gold_probs.size - n_positive) - tn_b
    if den <= 0.0:
        raise ValueError("batch scaling weight undefined: zero denominator")
    return tp_b / den
