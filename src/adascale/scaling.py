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
the weight can be refreshed at every optimization step.  The public
:func:`w_batch` checks its inputs and runs the kernel a training step calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import ConfusionStats, _as_label_array, _as_probabilities, _check_beta

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
    vectors can be analyzed with the same machinery.  Both pass ``metrics``'
    rules: probabilities in [0, 1] or NaN, whose weight is NaN, and 0/1 flags.
    """

    gold_probs: np.ndarray
    is_positive: np.ndarray

    def __post_init__(self) -> None:
        probs = _as_probabilities(self.gold_probs, name="gold_probs", ndim=1)
        flags = _as_label_array(self.is_positive, name="is_positive", k=2).astype(bool)
        if probs.shape != flags.shape:
            raise ValueError(f"length mismatch: {probs.size} probabilities vs {flags.size} flags")
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
    p_b = int(np.count_nonzero(batch.is_positive))
    tp_b, tn_b = _expected_counts(batch.gold_probs, batch.is_positive, ~batch.is_positive)
    return tp_b, tn_b, p_b, batch.gold_probs.size - p_b


def _expected_counts(gold_probs: np.ndarray, is_positive: np.ndarray, is_negative: np.ndarray) -> tuple[float, float]:
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    return float(np.add.reduce(gold_probs[is_positive])), float(np.add.reduce(gold_probs[is_negative]))


def w_batch(batch: BatchPrediction, beta: float = 1.0) -> float:
    """Batch-wise scaling weight estimate: tp_b / (beta^2 * p_b + n_b - tn_b).

    Positive-positive confusions are ignored here: they are much rarer than
    the positive/negative imbalance this weight corrects for, and cannot be
    attributed from gold-class probabilities alone.  A batch with no
    positives yields 0.0, which zeroes that step's negative gradient.
    """
    is_positive = batch.is_positive
    p_b = int(np.count_nonzero(is_positive))
    return _w_batch(batch.gold_probs, is_positive, ~is_positive, p_b, _check_beta(beta))


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
