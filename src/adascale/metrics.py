"""Confusion bookkeeping and micro-averaged detection metrics.

Detection-style evaluation pools k-1 positive classes against a single
background (negative) class, the package's one :data:`NEGATIVE_LABEL`, and
scores only how well the positives are found.  Every formula in this module
is a closed-form function of five aggregate quantities:

    p   gold-positive instances
    n   gold-negative instances
    tp  correctly predicted positives, summed over positive classes
    tn  correctly predicted negatives
    pe  gold positives predicted as a *different* positive class

With those in hand, micro-averaged precision, recall and F-beta, plus the
marginal utility of one more correct prediction per class (the partial
derivative of the metric in tp or tn), all reduce to a few arithmetic
operations.  Counts are accepted as non-negative reals rather than just
integers so that expected-count estimators and sensitivity analysis can
treat them as continuous.  :class:`ConfusionStats`, which holds them, is a
``configio.Config``: the codec and the shipped run-report schema check a run
file's counts against the same bounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .configio import Config, bound

NEGATIVE_LABEL = 0  # the background class, read by data, losses and trainer

__all__ = [
    "ConfusionStats",
    "confusion_from_predictions",
    "precision",
    "recall",
    "accuracy",
    "f_beta",
    "marginal_utility_accuracy",
    "marginal_utility_fbeta",
]


@dataclass(frozen=True)
class ConfusionStats(Config):
    """Aggregate confusion quantities for one set of predictions.

    Each count is stored as the ``float`` of what it was given, so a numpy
    scalar serves, and ``Config`` checks it is finite and non-negative.
    Invariants between the counts: tp <= p, tn <= n, and pe <= p - tp (an
    instance cannot be both correct and confused).
    """

    p: float = bound(minimum=0)
    n: float = bound(minimum=0)
    tp: float = bound(minimum=0)
    tn: float = bound(minimum=0)
    pe: float = bound(0.0, minimum=0)

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        super().__post_init__()
        if self.tp > self.p:
            raise ValueError(f"tp={self.tp} exceeds p={self.p}")
        if self.tn > self.n:
            raise ValueError(f"tn={self.tn} exceeds n={self.n}")
        if self.pe > self.p - self.tp:
            raise ValueError(f"pe={self.pe} exceeds p - tp = {self.p - self.tp}")

    @property
    def predicted_positive(self) -> float:
        """Number of instances predicted as some positive class."""
        return self.n - self.tn + self.pe + self.tp


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a positive real, got {beta!r}")
    return beta


def _as_int64(labels: np.ndarray) -> np.ndarray | None:
    """Bool, float or object labels as int64, or None if one is no integer int64 holds; each value is
    checked before the cast, which would warn or raise on it, and complex or text labels are none."""
    kind = labels.dtype.kind
    if kind not in "bfO":
        return None
    if kind == "O" and not all(isinstance(v, numbers.Real) and -(2**63) <= v < 2**63 for v in labels.tolist()):
        return None
    if kind == "f" and labels.size and not (labels.min() >= -(2.0**63) and labels.max() < 2.0**63):
        return None
    as_int = labels.astype(np.int64)
    return as_int if np.array_equal(as_int, labels) else None


def _as_label_array(x, *, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.dtype.kind not in "iu":
        arr = _as_int64(arr)
        if arr is None:
            raise ValueError(f"{name} must contain integer labels")
    if arr.size and arr.min() < 0:
        raise ValueError(f"{name} must contain non-negative labels")
    return arr.astype(np.int64, copy=False)


def confusion_from_predictions(gold, pred) -> tuple[ConfusionStats, dict[int, int]]:
    """Tally confusion counts from aligned gold/predicted label sequences.

    :data:`NEGATIVE_LABEL` marks the background class; every other label is
    a positive class.  Returns the aggregate counts plus a per-class map of
    correctly predicted positives (keyed by the positive labels that occur
    in ``gold``).  Empty inputs yield all-zero counts.
    """
    gold_arr = _as_label_array(gold, name="gold")
    pred_arr = _as_label_array(pred, name="pred")
    if gold_arr.shape != pred_arr.shape:
        raise ValueError(
            f"gold and pred must have equal length, got {gold_arr.size} and {pred_arr.size}"
        )
    is_pos = gold_arr != NEGATIVE_LABEL
    hit = gold_arr == pred_arr
    tp_mask = hit & is_pos
    p = np.count_nonzero(is_pos)
    tp = np.count_nonzero(tp_mask)
    # a hit on a positive row predicts a positive, so those rows are the tp
    # ones: tn and pe follow from masks counted once
    tn = np.count_nonzero(hit) - tp
    pe = np.count_nonzero(is_pos & (pred_arr != NEGATIVE_LABEL)) - tp

    per_class = dict.fromkeys(np.unique(gold_arr[is_pos]).tolist(), 0)
    classes, counts = np.unique(gold_arr[tp_mask], return_counts=True)
    per_class.update(zip(classes.tolist(), counts.tolist()))
    return ConfusionStats(p, gold_arr.size - p, tp, tn, pe), per_class


def precision(stats: ConfusionStats) -> float:
    """precision = tp / (n - tn + pe + tp); 0.0 when nothing is predicted positive."""
    den = stats.predicted_positive
    if den <= 0.0:
        return 0.0
    return stats.tp / den


def recall(stats: ConfusionStats) -> float:
    """recall = tp / p; 0.0 when there are no gold positives."""
    if stats.p <= 0.0:
        return 0.0
    return stats.tp / stats.p


def accuracy(stats: ConfusionStats) -> float:
    """accuracy = (tp + tn) / (p + n)."""
    total = stats.p + stats.n
    if total <= 0.0:
        raise ValueError("accuracy undefined for p + n = 0")
    return (stats.tp + stats.tn) / total


def f_beta(stats: ConfusionStats, beta: float = 1.0) -> float:
    """Micro-averaged F-beta: (1 + beta^2) * tp / (beta^2 * p + n - tn + pe + tp).

    beta > 1 weights recall over precision, beta < 1 the reverse.  Degenerate
    0/0 cases (no gold positives and no positive predictions) return 0.0,
    which also makes the all-negative predictor score 0.
    """
    beta = _check_beta(beta)
    b2 = beta * beta
    den = b2 * stats.p + stats.n - stats.tn + stats.pe + stats.tp
    if den <= 0.0:
        return 0.0
    return (1.0 + b2) * stats.tp / den


def marginal_utility_accuracy(stats: ConfusionStats) -> tuple[float, float]:
    """Accuracy gain from one more correct positive or negative prediction.

    Both components equal 1 / (p + n): for the accuracy metric the two
    classes are interchangeable, whatever tp and tn currently are.
    """
    total = stats.p + stats.n
    if total <= 0.0:
        raise ValueError("marginal utilities undefined for p + n = 0")
    u = 1.0 / total
    return u, u


def marginal_utility_fbeta(stats: ConfusionStats, beta: float = 1.0) -> tuple[float, float]:
    """F-beta gain from one more correct positive (mu_tp) or negative (mu_tn).

    With D = beta^2 * p + n - tn + pe + tp:

        mu_tp = (1 + beta^2) * (beta^2 * p + n - tn + pe) / D^2
        mu_tn = (1 + beta^2) * tp / D^2

    Unlike accuracy, the two are unequal and move as tp and tn move, which
    is what makes instance importance a function of model convergence.
    """
    beta = _check_beta(beta)
    b2 = beta * beta
    rest = b2 * stats.p + stats.n - stats.tn + stats.pe
    den = rest + stats.tp
    if den <= 0.0:
        raise ValueError("marginal F-beta utilities undefined: zero denominator")
    mu_tp = (1.0 + b2) * rest / (den * den)
    mu_tn = (1.0 + b2) * stats.tp / (den * den)
    return mu_tp, mu_tn
