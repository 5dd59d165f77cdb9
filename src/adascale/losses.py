"""Loss strategies, each reduced to per-instance weights on cross-entropy.

Every strategy produces a weight per instance; the batch loss is the
weighted mean of -log p(gold class) and the model's backward pass consumes
the same weights.  That keeps the optimizer, sampler and evaluation code
byte-identical across strategies: switching strategy changes nothing but
the weights.

Strategies:

    Vanilla     plain cross-entropy, all weights 1
    Static(c)   constant cost c on negative instances
    Focal(g)    weight (1 - p)^g, down-weighting well-classified instances
    Adaptive(b) weight 1 on positives, batch-estimated scaling weight on
                negatives, refreshed every step from the current batch
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Config, bound
from .model import ForwardResult, _row_index
from .scaling import BatchPrediction, w_batch

__all__ = [
    "Vanilla",
    "Adaptive",
    "Static",
    "Focal",
    "LossStrategy",
    "LossOutput",
    "compute_loss",
    "strategy_label",
]


@dataclass(frozen=True)
class Vanilla(Config):
    pass


@dataclass(frozen=True)
class Adaptive(Config):
    beta: float = bound(1.0, exclusiveMinimum=0)


@dataclass(frozen=True)
class Static(Config):
    negative_cost: float = bound(exclusiveMinimum=0)


@dataclass(frozen=True)
class Focal(Config):
    gamma: float = bound(minimum=0)


LossStrategy = Vanilla | Adaptive | Static | Focal


def strategy_label(strategy: LossStrategy) -> str:
    """Short deterministic text tag used in reports and filenames:
    the lower-cased class name and its fields, e.g. ``adaptive(beta=1)``."""
    name = type(strategy).__name__.lower()
    params = ",".join(f"{f.name}={getattr(strategy, f.name):g}" for f in fields(strategy))
    return f"{name}({params})" if params else name


@dataclass
class LossOutput:
    """Scalar batch loss, the per-instance weights behind it, and the
    adaptive weight applied this step (None for non-adaptive strategies)."""

    loss: float
    instance_weights: np.ndarray
    w_used: float | None = None


def compute_loss(
    strategy: LossStrategy, fwd: ForwardResult, gold, negative_label: int = 0
) -> LossOutput:
    """Evaluate a strategy on one batch.

    The loss is the mean over the batch of weight[i] * (-log p_i) with p_i
    the gold-class probability of row i.  Weights are treated as constants
    of the model parameters: for Focal the modulating factor and for
    Adaptive the scaling weight are both frozen at their current-step
    values, so gradients flow only through the log-probabilities.

    An adaptive batch with no positive instances is valid and yields
    w_used = 0.0: every instance gets weight zero, the loss is 0 and the
    step contributes no gradient.
    """
    probs = fwd.probs
    batch = probs.shape[0]
    if batch == 0:
        raise ValueError("batch must contain at least one instance")
    gold_arr = gold if type(gold) is np.ndarray else np.asarray(gold)
    if gold_arr.shape != (batch,):
        raise ValueError("gold labels must have one entry per batch row")
    if gold_arr.dtype.kind not in "iu":
        raise ValueError("gold labels must be integers")
    if gold_arr.size and (gold_arr.min() < 0 or gold_arr.max() >= probs.shape[1]):
        raise ValueError("gold labels out of range")

    gold_probs = probs[_row_index(batch), gold_arr]
    is_negative = gold_arr == negative_label
    w_used: float | None = None

    if isinstance(strategy, Vanilla):
        weights = np.ones(batch)
    elif isinstance(strategy, Static):
        weights = np.where(is_negative, strategy.negative_cost, 1.0)
    elif isinstance(strategy, Focal):
        weights = (1.0 - gold_probs) ** strategy.gamma
    elif isinstance(strategy, Adaptive):
        if np.count_nonzero(is_negative) == batch:
            w_used = 0.0
        else:
            # NaN passes this range test on purpose: a diverged model's NaN
            # probabilities reach the loss, which the trainer flags as
            # non-finite instead of failing the run here
            if gold_probs.min() < 0.0 or gold_probs.max() > 1.0:
                raise ValueError("gold_probs must lie in [0, 1]")
            batch_pred = BatchPrediction._unchecked(gold_probs, ~is_negative)
            w_used = w_batch(batch_pred, strategy.beta)
        weights = np.where(is_negative, w_used, 1.0)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    # a gold probability can underflow to exactly 0 under extreme parameters;
    # the resulting non-finite loss is the divergence signal the trainer checks
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = float((weights * -np.log(gold_probs)).mean())
    return LossOutput(loss=loss, instance_weights=weights, w_used=w_used)
