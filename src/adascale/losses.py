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

Each strategy declares its JSON tag as ``kind``; ``instance_weights(gold_probs,
is_negative, is_positive, n_positive)`` returns its weights and the step's
adaptive weight (else None), given the batch's complementary label masks and
its positive count.  Weights that are all 1 come back as None, so the step's
kernels skip the multiply by them; :func:`compute_loss` still reports a ones
vector.

:func:`compute_loss` is its checks (the batch check shared with
``model.backward``) and its kernel, no speed tricks: no training step calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .configio import Config, bound
from .metrics import NEGATIVE_LABEL
from .model import ForwardResult, _check_batch

# the kernel, under the name the benchmark in perfbench/ traces as scaling.w_batch
from .scaling import _w_batch as w_batch

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
    kind: ClassVar[str] = "vanilla"

    def instance_weights(self, gold_probs, is_negative, is_positive, n_positive):
        return None, None


@dataclass(frozen=True)
class Adaptive(Config):
    kind: ClassVar[str] = "adaptive"
    beta: float = bound(1.0, exclusiveMinimum=0)

    def instance_weights(self, gold_probs, is_negative, is_positive, n_positive):
        w_used = w_batch(gold_probs, is_positive, is_negative, n_positive, self.beta) if n_positive else 0.0
        return np.where(is_negative, w_used, 1.0), w_used


@dataclass(frozen=True)
class Static(Config):
    kind: ClassVar[str] = "static"
    negative_cost: float = bound(exclusiveMinimum=0)

    def instance_weights(self, gold_probs, is_negative, is_positive, n_positive):
        return np.where(is_negative, self.negative_cost, 1.0), None


@dataclass(frozen=True)
class Focal(Config):
    kind: ClassVar[str] = "focal"
    gamma: float = bound(minimum=0)

    def instance_weights(self, gold_probs, is_negative, is_positive, n_positive):
        return (1.0 - gold_probs) ** self.gamma, None


LossStrategy = Vanilla | Adaptive | Static | Focal


def strategy_label(strategy: LossStrategy) -> str:
    """Short deterministic text tag used in reports and filenames:
    the strategy's kind and its fields, e.g. ``adaptive(beta=1)``."""
    params = ",".join(f"{f.name}={getattr(strategy, f.name):g}" for f in fields(strategy))
    return f"{strategy.kind}({params})" if params else strategy.kind


@dataclass
class LossOutput:
    """Scalar batch loss, the per-instance weights behind it, and the
    adaptive weight applied this step (None for non-adaptive strategies)."""

    loss: float
    instance_weights: np.ndarray | None
    w_used: float | None = None


def compute_loss(strategy: LossStrategy, fwd: ForwardResult, gold) -> LossOutput:
    """Evaluate a strategy on one batch, whose negatives are the rows of gold ``metrics.NEGATIVE_LABEL``.

    The loss is the mean over the batch of weight[i] * (-log p_i) with p_i
    the gold-class probability of row i.  Every probability must lie in [0, 1]
    whatever the strategy; NaN passes, so that a diverged model's loss comes
    out non-finite, the trainer's signal.  Weights are treated as constants
    of the model parameters: for Focal the modulating factor and for
    Adaptive the scaling weight are both frozen at their current-step
    values, so gradients flow only through the log-probabilities.

    An adaptive batch with no positive instances is valid and yields
    w_used = 0.0: every instance gets weight zero, the loss is 0 and the
    step contributes no gradient.
    """
    probs, gold, gold_index = _check_batch(fwd.probs, gold)
    is_negative = gold == NEGATIVE_LABEL
    is_positive = ~is_negative
    n_positive = int(np.count_nonzero(is_positive))
    # a gold probability can underflow to exactly 0 under extreme parameters;
    # the resulting non-finite loss is the divergence signal the trainer checks
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _compute_loss(strategy, probs, gold_index, is_negative, is_positive, n_positive)
    if out.instance_weights is None:
        out.instance_weights = np.ones(probs.shape[0])
    return out


def _compute_loss(
    strategy: LossStrategy,
    probs: np.ndarray,
    gold_index: np.ndarray,
    is_negative: np.ndarray,
    is_positive: np.ndarray,
    n_positive: int,
) -> LossOutput:
    """:func:`compute_loss`'s kernel, for a training step's own arrays: ``probs``
    a non-empty softmax output, ``gold_index`` the flat index of each row's
    gold entry in it, ``is_negative`` and ``is_positive`` the complementary
    bool masks of the rows' labels and ``n_positive`` the count of positive
    rows.  Its caller ignores divide and invalid floating-point errors, which
    a gold probability of 0 or NaN raises.  Weights of None, all ones, skip the
    product (``1.0 * x`` is ``x``, NaN too) and come back None for ``model._backward``."""
    batch = probs.shape[0]
    gold_probs = probs.take(gold_index)
    weights, w_used = strategy.instance_weights(gold_probs, is_negative, is_positive, n_positive)
    nll = np.log(gold_probs)
    np.negative(nll, out=nll)
    if weights is not None:
        # weights first: of two NaN operands the product keeps the first
        np.multiply(weights, nll, out=nll)
    # what ndarray.mean computes: numpy's pairwise sum, then one division
    loss = float(np.add.reduce(nll)) / batch
    return LossOutput(loss=loss, instance_weights=weights, w_used=w_used)
