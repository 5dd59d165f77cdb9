"""Mini-batch training loop with dev-set model selection.

One call to :func:`train` is strictly sequential and fully determined by
its config seed: parameter init, per-epoch batch order and every update
follow from it.  Independent runs share no mutable state and can execute
concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .configio import SCORE, Config, _encode, bound, write_json
from .data import Dataset, SamplerKind, UniformSampler, batches
from .losses import LossStrategy, Vanilla, strategy_label
from .metrics import NEGATIVE_LABEL, ConfusionStats, confusion_from_predictions, f_beta, precision, recall
from .model import Gradients, ModelParams, ModelSpec, init_params, predict

# train() checks its inputs once and each step runs the kernels, bound under
# the names the benchmark in perfbench/ traces
from .losses import _compute_loss as compute_loss
from .model import _backward as backward, _forward as forward

__all__ = [
    "SGD",
    "Adam",
    "Optimizer",
    "TrainConfig",
    "RunReport",
    "train",
    "evaluate",
    "report_to_dict",
    "write_run_report",
]


@dataclass(frozen=True)
class SGD(Config):
    kind: ClassVar[str] = "sgd"
    lr: float = bound(0.1, exclusiveMinimum=0)
    momentum: float = bound(0.0, minimum=0, exclusiveMaximum=1)

    def update(self, state: _OptimizerState, g: np.ndarray) -> None:
        # the velocity is the first moment m: m = momentum * m + g; params -= lr * m
        state.m *= self.momentum
        state.m += g
        np.multiply(state.m, self.lr, out=state.step_buf)
        state.flat -= state.step_buf


@dataclass(frozen=True)
class Adam(Config):
    kind: ClassVar[str] = "adam"
    lr: float = bound(1e-3, exclusiveMinimum=0)
    b1: float = bound(0.9, minimum=0, exclusiveMaximum=1)
    b2: float = bound(0.999, minimum=0, exclusiveMaximum=1)
    eps: float = bound(1e-8, exclusiveMinimum=0)

    def update(self, state: _OptimizerState, g: np.ndarray) -> None:
        if state.t == 0:
            # the decays and gains of m and v as (2, P) rows: a ufunc over arrays of one
            # shape is cheaper than one that broadcasts a (2, 1) column
            state.rates = tuple(
                np.repeat([[r1], [r2]], g.size, axis=1) for r1, r2 in ((self.b1, self.b2), (1.0 - self.b1, 1.0 - self.b2))
            )
        decay, gain = state.rates
        state.t += 1
        # m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * (g * g), over the stacked
        # moments mv = (m, v) and gradients g2 = (g, g * g)
        state.mv *= decay
        np.multiply(g, g, out=state.grad_sq)
        np.multiply(state.g2, gain, out=state.scratch)
        state.mv += state.scratch
        # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        step, denom = state.step_buf, state.denom
        np.divide(state.v, 1.0 - self.b2**state.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(state.m, 1.0 - self.b1**state.t, out=step)
        step *= self.lr
        step /= denom
        state.flat -= step


Optimizer = SGD | Adam


class _OptimizerState:
    """Optimizer buffers over one flat parameter vector.

    Construction moves every weight and bias of ``params`` into one
    contiguous float64 vector and rebinds them as reshaped views of it, so
    each :meth:`step` updates the whole model in one in-place pass over
    preallocated buffers.  The moments are stacked in one ``(2, P)`` buffer
    ``mv``, m (SGD's velocity) then v, and the flat gradient ``grad`` is row
    0 of ``g2``, whose row 1 takes ``g * g``, so Adam moves both moments with
    one call per operation.  ``grads`` holds views of ``grad`` in the model's
    layout, for the backward pass to write into.  Each element goes through
    the operations of the per-array update rule in their order, so every
    result is bit-identical to it.
    """

    def __init__(self, optimizer: Optimizer, params: ModelParams) -> None:
        self.optimizer = optimizer
        arrays = params.weights + params.biases
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.g2 = np.empty((2, self.flat.size))
        self.grad, self.grad_sq = self.g2
        n_layers = len(params.weights)
        params.weights[:], params.biases[:] = self._views(self.flat, arrays, n_layers)
        self.grads = Gradients(*self._views(self.grad, arrays, n_layers))
        self.mv = np.zeros_like(self.g2)
        self.m, self.v = self.mv
        self.scratch = np.empty_like(self.g2)
        self.step_buf, self.denom = self.scratch
        self.rates: tuple[np.ndarray, ...] = ()  # the optimizer's per-moment constants
        self.t = 0

    @staticmethod
    def _views(flat: np.ndarray, arrays: list[np.ndarray], n_layers: int) -> tuple[list, list]:
        """Views of ``flat`` shaped as ``arrays``: the weights, then the biases."""
        views, start = [], 0
        for a in arrays:
            views.append(flat[start : start + a.size].reshape(a.shape))
            start += a.size
        return views[:n_layers], views[n_layers:]

    def step(self) -> None:
        """Apply the gradient the backward pass wrote into ``grads``."""
        self.optimizer.update(self, self.grad)


@dataclass(frozen=True)
class TrainConfig(Config):
    # set for each run by the protocol, never read from or written to JSON
    per_run: ClassVar[tuple[str, ...]] = ("strategy", "seed")
    optimizer: Optimizer = Adam()
    epochs: int = bound(30, minimum=1)
    batch_size: int = bound(64, minimum=1)
    sampler: SamplerKind = UniformSampler()
    strategy: LossStrategy = Vanilla()
    seed: int = bound(0, minimum=0)
    eval_beta: float = bound(1.0, exclusiveMinimum=0)
    early_stop_patience: int | None = bound(None, minimum=1)


@dataclass
class RunReport(Config):
    """Per-seed training outcome.

    ``wall_clock_s`` is informational only and, named in ``per_run``, left
    out of the persisted JSON so that repeated runs produce byte-identical files.
    The test metrics follow from ``test_counts``, the test split's confusion counts.
    An invalid (aborted) run's curves stop at its failure and its test counts and metrics are 0.
    """

    format: ClassVar[str] = "run-report"
    version: ClassVar[int] = 1
    per_run: ClassVar[tuple[str, ...]] = ("wall_clock_s",)
    seed: int
    arm: str = ""
    strategy: str = ""
    eval_beta: float = bound(1.0, exclusiveMinimum=0)
    epochs_run: int = bound(0, minimum=0)
    best_epoch: int = bound(-1, minimum=-1)
    best_dev_f: float = bound(0.0, **SCORE)
    dev_precision: list[float] = field(default_factory=list, metadata={"items": SCORE})
    dev_recall: list[float] = field(default_factory=list, metadata={"items": SCORE})
    dev_f: list[float] = field(default_factory=list, metadata={"items": SCORE})
    loss_curve: list[float] = field(default_factory=list, metadata={"items": {"minimum": 0}})
    w_history: list[float] = field(default_factory=list, metadata={"items": {"minimum": 0}})
    skipped_steps: int = bound(0, minimum=0)
    test_precision: float = bound(0.0, **SCORE)
    test_recall: float = bound(0.0, **SCORE)
    test_f: float = bound(0.0, **SCORE)
    test_counts: ConfusionStats = ConfusionStats(0.0, 0.0, 0.0, 0.0)
    valid: bool = True
    failure: str | None = None
    wall_clock_s: float = 0.0


def evaluate(params: ModelParams, dataset: Dataset, beta: float = 1.0) -> tuple[float, float, float]:
    """Micro precision/recall/F-beta of hard predictions against ``metrics.NEGATIVE_LABEL``.

    The dataset may lack the model's top classes, but not hold a label the
    model cannot predict.
    """
    if dataset.k > params.spec.n_classes:
        raise ValueError(f"dataset k {dataset.k} exceeds model n_classes {params.spec.n_classes}")
    preds = predict(params, dataset.features)
    stats, _ = confusion_from_predictions(dataset.labels, preds)
    return precision(stats), recall(stats), f_beta(stats, beta)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, 2, epoch)).generate_state(1)[0])


def _check_dims(train: Dataset, dev: Dataset, test: Dataset, spec: ModelSpec) -> None:
    for name, ds in (("train", train), ("dev", dev), ("test", test)):
        # a Dataset's features are finite float64 and its labels int64 in [0, k),
        # which is what lets each step skip the checks of the public functions
        if not isinstance(ds, Dataset):
            raise ValueError(f"{name} split must be a data.Dataset, got {type(ds).__name__}")
        if ds.d != spec.input_dim:
            raise ValueError(f"{name} dataset width {ds.d} != model input_dim {spec.input_dim}")
        if ds.k != spec.n_classes:
            raise ValueError(f"{name} dataset k {ds.k} != model n_classes {spec.n_classes}")


def _train_epoch(
    train_ds: Dataset, params: ModelParams, opt_state: _OptimizerState, config: TrainConfig, epoch: int, report: RunReport
) -> float:
    """Run one epoch's steps and return their mean loss; a non-finite loss raises ``FloatingPointError``."""
    epoch_batches = batches(train_ds, config.sampler, config.batch_size, _epoch_seed(config.seed, epoch))
    if not epoch_batches:  # an undersampled epoch is empty when the dataset has no positives
        return 0.0
    # what every step reads is built once per epoch, each step taking its rows as a slice:
    # the rows, their label masks, each batch's positive count and the flat index of
    # each row's gold entry in its batch's (rows, k) probabilities
    sizes = [idx.size for idx in epoch_batches]
    starts = np.cumsum([0] + sizes[:-1])
    order = np.concatenate(epoch_batches)
    epoch_x, epoch_y = train_ds.features.take(order, axis=0), train_ds.labels[order]
    epoch_negative = epoch_y == NEGATIVE_LABEL
    epoch_positive = ~epoch_negative
    n_positive = np.add.reduceat(epoch_positive, starts, dtype=np.intp).tolist()
    epoch_gold = (np.arange(order.size) - np.repeat(starts, sizes)) * train_ds.k + epoch_y
    step_losses = []
    for start, size, positives in zip(starts.tolist(), sizes, n_positive):
        rows = slice(start, start + size)
        gold_index = epoch_gold[rows]
        fwd = forward(params, epoch_x[rows])
        out = compute_loss(
            config.strategy, fwd.probs, gold_index, epoch_negative[rows], epoch_positive[rows], positives
        )
        if not math.isfinite(out.loss):
            raise FloatingPointError(f"non-finite loss at epoch {epoch}, step {len(step_losses)}")
        step_losses.append(out.loss)
        if out.w_used is not None:
            report.w_history.append(float(out.w_used))
            if not positives:
                report.skipped_steps += 1
        backward(params, fwd, gold_index, out.instance_weights, opt_state.grads)
        opt_state.step()
    return float(np.mean(step_losses))


def train(
    train_ds: Dataset,
    dev_ds: Dataset,
    test_ds: Dataset,
    model_spec: ModelSpec,
    config: TrainConfig,
) -> tuple[ModelParams, RunReport]:
    """Run batched updates for the configured epochs; keep the best-dev model.

    After every epoch the dev set is scored with micro F at
    ``config.eval_beta`` on hard predictions; the parameters with the best
    dev F are retained (ties keep the earlier epoch) and final test metrics
    come from those retained parameters.  A non-finite loss, dev or test probability
    ends the run, invalid, instead of raising: its curves keep the finished epochs
    and its test counts and metrics stay 0.  Numpy's divide, invalid and overflow errors
    are ignored while it runs, so the caller's settings do not change the outcome."""
    _check_dims(train_ds, dev_ds, test_ds, model_spec)
    start = time.perf_counter()

    init_seed = int(np.random.SeedSequence((config.seed, 1)).generate_state(1)[0])
    params = init_params(model_spec, init_seed)
    opt_state = _OptimizerState(config.optimizer, params)

    report = RunReport(
        seed=config.seed,
        strategy=strategy_label(config.strategy),
        eval_beta=config.eval_beta,
    )
    best_params = params.copy()
    # a gold probability of 0 or a diverged model's NaN makes the loss non-finite, the
    # signal each step checks; the divide, invalid and overflow errors behind it are ignored
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            for epoch in range(config.epochs):
                epoch_loss = _train_epoch(train_ds, params, opt_state, config, epoch, report)
                try:
                    dev_p, dev_r, dev_f = evaluate(params, dev_ds, config.eval_beta)
                except FloatingPointError:
                    raise FloatingPointError(f"non-finite dev probabilities at epoch {epoch}") from None
                report.loss_curve.append(epoch_loss)
                report.dev_precision.append(dev_p)
                report.dev_recall.append(dev_r)
                report.dev_f.append(dev_f)
                report.epochs_run = epoch + 1
                if dev_f > report.best_dev_f or report.best_epoch < 0:
                    report.best_dev_f = dev_f
                    report.best_epoch = epoch
                    best_params = params.copy()
                elif (
                    config.early_stop_patience is not None
                    and epoch - report.best_epoch >= config.early_stop_patience
                ):
                    break
            try:
                test_preds = predict(best_params, test_ds.features)
            except FloatingPointError:
                raise FloatingPointError("non-finite test probabilities") from None
            counts = report.test_counts = confusion_from_predictions(test_ds.labels, test_preds)[0]
            report.test_precision, report.test_recall = precision(counts), recall(counts)
            report.test_f = f_beta(counts, config.eval_beta)
        except FloatingPointError as error:
            report.failure = str(error)
            report.valid = False
    report.wall_clock_s = time.perf_counter() - start
    return best_params, report


def report_to_dict(report: RunReport) -> dict:
    """Canonical JSON payload for a run, without the fields ``RunReport.per_run`` names."""
    return _encode(report) | {"test_counts": _encode(report.test_counts)}


def write_run_report(report: RunReport, path) -> None:
    write_json(report_to_dict(report), path)
