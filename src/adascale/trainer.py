"""Mini-batch training loop with dev-set model selection.

One call to :func:`train` is strictly sequential and fully determined by
its config seed: parameter init, per-epoch batch order and every update
follow from it.  Independent runs share no mutable state and can execute
concurrently.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import NEGATIVE_LABEL, Config, Dataset, SamplerKind, UniformSampler, batches, bound
from .losses import Adaptive, LossStrategy, Vanilla, compute_loss, strategy_label
from .metrics import confusion_from_predictions, f_beta, precision, recall
from .model import Gradients, ModelParams, ModelSpec, backward, forward, init_params, predict

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
    lr: float = bound(0.1, exclusiveMinimum=0)
    momentum: float = bound(0.0, minimum=0, exclusiveMaximum=1)


@dataclass(frozen=True)
class Adam(Config):
    lr: float = bound(1e-3, exclusiveMinimum=0)
    b1: float = bound(0.9, minimum=0, exclusiveMaximum=1)
    b2: float = bound(0.999, minimum=0, exclusiveMaximum=1)
    eps: float = bound(1e-8, exclusiveMinimum=0)


Optimizer = SGD | Adam


class _OptimizerState:
    """Optimizer buffers over one flat parameter vector.

    Construction moves every weight and bias of ``params`` into one
    contiguous float64 vector and rebinds them as reshaped views of it, so
    each :meth:`step` updates the whole model in one in-place pass over
    preallocated buffers.  The element-wise operations and their order are
    those of the per-array update rule, so every result is bit-identical
    to it.
    """

    def __init__(self, optimizer: Optimizer, params: ModelParams) -> None:
        self.optimizer = optimizer
        arrays = params.weights + params.biases
        self.flat = np.concatenate([a.ravel() for a in arrays])
        views, start = [], 0
        for a in arrays:
            views.append(self.flat[start : start + a.size].reshape(a.shape))
            start += a.size
        n_layers = len(params.weights)
        params.weights[:] = views[:n_layers]
        params.biases[:] = views[n_layers:]
        self.grad = np.empty_like(self.flat)
        self.scratch = np.empty_like(self.flat)
        if isinstance(optimizer, SGD):
            self.velocity = np.zeros_like(self.flat)
        else:
            self.m = np.zeros_like(self.flat)
            self.v = np.zeros_like(self.flat)
            self.denom = np.empty_like(self.flat)
            self.t = 0

    def step(self, grads: Gradients) -> None:
        g = np.concatenate(grads.weights + grads.biases, axis=None, out=self.grad)
        tmp = self.scratch
        opt = self.optimizer
        if isinstance(opt, SGD):
            # velocity = momentum * velocity + g; params -= lr * velocity
            self.velocity *= opt.momentum
            self.velocity += g
            np.multiply(self.velocity, opt.lr, out=tmp)
            self.flat -= tmp
        else:
            self.t += 1
            bc1 = 1.0 - opt.b1**self.t
            bc2 = 1.0 - opt.b2**self.t
            # m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * (g * g)
            self.m *= opt.b1
            np.multiply(g, 1.0 - opt.b1, out=tmp)
            self.m += tmp
            self.v *= opt.b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - opt.b2
            self.v += tmp
            # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(self.v, bc2, out=self.denom)
            np.sqrt(self.denom, out=self.denom)
            self.denom += opt.eps
            np.divide(self.m, bc1, out=tmp)
            tmp *= opt.lr
            tmp /= self.denom
            self.flat -= tmp


@dataclass(frozen=True)
class TrainConfig(Config):
    optimizer: Optimizer = Adam()
    epochs: int = bound(30, minimum=1)
    batch_size: int = bound(64, minimum=1)
    sampler: SamplerKind = UniformSampler()
    strategy: LossStrategy = Vanilla()
    seed: int = bound(0, minimum=0)
    eval_beta: float = bound(1.0, exclusiveMinimum=0)
    early_stop_patience: int | None = bound(None, minimum=1)


@dataclass
class RunReport:
    """Per-seed training outcome.

    ``wall_clock_s`` is informational only and deliberately excluded from
    the persisted JSON so that repeated runs produce byte-identical files.
    For invalid (aborted) runs the curves stop at the point of failure and
    test metrics are zeroed.
    """

    seed: int
    arm: str = ""
    strategy: str = ""
    eval_beta: float = 1.0
    epochs_run: int = 0
    best_epoch: int = -1
    best_dev_f: float = 0.0
    dev_precision: list[float] = field(default_factory=list)
    dev_recall: list[float] = field(default_factory=list)
    dev_f: list[float] = field(default_factory=list)
    loss_curve: list[float] = field(default_factory=list)
    w_history: list[float] = field(default_factory=list)
    skipped_steps: int = 0
    test_precision: float = 0.0
    test_recall: float = 0.0
    test_f: float = 0.0
    valid: bool = True
    failure: str | None = None
    wall_clock_s: float = 0.0


def evaluate(params: ModelParams, dataset: Dataset, beta: float = 1.0) -> tuple[float, float, float]:
    """Micro precision/recall/F-beta of hard predictions, negative label 0."""
    preds = predict(params, dataset.features)
    stats, _ = confusion_from_predictions(dataset.labels, preds, NEGATIVE_LABEL)
    return precision(stats), recall(stats), f_beta(stats, beta)


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence((seed, 2, epoch)).generate_state(1)[0])


def _check_dims(train: Dataset, dev: Dataset, test: Dataset, spec: ModelSpec) -> None:
    for name, ds in (("train", train), ("dev", dev), ("test", test)):
        if ds.d != spec.input_dim:
            raise ValueError(f"{name} dataset width {ds.d} != model input_dim {spec.input_dim}")
        if ds.k != spec.n_classes:
            raise ValueError(f"{name} dataset k {ds.k} != model n_classes {spec.n_classes}")


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
    come from those retained parameters.  A non-finite loss or dev
    probability aborts the run and flags the report invalid instead of raising.
    """
    _check_dims(train_ds, dev_ds, test_ds, model_spec)
    start = time.perf_counter()

    init_seed = int(np.random.SeedSequence((config.seed, 1)).generate_state(1)[0])
    params = init_params(model_spec, init_seed)
    opt_state = _OptimizerState(config.optimizer, params)
    adaptive = isinstance(config.strategy, Adaptive)

    report = RunReport(
        seed=config.seed,
        strategy=strategy_label(config.strategy),
        eval_beta=config.eval_beta,
    )
    best_params = params.copy()

    for epoch in range(config.epochs):
        step_losses = []
        epoch_batches = batches(train_ds, config.sampler, config.batch_size, _epoch_seed(config.seed, epoch))
        # one gather per epoch; each step reads its rows as a slice
        order = np.concatenate(epoch_batches) if epoch_batches else []
        epoch_x, epoch_y = train_ds.features[order], train_ds.labels[order]
        epoch_positive = epoch_y != NEGATIVE_LABEL
        offset = 0
        for idx in epoch_batches:
            rows = slice(offset, offset + idx.size)
            offset += idx.size
            x, y = epoch_x[rows], epoch_y[rows]
            fwd = forward(params, x)
            out = compute_loss(config.strategy, fwd, y, NEGATIVE_LABEL)
            if not math.isfinite(out.loss):
                report.failure = (
                    f"non-finite loss at epoch {epoch}, step {len(step_losses)}"
                )
                report.valid = False
                report.epochs_run = epoch
                report.wall_clock_s = time.perf_counter() - start
                return best_params, report
            step_losses.append(out.loss)
            if adaptive:
                report.w_history.append(float(out.w_used))
                if not np.count_nonzero(epoch_positive[rows]):
                    report.skipped_steps += 1
            grads = backward(params, fwd, y, out.instance_weights)
            opt_state.step(grads)

        try:
            dev_p, dev_r, dev_f = evaluate(params, dev_ds, config.eval_beta)
        except FloatingPointError:
            report.failure = f"non-finite dev probabilities at epoch {epoch}"
            report.valid = False
            report.wall_clock_s = time.perf_counter() - start
            return best_params, report
        # an undersampled epoch can be empty when the dataset has no positives
        report.loss_curve.append(float(np.mean(step_losses)) if step_losses else 0.0)
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

    test_p, test_r, test_f = evaluate(best_params, test_ds, config.eval_beta)
    report.test_precision = test_p
    report.test_recall = test_r
    report.test_f = test_f
    report.wall_clock_s = time.perf_counter() - start
    return best_params, report


def report_to_dict(report: RunReport) -> dict:
    """Canonical JSON payload for a run (timing excluded, see RunReport)."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name != "wall_clock_s"}


def write_run_report(report: RunReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
