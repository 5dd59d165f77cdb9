"""Plain array formulas that the library's optimised step and evaluation
must reproduce byte for byte.

Each function is the straightforward form of its library counterpart:
``model._softmax``, ``model.forward``, ``model.backward``,
``losses.compute_loss``, ``data.batches`` with its stratified sampler,
``metrics.confusion_from_predictions``, ``data.save``, ``data.load`` and
``trainer.train``.  They allocate freely, gather each batch's rows
separately, count with ``np.sum``, write rows through ``csv.writer`` and
``json.dumps``, read a file as a list of per-row float lists before making
one array of it and keep one optimizer state per parameter array.
Nothing here may be optimised: the oracle tests and ``TestReferenceLoop``
compare the library against these copies.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from adascale.data import (
    _MAX_LABEL,
    NEGATIVE_LABEL,
    Dataset,
    StratificationWarning,
    StratifiedSampler,
    UnderSampler,
    UniformSampler,
    _chunk,
    _infer_format,
    _load_error,
)
from adascale.losses import Adaptive, Focal, LossOutput, Static, Vanilla, strategy_label
from adascale.metrics import ConfusionStats, f_beta, precision, recall
from adascale.model import (
    ForwardResult,
    Gradients,
    _activate,
    _check_features,
    init_params,
)
from adascale.trainer import SGD, RunReport


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def activate_grad(name: str, pre: np.ndarray, act: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - act * act
    return (pre > 0.0).astype(pre.dtype)


def forward(params, features) -> ForwardResult:
    x = _check_features(params.spec, features)
    if params.spec.hidden_dim is None:
        logits = x @ params.weights[0] + params.biases[0]
        return ForwardResult(probs=softmax(logits), inputs=x)
    pre = x @ params.weights[0] + params.biases[0]
    act = _activate(params.spec.activation, pre)
    logits = act @ params.weights[1] + params.biases[1]
    return ForwardResult(probs=softmax(logits), inputs=x, hidden_pre=pre, hidden=act)


def backward(params, fwd: ForwardResult, gold, instance_weights) -> Gradients:
    probs = fwd.probs
    batch = probs.shape[0]
    gold_arr = gold if type(gold) is np.ndarray else np.asarray(gold)
    w = np.asarray(instance_weights, dtype=np.float64)
    if gold_arr.shape != (batch,):
        raise ValueError("gold labels must have one entry per batch row")
    if gold_arr.dtype.kind not in "iu":
        raise ValueError("gold labels must be integers")
    if gold_arr.size and (gold_arr.min() < 0 or gold_arr.max() >= probs.shape[1]):
        raise ValueError("gold labels out of range for model class count")
    if w.shape != (batch,):
        raise ValueError("instance_weights must have one entry per batch row")
    if not np.isfinite(w).all() or w.min() < 0.0:
        raise ValueError("instance_weights must be finite and non-negative")

    dlogits = probs.copy()
    dlogits[np.arange(batch), gold_arr] -= 1.0
    dlogits *= (w / batch)[:, None]

    if params.spec.hidden_dim is None:
        g_w = fwd.inputs.T @ dlogits
        g_b = dlogits.sum(axis=0)
        return Gradients(weights=[g_w], biases=[g_b])

    g_w2 = fwd.hidden.T @ dlogits
    g_b2 = dlogits.sum(axis=0)
    d_hidden = dlogits @ params.weights[1].T
    d_pre = d_hidden * activate_grad(params.spec.activation, fwd.hidden_pre, fwd.hidden)
    g_w1 = fwd.inputs.T @ d_pre
    g_b1 = d_pre.sum(axis=0)
    return Gradients(weights=[g_w1, g_w2], biases=[g_b1, g_b2])


def compute_loss(strategy, fwd: ForwardResult, gold, negative_label: int = 0) -> LossOutput:
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

    gold_probs = probs[np.arange(batch), gold_arr]
    is_negative = gold_arr == negative_label
    w_used = None

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
            if gold_probs.min() < 0.0 or gold_probs.max() > 1.0:
                raise ValueError("gold_probs must lie in [0, 1]")
            # tp_b / (beta^2 * p_b + n_b - tn_b) of the batch's expected counts
            is_positive = ~is_negative
            p_b = int(np.sum(is_positive))
            den = strategy.beta * strategy.beta * p_b + (batch - p_b) - float(gold_probs[is_negative].sum())
            if den <= 0.0:
                raise ValueError("batch scaling weight undefined: zero denominator")
            w_used = float(gold_probs[is_positive].sum()) / den
        weights = np.where(is_negative, w_used, 1.0)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    with np.errstate(divide="ignore", invalid="ignore"):
        loss = float((weights * -np.log(gold_probs)).mean())
    return LossOutput(loss=loss, instance_weights=weights, w_used=w_used)


def stratified_batches(labels, sampler, batch_size, rng) -> list[np.ndarray]:
    n = labels.size
    pos = rng.permutation(np.flatnonzero(labels != NEGATIVE_LABEL))
    neg = rng.permutation(np.flatnonzero(labels == NEGATIVE_LABEL))
    n_batches = math.ceil(n / batch_size)
    sizes = [batch_size] * (n // batch_size)
    if n % batch_size:
        sizes.append(n % batch_size)

    quota = sampler.min_positives_per_batch
    if pos.size < quota * n_batches:
        warnings.warn(
            f"stratified quota infeasible: {pos.size} positives for {n_batches} batches "
            f"of >= {quota}; allocating best-effort",
            StratificationWarning,
            stacklevel=3,
        )

    reserved = []
    ptr = 0
    for size in sizes:
        take = min(quota, size, pos.size - ptr)
        reserved.append(pos[ptr : ptr + take])
        ptr += take

    pool = rng.permutation(np.concatenate([pos[ptr:], neg]))
    out = []
    start = 0
    for size, res in zip(sizes, reserved):
        fill = pool[start : start + size - res.size]
        start += fill.size
        out.append(rng.permutation(np.concatenate([res, fill])))
    return out


def batches(dataset, sampler, batch_size: int, seed: int) -> list[np.ndarray]:
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    labels = dataset.labels

    if isinstance(sampler, UniformSampler):
        return _chunk(rng.permutation(dataset.n), batch_size)
    if isinstance(sampler, StratifiedSampler):
        return stratified_batches(labels, sampler, batch_size, rng)
    if isinstance(sampler, UnderSampler):
        pos = np.flatnonzero(labels != NEGATIVE_LABEL)
        neg = np.flatnonzero(labels == NEGATIVE_LABEL)
        keep = min(neg.size, int(round(sampler.neg_to_pos_ratio * pos.size)))
        chosen = rng.permutation(neg)[:keep]
        pool = rng.permutation(np.concatenate([pos, chosen]))
        return _chunk(pool, batch_size)
    raise TypeError(f"unknown sampler {sampler!r}")


def _as_label_array(x, *, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size == 0:
        return arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if not np.array_equal(as_int, arr):
            raise ValueError(f"{name} must contain integer labels")
        arr = as_int
    if arr.min() < 0:
        raise ValueError(f"{name} must contain non-negative labels")
    return arr.astype(np.int64)


def confusion_from_predictions(gold, pred, negative_label: int):
    gold_arr = _as_label_array(gold, name="gold")
    pred_arr = _as_label_array(pred, name="pred")
    if gold_arr.shape != pred_arr.shape:
        raise ValueError(
            f"gold and pred must have equal length, got {gold_arr.size} and {pred_arr.size}"
        )
    if gold_arr.size == 0:
        return ConfusionStats(0.0, 0.0, 0.0, 0.0, 0.0), {}

    is_pos = gold_arr != negative_label
    correct = gold_arr == pred_arr
    p = int(np.sum(is_pos))
    n = int(gold_arr.size - p)
    tp = int(np.sum(correct & is_pos))
    tn = int(np.sum(correct & ~is_pos))
    pe = int(np.sum(is_pos & ~correct & (pred_arr != negative_label)))

    per_class = {
        int(c): int(np.sum(correct & (gold_arr == c)))
        for c in np.unique(gold_arr[is_pos])
    }
    return ConfusionStats(p, n, tp, tn, pe), per_class


def evaluate(params, dataset, beta: float = 1.0) -> tuple[float, float, float]:
    """``trainer.evaluate`` over the formulas above."""
    probs = forward(params, dataset.features).probs
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite class probabilities")
    stats, _ = confusion_from_predictions(dataset.labels, np.argmax(probs, axis=1), NEGATIVE_LABEL)
    return precision(stats), recall(stats), f_beta(stats, beta)


def save(dataset, path, format: str | None = None) -> None:
    """``data.save`` through ``csv.writer`` and ``json.dumps``, one row at a time."""
    path = Path(path)
    fmt = _infer_format(path, format)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{i}" for i in range(dataset.d)] + ["label"])
            for row, label in zip(dataset.features, dataset.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
    else:
        with path.open("w") as fh:
            for row, label in zip(dataset.features, dataset.labels):
                fh.write(
                    json.dumps({"features": [float(v) for v in row], "label": int(label)})
                    + "\n"
                )


def load_csv(path: Path) -> tuple[list[list[float]], list[int]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _load_error(path, 1, "empty file") from None
        if len(header) < 2 or header[-1] != "label":
            raise _load_error(path, 1, "header must be f0,...,f{d-1},label")
        d = len(header) - 1
        if header[:-1] != [f"f{i}" for i in range(d)]:
            raise _load_error(path, 1, "header must be f0,...,f{d-1},label")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise _load_error(path, lineno, f"expected {d + 1} columns, got {len(row)}")
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError:
                raise _load_error(path, lineno, "malformed feature value") from None
            if not all(math.isfinite(v) for v in values):
                raise _load_error(path, lineno, "features must be finite")
            try:
                label = int(row[-1])
            except ValueError:
                raise _load_error(path, lineno, "malformed label") from None
            if not 0 <= label <= _MAX_LABEL:
                raise _load_error(path, lineno, f"label {label} out of range")
            feats.append(values)
            labels.append(label)
    return feats, labels


def load_jsonl(path: Path) -> tuple[list[list[float]], list[int]]:
    feats, labels = [], []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                raise _load_error(path, lineno, "malformed JSON") from None
            if not isinstance(obj, dict) or "features" not in obj or "label" not in obj:
                raise _load_error(path, lineno, "object must have 'features' and 'label'")
            raw = obj["features"]
            try:
                finite = isinstance(raw, list) and all(
                    type(v) in (int, float) and math.isfinite(v) for v in raw
                )
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise _load_error(path, lineno, "'features' must be a list of finite reals")
            label = obj["label"]
            if type(label) is not int:
                raise _load_error(path, lineno, "malformed label")
            if not 0 <= label <= _MAX_LABEL:
                raise _load_error(path, lineno, f"label {label} out of range")
            feats.append([float(v) for v in raw])
            labels.append(label)
    return feats, labels


def load(path, format: str | None = None) -> Dataset:
    """``data.load`` through per-row float lists, one ``np.asarray`` and a
    check of the feature widths after the last line."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    if path.is_dir():
        raise ValueError(f"{path}: is a directory")
    fmt = _infer_format(path, format)
    feats, labels = load_csv(path) if fmt == "csv" else load_jsonl(path)
    if not feats:
        raise _load_error(path, 1, "no data rows")
    widths = {len(row) for row in feats}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent feature widths {sorted(widths)}")
    k = max(labels) + 1
    return Dataset(features=np.asarray(feats), labels=np.asarray(labels), k=max(k, 2))


def train(train_ds, dev_ds, test_ds, spec, config):
    """``trainer.train`` as a plain step loop: the formulas above, one row
    gather per batch, and per-array Adam and SGD with momentum, written out
    without the trainer's flat optimizer state."""
    init_seed = int(np.random.SeedSequence((config.seed, 1)).generate_state(1)[0])
    params = init_params(spec, init_seed)
    arrays = params.weights + params.biases
    opt = config.optimizer
    velocity = [np.zeros_like(a) for a in arrays]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    t = 0
    adaptive = isinstance(config.strategy, Adaptive)
    report = RunReport(
        seed=config.seed, strategy=strategy_label(config.strategy), eval_beta=config.eval_beta
    )
    best_params = params.copy()
    for epoch in range(config.epochs):
        step_losses = []
        epoch_seed = int(np.random.SeedSequence((config.seed, 2, epoch)).generate_state(1)[0])
        for idx in batches(train_ds, config.sampler, config.batch_size, epoch_seed):
            x = train_ds.features[idx]
            y = train_ds.labels[idx]
            fwd = forward(params, x)
            out = compute_loss(config.strategy, fwd, y, NEGATIVE_LABEL)
            if not np.isfinite(out.loss):
                report.failure = f"non-finite loss at epoch {epoch}, step {len(step_losses)}"
                report.valid = False
                report.epochs_run = epoch
                return best_params, report
            step_losses.append(out.loss)
            if adaptive:
                report.w_history.append(float(out.w_used))
                if not np.any(y != NEGATIVE_LABEL):
                    report.skipped_steps += 1
            grads = backward(params, fwd, y, out.instance_weights)
            g_arrays = grads.weights + grads.biases
            if isinstance(opt, SGD):
                for i, (a, g) in enumerate(zip(arrays, g_arrays)):
                    velocity[i] = opt.momentum * velocity[i] + g
                    a -= opt.lr * velocity[i]
            else:
                t += 1
                bc1 = 1.0 - opt.b1**t
                bc2 = 1.0 - opt.b2**t
                for i, (a, g) in enumerate(zip(arrays, g_arrays)):
                    m[i] = opt.b1 * m[i] + (1.0 - opt.b1) * g
                    v[i] = opt.b2 * v[i] + (1.0 - opt.b2) * (g * g)
                    a -= opt.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + opt.eps)
        report.loss_curve.append(float(np.mean(step_losses)) if step_losses else 0.0)
        dev_p, dev_r, dev_f = evaluate(params, dev_ds, config.eval_beta)
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
    report.test_precision, report.test_recall, report.test_f = evaluate(
        best_params, test_ds, config.eval_beta
    )
    test_preds = np.argmax(forward(best_params, test_ds.features).probs, axis=1)
    report.test_counts, _ = confusion_from_predictions(test_ds.labels, test_preds, NEGATIVE_LABEL)
    return best_params, report
