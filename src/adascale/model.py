"""Minimal softmax classifiers with analytic forward/backward passes.

Two architectures: a linear softmax layer, and one hidden layer (tanh or
relu) followed by softmax.  The loss layer lives elsewhere and only ever
talks to these models through per-instance weights, so any strategy that
can express itself as instance weighting plugs in unchanged.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .configio import from_json, read_json
from .data import Config, bound

__all__ = [
    "ModelSpec",
    "ModelParams",
    "Gradients",
    "ForwardResult",
    "init_params",
    "forward",
    "backward",
    "predict",
    "save_params",
    "load_params",
]

ACTIVATIONS = ("tanh", "relu")
_CHECKPOINT_FORMAT = "softmax-classifier"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelSpec(Config):
    """Architecture description: input width, class count, optional hidden layer."""

    input_dim: int = bound(minimum=1)
    n_classes: int = bound(minimum=2)
    hidden_dim: int | None = bound(None, minimum=1)
    activation: str = bound("tanh", enum=ACTIVATIONS)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        if self.hidden_dim is None:
            return [(self.input_dim, self.n_classes)]
        return [(self.input_dim, self.hidden_dim), (self.hidden_dim, self.n_classes)]


@dataclass
class ModelParams:
    """Weights and biases per layer; weights[i] has shape (fan_in, fan_out)."""

    spec: ModelSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class Gradients:
    """Loss gradients in ModelParams layout."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class ForwardResult:
    """Row-stochastic class probabilities plus activations for the backward pass."""

    probs: np.ndarray
    inputs: np.ndarray
    hidden_pre: np.ndarray | None = field(default=None, repr=False)
    hidden: np.ndarray | None = field(default=None, repr=False)


def init_params(spec: ModelSpec, seed: int) -> ModelParams:
    """Seeded uniform init, weights in [-a, a] with a = sqrt(6/(fan_in+fan_out))."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(spec=spec, weights=weights, biases=biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: ``logits`` must be a fresh temporary.

    Max subtraction keeps exp in range.  The row max is reduced from a
    transposed copy, which is exact (max ignores order, NaN still wins) and
    much faster for narrow rows; the row sum stays ``sum(axis=1)``, whose
    pairwise order the results depend on.
    """
    logits -= np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(pre)
    return np.maximum(pre, 0.0)


def _activate_grad(name: str, pre: np.ndarray, act: np.ndarray) -> np.ndarray:
    if name == "tanh":
        grad = act * act
        return np.subtract(1.0, grad, out=grad)
    # a bool mask multiplies as 0.0 / 1.0
    return pre > 0.0


def _as_float64(values) -> np.ndarray:
    if type(values) is np.ndarray and values.dtype == np.float64:
        return values
    return np.asarray(values, dtype=np.float64)


@functools.lru_cache(maxsize=None)
def _row_index(n: int) -> np.ndarray:
    """Read-only ``arange(n)``, shared by every batch of n rows."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _unsigned_view(dtype: np.dtype) -> tuple[np.dtype, int]:
    """The unsigned dtype of an integer dtype's width, and the dtype's max + 1."""
    return np.dtype(dtype.str.replace("i", "u")), int(np.iinfo(dtype).max) + 1


def _gold_index(gold: np.ndarray, k: int) -> np.ndarray:
    """Flat index of each row's gold entry in a C-ordered ``(rows, k)`` matrix,
    for integer ``gold`` labels in ``[0, k)``."""
    return _row_index(gold.size) * k + gold.astype(np.intp, copy=False)


def _labels_out_of_range(labels: np.ndarray, k: int) -> bool:
    """Whether an integer label lies outside ``[0, k)``, in one reduction.

    Viewed as unsigned of the same width, a negative label reads as at least
    the signed max + 1, so one max tests both bounds once k is capped there.
    """
    if labels.size == 0:
        return False
    unsigned, limit = _unsigned_view(labels.dtype)
    return bool(labels.view(unsigned).max() >= min(k, limit))


def _check_features(spec: ModelSpec, features) -> np.ndarray:
    x = _as_float64(features)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature width {x.shape[1]} does not match model input_dim {spec.input_dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x


def forward(params: ModelParams, features) -> ForwardResult:
    """Compute class probabilities for a batch of feature rows."""
    return _forward(params, _check_features(params.spec, features))


def _forward(params: ModelParams, x: np.ndarray) -> ForwardResult:
    """:func:`forward`'s kernel: ``x`` is a finite float64 matrix of the model's width."""
    pre = x @ params.weights[0]
    pre += params.biases[0]
    if params.spec.hidden_dim is None:
        return ForwardResult(probs=_softmax(pre), inputs=x)
    act = _activate(params.spec.activation, pre)
    logits = act @ params.weights[1]
    logits += params.biases[1]
    return ForwardResult(probs=_softmax(logits), inputs=x, hidden_pre=pre, hidden=act)


def backward(
    params: ModelParams, fwd: ForwardResult, gold, instance_weights
) -> Gradients:
    """Gradient of the weighted mean negative log-likelihood.

    The loss being differentiated is

        mean over i of instance_weights[i] * (-log probs[i, gold[i]])

    so the returned gradient is exactly linear in the instance weights.
    """
    probs = fwd.probs
    batch = probs.shape[0]
    gold_arr = gold if type(gold) is np.ndarray else np.asarray(gold)
    w = _as_float64(instance_weights)
    if gold_arr.shape != (batch,):
        raise ValueError("gold labels must have one entry per batch row")
    if gold_arr.dtype.kind not in "iu":
        raise ValueError("gold labels must be integers")
    if _labels_out_of_range(gold_arr, probs.shape[1]):
        raise ValueError("gold labels out of range for model class count")
    if w.shape != (batch,):
        raise ValueError("instance_weights must have one entry per batch row")
    # NaN fails both comparisons
    if not (w.min() >= 0.0 and w.max() < np.inf):
        raise ValueError("instance_weights must be finite and non-negative")
    grads = Gradients(
        weights=[np.empty_like(a) for a in params.weights],
        biases=[np.empty_like(a) for a in params.biases],
    )
    gold_index = _gold_index(gold_arr, probs.shape[1])
    return _backward(params, replace(fwd, probs=probs.copy()), gold_index, w, grads)


def _backward(
    params: ModelParams, fwd: ForwardResult, gold_index: np.ndarray, w: np.ndarray, grads: Gradients
) -> Gradients:
    """:func:`backward`'s kernel, for a training step's own arrays: it turns
    ``fwd.probs``, a C-ordered softmax output, into the logit gradient in place,
    subtracting 1 at the flat ``gold_index`` of each row's gold entry, and
    writes the gradients into ``grads``, which it returns."""
    dlogits = fwd.probs
    batch = dlogits.shape[0]
    dlogits.reshape(-1)[gold_index] -= 1.0
    dlogits *= (w / batch)[:, None]

    if params.spec.hidden_dim is None:
        np.matmul(fwd.inputs.T, dlogits, out=grads.weights[0])
        np.add.reduce(dlogits, axis=0, out=grads.biases[0])
        return grads

    np.matmul(fwd.hidden.T, dlogits, out=grads.weights[1])
    np.add.reduce(dlogits, axis=0, out=grads.biases[1])
    d_pre = dlogits @ params.weights[1].T
    d_pre *= _activate_grad(params.spec.activation, fwd.hidden_pre, fwd.hidden)
    np.matmul(fwd.inputs.T, d_pre, out=grads.weights[0])
    np.add.reduce(d_pre, axis=0, out=grads.biases[0])
    return grads


def predict(params: ModelParams, features) -> np.ndarray:
    """Per-row argmax labels; ties resolve to the lowest class index.  A
    diverged model's non-finite probabilities raise ``FloatingPointError``."""
    probs = forward(params, features).probs
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite class probabilities")
    return np.argmax(probs, axis=1)


def save_params(params: ModelParams, path) -> None:
    """Write a checkpoint as self-describing JSON.

    Layout (stable): ``format``, ``version``, ``arch`` ("linear" or "mlp"),
    ``input_dim``, ``n_classes``, ``hidden_dim``, ``activation``, and
    ``layers``, a list of {"weight": nested row-major lists, "bias": list}.
    """
    spec = params.spec
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "arch": "linear" if spec.hidden_dim is None else "mlp",
        "input_dim": spec.input_dim,
        "n_classes": spec.n_classes,
        "hidden_dim": spec.hidden_dim,
        "activation": None if spec.hidden_dim is None else spec.activation,
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def load_params(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_params`, validating shapes."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if doc.get("version") != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')!r}")
    try:
        dims = {name: doc[name] for name in ("input_dim", "n_classes", "hidden_dim")}
        if dims["hidden_dim"] is not None:
            dims["activation"] = doc["activation"]
        try:
            spec = from_json(ModelSpec, dims)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
        weights, biases = [], []
        layers = doc["layers"]
        if len(layers) != len(spec.layer_dims):
            raise ValueError(f"{path}: expected {len(spec.layer_dims)} layers, got {len(layers)}")
        for layer, (fan_in, fan_out) in zip(layers, spec.layer_dims):
            w = np.asarray(layer["weight"], dtype=np.float64)
            b = np.asarray(layer["bias"], dtype=np.float64)
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise ValueError(f"{path}: layer shape mismatch")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"{path}: non-finite parameter values")
            weights.append(w)
            biases.append(b)
    except KeyError as error:
        raise ValueError(f"{path}: missing key {error}") from None
    return ModelParams(spec=spec, weights=weights, biases=biases)
