"""Minimal softmax classifiers with analytic forward/backward passes.

Two architectures: a linear softmax layer, and one hidden layer (tanh or
relu) followed by softmax.  The loss layer lives elsewhere and only ever
talks to these models through per-instance weights, so any strategy that
can express itself as instance weighting plugs in unchanged.

The public :func:`forward` and :func:`backward` check each call, then run the
kernel a training step calls; no step calls them, so they carry no speed
tricks.  ``backward`` shares its gold-label check with ``losses.compute_loss``.
A checkpoint file is a :class:`Checkpoint`, which ``configio`` writes, reads
and checks as it does every tagged document; this module adds only its rules across fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .configio import Config, bound, from_json, read_json, to_json, write_json

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


@dataclass(frozen=True)
class CheckpointLayer(Config):
    """One layer of a :class:`Checkpoint`: a row-major (fan_in, fan_out) ``weight`` and its ``bias``."""

    weight: list[list[float]]
    bias: list[float]


@dataclass(frozen=True)
class Checkpoint(Config):
    """The document :func:`save_params` writes: ``arch`` is "linear" and ``activation`` None exactly when
    there is no ``hidden_dim``, and ``layers`` hold one finite layer of each shape in ``spec.layer_dims``."""

    format: ClassVar[str] = "softmax-classifier"
    version: ClassVar[int] = 1
    arch: str = bound(enum=("linear", "mlp"))
    input_dim: int = bound(minimum=1)
    n_classes: int = bound(minimum=2)
    hidden_dim: int | None = bound(minimum=1)
    activation: str | None = bound(enum=(*ACTIVATIONS, None))
    layers: list[CheckpointLayer]

    def __post_init__(self) -> None:
        super().__post_init__()
        linear = self.hidden_dim is None
        if (self.arch == "linear") != linear:
            raise ValueError(f"Checkpoint.arch {self.arch!r} does not match hidden_dim {self.hidden_dim!r}")
        if (self.activation is None) != linear:
            raise ValueError(
                f"Checkpoint.activation {self.activation!r} does not match hidden_dim {self.hidden_dim!r}"
            )
        dims = self.spec.layer_dims
        if len(self.layers) != len(dims):
            raise ValueError(f"Checkpoint.layers: expected {len(dims)} layers, got {len(self.layers)}")
        for i, (layer, (fan_in, fan_out)) in enumerate(zip(self.layers, dims)):
            where = f"Checkpoint.layers[{i}]"
            # lengths are compared: a declared dimension may be too large to build anything of
            if len(layer.weight) != fan_in or any(len(row) != fan_out for row in [*layer.weight, layer.bias]):
                raise ValueError(f"{where}: expected weight shape ({fan_in}, {fan_out}), bias ({fan_out},)")
            # the codec checks no float nested in a list, and JSON's NaN and 1e400 read as non-finite ones
            if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
                raise ValueError(f"{where}: non-finite parameter values")

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.input_dim, self.n_classes, self.hidden_dim, self.activation or ModelSpec.activation)


@dataclass
class ModelParams:
    """Weights and biases per layer; weights[i] has shape (fan_in, fan_out)."""

    spec: ModelSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.spec, [w.copy() for w in self.weights], [b.copy() for b in self.biases])


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


def _softmax(logits: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Row softmax of ``logits + bias`` in place: ``logits`` must be a fresh temporary.

    Max subtraction keeps exp in range.  The row max is reduced from a transposed
    copy, much faster for narrow rows and exact (max ignores order, NaN still wins)
    but for the sign bit of a NaN, on a row that is NaN anyway.  Below 8 classes that
    copy is ``logits.T + bias[:, None]``, and the whole softmax runs on it: numpy's
    pairwise row sum adds fewer than 8 terms in order, as the sum over the copy's rows
    does, so the bytes match.  From 8 classes up the bias is added in place and the
    row sum stays ``sum(axis=1)``, whose pairwise order the results depend on.
    """
    if logits.shape[1] < 8:
        t = np.add(logits.T, bias[:, None], order="C")
        t -= np.maximum.reduce(t, axis=0)
        np.exp(t, out=t)
        np.divide(t, np.add.reduce(t, axis=0), out=logits.T)
        return logits
    logits += bias
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


def _check_gold(gold, probs: np.ndarray, out_of_range: str) -> tuple[np.ndarray, np.ndarray]:
    """Checked gold labels of a ``(rows, k)`` batch and each one's flat index in it."""
    gold = np.asarray(gold)
    rows = probs.shape[0]
    if gold.shape != (rows,):
        raise ValueError("gold labels must have one entry per batch row")
    if gold.dtype.kind not in "iu":
        raise ValueError("gold labels must be integers")
    k = probs.shape[1]
    if gold.size and (gold.min() < 0 or gold.max() >= k):
        raise ValueError(out_of_range)
    return gold, np.arange(rows) * k + gold.astype(np.intp)


def _check_features(spec: ModelSpec, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
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
    if params.spec.hidden_dim is None:
        return ForwardResult(probs=_softmax(x @ params.weights[0], params.biases[0]), inputs=x)
    pre = x @ params.weights[0]
    pre += params.biases[0]
    act = _activate(params.spec.activation, pre)
    logits = act @ params.weights[1]
    return ForwardResult(probs=_softmax(logits, params.biases[1]), inputs=x, hidden_pre=pre, hidden=act)


def backward(
    params: ModelParams, fwd: ForwardResult, gold, instance_weights
) -> Gradients:
    """Gradient of the weighted mean negative log-likelihood.

    The loss being differentiated is

        mean over i of instance_weights[i] * (-log probs[i, gold[i]])

    so the returned gradient is exactly linear in the instance weights.
    """
    probs = fwd.probs
    w = np.asarray(instance_weights, dtype=np.float64)
    _, gold_index = _check_gold(gold, probs, "gold labels out of range for model class count")
    if w.shape != (probs.shape[0],):
        raise ValueError("instance_weights must have one entry per batch row")
    # NaN fails both comparisons
    if not (w.min() >= 0.0 and w.max() < np.inf):
        raise ValueError("instance_weights must be finite and non-negative")
    grads = Gradients([np.empty_like(a) for a in params.weights], [np.empty_like(a) for a in params.biases])
    return _backward(params, replace(fwd, probs=probs.copy()), gold_index, w, grads)


def _backward(
    params: ModelParams, fwd: ForwardResult, gold_index: np.ndarray, w: np.ndarray | None, grads: Gradients
) -> Gradients:
    """:func:`backward`'s kernel, for a training step's own arrays: it turns
    ``fwd.probs``, a C-ordered softmax output, into the logit gradient in place,
    subtracting 1 at the flat ``gold_index`` of each row's gold entry, and
    writes the gradients into ``grads``, which it returns.  Weights ``w`` of None
    stand for all ones, and scale by ``1.0 / batch``, as ``(ones / batch)[:, None]`` does."""
    dlogits = fwd.probs
    batch = dlogits.shape[0]
    dlogits.reshape(-1)[gold_index] -= 1.0
    if w is None:
        dlogits *= 1.0 / batch
    else:
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
    """Per-row argmax labels; ties resolve to the lowest class index.  A diverged model's
    non-finite probabilities raise ``FloatingPointError``, with no numpy warning before it."""
    with np.errstate(over="ignore", invalid="ignore"):
        probs = forward(params, features).probs
    if not np.isfinite(probs).all():
        raise FloatingPointError("non-finite class probabilities")
    return np.argmax(probs, axis=1)


def save_params(params: ModelParams, path) -> None:
    """Write ``params`` as a :class:`Checkpoint` through ``configio``, keys sorted."""
    spec, layers = params.spec, [CheckpointLayer(w.tolist(), b.tolist()) for w, b in zip(params.weights, params.biases)]
    arch, activation = ("linear", None) if spec.hidden_dim is None else ("mlp", spec.activation)
    write_json(to_json(Checkpoint(arch, spec.input_dim, spec.n_classes, spec.hidden_dim, activation, layers)), path)


def load_params(path) -> ModelParams:
    """Read a :func:`save_params` checkpoint; any other file raises ``ValueError("<path>: <reason>")``."""
    doc = read_json(path)
    try:
        checkpoint = from_json(Checkpoint, doc)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    layers = checkpoint.layers
    return ModelParams(checkpoint.spec, [np.array(x.weight) for x in layers], [np.array(x.bias) for x in layers])
