"""The optimised formulas give the bytes of their plain forms in ``reference``,
and reject the same inputs with the same messages."""

import warnings

import numpy as np
import pytest
import reference

from adascale import data, losses, metrics, model
from adascale.data import Dataset, StratifiedSampler, UnderSampler, UniformSampler
from adascale.losses import Adaptive, Focal, Static, Vanilla
from adascale.model import ForwardResult, ModelParams, ModelSpec

ROWS = (1, 7, 64, 2000)
CLASSES = (2, 4, 8, 34)
STRATEGIES = (Vanilla(), Static(0.3), Focal(2.0), Adaptive(1.0), Adaptive(0.5))


def _logits(rng, rows, k):
    """Gaussian logits at three scales, with NaN, +-inf and -0.0 planted in some rows."""
    x = rng.normal(size=(rows, k)) * rng.choice([1.0, 30.0, 800.0], size=(rows, 1))
    if rows >= 7:
        x[1, 0] = np.nan
        x[2, k - 1] = np.inf
        x[3, :] = -np.inf
        x[4, :] = -0.0
        x[5, 0], x[5, 1] = -0.0, 0.0
        x[6, 1] = -np.inf
    return x


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_loss(out, ref):
    """Equal loss outputs, down to the sign bit of a NaN."""
    assert np.float64(out.loss).tobytes() == np.float64(ref.loss).tobytes()
    assert (out.w_used is None) == (ref.w_used is None)
    if out.w_used is not None:
        assert np.float64(out.w_used).tobytes() == np.float64(ref.w_used).tobytes()
    _same(out.instance_weights, ref.instance_weights)


def _outcome(call):
    """``("ok", value)`` or ``(type, message)`` of the exception it raised."""
    try:
        return "ok", call()
    except (ValueError, TypeError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("k", CLASSES)
def test_softmax(rows, k):
    logits = _logits(np.random.default_rng(rows * 100 + k), rows, k)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = reference.softmax(logits)
        got = model._softmax(logits.copy())
    _same(got, expected)


def _params(spec, seed):
    params = model.init_params(spec, seed)
    # non-zero biases, so the in-place bias adds are exercised
    rng = np.random.default_rng(seed)
    return ModelParams(spec, params.weights, [rng.normal(size=b.shape) for b in params.biases])


SPECS = [
    ModelSpec(3, 4),
    ModelSpec(20, 9),
    ModelSpec(3, 8, 5, "tanh"),
    ModelSpec(20, 34, 32, "tanh"),
    ModelSpec(3, 4, 6, "relu"),
    ModelSpec(20, 9, 8, "relu"),
]


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("rows", ROWS)
def test_forward_backward(spec, rows):
    rng = np.random.default_rng(rows)
    params = _params(spec, rows)
    x = rng.normal(size=(rows, spec.input_dim)) * 3.0
    got, expected = model.forward(params, x), reference.forward(params, x)
    for name in ("probs", "inputs", "hidden_pre", "hidden"):
        if getattr(expected, name) is None:
            assert getattr(got, name) is None
        else:
            _same(getattr(got, name), getattr(expected, name))

    gold = rng.integers(0, spec.n_classes, size=rows)
    for strategy in STRATEGIES:
        out, ref = losses.compute_loss(strategy, got, gold), reference.compute_loss(strategy, expected, gold)
        _same_loss(out, ref)
        grads = model.backward(params, got, gold, out.instance_weights)
        ref_grads = reference.backward(params, expected, gold, ref.instance_weights)
        for a, b in zip(grads.weights + grads.biases, ref_grads.weights + ref_grads.biases):
            _same(a, b)


def _probs(rng, rows, k):
    probs = rng.dirichlet(np.ones(k), size=rows)
    # gold probabilities of exactly 0 and NaN rows give a non-finite loss
    probs[0, :] = np.nan
    probs[1, :] = 0.0
    probs[1, 0] = 1.0
    return probs


@pytest.mark.parametrize("k", CLASSES)
def test_loss_with_non_finite_probabilities(k):
    rng = np.random.default_rng(k)
    fwd = ForwardResult(probs=_probs(rng, 64, k), inputs=np.zeros((64, 1)))
    gold = rng.integers(0, k, size=64)
    gold[1] = k - 1
    for strategy in STRATEGIES:
        with np.errstate(invalid="ignore"):
            out = _outcome(lambda: losses.compute_loss(strategy, fwd, gold))
            ref = _outcome(lambda: reference.compute_loss(strategy, fwd, gold))
        if ref[0] == "ok":
            assert out[0] == "ok"
            _same_loss(out[1], ref[1])
        else:
            assert out == ref


LABEL_CASES = [
    # (dtype, labels with k=4), the last ones out of range at either end
    ("int8", [0, 1, 3, 2]),
    ("int8", [0, -1, 2, 1]),
    ("int8", [0, 4, 2, 1]),
    ("int8", [-128, 0, 1, 1]),
    ("int8", [127, 0, 1, 1]),
    ("int32", [0, -1, 2, 1]),
    ("int32", [0, 2**31 - 1, 2, 1]),
    ("int64", [0, 3, 2, 1]),
    ("int64", [0, -(2**63), 2, 1]),
    ("int64", [0, 5, 2, 1]),
    (">i4", [0, -1, 2, 1]),
    ("uint8", [0, 3, 2, 1]),
    ("uint8", [0, 4, 2, 1]),
    ("uint8", [0, 255, 2, 1]),
    ("uint64", [0, 2**64 - 1, 2, 1]),
    ("float64", [0, 1, 2, 1]),
    ("bool", [0, 1, 1, 0]),
]


@pytest.mark.parametrize("dtype, labels", LABEL_CASES, ids=lambda c: str(c))
def test_label_checks(dtype, labels):
    gold = np.array(labels, dtype=dtype)
    rng = np.random.default_rng(0)
    fwd = ForwardResult(probs=rng.dirichlet(np.ones(4), size=4), inputs=rng.normal(size=(4, 3)))
    params = _params(ModelSpec(3, 4), 0)
    weights = np.ones(4)
    for strategy in STRATEGIES:
        out = _outcome(lambda: losses.compute_loss(strategy, fwd, gold).loss)
        assert out == _outcome(lambda: reference.compute_loss(strategy, fwd, gold).loss)
    got = _outcome(lambda: model.backward(params, fwd, gold, weights).weights[0].tobytes())
    assert got == _outcome(lambda: reference.backward(params, fwd, gold, weights).weights[0].tobytes())


@pytest.mark.parametrize("k", (128, 129, 200, 300))
def test_narrow_labels_against_many_classes(k):
    # an int8 label's unsigned view is below k here, yet a negative one must still fail
    rng = np.random.default_rng(k)
    fwd = ForwardResult(probs=rng.dirichlet(np.ones(k), size=3), inputs=np.zeros((3, 1)))
    for labels in ([0, 1, 127], [0, -1, 5], [0, -128, 5]):
        gold = np.array(labels, dtype=np.int8)
        out = _outcome(lambda: losses.compute_loss(Vanilla(), fwd, gold).loss)
        assert out == _outcome(lambda: reference.compute_loss(Vanilla(), fwd, gold).loss)


@pytest.mark.parametrize(
    "weights",
    [
        [1.0, 0.5, 0.0, 2.0],
        [1.0, np.nan, 0.0, 2.0],
        [1.0, np.inf, 0.0, 2.0],
        [1.0, -np.inf, 0.0, 2.0],
        [1.0, -1.0, 0.0, 2.0],
        [-0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [[1.0, 1.0, 1.0, 1.0]],
    ],
)
@pytest.mark.parametrize("spec", [ModelSpec(3, 4), ModelSpec(3, 4, 5, "tanh")], ids=str)
def test_weight_checks(weights, spec):
    rng = np.random.default_rng(1)
    params = _params(spec, 1)
    x = rng.normal(size=(4, 3))
    gold = np.array([0, 1, 3, 2])
    w = np.array(weights)
    got = _outcome(lambda: model.backward(params, model.forward(params, x), gold, w).weights[0].tobytes())
    expected = _outcome(
        lambda: reference.backward(params, reference.forward(params, x), gold, w).weights[0].tobytes()
    )
    assert got == expected


def _warned(call, *args):
    """The call's result and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


def _labels(rng, n, positive_rate):
    return np.where(rng.random(n) < positive_rate, rng.integers(1, 4, size=n), 0)


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 200, 1000])
@pytest.mark.parametrize("quota", [1, 2, 5])
def test_stratified_batches(n, quota):
    rng = np.random.default_rng(n * 10 + quota)
    for positive_rate in (0.0, 0.02, 0.3, 1.0):
        labels = _labels(rng, n, positive_rate)
        ds = Dataset(np.zeros((n, 1)), labels, k=4)
        for batch_size in (1, 7, 64):
            seed = int(rng.integers(2**32))
            got, got_warnings = _warned(data.batches, ds, StratifiedSampler(quota), batch_size, seed)
            expected, warned = _warned(reference.batches, ds, StratifiedSampler(quota), batch_size, seed)
            assert got_warnings == warned
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                _same(a, b)


@pytest.mark.parametrize("sampler", [UniformSampler(), UnderSampler(2.0)], ids=str)
def test_other_samplers(sampler):
    rng = np.random.default_rng(5)
    ds = Dataset(np.zeros((300, 1)), _labels(rng, 300, 0.05), k=4)
    for batch_size in (1, 7, 64):
        got = data.batches(ds, sampler, batch_size, 11)
        expected = reference.batches(ds, sampler, batch_size, 11)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            _same(a, b)


CONFUSION_CASES = [
    # (gold, pred) built from (n, k, positive rate, share of correct predictions)
    (0, 4, 0.1, 0.5),
    (1, 4, 0.0, 1.0),
    (1, 4, 1.0, 1.0),
    (7, 2, 0.5, 0.5),
    (64, 4, 0.02, 0.9),
    (2000, 4, 0.02, 0.95),
    (2000, 9, 0.3, 0.5),
    (2000, 34, 0.9, 0.1),
]


@pytest.mark.parametrize("case", CONFUSION_CASES, ids=str)
@pytest.mark.parametrize("negative_label", [0, 2])
def test_confusion(case, negative_label):
    n, k, positive_rate, hit_rate = case
    rng = np.random.default_rng(n + k)
    gold = np.where(rng.random(n) < positive_rate, rng.integers(0, k, size=n), negative_label)
    pred = np.where(rng.random(n) < hit_rate, gold, rng.integers(0, k, size=n))
    for g, p in ((gold, pred), (gold.astype(np.int32), pred.astype(np.uint8)), (gold.astype(float), pred.tolist())):
        stats, per_class = metrics.confusion_from_predictions(g, p, negative_label)
        ref_stats, ref_per_class = reference.confusion_from_predictions(g, p, negative_label)
        assert stats == ref_stats
        assert list(per_class.items()) == list(ref_per_class.items())
        assert all(type(key) is int and type(value) is int for key, value in per_class.items())


@pytest.mark.parametrize(
    "gold, pred",
    [
        ([0, 1], [0]),
        ([0, -1], [0, 1]),
        ([0, 1], [0, -2]),
        ([0, 1.5], [0, 1]),
        ([[0, 1]], [[0, 1]]),
    ],
)
def test_confusion_rejections(gold, pred):
    got = _outcome(lambda: metrics.confusion_from_predictions(gold, pred, 0))
    assert got[0] is ValueError
    assert got == _outcome(lambda: reference.confusion_from_predictions(gold, pred, 0))


def test_confusion_memory_does_not_grow_with_label_values():
    # huge label values count like small ones
    gold = np.array([0, 2**62, 2**62, 5, 0])
    pred = np.array([0, 2**62, 0, 5, 5])
    stats, per_class = metrics.confusion_from_predictions(gold, pred, 0)
    assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (3, 2, 2, 1, 0)
    assert per_class == {5: 1, 2**62: 1}
