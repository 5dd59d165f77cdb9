"""The optimised formulas give the bytes of their plain forms in ``reference``,
and reject the same inputs with the same messages."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from adascale import data, losses, metrics, model
from adascale.data import FORMATS, Dataset, StratifiedSampler, UnderSampler, UniformSampler
from adascale.losses import Adaptive, Focal, Static, Vanilla
from adascale.model import ForwardResult, Gradients, ModelParams, ModelSpec

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


def _non_finite_bias(rng, k):
    """A Gaussian bias with -0.0, +inf, -inf and NaN planted, as many as ``k`` holds."""
    bias = rng.normal(size=k)
    planted = [-0.0, np.inf, -np.inf, np.nan][:k]
    bias[rng.permutation(k)[: len(planted)]] = planted
    return bias


@pytest.mark.parametrize("rows", ROWS)
# either side of 8 classes, where the softmax switches between its class-major and row-major forms
@pytest.mark.parametrize("k", CLASSES + (3, 5, 6, 7, 9, 16, 130))
def test_softmax(rows, k):
    rng = np.random.default_rng(rows * 100 + k)
    logits = _logits(rng, rows, k)
    # -0.0 adds nothing to any float, so the first bias gives the softmax of the logits alone
    for bias in (np.full(k, -0.0), rng.normal(size=k) * 30.0, _non_finite_bias(rng, k)):
        given = logits.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            biased = logits + bias
            expected = reference.softmax(biased)
            got = model._softmax(given, bias)
        # the step's probabilities are the array it was given, still C-contiguous:
        # _backward reshapes them in place and the loss takes from them
        assert got is given and got.flags.c_contiguous
        # a row holding a NaN of sign bit 1, here -inf + inf, comes out all NaN on both
        # sides, but numpy's row max and its class-major max may give NaNs of either sign
        negative_nan = (np.isnan(biased) & np.signbit(biased)).any(axis=1)
        _same(got[~negative_nan], expected[~negative_nan])
        assert np.isnan(got[negative_nan]).all() and np.isnan(expected[negative_nan]).all()
        # adding the bias in the softmax keeps every byte of adding it first, those rows included
        with np.errstate(invalid="ignore", over="ignore"):
            _same(got, model._softmax(biased, np.full(k, -0.0)))


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


@pytest.mark.parametrize(
    "spec",
    # below 8 classes the output bias is added in the class-major copy, from 8 up in place
    [ModelSpec(3, k) for k in (3, 4, 7, 8, 9)] + [ModelSpec(3, 4, 5, "tanh"), ModelSpec(3, 9, 5, "relu")],
    ids=str,
)
@pytest.mark.parametrize("rows", ROWS)
def test_forward_with_non_finite_bias(spec, rows):
    rng = np.random.default_rng(rows)
    params = model.init_params(spec, rows)
    params = ModelParams(spec, params.weights, [_non_finite_bias(rng, b.size) for b in params.biases])
    x = rng.normal(size=(rows, spec.input_dim)) * 3.0
    with np.errstate(invalid="ignore", over="ignore"):
        got, expected = model.forward(params, x), reference.forward(params, x)
    for name in ("probs", "inputs", "hidden_pre", "hidden"):
        if getattr(expected, name) is None:
            assert getattr(got, name) is None
        else:
            _same(getattr(got, name), getattr(expected, name))


class _Ones:
    """Vanilla's weights spelled out as ones, as the step's kernels once took them; not a
    ``configio.Config``, which would add it to the codec's table of config classes."""

    def instance_weights(self, gold_probs, is_negative, is_positive, n_positive):
        return np.ones(gold_probs.size), None


@pytest.mark.parametrize("spec", [ModelSpec(3, 4), ModelSpec(3, 9), ModelSpec(3, 4, 5, "tanh")], ids=str)
@pytest.mark.parametrize("rows", ROWS)
def test_implicit_vanilla_weights(spec, rows):
    # the step's kernels skip Vanilla's weights, which come back None; the loss, the
    # logit gradient it leaves in the probabilities and the gradients keep every byte
    # of the kernels given explicit ones, NaN sign bits included
    rng = np.random.default_rng(rows)
    params = _params(spec, rows)
    probs = _logits(rng, rows, spec.n_classes)
    with np.errstate(invalid="ignore", over="ignore"):
        probs = reference.softmax(probs)
    gold = rng.integers(0, spec.n_classes, size=rows)
    gold_index = np.arange(rows) * spec.n_classes + gold
    is_negative = gold == metrics.NEGATIVE_LABEL
    n_positive = int(np.count_nonzero(~is_negative))
    x = rng.normal(size=(rows, spec.input_dim))
    hidden = reference.forward(params, x)
    outs = []
    for strategy in (Vanilla(), _Ones()):
        fwd = ForwardResult(probs.copy(), x, hidden.hidden_pre, hidden.hidden)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = losses._compute_loss(strategy, fwd.probs, gold_index, is_negative, ~is_negative, n_positive)
        grads = Gradients([np.empty_like(a) for a in params.weights], [np.empty_like(a) for a in params.biases])
        model._backward(params, fwd, gold_index, out.instance_weights, grads)
        outs.append((out, fwd.probs, grads))
    (implicit, dlogits, grads), (explicit, ref_dlogits, ref_grads) = outs
    assert implicit.instance_weights is None and implicit.w_used is None
    assert np.float64(implicit.loss).tobytes() == np.float64(explicit.loss).tobytes()
    if rows >= 7:
        assert np.isnan(implicit.loss)
    _same(dlogits, ref_dlogits)
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
    # against k >= 128 every non-negative int8 label is a class, yet a negative one must still fail
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
@pytest.mark.parametrize("fill_label", [0, 2])
def test_confusion(case, fill_label):
    # fill_label fills the gold entries not drawn; both sides score against label 0
    n, k, positive_rate, hit_rate = case
    rng = np.random.default_rng(n + k)
    gold = np.where(rng.random(n) < positive_rate, rng.integers(0, k, size=n), fill_label)
    pred = np.where(rng.random(n) < hit_rate, gold, rng.integers(0, k, size=n))
    for g, p in ((gold, pred), (gold.astype(np.int32), pred.astype(np.uint8)), (gold.astype(float), pred.tolist())):
        stats, per_class = metrics.confusion_from_predictions(g, p)
        ref_stats, ref_per_class = reference.confusion_from_predictions(g, p, 0)
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
    got = _outcome(lambda: metrics.confusion_from_predictions(gold, pred))
    assert got[0] is ValueError
    assert got == _outcome(lambda: reference.confusion_from_predictions(gold, pred, 0))


def test_confusion_memory_does_not_grow_with_label_values():
    # huge label values count like small ones
    gold = np.array([0, 2**62, 2**62, 5, 0])
    pred = np.array([0, 2**62, 0, 5, 5])
    stats, per_class = metrics.confusion_from_predictions(gold, pred)
    assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (3, 2, 2, 1, 0)
    assert per_class == {5: 1, 2**62: 1}


# the extremes of float64 (subnormal, smallest normal, largest), a signed
# zero and the points where repr switches between fixed and exponent form
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 3.0, 1e16, 1.7976931348623157e308]


def _edge_dataset(n, d):
    """Edge values of either sign mixed with Gaussian values at three scales; labels up to 33."""
    rng = np.random.default_rng(n * 100 + d)
    edges = rng.choice(EDGE_FLOATS, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    gaussian = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e6], size=(n, d))
    features = np.where(rng.random((n, d)) < 0.5, edges, gaussian)
    labels = rng.integers(0, 34, size=n)
    labels[-1] = 33
    return Dataset(features, labels, k=34)


@pytest.mark.parametrize("n", [1, 2, 512, 513, 2000])
@pytest.mark.parametrize("d", [1, 2, 20])
@pytest.mark.parametrize("fmt", FORMATS)
def test_save(tmp_path, n, d, fmt):
    ds = _edge_dataset(n, d)
    other = next(f for f in FORMATS if f != fmt)
    (tmp_path / "got").mkdir()
    (tmp_path / "expected").mkdir()
    for name, format in ((f"rows.{fmt}", None), ("rows.DAT", fmt), (f"rows.{other}", fmt)):
        data.save(ds, tmp_path / "got" / name, format)
        reference.save(ds, tmp_path / "expected" / name, format)
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()


# every finite float64: any sign and mantissa, exponent bits short of all ones
FINITE_BITS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.integers(0, 2046),
    st.integers(0, 2**52 - 1),
)


@st.composite
def _datasets(draw):
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    bits = draw(st.lists(FINITE_BITS, min_size=n * d, max_size=n * d))
    labels = draw(st.lists(st.integers(0, 33), min_size=n, max_size=n))
    features = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d)
    return Dataset(features, np.array(labels), k=34)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_datasets())
def test_save_any_finite_floats(ds):
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            got, expected = Path(tmp, f"got.{fmt}"), Path(tmp, f"expected.{fmt}")
            data.save(ds, got)
            reference.save(ds, expected)
            assert got.read_bytes() == expected.read_bytes()
            back = data.load(got)
            _same(back.features, ds.features)
            _same(back.labels, ds.labels)


_LONG = "1" + "0" * 5000  # beyond Python's 4,300-digit int-string limit

# (id, file name, text)
LOAD_CASES = [
    ("csv good", "a.csv", "f0,f1,label\n0.5,1.5,1\n-1.0,2.0,0\n0.0,0.25,3\n"),
    ("csv crlf and quotes", "a.csv", 'f0,f1,label\r\n"0.5",-0.0,1\r\n1e-05,5e-324,0\r\n'),
    ("csv lenient numbers", "a.csv", "f0,label\n 1.5 ,+2\n1_0, 3 \n1e308,1_0\n"),
    ("csv label zero only", "a.csv", "f0,label\n0.5,0\n"),
    ("csv empty", "a.csv", ""),
    ("csv header only", "a.csv", "f0,label\n"),
    ("csv bad header", "a.csv", "a,b,label\n1,2,0\n"),
    ("csv header without label", "a.csv", "f0,f1\n1,2\n"),
    ("csv label only header", "a.csv", "label\n0\n"),
    ("csv blank line", "a.csv", "f0,label\n0.5,0\n\n0.5,1\n"),
    ("csv missing column", "a.csv", "f0,f1,label\n1.0,0\n"),
    ("csv extra column", "a.csv", "f0,label\n1.0,0,0\n"),
    ("csv malformed feature", "a.csv", "f0,label\nouch,0\n"),
    ("csv nan feature", "a.csv", "f0,label\n0.5,0\nnan,0\n"),
    ("csv overflowing feature", "a.csv", "f0,label\n1e309,0\n"),
    ("csv feature beyond digit limit", "a.csv", f"f0,label\n0.5,0\n{_LONG},0\n"),
    ("csv malformed label", "a.csv", "f0,label\n0.5,1.0\n"),
    ("csv negative label", "a.csv", "f0,label\n1.0,0\n2.0,-1\n"),
    ("csv label beyond int64", "a.csv", f"f0,label\n0.5,{2**63}\n"),
    ("csv label beyond digit limit", "a.csv", f"f0,label\n0.5,{_LONG}\n"),
    ("csv bad feature then bad label", "a.csv", "f0,label\n0.5,0\nx,0\n0.5,-1\n"),
    ("csv bad label then short row", "a.csv", "f0,label\n0.5,-1\n0.5\nx,0\n"),
    ("csv width then nan", "a.csv", "f0,f1,label\n0.5,0.5,0\n0.5,0\nnan,0.5,0\n"),
    # where numpy's C tokenizer and csv.reader with float() and int() could part
    ("csv whitespace-only line", "a.csv", "f0,label\n0.5,0\n  \n0.5,1\n"),
    ("csv trailing blank line", "a.csv", "f0,label\n0.5,0\n\n"),
    ("csv bare cr line ends", "a.csv", "f0,label\r0.5,0\r-1.5,1\r"),
    ("csv text after closing quote", "a.csv", 'f0,label\n"1.5"5,0\n'),
    ("csv doubled quotes", "a.csv", 'f0,label\n"1""5",0\n'),
    ("csv comment line", "a.csv", "f0,label\n0.5,0\n# a comment\n"),
    ("csv tab padding", "a.csv", "f0,f1,label\n\t1.5,2.5\t,\t1\t\n"),
    ("csv arabic-indic digits", "a.csv", "f0,label\n\u0661.\u0665,\u0662\n0.5,0\n"),
    ("csv float label", "a.csv", "f0,label\n0.5,0\n0.5,7.0\n"),
    ("csv signed labels", "a.csv", "f0,label\n0.5,+7\n1.5,-0\n"),
    ("csv quoted label", "a.csv", 'f0,label\n0.5,"1"\n'),
    ("csv empty feature cell", "a.csv", "f0,f1,label\n0.5,0.5,0\n0.5,,0\n"),
    ("csv quoted header", "a.csv", '"f0","label"\n0.5,1\n'),
    ("csv no trailing newline", "a.csv", "f0,label\n0.5,0\n1.5,1"),
    ("jsonl good", "a.jsonl", '{"features": [0.5, 1], "label": 1}\n\n{"label": 0, "features": [-0.0, 1e-05]}\n'),
    ("jsonl integers and exponents", "a.jsonl", '{"features": [' + str(10**20) + ', 3, 5e-324, 1E2], "label": 2}\n'),
    ("jsonl no trailing newline", "a.jsonl", '{"features": [0.5], "label": 0}'),
    ("jsonl empty", "a.jsonl", ""),
    ("jsonl blank lines only", "a.jsonl", "\n  \n"),
    ("jsonl malformed", "a.jsonl", '{"features": [1.0], "label": 0}\nnot json\n'),
    ("jsonl not an object", "a.jsonl", "[1.0, 0]\n"),
    ("jsonl missing label", "a.jsonl", '{"features": [1.0]}\n'),
    ("jsonl features not a list", "a.jsonl", '{"features": 1.0, "label": 0}\n'),
    ("jsonl boolean feature", "a.jsonl", '{"features": [true, 0.5], "label": 0}\n'),
    ("jsonl string feature", "a.jsonl", '{"features": ["0.5"], "label": 0}\n'),
    ("jsonl nan feature", "a.jsonl", '{"features": [NaN], "label": 0}\n'),
    ("jsonl integer beyond float", "a.jsonl", '{"features": [1' + "0" * 400 + '], "label": 0}\n'),
    ("jsonl float label", "a.jsonl", '{"features": [0.5], "label": 1.0}\n'),
    ("jsonl boolean label", "a.jsonl", '{"features": [0.5], "label": true}\n'),
    ("jsonl negative label", "a.jsonl", '{"features": [0.5], "label": -2}\n'),
    ("jsonl label beyond int64", "a.jsonl", '{"features": [0.5], "label": ' + str(2**63) + "}\n"),
    ("jsonl malformed then bad label", "a.jsonl", '{"features": [0.5], "label": 0}\n{\n{"features": [0.5], "label": -1}\n'),
    ("jsonl bad feature then no label", "a.jsonl", '{"features": [false], "label": 0}\n{"features": [0.5]}\n'),
    ("jsonl bad label and width", "a.jsonl", '{"features": [0.5], "label": 0}\n{"features": [0.5, 1], "label": -1}\n'),
    ("jsonl width", "a.jsonl", '{"features": [0.5], "label": 0}\n{"features": [0.5, 1], "label": 0}\n'),
    ("jsonl width then malformed", "a.jsonl", '{"features": [0.5, 1], "label": 0}\n{"features": [0.5], "label": 0}\nnot json\n'),
    ("jsonl width twice", "a.jsonl", '{"features": [0.5], "label": 0}\n\n{"features": [], "label": 0}\n{"features": [1, 2], "label": 0}\n'),
    # np.fromiter converts ints to float64 as float() does, rounding those beyond 2**53
    ("jsonl integers a float rounds", "a.jsonl", '{"features": [' + f"{2**53 + 1}, {-(2**63) - 1}" + '], "label": 1}\n'),
    ("jsonl ints and floats mixed", "a.jsonl", '{"features": [1, 0.5, -2], "label": 0}\n{"features": [0.25, 3, -0.0], "label": 1}\n'),
    ("jsonl negative infinity", "a.jsonl", '{"features": [0.5, -Infinity], "label": 0}\n'),
    ("jsonl string before integer beyond float", "a.jsonl", '{"features": ["x", 1' + "0" * 400 + '], "label": 0}\n'),
]

# the one intended difference: the first JSONL row of another width than the
# first row's is named with its line, where the reference names only the
# widths, after every line passed its other checks; (reference, library)
# message after the path
WIDTH_ERRORS = {
    "jsonl width": (": inconsistent feature widths [1, 2]", ":2: expected 1 features, got 2"),
    "jsonl width then malformed": (":3: malformed JSON", ":2: expected 2 features, got 1"),
    "jsonl width twice": (": inconsistent feature widths [0, 1, 2]", ":3: expected 1 features, got 0"),
}


def _loaded(load, path):
    """The loaded arrays and k as bytes, or the ValueError's message."""
    try:
        ds = load(path)
    except ValueError as error:
        return str(error)
    return ds.features.shape, ds.features.tobytes(), ds.labels.dtype, ds.labels.tobytes(), ds.k


@pytest.mark.parametrize("case, name, text", LOAD_CASES, ids=[case[0] for case in LOAD_CASES])
def test_load(tmp_path, case, name, text):
    path = tmp_path / name
    path.write_text(text)
    got, expected = _loaded(data.load, path), _loaded(reference.load, path)
    if case in WIDTH_ERRORS:
        old, new = WIDTH_ERRORS[case]
        assert (expected, got) == (f"{path}{old}", f"{path}{new}")
    else:
        assert got == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_load_saved_edge_floats(tmp_path, fmt):
    path = tmp_path / f"rows.{fmt}"
    data.save(_edge_dataset(2000, 20), path)
    got, expected = data.load(path), reference.load(path)
    _same(got.features, expected.features)
    _same(got.labels, expected.labels)
    assert got.k == expected.k == 34
