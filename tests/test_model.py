import math

import numpy as np
import numpy.testing as npt
import pytest

from adascale.losses import Adaptive, Focal, Static, Vanilla, compute_loss
from adascale.model import (
    Checkpoint,
    CheckpointLayer,
    ForwardResult,
    ModelParams,
    ModelSpec,
    backward,
    forward,
    init_params,
    load_params,
    predict,
    save_params,
)


def _numeric_gradient(params, x, gold, weights, h=1e-5):
    def loss_now():
        probs = forward(params, x).probs
        lp = np.log(probs[np.arange(len(gold)), gold])
        return float(np.mean(weights * -lp))

    grads = []
    for arr in params.weights + params.biases:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = loss_now()
            arr[ix] = orig - h
            lm = loss_now()
            arr[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
        worst = max(worst, float(err.max()))
    return worst


class TestSpecValidation:
    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=0, n_classes=3)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, n_classes=1)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, n_classes=3, hidden_dim=0)

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, n_classes=3, hidden_dim=4, activation="gelu")


class TestInit:
    def test_deterministic(self):
        spec = ModelSpec(6, 4, hidden_dim=5)
        a = init_params(spec, 3)
        b = init_params(spec, 3)
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            npt.assert_array_equal(wa, wb)

    def test_bounds_and_zero_biases(self):
        spec = ModelSpec(10, 3)
        params = init_params(spec, 0)
        a = np.sqrt(6.0 / (10 + 3))
        assert np.all(np.abs(params.weights[0]) <= a)
        assert np.all(params.biases[0] == 0.0)


class TestForward:
    def test_zero_weights_give_uniform(self):
        spec = ModelSpec(5, 4)
        params = ModelParams(spec, [np.zeros((5, 4))], [np.zeros(4)])
        probs = forward(params, np.random.default_rng(0).normal(size=(6, 5))).probs
        npt.assert_allclose(probs, 0.25, atol=1e-15)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec(4, 3)
        params = init_params(spec, 2)
        x = rng.normal(size=(8, 4))
        base = forward(params, x).probs
        shifted = ModelParams(spec, [w.copy() for w in params.weights], [params.biases[0] + 7.5])
        npt.assert_allclose(forward(shifted, x).probs, base, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for spec in (ModelSpec(7, 3), ModelSpec(7, 3, hidden_dim=5, activation="relu")):
            params = init_params(spec, 4)
            probs = forward(params, rng.normal(size=(20, 7), scale=3.0)).probs
            npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_dimension_mismatch(self):
        params = init_params(ModelSpec(5, 3), 0)
        with pytest.raises(ValueError, match="width"):
            forward(params, np.zeros((2, 4)))

    def test_non_finite_features(self):
        params = init_params(ModelSpec(2, 3), 0)
        with pytest.raises(ValueError, match="finite"):
            forward(params, np.array([[np.nan, 0.0]]))

    def test_deterministic(self):
        spec = ModelSpec(5, 3, hidden_dim=4)
        params = init_params(spec, 9)
        x = np.random.default_rng(3).normal(size=(11, 5))
        npt.assert_array_equal(forward(params, x).probs, forward(params, x).probs)


class TestBackward:
    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(4)
        params = init_params(ModelSpec(5, 3, hidden_dim=4), 1)
        x = rng.normal(size=(6, 5))
        fwd = forward(params, x)
        grads = backward(params, fwd, rng.integers(0, 3, size=6), np.zeros(6))
        for g in grads.weights + grads.biases:
            assert np.all(g == 0.0)

    def test_linear_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_params(ModelSpec(5, 3), 7)
        x = rng.normal(size=(4, 5))
        gold = rng.integers(0, 3, size=4)
        weights = rng.uniform(0.1, 2.0, size=4)
        fwd = forward(params, x)
        analytic = backward(params, fwd, gold, weights)
        numeric = _numeric_gradient(params, x, gold, weights)
        assert _max_rel_err(analytic.weights + analytic.biases, numeric) < 1e-4

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for activation in ("tanh", "relu"):
            params = init_params(ModelSpec(4, 3, hidden_dim=6, activation=activation), 8)
            x = rng.normal(size=(5, 4))
            gold = rng.integers(0, 3, size=5)
            weights = rng.uniform(0.1, 2.0, size=5)
            fwd = forward(params, x)
            analytic = backward(params, fwd, gold, weights)
            numeric = _numeric_gradient(params, x, gold, weights)
            assert _max_rel_err(analytic.weights + analytic.biases, numeric) < 1e-4

    def test_gradient_linear_in_instance_weight(self):
        rng = np.random.default_rng(7)
        params = init_params(ModelSpec(5, 3), 2)
        x = rng.normal(size=(6, 5))
        gold = rng.integers(0, 3, size=6)
        fwd = forward(params, x)
        w = np.ones(6)
        w2 = w.copy()
        w2[2] = 2.0
        base = backward(params, fwd, gold, w)
        doubled = backward(params, fwd, gold, w2)
        only = np.zeros(6)
        only[2] = 1.0
        contribution = backward(params, fwd, gold, only)
        for d, b, c in zip(
            doubled.weights + doubled.biases,
            base.weights + base.biases,
            contribution.weights + contribution.biases,
        ):
            npt.assert_allclose(d - b, c, atol=1e-12)

    def test_bad_shapes(self):
        params = init_params(ModelSpec(3, 3), 0)
        fwd = forward(params, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            backward(params, fwd, np.array([0]), np.ones(2))
        with pytest.raises(ValueError):
            backward(params, fwd, np.array([0, 1]), np.ones(3))
        with pytest.raises(ValueError):
            backward(params, fwd, np.array([0, 1]), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            backward(params, fwd, np.array([0, 5]), np.ones(2))


# a gold probability outside [0, 1], in an all-negative batch, under every strategy
GOLD_PROB_CASES = {
    f"gold prob {prob} {name}": (strategy, prob)
    for prob in (1.5, -0.5)
    for name, strategy in [
        ("vanilla", Vanilla()), ("static", Static(0.3)), ("focal", Focal(0.5)), ("adaptive no positives", Adaptive(1.0))
    ]
}


class TestPublicStepFunctions:
    """The public forward, compute_loss and backward check every call and leave
    their inputs as they were; only the kernels a training step calls write in place."""

    @pytest.mark.parametrize(
        "spec", [ModelSpec(3, 4), ModelSpec(3, 4, 5, "tanh"), ModelSpec(3, 4, 5, "relu")], ids=str
    )
    @pytest.mark.parametrize("strategy", [Vanilla(), Static(0.3), Focal(2.0), Adaptive(1.0)], ids=str)
    def test_inputs_left_alone(self, spec, strategy):
        rng = np.random.default_rng(11)
        params = init_params(spec, 3)
        x = rng.normal(size=(6, 3))
        gold = np.array([0, 1, 0, 3, 2, 0])
        fwd = forward(params, x)
        arrays = {
            "x": x, "gold": gold, "probs": fwd.probs, "inputs": fwd.inputs,
            "hidden_pre": fwd.hidden_pre, "hidden": fwd.hidden,
            **{f"param{i}": a for i, a in enumerate(params.weights + params.biases)},
        }
        before = {name: a.tobytes() for name, a in arrays.items() if a is not None}

        out = compute_loss(strategy, fwd, gold)
        weights = out.instance_weights.tobytes()
        first = backward(params, fwd, gold, out.instance_weights)
        again = backward(params, fwd, gold, out.instance_weights)
        forward(params, x)

        assert {name: a.tobytes() for name, a in arrays.items() if a is not None} == before
        assert out.instance_weights.tobytes() == weights
        for a, b in zip(first.weights + first.biases, again.weights + again.biases):
            assert a.tobytes() == b.tobytes()
            assert not any(np.shares_memory(a, p) for p in params.weights + params.biases)

    def test_probabilities_are_read_as_float64(self):
        # a list of probabilities scores as the float64 matrix it holds, and a NaN one passes
        params = init_params(ModelSpec(3, 4, 5, "tanh"), 3)
        fwd = forward(params, np.random.default_rng(5).normal(size=(4, 3)))
        gold, ones = np.array([0, 1, 0, 3]), np.ones(4)
        listed = ForwardResult(fwd.probs.tolist(), fwd.inputs, fwd.hidden_pre, fwd.hidden)
        for strategy in (Vanilla(), Adaptive(1.0)):
            assert compute_loss(strategy, listed, gold).loss == compute_loss(strategy, fwd, gold).loss
        got, expected = backward(params, listed, gold, ones), backward(params, fwd, gold, ones)
        for a, b in zip(got.weights + got.biases, expected.weights + expected.biases):
            assert a.tobytes() == b.tobytes()
        diverged = ForwardResult(np.full((4, 4), np.nan), fwd.inputs, fwd.hidden_pre, fwd.hidden)
        assert math.isnan(compute_loss(Vanilla(), diverged, gold).loss)

    @staticmethod
    def _calls():
        params = init_params(ModelSpec(3, 4), 0)
        fwd = forward(params, np.zeros((2, 3)))
        gold, ones = np.array([0, 1]), np.ones(2)
        bad_probs = ForwardResult(
            probs=np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]]), inputs=np.zeros((2, 3))
        )
        empty = ForwardResult(probs=np.zeros((0, 4)), inputs=np.zeros((0, 3)))
        # the NaN row must not hide the second row's 1.5 and -0.5
        nan_masked = ForwardResult(
            probs=np.array([[np.nan, 0.2, 0.3, 0.5], [1.5, -0.5, 0.0, 0.0]]), inputs=np.zeros((2, 3))
        )
        twos = ForwardResult(probs=np.full((2, 4), 2.0), inputs=np.zeros((2, 3)))
        flat = ForwardResult(probs=np.full(4, 0.25), inputs=np.zeros((1, 3)))
        no_columns = ForwardResult(probs=np.zeros((2, 0)), inputs=np.zeros((2, 3)))

        def out_of_range(strategy, prob):
            probs = np.array([[0.5, 0.5, 0.0, 0.0], [prob, 1.0 - prob, 0.0, 0.0]])
            return compute_loss(strategy, ForwardResult(probs=probs, inputs=np.zeros((2, 3))), np.array([0, 0]))

        return {
            **{
                case: (lambda args=args: out_of_range(*args), "probs must lie in [0, 1]")
                for case, args in GOLD_PROB_CASES.items()
            },
            "2-D features": (lambda: forward(params, np.zeros(3)), "features must be a 2-D matrix"),
            "feature width": (
                lambda: forward(params, np.zeros((2, 2))), "feature width 2 does not match model input_dim 3"
            ),
            "finite features": (lambda: forward(params, np.array([[0.0, np.inf, 0.0]])), "features must be finite"),
            "empty batch": (lambda: compute_loss(Vanilla(), empty, np.zeros(0, dtype=int)),
                            "batch must contain at least one instance"),
            "loss gold rows": (lambda: compute_loss(Vanilla(), fwd, np.array([0])),
                               "gold labels must have one entry per batch row"),
            "loss gold ints": (lambda: compute_loss(Vanilla(), fwd, np.array([0.0, 0.5])),
                               "gold must contain integer labels"),
            "loss gold range": (lambda: compute_loss(Vanilla(), fwd, np.array([0, 4])), "gold must lie in [0, 3]"),
            "gold probs range": (
                lambda: compute_loss(Adaptive(1.0), bad_probs, gold), "probs must lie in [0, 1]"
            ),
            "loss nan-masked probs": (lambda: compute_loss(Vanilla(), nan_masked, gold), "probs must lie in [0, 1]"),
            "loss probs of 2": (lambda: compute_loss(Vanilla(), twos, gold), "probs must lie in [0, 1]"),
            "loss 1-D probs": (lambda: compute_loss(Vanilla(), flat, np.array([0])), "probs must be two-dimensional"),
            "loss no columns": (
                lambda: compute_loss(Vanilla(), no_columns, gold), "probs must have at least one column"
            ),
            "backward nan-masked probs": (
                lambda: backward(params, nan_masked, gold, ones), "probs must lie in [0, 1]"
            ),
            "backward probs of 2": (lambda: backward(params, twos, gold, ones), "probs must lie in [0, 1]"),
            "backward 1-D probs": (
                lambda: backward(params, flat, np.array([0]), np.ones(1)), "probs must be two-dimensional"
            ),
            "backward no columns": (
                lambda: backward(params, no_columns, gold, ones), "probs must have at least one column"
            ),
            "backward gold rows": (lambda: backward(params, fwd, np.array([0]), ones),
                                   "gold labels must have one entry per batch row"),
            "backward gold ints": (lambda: backward(params, fwd, np.array([0.0, 0.5]), ones),
                                   "gold must contain integer labels"),
            "backward gold range": (lambda: backward(params, fwd, np.array([-1, 1]), ones),
                                    "gold must contain non-negative labels"),
            "backward gold above k": (lambda: backward(params, fwd, np.array([0, 4]), ones), "gold must lie in [0, 3]"),
            "backward empty batch": (lambda: backward(params, empty, np.zeros(0, dtype=int), np.ones(0)),
                                     "batch must contain at least one instance"),
            "weight rows": (lambda: backward(params, fwd, gold, np.ones(3)),
                            "instance_weights must have one entry per batch row"),
            "negative weight": (lambda: backward(params, fwd, gold, np.array([1.0, -0.5])),
                                "instance_weights must be finite and non-negative"),
            "nan weight": (lambda: backward(params, fwd, gold, np.array([1.0, np.nan])),
                           "instance_weights must be finite and non-negative"),
        }

    @pytest.mark.parametrize(
        "case",
        [
            "2-D features", "feature width", "finite features", "empty batch", "loss gold rows",
            "loss gold ints", "loss gold range", "gold probs range", "loss nan-masked probs",
            "loss probs of 2", "loss 1-D probs", "loss no columns", "backward nan-masked probs",
            "backward probs of 2", "backward 1-D probs", "backward no columns", "backward gold rows",
            "backward gold ints", "backward gold range", "backward gold above k", "backward empty batch",
            "weight rows", "negative weight", "nan weight",
            *GOLD_PROB_CASES,
        ],
    )
    def test_every_check_raises_its_message(self, case):
        call, message = self._calls()[case]
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message


class TestPredict:
    def test_uniform_probs_tie_break(self):
        params = ModelParams(ModelSpec(2, 3), [np.zeros((2, 3))], [np.zeros(3)])
        assert predict(params, np.array([[1.0, -2.0]])).tolist() == [0]

    def test_known_probabilities(self):
        # zero weights + log-prob biases make softmax reproduce the target row
        target = np.log(np.array([0.1, 0.7, 0.2]))
        params = ModelParams(ModelSpec(2, 3), [np.zeros((2, 3))], [target])
        assert predict(params, np.zeros((1, 2))).tolist() == [1]

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(8)
        params = init_params(ModelSpec(6, 4, hidden_dim=5), 3)
        x = rng.normal(size=(100, 6))
        probs = forward(params, x).probs
        oracle = [int(max(range(4), key=lambda j: probs[i, j])) for i in range(100)]
        assert predict(params, x).tolist() == oracle


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        for spec in (ModelSpec(5, 3), ModelSpec(5, 3, hidden_dim=4, activation="relu")):
            params = init_params(spec, 11)
            path = tmp_path / "model.json"
            save_params(params, path)
            loaded = load_params(path)
            assert loaded.spec == params.spec
            for a, b in zip(loaded.weights + loaded.biases, params.weights + params.biases):
                npt.assert_array_equal(a, b)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError) as caught:
            load_params(path)
        assert str(caught.value) == f"{path}: Checkpoint.format must be 'softmax-classifier', got 'something-else'"

    def test_rejects_shape_mismatch(self, tmp_path):
        params = init_params(ModelSpec(3, 2), 0)
        path = tmp_path / "model.json"
        save_params(params, path)
        import json

        doc = json.loads(path.read_text())
        doc["layers"][0]["bias"] = [0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            load_params(path)

    def test_rejects_arch_that_disagrees_with_hidden_dim(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2, hidden_dim=4), 0), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "arch": "linear"}))
        with pytest.raises(ValueError) as caught:
            load_params(path)
        assert str(caught.value) == f"{path}: Checkpoint.arch 'linear' does not match hidden_dim 4"

    @pytest.mark.parametrize(
        "activation, message",
        [
            ("bogus", "Checkpoint.activation must be one of ('tanh', 'relu', None), got 'bogus'"),
            ("tanh", "Checkpoint.activation 'tanh' does not match hidden_dim None"),
            (None, "missing Checkpoint keys ['activation']"),
        ],
        ids=["bogus", "tanh", "missing"],
    )
    def test_rejects_activation_on_a_linear_model(self, tmp_path, activation, message):
        # a linear checkpoint is saved with "activation": null, and must be read back with it
        import json

        path = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2), 0), path)
        doc = json.loads(path.read_text())
        assert doc["activation"] is None
        if activation is None:
            del doc["activation"]
        else:
            doc["activation"] = activation
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as caught:
            load_params(path)
        assert str(caught.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "where, message",
        [
            ("top", "unknown Checkpoint keys ['note']"),
            ("layer", "Checkpoint.layers[1]: unknown CheckpointLayer keys ['note']"),
        ],
        ids=["top", "layer"],
    )
    def test_rejects_unknown_keys(self, tmp_path, where, message):
        import json

        path = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2, hidden_dim=4), 0), path)
        doc = json.loads(path.read_text())
        (doc if where == "top" else doc["layers"][1])["note"] = "x"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as caught:
            load_params(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_save_refuses_a_non_finite_parameter(self, tmp_path):
        # the Checkpoint built in Python meets the rule a read one does, so NaN never reaches json
        params = init_params(ModelSpec(3, 2, hidden_dim=4), 0)
        params.biases[1][0] = np.nan
        path = tmp_path / "model.json"
        with pytest.raises(ValueError) as caught:
            save_params(params, path)
        assert str(caught.value) == "Checkpoint.layers[1]: non-finite parameter values"
        assert not path.exists()

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(arch="mlp"), "Checkpoint.arch 'mlp' does not match hidden_dim None"),
            (dict(activation="relu"), "Checkpoint.activation 'relu' does not match hidden_dim None"),
            (dict(layers=[]), "Checkpoint.layers: expected 1 layers, got 0"),
            (dict(input_dim=10**400), f"Checkpoint.layers[0]: expected weight shape ({10**400}, 2), bias (2,)"),
            (dict(n_classes=2**62), f"Checkpoint.layers[0]: expected weight shape (1, {2**62}), bias ({2**62},)"),
            (dict(layers=[CheckpointLayer([[0, 0]], [0])]),
             "Checkpoint.layers[0]: expected weight shape (1, 2), bias (2,)"),
            (dict(layers=[CheckpointLayer([[0, math.inf]], [0, 0])]),
             "Checkpoint.layers[0]: non-finite parameter values"),
        ],
        ids=["arch", "activation", "no layers", "huge input_dim", "huge n_classes", "short bias", "inf weight"],
    )
    def test_rules_across_fields(self, kw, message):
        # a declared dimension is only compared with the lengths, so no size of it allocates
        fields = dict(arch="linear", input_dim=1, n_classes=2, hidden_dim=None, activation=None)
        fields["layers"] = [CheckpointLayer([[0, 1]], [1, 0])]
        with pytest.raises(ValueError) as caught:
            Checkpoint(**{**fields, **kw})
        assert str(caught.value) == message
