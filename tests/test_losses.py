import math

import numpy as np
import numpy.testing as npt
import pytest

from adascale.losses import (
    Adaptive,
    Focal,
    Static,
    Vanilla,
    compute_loss,
    strategy_label,
)
from adascale.model import ForwardResult, ModelSpec, backward, forward, init_params
from adascale.scaling import BatchPrediction, w_batch


def _fwd(probs):
    probs = np.asarray(probs, dtype=float)
    return ForwardResult(probs=probs, inputs=np.zeros((probs.shape[0], 1)))


class TestStrategyValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Adaptive(beta=0.0)
        with pytest.raises(ValueError):
            Static(negative_cost=0.0)
        with pytest.raises(ValueError):
            Focal(gamma=-0.1)

    def test_labels(self):
        assert strategy_label(Vanilla()) == "vanilla"
        assert strategy_label(Adaptive(1.0)) == "adaptive(beta=1)"
        assert strategy_label(Static(0.2)) == "static(negative_cost=0.2)"
        assert strategy_label(Focal(2.0)) == "focal(gamma=2)"


class TestWorkedExamples:
    def test_vanilla(self):
        # hand evaluation: (-ln 0.5 - ln 0.25) / 2
        expected = (-math.log(0.5) - math.log(0.25)) / 2
        assert expected == pytest.approx(1.0397207708399179, abs=1e-15)
        fwd = _fwd([[0.5, 0.5], [0.25, 0.75]])
        out = compute_loss(Vanilla(), fwd, np.array([0, 0]))
        assert out.loss == pytest.approx(expected, abs=1e-12)
        npt.assert_array_equal(out.instance_weights, np.ones(2))
        assert out.w_used is None

    def test_vanilla_reports_fresh_ones(self):
        # the step's kernel leaves Vanilla's weights implicit; the public call still reports them
        fwd = _fwd([[0.5, 0.5], [0.25, 0.75], [0.1, 0.9]])
        first, second = (compute_loss(Vanilla(), fwd, np.array([0, 1, 0])) for _ in range(2))
        for out in (first, second):
            assert out.instance_weights.dtype == np.float64 and out.instance_weights.flags.writeable
            assert out.instance_weights.tolist() == [1.0, 1.0, 1.0]
        assert not np.shares_memory(first.instance_weights, second.instance_weights)
        first.instance_weights[0] = 5.0
        assert compute_loss(Vanilla(), fwd, np.array([0, 1, 0])).instance_weights.tolist() == [1.0, 1.0, 1.0]

    def test_adaptive(self):
        # hand evaluation: w = 0.5 / (1 + 2 - 1.7); loss =
        # (-ln 0.5 + w * (-ln 0.8 - ln 0.9)) / 3
        w = 0.5 / (1.0 + 2.0 - 1.7)
        expected = (-math.log(0.5) + w * (-math.log(0.8) - math.log(0.9))) / 3
        assert expected == pytest.approx(0.27316496620870434, abs=1e-15)
        fwd = _fwd([[0.2, 0.5, 0.3], [0.8, 0.1, 0.1], [0.9, 0.05, 0.05]])
        out = compute_loss(Adaptive(1.0), fwd, np.array([1, 0, 0]))
        assert out.loss == pytest.approx(expected, rel=1e-12)
        assert out.w_used == pytest.approx(w, rel=1e-12)
        npt.assert_allclose(out.instance_weights, [1.0, out.w_used, out.w_used])

    def test_focal_gamma_two(self):
        expected = 0.25 * -math.log(0.5)
        fwd = _fwd([[0.5, 0.5]])
        out = compute_loss(Focal(2.0), fwd, np.array([0]))
        assert out.loss == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.17328679513998632, abs=1e-15)


class TestDegenerations:
    def _random_batch(self, rng, size=12, k=4):
        probs = rng.dirichlet(np.ones(k), size=size)
        gold = rng.integers(0, k, size=size)
        return _fwd(probs), gold

    def test_focal_zero_equals_vanilla(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fwd, gold = self._random_batch(rng)
            a = compute_loss(Focal(0.0), fwd, gold)
            b = compute_loss(Vanilla(), fwd, gold)
            assert a.loss == b.loss
            npt.assert_array_equal(a.instance_weights, b.instance_weights)

    def test_static_one_equals_vanilla(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            fwd, gold = self._random_batch(rng)
            a = compute_loss(Static(1.0), fwd, gold)
            b = compute_loss(Vanilla(), fwd, gold)
            assert a.loss == b.loss
            npt.assert_array_equal(a.instance_weights, b.instance_weights)


class TestStrategySemantics:
    def test_static_weights(self):
        fwd = _fwd([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        out = compute_loss(Static(0.2), fwd, np.array([0, 1, 0]))
        npt.assert_allclose(out.instance_weights, [0.2, 1.0, 0.2])

    def test_adaptive_weights_match_batch_estimate(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=10)
        gold = np.array([0, 1, 2, 0, 0, 1, 0, 2, 0, 0])
        fwd = _fwd(probs)
        out = compute_loss(Adaptive(1.5), fwd, gold)
        gold_probs = probs[np.arange(10), gold]
        expected_w = w_batch(BatchPrediction(gold_probs, gold != 0), 1.5)
        assert out.w_used == expected_w
        npt.assert_allclose(out.instance_weights, np.where(gold == 0, expected_w, 1.0))

    def test_adaptive_all_positive_batch_equals_vanilla(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=6)
        gold = rng.integers(1, 3, size=6)
        fwd = _fwd(probs)
        a = compute_loss(Adaptive(1.0), fwd, gold)
        b = compute_loss(Vanilla(), fwd, gold)
        assert a.loss == b.loss
        npt.assert_array_equal(a.instance_weights, b.instance_weights)

    def test_adaptive_no_positive_batch(self):
        fwd = _fwd([[0.8, 0.1, 0.1], [0.6, 0.2, 0.2]])
        out = compute_loss(Adaptive(1.0), fwd, np.array([0, 0]))
        assert out.w_used == 0.0
        assert out.loss == 0.0
        npt.assert_array_equal(out.instance_weights, np.zeros(2))

    def test_focal_weight_decreasing_in_confidence(self):
        probs = np.linspace(0.05, 0.95, 10)
        fwd = _fwd(np.column_stack([probs, 1.0 - probs]))
        out = compute_loss(Focal(2.0), fwd, np.zeros(10, dtype=int))
        assert np.all(np.diff(out.instance_weights) < 0.0)

    def test_loss_non_negative_and_finite(self):
        rng = np.random.default_rng(4)
        strategies = [Vanilla(), Static(0.3), Focal(2.0), Adaptive(1.0)]
        for _ in range(100):
            k = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(k), size=int(rng.integers(1, 20)))
            gold = rng.integers(0, k, size=probs.shape[0])
            fwd = _fwd(probs)
            for strategy in strategies:
                out = compute_loss(strategy, fwd, gold)
                assert np.isfinite(out.loss) and out.loss >= 0.0
                assert np.all(out.instance_weights >= 0.0)

    def test_empty_batch_rejected(self):
        fwd = ForwardResult(probs=np.zeros((0, 3)), inputs=np.zeros((0, 1)))
        with pytest.raises(ValueError, match="at least one"):
            compute_loss(Vanilla(), fwd, np.array([], dtype=int))

    def test_gold_out_of_range(self):
        fwd = _fwd([[0.5, 0.5]])
        with pytest.raises(ValueError, match="range"):
            compute_loss(Vanilla(), fwd, np.array([2]))

    def test_gold_must_be_integers(self):
        # a bool array would otherwise index as a column mask and score the
        # wrong probabilities without any error
        fwd = _fwd([[0.9, 0.1], [0.2, 0.8]])
        for gold in (np.array([True, False]), np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="integers"):
                compute_loss(Vanilla(), fwd, gold)


class TestGradientScalingIdentity:
    def test_negative_contributions_scaled_by_w(self):
        # per-instance gradient contribution under Adaptive equals w_used
        # times its Vanilla contribution, exactly, because the weight enters
        # the backward pass as a plain multiplier
        rng = np.random.default_rng(5)
        params = init_params(ModelSpec(6, 3), 1)
        x = rng.normal(size=(8, 6))
        gold = np.array([0, 1, 0, 2, 0, 0, 1, 0])
        fwd = forward(params, x)
        out = compute_loss(Adaptive(1.0), fwd, gold)
        w = out.w_used
        assert w is not None and w > 0.0
        for i in np.flatnonzero(gold == 0):
            picker = np.zeros(8)
            picker[i] = out.instance_weights[i]
            adaptive_contrib = backward(params, fwd, gold, picker)
            picker_vanilla = np.zeros(8)
            picker_vanilla[i] = 1.0
            vanilla_contrib = backward(params, fwd, gold, picker_vanilla)
            for ga, gv in zip(
                adaptive_contrib.weights + adaptive_contrib.biases,
                vanilla_contrib.weights + vanilla_contrib.biases,
            ):
                npt.assert_allclose(ga, w * gv, atol=1e-12)
