import numpy as np
import pytest

from adascale.metrics import ConfusionStats, marginal_utility_fbeta
from adascale.scaling import BatchPrediction, batch_expected_counts, w_batch, w_exact

from helpers import random_interior_stats


class TestBatchPrediction:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            BatchPrediction([0.5, 0.5], [True])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchPrediction([], [])

    def test_two_dimensional_probs_rejected(self):
        with pytest.raises(ValueError, match="gold_probs and is_positive must be one-dimensional"):
            BatchPrediction([[0.5], [0.5]], [True, False])

    def test_out_of_range_probs(self):
        with pytest.raises(ValueError):
            BatchPrediction([1.5], [True])
        with pytest.raises(ValueError):
            BatchPrediction([-0.1], [True])

    def test_boundary_probs_accepted(self):
        batch = BatchPrediction([0.0, 1.0], [True, False])
        assert batch.gold_probs.tolist() == [0.0, 1.0]


class TestExactWeight:
    stats = ConfusionStats(p=10, n=90, tp=5, tn=80, pe=1)

    def test_worked_example(self):
        assert w_exact(self.stats, 1.0) == pytest.approx(5 / 21, abs=1e-15)

    def test_zero_tp(self):
        assert w_exact(ConfusionStats(10, 90, 0, 50, 0), 1.0) == 0.0

    def test_larger_beta_shrinks_weight(self):
        w2 = w_exact(self.stats, 2.0)
        assert w2 == pytest.approx(5 / 51, abs=1e-15)
        assert w2 < w_exact(self.stats, 1.0)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            w_exact(ConfusionStats(0, 5, 0, 5, 0), 1.0)

    def test_equals_marginal_utility_ratio(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            stats = random_interior_stats(rng)
            beta = float(rng.uniform(0.3, 4.0))
            mu_tp, mu_tn = marginal_utility_fbeta(stats, beta)
            assert abs(w_exact(stats, beta) - mu_tn / mu_tp) <= 1e-12


class TestWeightMonotonicity:
    """Directional behavior of the exact weight over random configurations."""

    def test_decreasing_in_negative_to_positive_ratio(self):
        # fixed per-class accuracy rates, growing n/p shrinks the weight
        rng = np.random.default_rng(31)
        for _ in range(500):
            p = float(rng.uniform(1.0, 50.0))
            r_p = float(rng.uniform(0.05, 1.0))
            r_n = float(rng.uniform(0.0, 0.95))
            beta = float(rng.uniform(0.3, 4.0))
            n1 = p * float(rng.uniform(0.5, 20.0))
            n2 = n1 * float(rng.uniform(1.1, 5.0))
            w1 = w_exact(ConfusionStats(p, n1, r_p * p, r_n * n1, 0.0), beta)
            w2 = w_exact(ConfusionStats(p, n2, r_p * p, r_n * n2, 0.0), beta)
            assert w2 < w1

    def test_increasing_in_tp(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            stats = random_interior_stats(rng)
            beta = float(rng.uniform(0.3, 4.0))
            room = stats.p - stats.pe - stats.tp
            tp2 = stats.tp + 0.25 * room + 1e-3
            if tp2 > stats.p - stats.pe:
                continue
            bigger = ConfusionStats(stats.p, stats.n, tp2, stats.tn, stats.pe)
            assert w_exact(bigger, beta) > w_exact(stats, beta)

    def test_increasing_in_tn(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            stats = random_interior_stats(rng)
            beta = float(rng.uniform(0.3, 4.0))
            tn2 = stats.tn + 0.5 * (stats.n - stats.tn)
            bigger = ConfusionStats(stats.p, stats.n, stats.tp, tn2, stats.pe)
            assert w_exact(bigger, beta) > w_exact(stats, beta)

    def test_decreasing_in_beta(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            stats = random_interior_stats(rng)
            b1 = float(rng.uniform(0.3, 2.0))
            b2 = b1 * float(rng.uniform(1.1, 3.0))
            assert w_exact(stats, b2) < w_exact(stats, b1)


class TestBatchEstimation:
    def test_perfect_confidence_counts(self):
        batch = BatchPrediction([1.0] * 5, [True, True, False, False, False])
        assert batch_expected_counts(batch) == (2.0, 3.0, 2, 3)

    def test_uniform_model_counts(self):
        third = 1.0 / 3.0
        batch = BatchPrediction([third] * 3, [True, False, False])
        tp_b, tn_b, p_b, n_b = batch_expected_counts(batch)
        assert tp_b == pytest.approx(1 / 3, abs=1e-15)
        assert tn_b == pytest.approx(2 / 3, abs=1e-15)
        assert (p_b, n_b) == (1, 2)

    def test_all_negative_batch(self):
        batch = BatchPrediction([0.7, 0.6], [False, False])
        tp_b, tn_b, p_b, n_b = batch_expected_counts(batch)
        assert tp_b == 0.0 and p_b == 0
        assert tn_b == pytest.approx(1.3)

    def test_expected_counts_bounded(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            batch = BatchPrediction(
                rng.uniform(1e-6, 1.0, size=size), rng.random(size) < 0.3
            )
            tp_b, tn_b, p_b, n_b = batch_expected_counts(batch)
            assert 0.0 <= tp_b <= p_b
            assert 0.0 <= tn_b <= n_b


class TestBatchWeight:
    def test_worked_example(self):
        batch = BatchPrediction([0.5, 0.8, 0.9], [True, False, False])
        assert w_batch(batch, 1.0) == pytest.approx(0.5 / 1.3, rel=1e-12)

    def test_perfect_confidence(self):
        # tp_b=2, tn_b=3 -> 2 / (1*2 + 3 - 3) = 1.0: with everything fit,
        # positive and negative marginal utilities coincide
        batch = BatchPrediction([1.0] * 5, [True, True, False, False, False])
        assert w_batch(batch, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_no_positives(self):
        batch = BatchPrediction([0.8, 0.6], [False, False])
        assert w_batch(batch, 1.0) == 0.0

    def test_zero_denominator(self):
        batch = BatchPrediction([1.0, 1.0], [False, False])
        with pytest.raises(ValueError, match="denominator"):
            w_batch(batch, 1.0)

    def test_hard_prediction_consistency(self):
        # 0/1 gold probabilities induce integer confusion counts; the batch
        # estimate must then equal the exact weight with pe = 0
        rng = np.random.default_rng(51)
        for _ in range(1000):
            size = int(rng.integers(2, 60))
            flags = rng.random(size) < 0.4
            if not flags.any():
                flags[0] = True
            probs = (rng.random(size) < 0.6).astype(float)
            batch = BatchPrediction(probs, flags)
            tp_b, tn_b, p_b, n_b = batch_expected_counts(batch)
            stats = ConfusionStats(p=p_b, n=n_b, tp=tp_b, tn=tn_b, pe=0.0)
            beta = float(rng.uniform(0.3, 4.0))
            if beta * beta * p_b + n_b - tn_b <= 0.0:
                continue
            assert abs(w_batch(batch, beta) - w_exact(stats, beta)) <= 1e-12

    def test_unit_interval_for_beta_at_least_one(self):
        rng = np.random.default_rng(61)
        for _ in range(1000):
            size = int(rng.integers(1, 50))
            flags = rng.random(size) < 0.3
            probs = rng.uniform(1e-9, 1.0 - 1e-9, size=size)
            batch = BatchPrediction(probs, flags)
            beta = float(rng.uniform(1.0, 5.0))
            w = w_batch(batch, beta)
            assert 0.0 <= w <= 1.0
