import warnings

import numpy as np
import pytest

from adascale.metrics import (
    ConfusionStats,
    accuracy,
    confusion_from_predictions,
    f_beta,
    marginal_utility_accuracy,
    marginal_utility_fbeta,
    precision,
    recall,
)
from adascale.scaling import w_exact

from helpers import random_integer_stats, random_interior_stats, random_labels


def _oracle_counts(gold, pred, negative_label):
    """Independent per-class tally: loops over classes, not instances."""
    classes = sorted(set(gold) | set(pred) | {negative_label})
    p = n = tp = tn = pe = 0
    per_class = {}
    for c in classes:
        gold_c = [i for i, g in enumerate(gold) if g == c]
        correct_c = sum(1 for i in gold_c if pred[i] == c)
        if c == negative_label:
            n = len(gold_c)
            tn = correct_c
        else:
            p += len(gold_c)
            tp += correct_c
            pe += sum(
                1 for i in gold_c if pred[i] != c and pred[i] != negative_label
            )
            if gold_c:
                per_class[c] = correct_c
    return ConfusionStats(p, n, tp, tn, pe), per_class


class TestConfusionCounting:
    def test_worked_example(self):
        stats, per_class = confusion_from_predictions([1, 0, 0, 2, 0], [1, 0, 1, 1, 0])
        assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (2, 3, 1, 2, 1)
        assert per_class == {1: 1, 2: 0}
        # predicted-positive identity: n - tn + pe + tp counts positive predictions
        assert stats.predicted_positive == 3

    def test_perfect_prediction(self):
        stats, _ = confusion_from_predictions([1, 0, 2, 0], [1, 0, 2, 0])
        assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (2, 2, 2, 2, 0)

    def test_all_negative_prediction(self):
        stats, _ = confusion_from_predictions([1, 2, 0], [0, 0, 0])
        assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (2, 1, 0, 1, 0)

    def test_empty_input(self):
        stats, per_class = confusion_from_predictions([], [])
        assert (stats.p, stats.n, stats.tp, stats.tn, stats.pe) == (0, 0, 0, 0, 0)
        assert per_class == {}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            confusion_from_predictions([1, 0], [1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            confusion_from_predictions([-1, 0], [0, 0])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            confusion_from_predictions([0.5, 0.0], [0, 0])

    @pytest.mark.parametrize(
        "gold, pred, message",
        [
            ([np.nan, 1.0], [0, 1], "gold must contain integer labels"),
            ([np.inf, 1.0], [0, 1], "gold must contain integer labels"),
            ([0, 1], [0.0, -np.inf], "pred must contain integer labels"),
            ([1e30, 1.0], [0, 1], "gold must contain integer labels"),
            ([0, 1], [0.0, 2.0**63], "pred must contain integer labels"),
            ([2**70, 1], [0, 1], "gold must contain integer labels"),
            ([None, 1], [0, 1], "gold must contain integer labels"),
            ([0, 1], [1 + 0j, 1], "pred must contain integer labels"),
        ],
        ids=["nan", "inf", "-inf pred", "1e30", "2**63 pred", "2**70 object", "None object", "complex pred"],
    )
    def test_non_finite_or_huge_labels_rejected_without_warning(self, gold, pred, message):
        # the integer check comes before the cast to int64, which would warn on these
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                confusion_from_predictions(gold, pred)
        assert [str(w.message) for w in caught] == []

    def test_agrees_with_tally_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            length = int(rng.integers(1, 51))
            gold = random_labels(rng, length, k)
            pred = random_labels(rng, length, k)
            stats, per_class = confusion_from_predictions(gold, pred)
            ostats, oper = _oracle_counts(gold.tolist(), pred.tolist(), 0)
            assert stats == ostats
            assert per_class == oper
            n_pred_pos = int(np.sum(pred != 0))
            assert stats.predicted_positive == n_pred_pos

    def test_per_class_sums_to_tp(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            gold = random_labels(rng, 40, 4)
            pred = random_labels(rng, 40, 4)
            stats, per_class = confusion_from_predictions(gold, pred)
            assert sum(per_class.values()) == stats.tp


class TestStatsValidation:
    def test_tp_exceeds_p(self):
        with pytest.raises(ValueError, match="tp"):
            ConfusionStats(p=1, n=1, tp=2, tn=0)

    def test_tn_exceeds_n(self):
        with pytest.raises(ValueError, match="tn"):
            ConfusionStats(p=1, n=1, tp=0, tn=2)

    def test_pe_exceeds_room(self):
        with pytest.raises(ValueError, match="pe"):
            ConfusionStats(p=3, n=0, tp=2, tn=0, pe=2)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            ConfusionStats(p=-1, n=0, tp=0, tn=0)

    def test_real_valued_counts_accepted(self):
        stats = ConfusionStats(p=2.5, n=10.0, tp=1.25, tn=9.5, pe=0.75)
        assert stats.tp == 1.25


class TestMetricFormulas:
    stats = ConfusionStats(p=10, n=90, tp=5, tn=80, pe=1)

    def test_precision_worked(self):
        assert precision(self.stats) == pytest.approx(0.3125, abs=1e-15)

    def test_precision_perfect(self):
        assert precision(ConfusionStats(7, 3, 7, 3, 0)) == 1.0

    def test_precision_no_positive_predictions(self):
        assert precision(ConfusionStats(10, 5, 0, 5, 0)) == 0.0

    def test_recall_worked(self):
        assert recall(self.stats) == 0.5
        assert recall(ConfusionStats(7, 0, 7, 0)) == 1.0
        assert recall(ConfusionStats(10, 0, 0, 0)) == 0.0

    def test_recall_no_positives(self):
        assert recall(ConfusionStats(0, 5, 0, 3)) == 0.0

    def test_accuracy(self):
        assert accuracy(ConfusionStats(10, 90, 5, 80)) == pytest.approx(0.85, abs=1e-15)
        assert accuracy(ConfusionStats(3, 4, 3, 4)) == 1.0
        assert accuracy(ConfusionStats(3, 4, 0, 0)) == 0.0
        with pytest.raises(ValueError):
            accuracy(ConfusionStats(0, 0, 0, 0))

    def test_f_beta_worked(self):
        assert f_beta(self.stats, 1.0) == pytest.approx(10 / 26, abs=1e-15)

    def test_f_beta_perfect_any_beta(self):
        perfect = ConfusionStats(10, 90, 10, 90, 0)
        for beta in (0.25, 1.0, 2.0, 7.0):
            assert f_beta(perfect, beta) == pytest.approx(1.0, abs=1e-12)

    def test_f_beta_zero_tp(self):
        zero = ConfusionStats(10, 90, 0, 50, 0)
        for beta in (0.5, 1.0, 3.0):
            assert f_beta(zero, beta) == 0.0

    def test_f_beta_degenerate(self):
        assert f_beta(ConfusionStats(0, 5, 0, 5, 0), 1.0) == 0.0

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            f_beta(self.stats, 0.0)
        with pytest.raises(ValueError):
            f_beta(self.stats, -1.0)

    def test_closed_form_matches_composition(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(10_000):
            stats = random_integer_stats(rng)
            beta = float(rng.uniform(0.25, 4.0))
            p, r = precision(stats), recall(stats)
            den = beta * beta * p + r
            if den <= 0.0:
                continue
            composed = (1.0 + beta * beta) * p * r / den
            assert abs(f_beta(stats, beta) - composed) <= 1e-12
            checked += 1
        assert checked > 5000


class TestMarginalUtilities:
    def test_accuracy_constants(self):
        assert marginal_utility_accuracy(ConfusionStats(10, 90, 0, 0)) == (0.01, 0.01)
        assert marginal_utility_accuracy(ConfusionStats(1, 1, 0, 0)) == (0.5, 0.5)

    def test_accuracy_components_equal_for_any_stats(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            stats = random_integer_stats(rng)
            mu_tp, mu_tn = marginal_utility_accuracy(stats)
            assert mu_tp == mu_tn == 1.0 / (stats.p + stats.n)

    def test_accuracy_error_on_empty(self):
        with pytest.raises(ValueError):
            marginal_utility_accuracy(ConfusionStats(0, 0, 0, 0))

    def test_fbeta_worked(self):
        stats = ConfusionStats(10, 90, 5, 80, 1)
        mu_tp, mu_tn = marginal_utility_fbeta(stats, 1.0)
        assert mu_tp == pytest.approx(42 / 676, abs=1e-15)
        assert mu_tn == pytest.approx(10 / 676, abs=1e-15)

    def test_fbeta_zero_tp(self):
        _, mu_tn = marginal_utility_fbeta(ConfusionStats(10, 90, 0, 50, 0), 1.0)
        assert mu_tn == 0.0

    def test_fbeta_error_on_zero_denominator(self):
        with pytest.raises(ValueError):
            marginal_utility_fbeta(ConfusionStats(0, 5, 0, 5, 0), 1.0)

    def test_ratio_equals_scaling_weight(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            stats = random_interior_stats(rng)
            beta = float(rng.uniform(0.3, 4.0))
            mu_tp, mu_tn = marginal_utility_fbeta(stats, beta)
            assert abs(mu_tn / mu_tp - w_exact(stats, beta)) <= 1e-12

    def test_fbeta_matches_finite_differences(self):
        from dataclasses import replace

        rng = np.random.default_rng(5)
        h = 1e-4
        for _ in range(1000):
            stats = random_interior_stats(rng)
            beta = float(rng.uniform(0.3, 4.0))
            mu_tp, mu_tn = marginal_utility_fbeta(stats, beta)
            num_tp = (
                f_beta(replace(stats, tp=stats.tp + h), beta)
                - f_beta(replace(stats, tp=stats.tp - h), beta)
            ) / (2 * h)
            num_tn = (
                f_beta(replace(stats, tn=stats.tn + h), beta)
                - f_beta(replace(stats, tn=stats.tn - h), beta)
            ) / (2 * h)
            assert abs(mu_tp - num_tp) / abs(num_tp) <= 1e-6
            assert abs(mu_tn - num_tn) / max(abs(num_tn), 1e-12) <= 1e-6


class TestMicroFInvariance:
    def test_redistribution_same_total(self):
        # two label configurations with identical aggregates but different
        # per-class splits: {TP_1=3, TP_2=2} vs {TP_1=5, TP_2=0}
        gold_a = [1] * 4 + [2] * 4 + [0] * 10
        pred_a = [1] * 3 + [0] + [2] * 2 + [0] * 2 + [0] * 9 + [1]
        gold_b = [1] * 5 + [2] * 3 + [0] * 10
        pred_b = [1] * 5 + [0] * 3 + [0] * 9 + [1]
        stats_a, per_a = confusion_from_predictions(gold_a, pred_a)
        stats_b, per_b = confusion_from_predictions(gold_b, pred_b)
        assert stats_a.tp == stats_b.tp == 5
        assert per_a != per_b
        assert sum(per_a.values()) == sum(per_b.values()) == 5
        assert stats_a.p == stats_b.p and stats_a.n == stats_b.n
        assert stats_a.tn == stats_b.tn and stats_a.pe == stats_b.pe
        for beta in (0.5, 1.0, 2.0):
            assert f_beta(stats_a, beta) == f_beta(stats_b, beta)
