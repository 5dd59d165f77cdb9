"""Confusion counting, detection metrics, and what an extra correct
prediction is worth.

Walks through one small prediction set by hand: pooled confusion counts,
micro precision/recall/F, and the marginal utility of one more correct
positive vs one more correct negative, whose ratio is the scaling weight.
"""

import numpy as np

from adascale import (
    ConfusionStats,
    accuracy,
    confusion_from_predictions,
    f_beta,
    marginal_utility_accuracy,
    marginal_utility_fbeta,
    precision,
    recall,
    w_exact,
)

# ---------------------------------------------------------------------
# A tiny detection problem: label 0 is background, labels 1..2 are targets.
# ---------------------------------------------------------------------
gold = [1, 0, 0, 2, 0, 2, 0, 0, 1, 0]
pred = [1, 0, 1, 1, 0, 2, 0, 0, 0, 0]

stats, per_class = confusion_from_predictions(gold, pred)
print("gold:", gold)
print("pred:", pred)
print(f"counts: p={stats.p:g} n={stats.n:g} tp={stats.tp:g} tn={stats.tn:g} pe={stats.pe:g}")
print("correct positives per class:", per_class)
print()

print(f"accuracy  = {accuracy(stats):.4f}   <- dominated by the easy negatives")
print(f"precision = {precision(stats):.4f}")
print(f"recall    = {recall(stats):.4f}")
for beta in (0.5, 1.0, 2.0):
    print(f"F(beta={beta:g})  = {f_beta(stats, beta):.4f}")
print()

# ---------------------------------------------------------------------
# Marginal utilities: the metric gain from one more correct prediction.
# For accuracy the two classes are interchangeable; for F they are not,
# and they move as the model improves.
# ---------------------------------------------------------------------
mu_acc = marginal_utility_accuracy(stats)
print(f"accuracy utilities: one more tp -> +{mu_acc[0]:.4f}, one more tn -> +{mu_acc[1]:.4f}")

mu_tp, mu_tn = marginal_utility_fbeta(stats, beta=1.0)
print(f"F1 utilities:       one more tp -> +{mu_tp:.4f}, one more tn -> +{mu_tn:.4f}")
print(f"negative/positive importance ratio w = {w_exact(stats, 1.0):.4f}"
      f"  (= {mu_tn:.4f}/{mu_tp:.4f})")
print()

# The same model at two convergence states: as tp and tn grow, the weight
# of negative instances grows with them.
early = ConfusionStats(p=100, n=4900, tp=10, tn=3000, pe=2)
late = ConfusionStats(p=100, n=4900, tp=80, tn=4850, pe=2)
print(f"early training: F1={f_beta(early):.3f}, w={w_exact(early):.4f}")
print(f"late training:  F1={f_beta(late):.3f}, w={w_exact(late):.4f}")
print("-> negatives start almost irrelevant and gain importance as positives are fit")
