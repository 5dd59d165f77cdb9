"""Verification gate for the whole package.

Each test covers one gate item at its stated tolerance and prints a single
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The heavier benchmark items train real models and take a couple of
minutes in total.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from adascale.configio import to_json
from adascale.data import (
    Dataset,
    GeneratorConfig,
    StratifiedSampler,
    UnderSampler,
)
from adascale.harness import (
    Arm,
    ExperimentConfig,
    SyntheticSource,
    best_k_test_score,
    beta_sweep,
    grid_search,
    load_datasets,
    run_experiment,
)
from adascale.losses import Adaptive, Focal, Static, Vanilla, compute_loss
from adascale.metrics import (
    ConfusionStats,
    confusion_from_predictions,
    f_beta,
    marginal_utility_fbeta,
    precision,
    recall,
)
from adascale.model import ModelSpec, backward, forward, init_params
from adascale.scaling import BatchPrediction, batch_expected_counts, w_batch, w_exact
from adascale.trainer import TrainConfig, train, write_run_report

from helpers import random_integer_stats, random_interior_stats


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. formula suite
# ---------------------------------------------------------------------------


def test_formula_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    worst_comp = 0.0
    checked = 0
    for _ in range(10_000):
        stats = random_integer_stats(rng)
        beta = float(rng.uniform(0.25, 4.0))
        p, r = precision(stats), recall(stats)
        den = beta * beta * p + r
        if den <= 0.0:
            continue
        composed = (1.0 + beta * beta) * p * r / den
        worst_comp = max(worst_comp, abs(f_beta(stats, beta) - composed))
        checked += 1

    worst_fd = 0.0
    h = 1e-4
    for _ in range(1_000):
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
        worst_fd = max(
            worst_fd,
            abs(mu_tp - num_tp) / abs(num_tp),
            abs(mu_tn - num_tn) / max(abs(num_tn), 1e-12),
        )

    elapsed = time.perf_counter() - start
    ok = worst_comp <= 1e-12 and worst_fd <= 1e-6 and checked > 5_000 and elapsed < 5.0
    _verdict(
        "formula suite",
        ok,
        f"composition err {worst_comp:.2e} (n={checked}), finite-diff err {worst_fd:.2e}, {elapsed:.2f}s",
    )
    assert worst_comp <= 1e-12
    assert worst_fd <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. scaling-weight property suite
# ---------------------------------------------------------------------------


def _redistribution_labels(tp_split, P, TP, PE, N, TN):
    tp1, tp2 = tp_split
    fn1 = P - tp1 - tp2 - PE
    gold = [1] * (tp1 + PE + fn1) + [2] * tp2 + [0] * N
    pred = [1] * tp1 + [2] * PE + [0] * fn1 + [2] * tp2 + [0] * TN + [1] * (N - TN)
    return gold, pred


def test_weight_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)

    # weight falls as the negative-to-positive ratio grows (rates fixed)
    for _ in range(1_000):
        p = float(rng.uniform(1.0, 50.0))
        r_p = float(rng.uniform(0.05, 1.0))
        r_n = float(rng.uniform(0.0, 0.95))
        beta = float(rng.uniform(0.3, 4.0))
        n1 = p * float(rng.uniform(0.5, 20.0))
        n2 = n1 * float(rng.uniform(1.1, 5.0))
        w1 = w_exact(ConfusionStats(p, n1, r_p * p, r_n * n1, 0.0), beta)
        w2 = w_exact(ConfusionStats(p, n2, r_p * p, r_n * n2, 0.0), beta)
        assert w2 < w1

    # weight rises with tp (rest fixed)
    count = 0
    while count < 1_000:
        stats = random_interior_stats(rng)
        beta = float(rng.uniform(0.3, 4.0))
        room = stats.p - stats.pe - stats.tp
        tp2 = stats.tp + 0.5 * room + 1e-6
        if tp2 > stats.p - stats.pe:
            continue
        assert w_exact(replace(stats, tp=tp2), beta) > w_exact(stats, beta)
        count += 1

    # weight rises with tn (rest fixed, tp > 0)
    for _ in range(1_000):
        stats = random_interior_stats(rng)
        beta = float(rng.uniform(0.3, 4.0))
        tn2 = stats.tn + 0.5 * (stats.n - stats.tn) + 1e-9
        assert w_exact(replace(stats, tn=min(tn2, stats.n)), beta) > w_exact(stats, beta)

    # weight falls as beta rises (stats fixed, tp > 0)
    for _ in range(1_000):
        stats = random_interior_stats(rng)
        b1 = float(rng.uniform(0.3, 2.0))
        b2 = b1 * float(rng.uniform(1.1, 3.0))
        assert w_exact(stats, b2) < w_exact(stats, b1)

    # exact invariance of F under redistribution of per-class true positives
    for _ in range(500):
        P = int(rng.integers(4, 30))
        TP = int(rng.integers(2, P + 1))
        PE = int(rng.integers(0, P - TP + 1))
        N = int(rng.integers(5, 100))
        TN = int(rng.integers(0, N + 1))
        a = int(rng.integers(0, TP + 1))
        b = int(rng.integers(0, TP + 1))
        beta = float(rng.uniform(0.3, 4.0))
        stats_a, per_a = confusion_from_predictions(*_redistribution_labels((a, TP - a), P, TP, PE, N, TN))
        stats_b, per_b = confusion_from_predictions(*_redistribution_labels((b, TP - b), P, TP, PE, N, TN))
        assert stats_a == stats_b
        assert sum(per_a.values()) == sum(per_b.values()) == stats_a.tp
        assert f_beta(stats_a, beta) == f_beta(stats_b, beta)

    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _verdict(
        "scaling-weight property suite",
        ok,
        f"4 monotonicities x 1000 + invariance x 500, {elapsed:.2f}s",
    )
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. ratio identity and hard-prediction consistency
# ---------------------------------------------------------------------------


def test_ratio_and_hard_prediction_identities():
    rng = np.random.default_rng(1003)

    worst_ratio = 0.0
    for _ in range(1_000):
        stats = random_interior_stats(rng)
        beta = float(rng.uniform(0.3, 4.0))
        mu_tp, mu_tn = marginal_utility_fbeta(stats, beta)
        worst_ratio = max(worst_ratio, abs(w_exact(stats, beta) - mu_tn / mu_tp))

    worst_hard = 0.0
    done = 0
    while done < 1_000:
        size = int(rng.integers(2, 60))
        flags = rng.random(size) < 0.4
        if not flags.any():
            continue
        probs = (rng.random(size) < 0.6).astype(float)
        batch = BatchPrediction(probs, flags)
        tp_b, tn_b, p_b, n_b = batch_expected_counts(batch)
        beta = float(rng.uniform(0.3, 4.0))
        if beta * beta * p_b + n_b - tn_b <= 0.0:
            continue
        stats = ConfusionStats(p=p_b, n=n_b, tp=tp_b, tn=tn_b, pe=0.0)
        worst_hard = max(worst_hard, abs(w_batch(batch, beta) - w_exact(stats, beta)))
        done += 1

    ok = worst_ratio <= 1e-12 and worst_hard <= 1e-12
    _verdict(
        "ratio identity + hard-prediction consistency",
        ok,
        f"ratio err {worst_ratio:.2e}, hard-prediction err {worst_hard:.2e}",
    )
    assert worst_ratio <= 1e-12
    assert worst_hard <= 1e-12


# ---------------------------------------------------------------------------
# 4. gradient checks for every strategy
# ---------------------------------------------------------------------------


def test_gradient_checks_all_strategies():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    strategies = [Vanilla(), Static(0.2), Focal(2.0), Adaptive(1.0)]
    specs = [ModelSpec(8, 4), ModelSpec(6, 3, hidden_dim=5, activation="tanh"),
             ModelSpec(5, 4, hidden_dim=4, activation="relu")]
    h = 1e-5
    worst = 0.0

    for spec in specs:
        for strategy in strategies:
            params = init_params(spec, int(rng.integers(0, 10_000)))
            batch = int(rng.integers(4, 17))
            x = rng.normal(size=(batch, spec.input_dim))
            gold = rng.integers(0, spec.n_classes, size=batch)
            if isinstance(strategy, Adaptive) and not np.any(gold != 0):
                gold[0] = 1
            fwd = forward(params, x)
            out = compute_loss(strategy, fwd, gold)
            weights = out.instance_weights  # frozen at the evaluation point
            analytic = backward(params, fwd, gold, weights)

            def loss_now():
                probs = forward(params, x).probs
                lp = np.log(probs[np.arange(batch), gold])
                return float(np.mean(weights * -lp))

            for arr, g in zip(
                params.weights + params.biases, analytic.weights + analytic.biases
            ):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = loss_now()
                    arr[ix] = orig - h
                    lm = loss_now()
                    arr[ix] = orig
                    numeric = (lp - lm) / (2 * h)
                    err = abs(g[ix] - numeric) / max(abs(g[ix]), abs(numeric), 1e-6)
                    worst = max(worst, err)

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(
        "gradient checks (vanilla/static/focal/adaptive)",
        ok,
        f"max rel err {worst:.2e} over {len(specs)} architectures, {elapsed:.1f}s",
    )
    assert worst < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. equivalence degenerations
# ---------------------------------------------------------------------------


def _toy_splits():
    rng = np.random.default_rng(77)

    def split(n_pos, n_neg, seed):
        r = np.random.default_rng(seed)
        pos = r.normal(size=(n_pos, 4))
        pos[:, 0] += 3.0
        neg = r.normal(size=(n_neg, 4))
        feats = np.vstack([pos, neg])
        labels = np.array([1] * n_pos + [0] * n_neg)
        order = r.permutation(n_pos + n_neg)
        return Dataset(feats[order], labels[order], k=2)

    return split(30, 170, 1), split(15, 85, 2), split(15, 85, 3)


def test_degenerate_strategy_equivalence():
    splits = _toy_splits()
    spec = ModelSpec(4, 2)

    def run(strategy):
        cfg = TrainConfig(epochs=5, batch_size=16, strategy=strategy, seed=4)
        _, report = train(*splits, spec, cfg)
        doc = to_json(report)
        doc.pop("strategy")  # the configuration tag necessarily differs
        return json.dumps(doc, sort_keys=True)

    vanilla = run(Vanilla())
    ok_focal = run(Focal(0.0)) == vanilla
    ok_static = run(Static(1.0)) == vanilla
    _verdict(
        "degenerate strategies reproduce vanilla runs",
        ok_focal and ok_static,
        f"focal(0)=={ok_focal}, static(1)=={ok_static} (bit-identical persisted payloads)",
    )
    assert ok_focal and ok_static


# ---------------------------------------------------------------------------
# 6. synthetic sparse benchmark
# ---------------------------------------------------------------------------


def _benchmark_trial(base_seed: int, out_dir) -> tuple[float, float, float, float]:
    source = SyntheticSource(GeneratorConfig())  # defaults: 10k/2k/2k, d=20, k=4, 2%, 3 modes
    tc = TrainConfig(sampler=StratifiedSampler(1))  # Adam defaults, 30 epochs, batch 64
    config = ExperimentConfig(
        source=source,
        arms=(Arm("vanilla", Vanilla(), tc), Arm("adaptive", Adaptive(1.0), tc)),
        n_seeds=10,
        best_k=3,
        base_seed=base_seed,
        output_dir=str(out_dir),
    )
    report = run_experiment(config)
    by_name = {arm.name: arm for arm in report.arms}
    grid = grid_search(
        Arm("undersample", Vanilla(), replace(tc, sampler=UnderSampler(1.0))),
        {"neg_to_pos_ratio": (1.0, 2.0, 5.0, 10.0)},
        config,
    )
    best_cell = grid.cells[grid.best_index]
    return (
        by_name["vanilla"].mean_test_f,
        by_name["adaptive"].mean_test_f,
        by_name["adaptive"].var_test_f,
        float(np.var(best_cell.test_f)),
    )


def test_sparse_benchmark_adaptive_gains(tmp_path):
    start = time.perf_counter()
    mean_v, mean_a, var_a, var_u = _benchmark_trial(0, tmp_path / "trial0")
    gap_pts = 100.0 * (mean_a - mean_v)
    gap_ok = gap_pts >= 2.0

    # variance comparison with the documented retry policy: if the first
    # trial fails, rerun at base_seed+100 and +200; 2 of 3 must pass
    var_checks = [var_a <= var_u]
    if not var_checks[0]:
        for i, extra in enumerate((100, 200), start=1):
            _, _, var_a_i, var_u_i = _benchmark_trial(extra, tmp_path / f"trial{i}")
            var_checks.append(var_a_i <= var_u_i)
    var_ok = sum(var_checks) >= (1 if len(var_checks) == 1 else 2)

    elapsed = time.perf_counter() - start
    ok = gap_ok and var_ok and elapsed < 180.0
    _verdict(
        "sparse benchmark (adaptive vs vanilla vs undersampling)",
        ok,
        f"gap {gap_pts:+.2f} F1 pts (adaptive {100 * mean_a:.2f} vs vanilla {100 * mean_v:.2f}), "
        f"var {1e4 * var_a:.2f} <= {1e4 * var_u:.2f} [{sum(var_checks)}/{len(var_checks)} trials], "
        f"{elapsed:.0f}s",
    )
    assert gap_ok, f"adaptive must lead vanilla by >= 2 F1 points, got {gap_pts:.2f}"
    assert var_ok, "adaptive variance must not exceed best undersampling variance (2 of 3 trials)"
    assert elapsed < 180.0


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_adaptive_weight_rises_as_the_model_fits(seed):
    # The paper's claim that w grows as training fits the data, on the standard
    # benchmark (30 epochs x 157 steps). Measured mean w per epoch:
    #   seed   epoch 0   epoch 29
    #   0      0.0111    0.418
    #   1      0.0082    0.417
    #   2      0.0064    0.402
    # the bounds below hold across these seeds with a wide margin.
    train_ds, dev_ds, test_ds = load_datasets(SyntheticSource(GeneratorConfig()))
    tc = TrainConfig(sampler=StratifiedSampler(1), strategy=Adaptive(1.0), seed=seed)
    _, report = train(train_ds, dev_ds, test_ds, ModelSpec(train_ds.d, train_ds.k), tc)
    w_per_epoch = np.array(report.w_history).reshape(report.epochs_run, -1)
    first, last = w_per_epoch[0].mean(), w_per_epoch[-1].mean()
    _verdict("w rises as the model fits", last >= 0.3 and last >= 10 * first,
             f"seed {seed}: mean w {first:.4f} in epoch 0, {last:.3f} in epoch {report.epochs_run - 1}")
    assert report.epochs_run == 30
    assert last >= 0.3
    assert last >= 10 * first


# ---------------------------------------------------------------------------
# 7. beta sweep directions
# ---------------------------------------------------------------------------


def test_beta_sweep_directions(tmp_path):
    start = time.perf_counter()
    tc = TrainConfig(sampler=StratifiedSampler(1))
    config = ExperimentConfig(
        source=SyntheticSource(GeneratorConfig()),
        arms=(Arm("adaptive", Adaptive(1.0), tc),),
        n_seeds=10,
        best_k=3,
        beta_sweep=(0.5, 1.0, 2.0, 4.0),
        output_dir=str(tmp_path / "sweep"),
    )
    report = beta_sweep(config)
    rows = report.rows
    prec_ok = all(rows[i + 1].mean_precision <= rows[i].mean_precision + 0.01 for i in range(3))
    rec_ok = all(rows[i + 1].mean_recall >= rows[i].mean_recall - 0.01 for i in range(3))
    f1_by_beta = {row.beta: row.mean_f1 for row in rows[:3]}
    peak_ok = f1_by_beta[1.0] == max(f1_by_beta.values())

    elapsed = time.perf_counter() - start
    ok = prec_ok and rec_ok and peak_ok and elapsed < 300.0
    detail = ", ".join(
        f"b{row.beta:g}: P={row.mean_precision:.3f}/R={row.mean_recall:.3f}/F1={row.mean_f1:.3f}"
        for row in rows
    )
    _verdict("beta sweep directions", ok, f"{detail}, {elapsed:.0f}s")
    assert prec_ok, "mean precision must be non-increasing in beta (slack 0.01)"
    assert rec_ok, "mean recall must be non-decreasing in beta (slack 0.01)"
    assert peak_ok, "mean F1 must peak at beta=1 among {0.5, 1, 2}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. best-3 selection rule
# ---------------------------------------------------------------------------


def test_best3_selection_rule():
    dev = [0.40, 0.50, 0.45, 0.48, 0.30]
    test = [0.41, 0.52, 0.44, 0.50, 0.35]
    got = best_k_test_score(dev, test, 3)
    ok = got == 0.52
    _verdict("best-3 selection rule", ok, f"selected test F {got}")
    assert got == 0.52


# ---------------------------------------------------------------------------
# 9. byte-identical persistence
# ---------------------------------------------------------------------------


def test_persisted_run_determinism(tmp_path):
    splits = _toy_splits()
    spec = ModelSpec(4, 2)
    cfg = TrainConfig(epochs=4, batch_size=16, strategy=Adaptive(1.0), seed=9)
    paths = []
    for tag in ("first", "second"):
        _, report = train(*splits, spec, cfg)
        path = tmp_path / f"{tag}.json"
        write_run_report(report, path)
        paths.append(path)
    train_ok = paths[0].read_bytes() == paths[1].read_bytes()

    source = SyntheticSource(
        GeneratorConfig(n=600, d=6, k=3, positive_rate=0.05, seed=2), n_dev=200, n_test=200
    )
    tc = TrainConfig(epochs=3, batch_size=32, sampler=StratifiedSampler(1))
    def experiment(out):
        return ExperimentConfig(
            source=source,
            arms=(Arm("vanilla", Vanilla(), tc), Arm("adaptive", Adaptive(1.0), tc)),
            n_seeds=2,
            best_k=2,
            output_dir=str(out),
        )

    run_experiment(experiment(tmp_path / "exp_a"))
    run_experiment(experiment(tmp_path / "exp_b"))
    exp_ok = True
    for pa in sorted((tmp_path / "exp_a").iterdir()):
        if pa.read_bytes() != (tmp_path / "exp_b" / pa.name).read_bytes():
            exp_ok = False
    ok = train_ok and exp_ok
    _verdict(
        "byte-identical persisted runs",
        ok,
        f"train repeat identical={train_ok}, experiment repeat identical={exp_ok}",
    )
    assert train_ok and exp_ok
