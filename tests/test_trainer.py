import json
import re
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adascale.configio import to_json
from adascale.data import (
    Dataset,
    GeneratorConfig,
    StratificationWarning,
    StratifiedSampler,
    SyntheticSource,
    UnderSampler,
    UniformSampler,
    batches,
    generate,
)
from adascale.harness import load_datasets
from adascale.losses import Adaptive, Focal, Static, Vanilla, compute_loss
from adascale.metrics import ConfusionStats, confusion_from_predictions, f_beta, precision, recall
from adascale.model import ForwardResult, ModelParams, ModelSpec, backward, forward, init_params
from adascale.trainer import (
    SGD,
    Adam,
    RunReport,
    TrainConfig,
    _OptimizerState,
    evaluate,
    train,
    write_run_report,
)


def _separable_split(n_pos, n_neg, d=5, gap=10.0, seed=0):
    """Two unit-noise Gaussians `gap` sigmas apart along the first axis."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n_pos, d))
    pos[:, 0] += gap / 2
    neg = rng.normal(size=(n_neg, d))
    neg[:, 0] -= gap / 2
    feats = np.vstack([pos, neg])
    labels = np.array([1] * n_pos + [0] * n_neg)
    order = rng.permutation(n_pos + n_neg)
    return Dataset(feats[order], labels[order], k=2)


@pytest.fixture(scope="module")
def toy():
    return (
        _separable_split(50, 50, seed=0),
        _separable_split(30, 30, seed=1),
        _separable_split(30, 30, seed=2),
    )


TOY_SPEC = ModelSpec(input_dim=5, n_classes=2)


def _toy_config(**kw):
    base = dict(optimizer=Adam(lr=0.05), epochs=50, batch_size=16, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTraining:
    def test_deterministic(self, toy):
        cfg = _toy_config(strategy=Adaptive(1.0), epochs=5)
        _, a = train(*toy, TOY_SPEC, cfg)
        _, b = train(*toy, TOY_SPEC, cfg)
        assert json.dumps(to_json(a)) == json.dumps(to_json(b))

    def test_converges_on_separable_data(self, toy):
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla()))
        assert report.best_dev_f == 1.0
        assert report.test_f >= 0.95

    def test_adaptive_weight_trends_upward(self, toy):
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Adaptive(1.0)))
        steps_per_epoch = len(report.w_history) // report.epochs_run
        first = np.mean(report.w_history[:steps_per_epoch])
        last = np.mean(report.w_history[-steps_per_epoch:])
        assert last > first
        assert all(w >= 0.0 for w in report.w_history)

    def test_returned_params_achieve_best_dev_f(self, toy):
        params, report = train(*toy, TOY_SPEC, _toy_config(strategy=Static(0.5), epochs=8))
        assert report.best_dev_f == max(report.dev_f)
        assert report.best_epoch == report.dev_f.index(max(report.dev_f))
        _, _, dev_f = evaluate(params, toy[1], report.eval_beta)
        assert dev_f == report.best_dev_f

    def test_curve_lengths_match_epochs_run(self, toy):
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=7))
        assert report.epochs_run == 7
        for curve in (report.dev_precision, report.dev_recall, report.dev_f, report.loss_curve):
            assert len(curve) == 7

    def test_vanilla_and_unit_static_identical_runs(self, toy):
        _, a = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=6))
        _, b = train(*toy, TOY_SPEC, _toy_config(strategy=Static(1.0), epochs=6))
        da, db = to_json(a), to_json(b)
        assert da.pop("strategy") != db.pop("strategy")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_focal_zero_matches_vanilla_run(self, toy):
        _, a = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=6))
        _, b = train(*toy, TOY_SPEC, _toy_config(strategy=Focal(0.0), epochs=6))
        da, db = to_json(a), to_json(b)
        da.pop("strategy"), db.pop("strategy")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_divergence_flags_invalid(self):
        # identical features with contradictory labels; every strategy must
        # flag the run instead of raising
        cases = [
            # a huge learning rate saturates the softmax and some gold
            # probability underflows to 0
            (1.0, 1e12, 3, 4),
            # the parameters overflow to inf and softmax returns NaN
            (2.0, 1e308, 3, 4),
            # one step per epoch: the loss stays finite, the weights end near
            # 1e308 and every dev probability is NaN
            (2.0, 1e308, 1, 64),
        ]
        labels = np.array([0, 1] * 10)
        for feature_value, lr, epochs, batch_size in cases:
            ds = Dataset(feature_value * np.ones((20, 3)), labels, k=2)
            for strategy in (Vanilla(), Static(0.5), Focal(2.0), Adaptive(1.0)):
                cfg = TrainConfig(
                    optimizer=SGD(lr=lr), epochs=epochs, batch_size=batch_size,
                    strategy=strategy, seed=0,
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    _, report = train(ds, ds, ds, ModelSpec(3, 2), cfg)
                assert not report.valid, (feature_value, lr, epochs, strategy)
                assert "non-finite" in report.failure
                assert report.test_f == 0.0
        # the last run (adaptive, one step per epoch) stopped at its first dev evaluation
        assert report.failure == "non-finite dev probabilities at epoch 0"
        assert report.epochs_run == 0 and report.loss_curve == report.dev_f == []

    def test_diverging_test_pass_flags_invalid(self):
        # a finite model overflows on test rows near the float64 limit: the run ends
        # invalid with its curves complete, instead of raising
        labels = np.array([0, 1] * 10)
        ds = Dataset(np.ones((20, 3)), labels, k=2)
        huge = Dataset(1.7e308 * np.tile([1.0, -1.0, 1.0], (20, 1)), labels, k=2)
        _, report = train(ds, ds, huge, ModelSpec(3, 2), TrainConfig(optimizer=Adam(), epochs=2))
        assert not report.valid
        assert report.failure == "non-finite test probabilities"
        assert report.epochs_run == 2 and report.best_epoch == 0
        assert len(report.loss_curve) == len(report.dev_f) == len(report.dev_precision) == 2
        assert (report.test_precision, report.test_recall, report.test_f) == (0.0, 0.0, 0.0)
        assert report.test_counts == ConfusionStats(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "feature_value, lr, epochs, batch_size, failure",
        [
            (1.0, 1e12, 3, 4, "non-finite loss at epoch 0, step 1"),
            (2.0, 1e308, 3, 4, "non-finite loss at epoch 0, step 1"),
            (2.0, 1e308, 1, 64, "non-finite dev probabilities at epoch 0"),
        ],
    )
    def test_error_state_restored(self, feature_value, lr, epochs, batch_size, failure):
        # train() ignores divide, invalid and overflow errors while it runs and leaves the
        # caller's settings as they were, also when a diverged run returns early
        ds = Dataset(feature_value * np.ones((20, 3)), np.array([0, 1] * 10), k=2)
        cfg = TrainConfig(
            optimizer=SGD(lr=lr), epochs=epochs, batch_size=batch_size, strategy=Adaptive(1.0), seed=0
        )
        with np.errstate(divide="raise", over="ignore", under="ignore", invalid="warn"):
            before = np.geterr()
            _, report = train(ds, ds, ds, ModelSpec(3, 2), cfg)
            assert np.geterr() == before
        assert not report.valid and report.failure == failure

    def test_error_state_restored_after_a_valid_run(self, toy):
        with np.errstate(divide="raise", invalid="raise"):
            before = np.geterr()
            _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Adaptive(1.0), epochs=2))
            assert np.geterr() == before
        assert report.valid

    def test_diverging_adaptive_run_warns_of_no_divide_or_invalid(self):
        # the non-finite loss is the signal; the errors behind it are not reported
        ds = Dataset(np.ones((20, 3)), np.array([0, 1] * 10), k=2)
        cfg = TrainConfig(optimizer=SGD(lr=1e12), epochs=3, batch_size=4, strategy=Adaptive(1.0), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = train(ds, ds, ds, ModelSpec(3, 2), cfg)
        assert report.failure == "non-finite loss at epoch 0, step 1"
        assert report.epochs_run == 0 and len(report.w_history) == 1 and report.loss_curve == []

    @pytest.mark.parametrize("strategy", [Vanilla(), Adaptive(1.0)], ids=str)
    @pytest.mark.parametrize("caller", ["warnings-as-errors", "overflow-raises"])
    def test_diverging_run_ignores_overflow(self, strategy, caller):
        # overflow in the step's matmul, bias add or max subtraction is not the
        # signal either: the run neither warns of it nor ends on numpy's error
        splits = load_datasets(
            SyntheticSource(GeneratorConfig(n=300, d=5, positive_rate=0.1, seed=7), n_dev=100, n_test=100)
        )
        cfg = TrainConfig(
            optimizer=SGD(lr=1e308), epochs=3, batch_size=32, sampler=StratifiedSampler(1),
            strategy=strategy, seed=0,
        )
        with warnings.catch_warnings(), np.errstate(over="raise" if caller == "overflow-raises" else "warn"):
            warnings.simplefilter("error")
            _, report = train(*splits, ModelSpec(5, 4), cfg)
        assert not report.valid and report.failure == "non-finite loss at epoch 0, step 1"

    @pytest.mark.parametrize("strategy", [Vanilla(), Adaptive(1.0)], ids=str)
    def test_zero_gold_probability_gives_an_infinite_loss_without_warning(self, strategy):
        fwd = ForwardResult(probs=np.array([[0.0, 1.0], [0.5, 0.5]]), inputs=np.zeros((2, 1)))
        for settings in ({"all": "raise"}, {"all": "warn"}):
            with np.errstate(**settings), warnings.catch_warnings():
                warnings.simplefilter("error")
                out = compute_loss(strategy, fwd, np.array([0, 1]))
            assert out.loss == np.inf

    def test_early_stopping(self, toy):
        cfg = _toy_config(strategy=Vanilla(), epochs=50, early_stop_patience=3)
        _, report = train(*toy, TOY_SPEC, cfg)
        assert report.epochs_run < 50
        assert report.epochs_run == len(report.dev_f)
        assert report.epochs_run - report.best_epoch >= 3

    def test_dimension_mismatch(self, toy):
        with pytest.raises(ValueError, match="input_dim"):
            train(*toy, ModelSpec(4, 2), _toy_config(strategy=Vanilla()))

    def test_class_count_mismatch(self, toy):
        train_ds, dev_ds, test_ds = toy
        dev_ds = Dataset(dev_ds.features, dev_ds.labels, k=3)
        with pytest.raises(ValueError, match="dev dataset k 3 != model n_classes 2"):
            train(train_ds, dev_ds, test_ds, TOY_SPEC, _toy_config(strategy=Vanilla()))

    @pytest.mark.parametrize("split", ["train", "dev", "test"])
    def test_splits_must_be_datasets(self, toy, split):
        # each step relies on Dataset's invariants, so train() takes nothing else
        ds = toy[0]
        attrs = {"features": ds.features, "labels": ds.labels, "k": ds.k, "n": ds.n, "d": ds.d}
        duck = type("Split", (), attrs)()
        splits = dict(zip(("train", "dev", "test"), toy))
        splits[split] = duck
        with pytest.raises(ValueError) as caught:
            train(*splits.values(), TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=1))
        assert str(caught.value) == f"{split} split must be a data.Dataset, got Split"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", None, "TrainConfig.epochs: expected int, got None"),
            ("batch_size", 8.0, "TrainConfig.batch_size: expected int, got 8.0"),
            ("seed", 1.5, "TrainConfig.seed: expected int, got 1.5"),
            (
                "strategy", "vanilla",
                "TrainConfig.strategy: expected Vanilla | Adaptive | Static | Focal, got 'vanilla'",
            ),
            (
                "sampler", None,
                "TrainConfig.sampler: expected UniformSampler | StratifiedSampler | UnderSampler, got None",
            ),
            ("optimizer", "adam", "TrainConfig.optimizer: expected SGD | Adam, got 'adam'"),
        ],
    )
    def test_config_fields_type_checked(self, field, value, message):
        # built in Python, a wrong-typed field fails where it is set, not inside train()
        with pytest.raises(ValueError) as caught:
            TrainConfig(**{field: value})
        assert str(caught.value) == message

    def test_config_types_read_as_the_codec_reads_them(self):
        # an int is a float, a bool is no number, and an optional field takes None
        assert TrainConfig(eval_beta=2, early_stop_patience=None).eval_beta == 2
        with pytest.raises(ValueError, match=r"^TrainConfig\.epochs: expected int, got True$"):
            TrainConfig(epochs=True)
        with pytest.raises(ValueError, match=r"^Adam\.lr: expected float, got False$"):
            Adam(lr=False)

    def test_optimizer_gradients_are_views_of_its_buffer(self):
        # the backward pass writes into these, so a step needs no gather
        params = init_params(ModelSpec(4, 3, 6, "tanh"), 0)
        state = _OptimizerState(Adam(), params)
        grads = state.grads.weights + state.grads.biases
        assert [g.shape for g in grads] == [a.shape for a in params.weights + params.biases]
        assert all(np.shares_memory(g, state.grad) for g in grads)
        assert sum(g.size for g in grads) == state.grad.size

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)

    def test_undersampling_without_positives_is_harmless(self):
        # zero positives make every undersampled epoch empty; the run must
        # still complete with a zeroed loss curve rather than NaNs
        from adascale.data import UnderSampler

        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(40, 3)), np.zeros(40, dtype=np.int64), k=2)
        cfg = TrainConfig(epochs=2, batch_size=8, sampler=UnderSampler(5.0), seed=0)
        _, report = train(ds, ds, ds, ModelSpec(3, 2), cfg)
        assert report.valid
        assert report.loss_curve == [0.0, 0.0]

    def test_stratified_sampler_runs(self, toy):
        cfg = _toy_config(strategy=Adaptive(1.0), epochs=3, sampler=StratifiedSampler(1))
        _, report = train(*toy, TOY_SPEC, cfg)
        assert report.valid
        assert report.skipped_steps == 0

    def test_adaptive_skips_positive_free_batches(self):
        # rare positives + tiny uniform batches: some batches carry none,
        # contribute w=0 and are counted as skipped
        rng = np.random.default_rng(12)
        labels = np.zeros(120, dtype=np.int64)
        labels[rng.choice(120, size=4, replace=False)] = 1
        ds = Dataset(rng.normal(size=(120, 3)), labels, k=2)
        cfg = TrainConfig(
            optimizer=Adam(lr=0.01), epochs=2, batch_size=8,
            sampler=UniformSampler(), strategy=Adaptive(1.0), seed=0,
        )
        _, report = train(ds, ds, ds, ModelSpec(3, 2), cfg)
        assert report.valid
        assert report.skipped_steps > 0
        zero_steps = sum(1 for w in report.w_history if w == 0.0)
        assert zero_steps == report.skipped_steps


class TestEvaluate:
    def test_perfect_and_all_negative(self, toy):
        train_ds = toy[0]
        # bias-only model forced to predict the negative class everywhere
        always_neg = ModelParams(
            TOY_SPEC, [np.zeros((5, 2))], [np.array([5.0, -5.0])]
        )
        p, r, f = evaluate(always_neg, train_ds, 1.0)
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_matches_metrics_module(self):
        # craft a model that reproduces a fixed prediction sequence: one-hot
        # features and an identity weight matrix make predict() echo the row
        gold = np.array([1, 0, 0, 2, 0])
        pred = np.array([1, 0, 1, 1, 0])
        feats = np.eye(3)[pred]
        ds = Dataset(feats, gold, k=3)
        echo = ModelParams(ModelSpec(3, 3), [np.eye(3)], [np.zeros(3)])
        p, r, f = evaluate(echo, ds, 1.0)
        stats, _ = confusion_from_predictions(gold, pred)
        assert (p, r, f) == (precision(stats), recall(stats), f_beta(stats, 1.0))


class TestReportSerialization:
    def test_wall_clock_excluded(self, toy):
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=2))
        assert report.wall_clock_s > 0.0
        assert "wall_clock_s" not in to_json(report)

    def test_wall_clock_is_the_run_duration(self, toy):
        before = time.perf_counter()
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=2))
        assert 0.0 < report.wall_clock_s <= time.perf_counter() - before

    def test_write_is_canonical(self, tmp_path, toy):
        _, report = train(*toy, TOY_SPEC, _toy_config(strategy=Vanilla(), epochs=2))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_run_report(report, p1)
        write_run_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["seed"] == report.seed

    def test_write_checks_the_report_before_it_writes(self, tmp_path):
        report = RunReport(seed=0, strategy="vanilla", eval_beta=1.0)
        report.best_dev_f = 1.5
        with pytest.raises(ValueError, match=re.escape("RunReport.best_dev_f must be <= 1, got 1.5")):
            write_run_report(report, tmp_path / "run.json")
        assert not list(tmp_path.iterdir())


def _split(rng, n, k, d, positive_share, centers) -> Dataset:
    """``n`` rows of ``k`` classes, a ``positive_share`` of them positive, around the
    class ``centers``; a small split lacks most classes, yet its ``k`` is the model's."""
    labels = np.where(rng.random(n) < positive_share, rng.integers(1, k, size=n), 0)
    return Dataset(centers[labels] + rng.normal(size=(n, d)), labels, k)


@st.composite
def _whole_runs(draw):
    """A drawn training run: its (train, dev, test) splits, model spec and config."""
    k, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.normal(size=(k, d)) * draw(st.sampled_from([0.0, 1.0, 3.0]))
    shares = st.sampled_from([0.0, 0.1, 0.3, 0.8])
    splits = tuple(
        _split(rng, draw(st.integers(1, n)), k, d, draw(shares), centers) for n in (60, 30, 30)
    )
    hidden = draw(st.none() | st.integers(1, 8))
    spec = ModelSpec(d, k, hidden, draw(st.sampled_from(["tanh", "relu"])))
    strategy = draw(st.one_of(
        st.just(Vanilla()),
        st.builds(Static, st.floats(0.05, 5.0)),
        st.builds(Focal, st.floats(0.0, 3.0)),
        st.builds(Adaptive, st.floats(0.25, 4.0)),
    ))
    sampler = draw(st.one_of(
        st.just(UniformSampler()),
        # a quota above a split's positives per batch is infeasible and filled best-effort
        st.builds(StratifiedSampler, st.integers(1, 5)),
        # a split without positives under-samples to an epoch with no steps
        st.builds(UnderSampler, st.floats(0.25, 4.0)),
    ))
    optimizer = draw(st.one_of(
        st.builds(Adam, st.floats(1e-3, 0.3)),
        st.builds(SGD, st.floats(1e-3, 1.0), st.sampled_from([0.0, 0.5, 0.9])),
    ))
    config = TrainConfig(
        optimizer=optimizer,
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 16) | st.integers(17, 500)),
        sampler=sampler,
        strategy=strategy,
        seed=draw(st.integers(0, 2**16)),
        eval_beta=draw(st.sampled_from([1.0, 0.5, 2.0])),
        early_stop_patience=draw(st.none() | st.just(1)),
    )
    return splits, spec, config


def _diverging_run():
    """An ``SGD(lr=1e308)`` run whose loss turns non-finite on its second step."""
    ds = Dataset(2.0 * np.ones((20, 3)), np.array([0, 1, 2, 0] * 5), k=3)
    config = TrainConfig(
        optimizer=SGD(lr=1e308, momentum=0.5), epochs=2, batch_size=4, sampler=StratifiedSampler(1),
        strategy=Focal(2.0), seed=3,
    )
    return (ds, ds, ds), ModelSpec(3, 3, 4, "relu"), config


def _overflowing_run(split: int, spec: ModelSpec):
    """A run whose dev (``split`` 1) or test (``split`` 2) rows are ±float max, so that
    split's class probabilities turn non-finite while training stays finite."""
    rng = np.random.default_rng(0)
    ds = Dataset(rng.normal(size=(20, 3)), np.array([0, 1, 2, 0] * 5), k=3)
    splits = [ds, ds, ds]
    splits[split] = Dataset(np.finfo(float).max * np.sign(rng.normal(size=(20, 3))), ds.labels, k=3)
    config = TrainConfig(optimizer=Adam(lr=0.05), epochs=2, batch_size=4, strategy=Adaptive(1.0), seed=1)
    return tuple(splits), spec, config


class TestReferenceLoop:
    @pytest.fixture(scope="class")
    def splits(self):
        pool = generate(GeneratorConfig(n=120, d=4, k=3, positive_rate=0.2, seed=4))
        return tuple(
            Dataset(pool.features[rows], pool.labels[rows], pool.k)
            for rows in (slice(0, 64), slice(64, 92), slice(92, 120))
        )

    def _assert_same_run(self, splits, spec, config, tmp_path):
        params, report = train(*splits, spec, config)
        ref_params, ref_report = reference.train(*splits, spec, config)
        write_run_report(report, tmp_path / "train.json")
        write_run_report(ref_report, tmp_path / "reference.json")
        assert (tmp_path / "train.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
        for a, b in zip(params.weights + params.biases, ref_params.weights + ref_params.biases):
            assert a.flags.owndata
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        return report

    def test_matrix_matches_reference(self, splits, tmp_path):
        specs = [ModelSpec(4, 3), ModelSpec(4, 3, 6, "tanh"), ModelSpec(4, 3, 6, "relu")]
        strategies = [Vanilla(), Static(0.4), Focal(2.0), Adaptive(1.0)]
        samplers = [UniformSampler(), StratifiedSampler(1), UnderSampler(2.0)]
        optimizers = [Adam(lr=0.05), SGD(lr=0.3, momentum=0.9)]
        seed = 0
        for spec in specs:
            for strategy in strategies:
                for sampler in samplers:
                    for optimizer in optimizers:
                        config = TrainConfig(
                            optimizer=optimizer, epochs=3, batch_size=8, sampler=sampler,
                            strategy=strategy, seed=seed,
                        )
                        self._assert_same_run(splits, spec, config, tmp_path)
                        seed += 1

    def test_early_stopped_run_matches_reference(self, toy, tmp_path):
        config = _toy_config(strategy=Adaptive(1.0), epochs=50, early_stop_patience=2)
        report = self._assert_same_run(toy, TOY_SPEC, config, tmp_path)
        assert report.epochs_run < 50

    def test_invalid_run_matches_reference(self, tmp_path):
        ds = Dataset(2.0 * np.ones((20, 3)), np.array([0, 1] * 10), k=2)
        config = TrainConfig(
            optimizer=SGD(lr=1e308), epochs=3, batch_size=4, strategy=Adaptive(1.0), seed=0
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = self._assert_same_run((ds, ds, ds), ModelSpec(3, 2), config, tmp_path)
        assert not report.valid

    @pytest.mark.parametrize("k", [7, 9, 34])
    def test_class_counts_either_side_of_the_class_major_softmax(self, k, tmp_path):
        pool = generate(GeneratorConfig(n=240, d=4, k=k, positive_rate=0.2, seed=4))
        splits = tuple(
            Dataset(pool.features[rows], pool.labels[rows], pool.k)
            for rows in (slice(0, 128), slice(128, 184), slice(184, 240))
        )
        seed = 0
        for spec in (ModelSpec(4, k), ModelSpec(4, k, 6, "tanh")):
            for strategy in (Vanilla(), Adaptive(1.0)):
                config = TrainConfig(
                    optimizer=Adam(lr=0.05), epochs=3, batch_size=8, strategy=strategy, seed=seed
                )
                self._assert_same_run(splits, spec, config, tmp_path)
                seed += 1

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @example(_diverging_run())
    @example(_overflowing_run(1, ModelSpec(3, 3)))
    @example(_overflowing_run(2, ModelSpec(3, 3, 4, "relu")))
    @given(_whole_runs())
    def test_drawn_runs_match_reference(self, tmp_path_factory, run):
        splits, spec, config = run
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", StratificationWarning)
            self._assert_same_run(splits, spec, config, tmp_path_factory.mktemp("run"))
