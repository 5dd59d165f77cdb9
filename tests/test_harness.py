import ast
import copy
import functools
import importlib.resources
import io
import json
import math
import pickle
import re
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import jsonschema
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from adascale import configio, harness, trainer
from adascale.data import (
    Dataset,
    DatasetSource,
    GeneratorConfig,
    SamplerKind,
    StratifiedSampler,
    UnderSampler,
    UniformSampler,
    save,
)
from adascale.harness import (
    Arm,
    ExperimentConfig,
    FileSource,
    InputError,
    ModelConfig,
    SyntheticSource,
    best_k_test_score,
    beta_sweep,
    experiment_from_json,
    experiment_to_json,
    grid_search,
    load_datasets,
    reaggregate,
    run_experiment,
)
from adascale.losses import Adaptive, Focal, LossStrategy, Static, Vanilla
from adascale.metrics import ConfusionStats, f_beta, precision, recall
from adascale.model import Checkpoint, CheckpointLayer, ModelSpec
from adascale.trainer import SGD, Adam, Optimizer, RunReport, TrainConfig, report_to_dict
from adascale.trainer import train as train_run


TINY_SOURCE = SyntheticSource(
    GeneratorConfig(n=400, d=5, k=3, positive_rate=0.1, seed=0),
    n_dev=150,
    n_test=150,
)
TINY_TRAIN = TrainConfig(
    optimizer=Adam(lr=0.01), epochs=3, batch_size=32, sampler=StratifiedSampler(1)
)


def _tiny_config(out_dir, arms=None, **kw):
    arms = arms or (
        Arm("vanilla", Vanilla(), TINY_TRAIN),
        Arm("adaptive", Adaptive(1.0), TINY_TRAIN),
    )
    base = dict(source=TINY_SOURCE, arms=arms, n_seeds=2, best_k=2, output_dir=str(out_dir))
    base.update(kw)
    return ExperimentConfig(**base)


def _compare(out, **kw):
    return run_experiment(_tiny_config(out, **kw))


def _sweep(out, betas=(0.5, 1.0), train=TINY_TRAIN, **kw):
    arms = (Arm("adaptive", Adaptive(1.0), train),)
    return beta_sweep(_tiny_config(out, arms=arms, beta_sweep=betas, **kw))


def _grid(out, costs=(0.2, 1.0), train=TINY_TRAIN, **kw):
    arm = Arm("static", Static(0.5), train)
    return grid_search(arm, {"negative_cost": costs}, _tiny_config(out, **kw))


# a huge learning rate makes every run's loss non-finite in its first epoch
DIVERGING_TRAIN = replace(TINY_TRAIN, optimizer=SGD(lr=1e12))


def _assert_pool_matches_sequential(tmp_path, protocol) -> list[str]:
    """Run ``protocol`` at workers=1 and at workers=2: the same files, byte for byte. Returns their names."""
    protocol(tmp_path / "seq", workers=1)
    protocol(tmp_path / "par", workers=2)
    seq = sorted(p.name for p in (tmp_path / "seq").iterdir())
    assert seq == sorted(p.name for p in (tmp_path / "par").iterdir())
    for name in seq:
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
    return seq


class TestBestK:
    def test_worked_selection_example(self):
        dev = [0.40, 0.50, 0.45, 0.48, 0.30]
        test = [0.41, 0.52, 0.44, 0.50, 0.35]
        assert best_k_test_score(dev, test, 3) == 0.52

    def test_single_run(self):
        assert best_k_test_score([0.4], [0.7], 3) == 0.7

    def test_rank_ties_keep_earlier_run(self):
        assert best_k_test_score([0.5, 0.5, 0.5], [0.1, 0.9, 0.8], 1) == 0.1

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            best_k_test_score([], [], 3)
        with pytest.raises(ValueError):
            best_k_test_score([0.1], [0.1, 0.2], 1)

    @pytest.mark.parametrize("k", [0, -3, True, 2.5, None])
    def test_rejects_a_k_that_is_no_positive_int(self, tmp_path, k):
        # a bool is no int, as in the codec; reaggregate refuses before it reads a file
        message = re.escape(f"best_k must be an int >= 1, got {k!r}")
        with pytest.raises(ValueError, match=message):
            best_k_test_score([0.9, 0.5, 0.7], [0.1, 0.9, 0.3], k)
        with pytest.raises(ValueError, match=message):
            reaggregate(tmp_path / "missing", best_k=k)


class TestRunExperiment:
    def test_outputs_and_aggregates(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        report = run_experiment(config)
        out = tmp_path / "out"
        names = sorted(p.name for p in out.iterdir())
        assert "comparison.csv" in names and "comparison.json" in names
        for arm in ("vanilla", "adaptive"):
            for seed in (0, 1):
                assert f"run_{arm}_{seed}.json" in names
        _check_written(harness.ComparisonReport, out / "comparison.json")
        _check_written(RunReport, out / "run_adaptive_1.json")
        for arm in report.arms:
            assert arm.n_valid == 2
            test_f = [r.test_f for r in arm.runs]
            assert arm.mean_test_f == pytest.approx(np.mean(test_f))
            assert arm.var_test_f == pytest.approx(np.var(test_f))
            assert arm.var_test_f_pct == pytest.approx(1e4 * np.var(test_f))
        csv_lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "arm,mean,var,best3"
        assert len(csv_lines) == 3

    def test_identical_arms_identical_aggregates(self, tmp_path):
        config = _tiny_config(
            tmp_path / "out",
            arms=(
                Arm("first", Static(0.5), TINY_TRAIN),
                Arm("second", Static(0.5), TINY_TRAIN),
            ),
        )
        report = run_experiment(config)
        a, b = report.arms
        assert a.mean_test_f == b.mean_test_f
        assert a.var_test_f == b.var_test_f
        assert a.best3_test_f == b.best3_test_f

    def test_single_seed_mean_and_zero_variance(self, tmp_path):
        config = _tiny_config(tmp_path / "out", n_seeds=1, best_k=1)
        report = run_experiment(config)
        for arm in report.arms:
            assert arm.mean_test_f == arm.runs[0].test_f
            assert arm.var_test_f == 0.0
            assert arm.best3_test_f == arm.runs[0].test_f

    def test_byte_identical_reruns(self, tmp_path):
        r1 = run_experiment(_tiny_config(tmp_path / "a"))
        r2 = run_experiment(_tiny_config(tmp_path / "b"))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
        assert configio.to_json(r1) == configio.to_json(r2)

    def test_reaggregation_reproduces_report(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        report = run_experiment(config)
        rebuilt = reaggregate(tmp_path / "out", best_k=config.best_k)
        for arm in report.arms:
            assert vars(rebuilt[arm.name]) == vars(arm)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k not in ("test_f", "valid")}),
            lambda text: json.dumps({**json.loads(text), "surprise": 1}),
            lambda text: text[: len(text) // 2],
        ],
        ids=["missing_keys", "extra_key", "truncated"],
    )
    def test_reaggregate_rejects_invalid_run_files(self, tmp_path, edit):
        run_experiment(_tiny_config(tmp_path / "out"))
        path = tmp_path / "out" / "run_adaptive_1.json"
        path.write_text(edit(path.read_text()))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            reaggregate(tmp_path / "out")

    def test_reaggregate_rejects_a_run_file_without_test_counts(self, tmp_path):
        # a run file written before run reports held their test counts
        run_experiment(_tiny_config(tmp_path / "out"))
        path = tmp_path / "out" / "run_vanilla_0.json"
        doc = json.loads(path.read_text())
        del doc["test_counts"]
        configio.write_json(doc, path)
        with pytest.raises(ValueError) as caught:
            reaggregate(tmp_path / "out")
        assert str(caught.value) == f"{path}: not a valid run report: missing RunReport keys ['test_counts']"

    @pytest.mark.parametrize(
        "tags, message",
        [
            ({"format": None, "version": None}, "missing RunReport keys ['format', 'version']"),
            ({"format": None, "version": None, "test_counts": None}, "missing RunReport keys ['format', 'version']"),
            ({"version": 2}, "RunReport.version must be 1, got 2"),
            ({"version": True}, "RunReport.version must be 1, got True"),
            ({"format": "comparison-report"}, "RunReport.format must be 'run-report', got 'comparison-report'"),
        ],
        ids=["untagged", "untagged without test_counts", "version 2", "version true", "another format"],
    )
    def test_reaggregate_refuses_a_run_file_of_another_format_or_version(self, tmp_path, tags, message):
        # a key set to None here is dropped from the file; the tags are checked before any field
        run_experiment(_tiny_config(tmp_path / "out"))
        path = tmp_path / "out" / "run_vanilla_0.json"
        doc = {**json.loads(path.read_text()), **tags}
        configio.write_json({key: value for key, value in doc.items() if value is not None}, path)
        with pytest.raises(ValueError) as caught:
            reaggregate(tmp_path / "out")
        assert str(caught.value) == f"{path}: not a valid run report: {message}"

    @pytest.mark.parametrize("protocol", [_compare, _sweep, _grid], ids=["run_experiment", "beta_sweep", "grid_search"])
    def test_every_run_file_carries_its_tags(self, tmp_path, protocol):
        protocol(tmp_path / "out")
        paths = sorted((tmp_path / "out").glob("run_*.json"))
        assert len(paths) == 4
        for path in paths:
            _check_written(RunReport, path)

    @pytest.mark.parametrize("protocol", [_compare, _sweep], ids=["run_experiment", "beta_sweep"])
    def test_one_test_pass_per_valid_run(self, tmp_path, monkeypatch, protocol):
        # every aggregate reads the run reports, so no protocol predicts the test split again
        splits, test_passes = [], []
        load, predict = harness.load_datasets, trainer.predict

        def recording_load(source):
            splits[:] = load(source)
            return tuple(splits)

        def counting_predict(params, features):
            test_passes.append(features is splits[2].features)
            return predict(params, features)

        monkeypatch.setattr(harness, "load_datasets", recording_load)
        monkeypatch.setattr(trainer, "predict", counting_predict)
        protocol(tmp_path / "out")
        runs = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("run_*.json")]
        assert sum(test_passes) == sum(run["valid"] for run in runs) == 4

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["no directory", "no run files"])
    def test_reaggregate_rejects_a_directory_without_runs(self, tmp_path, make):
        run_dir = tmp_path / "out"
        make(run_dir)
        with pytest.raises(ValueError, match=f"^{re.escape(str(run_dir))}: no run_"):
            reaggregate(run_dir)

    @pytest.mark.parametrize(
        "protocol",
        # one seed per beta: the sweep's runs still go through the pool
        [_compare, functools.partial(_sweep, n_seeds=1, best_k=1), _grid],
        ids=["run_experiment", "beta_sweep", "grid_search"],
    )
    def test_worker_pool_matches_sequential(self, tmp_path, protocol):
        _assert_pool_matches_sequential(tmp_path, protocol)

    @pytest.mark.parametrize(
        "protocol, n_invalid",
        [
            (
                functools.partial(
                    _compare,
                    arms=(Arm("vanilla", Vanilla(), TINY_TRAIN), Arm("diverges", Adaptive(1.0), DIVERGING_TRAIN)),
                ),
                2,
            ),
            (functools.partial(_sweep, n_seeds=1, best_k=1, train=DIVERGING_TRAIN), 2),
            (functools.partial(_grid, train=DIVERGING_TRAIN), 4),
        ],
        ids=["run_experiment", "beta_sweep", "grid_search"],
    )
    def test_worker_pool_matches_sequential_on_invalid_runs(self, tmp_path, protocol, n_invalid):
        names = _assert_pool_matches_sequential(tmp_path, protocol)
        failures = [
            json.loads((tmp_path / "par" / name).read_text())["failure"] for name in names if name.startswith("run_")
        ]
        assert failures.count("non-finite loss at epoch 0, step 1") == n_invalid
        assert len(failures) - n_invalid == failures.count(None)

    def test_run_file_checked_before_it_is_written(self, tmp_path, monkeypatch):
        def overscored(*args):
            params, report = train_run(*args)
            report.test_f = 2.0
            return params, report

        monkeypatch.setattr(harness, "train", overscored)
        with pytest.raises(ValueError, match=re.escape("RunReport.test_f must be <= 1, got 2.0")):
            _compare(tmp_path / "out")
        assert not list(tmp_path.glob("out/run_*.json"))

    def test_pool_worker_returns_no_parameters(self):
        # a protocol keeps only the report, so a worker sends no parameters back
        datasets = load_datasets(TINY_SOURCE)
        config = harness._run_config(Arm("a", Vanilla(), TINY_TRAIN), 3)
        task = (harness._build_spec(ModelConfig(), datasets[0]), config, "a")
        try:
            harness._init_worker(datasets)
            report, params = harness._execute_in_worker(task)
        finally:
            harness._init_worker(None)
        assert params is None
        assert report_to_dict(report) == report_to_dict(harness._execute_run(task, datasets)[0])

    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        # a fake pool that records its size and runs in this process: a real one would fork every worker it is given
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                harness._init_worker(None)

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        datasets = load_datasets(TINY_SOURCE)
        spec = harness._build_spec(ModelConfig(), datasets[0])
        tasks = [(spec, harness._run_config(Arm("a", Vanilla(), TINY_TRAIN), seed), "a") for seed in (0, 1)]
        reports = [report for report, _ in harness._run_all(tasks, 64, datasets)]
        assert sizes == [2]
        assert [report_to_dict(r) for r in reports] == [report_to_dict(r) for r, _ in harness._run_all(tasks, 1, datasets)]

    def test_pool_tasks_carry_no_arrays(self, tmp_path, monkeypatch):
        tasks = []
        run_all = harness._run_all

        def spy(*args):
            tasks.extend(args[0])
            return run_all(*args)

        monkeypatch.setattr(harness, "_run_all", spy)
        _compare(tmp_path / "out", workers=2)
        arrays = []

        class ArrayFinder(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, np.ndarray):
                    arrays.append(obj.shape)

        assert len(tasks) == 4
        for task in tasks:
            ArrayFinder(io.BytesIO()).dump(task)
            assert len(pickle.dumps(task)) < 4096
        assert arrays == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_module_state_holds_datasets(self, tmp_path, workers):
        # the datasets reach workers through the pool, never through a harness global
        _compare(tmp_path / "out", workers=workers)
        for name, value in vars(harness).items():
            values = value if isinstance(value, (tuple, list)) else (value,)
            assert not any(isinstance(v, Dataset) for v in values), name

    @pytest.mark.parametrize(
        "protocol, names",
        [
            (
                functools.partial(
                    _compare, arms=(Arm("a b", Vanilla(), TINY_TRAIN), Arm("a-b", Vanilla(), TINY_TRAIN))
                ),
                ("a b", "a-b"),
            ),
            (functools.partial(_sweep, betas=(1.0, 1.0000001)), ("adaptive_beta1", "adaptive_beta1")),
            (
                functools.partial(_grid, costs=(0.2, 0.2000001)),
                ("static#negative_cost=0.2", "static#negative_cost=0.2"),
            ),
        ],
        ids=["run_experiment", "beta_sweep", "grid_search"],
    )
    def test_colliding_run_files_rejected_before_training(self, tmp_path, protocol, names):
        # distinct runs whose reports would land in one run file
        with pytest.raises(ValueError, match=" and ".join(re.escape(repr(n)) for n in names)):
            protocol(tmp_path / "out")
        assert not list(tmp_path.glob("out/run_*.json"))

    def test_invalid_runs_excluded_and_flagged(self, tmp_path):
        # contradictory labels + huge learning rate force divergence
        feats = np.ones((40, 3))
        labels = np.array([0, 1] * 20)
        ds = Dataset(feats, labels, k=2)
        for split in ("train", "dev", "test"):
            save(ds, tmp_path / f"{split}.csv")
        source = FileSource(
            str(tmp_path / "train.csv"), str(tmp_path / "dev.csv"), str(tmp_path / "test.csv")
        )
        bad_train = TrainConfig(optimizer=SGD(lr=1e12), epochs=2, batch_size=8)
        config = ExperimentConfig(
            source=source,
            arms=(Arm("diverges", Vanilla(), bad_train), Arm("adaptive", Adaptive(1.0), bad_train)),
            n_seeds=2,
            best_k=1,
            output_dir=str(tmp_path / "out"),
        )
        out = tmp_path / "out"
        report = run_experiment(config)
        for arm in report.arms:
            assert arm.n_valid == 0
            assert arm.invalid_seeds == [0, 1]
            assert arm.mean_test_f is None
        for path in out.glob("run_*.json"):
            assert json.loads(path.read_text())["test_counts"] == dict.fromkeys(("p", "n", "tp", "tn", "pe"), 0.0)
        _check_written(harness.ComparisonReport, out / "comparison.json")
        assert (out / "comparison.csv").read_bytes() == b"arm,mean,var,best3\r\ndiverges,,,\r\nadaptive,,,\r\n"

        sweep = beta_sweep(replace(config, beta_sweep=(0.5,)))
        assert sweep.rows[0].n_valid == 0 and sweep.rows[0].mean_f1 is None
        _check_written(harness.SweepReport, out / "sweep.json")
        assert (out / "sweep.csv").read_bytes() == (
            b"beta,mean_precision,mean_recall,mean_f1,std_precision,std_recall,std_f1\r\n0.5,,,,,,\r\n"
        )

        grid = grid_search(Arm("static", Static(0.5), bad_train), {"negative_cost": (0.2, 1.0)}, config)
        assert [c.mean_dev_f for c in grid.cells] == [None, None]
        assert grid.best_index == 0 and grid.best_params == {"negative_cost": 0.2}
        _check_written(harness.GridResult, out / "grid_static.json")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverging_test_pass_flags_invalid(self, tmp_path, workers):
        # every model but seed 2's overflows on test rows near the float64 limit; train
        # and dev read one file
        labels = np.array([0, 1] * 20)
        save(Dataset(np.ones((40, 3)), labels, k=2), tmp_path / "train.csv")
        save(Dataset(1.7e308 * np.tile([1.0, -1.0, 1.0], (40, 1)), labels, k=2), tmp_path / "test.csv")
        source = FileSource(*(str(tmp_path / f"{split}.csv") for split in ("train", "train", "test")))
        train = TrainConfig(optimizer=Adam(), epochs=2, batch_size=8)
        out = tmp_path / "out"
        config = ExperimentConfig(
            source=source,
            arms=(Arm("vanilla", Vanilla(), train), Arm("adaptive", Adaptive(1.0), train)),
            n_seeds=3,
            best_k=1,
            output_dir=str(out),
            workers=workers,
        )
        report = run_experiment(config)
        assert [arm.invalid_seeds for arm in report.arms] == [[0, 1], [0, 1]]
        runs = [f"run_{arm}_{seed}.json" for arm in ("adaptive", "vanilla") for seed in range(3)]
        assert sorted(p.name for p in out.iterdir()) == ["comparison.csv", "comparison.json", *runs]
        _check_written(harness.ComparisonReport, out / "comparison.json")
        zero = dict.fromkeys(("p", "n", "tp", "tn", "pe"), 0.0)
        for arm in ("vanilla", "adaptive"):
            for seed in range(3):
                _check_written(RunReport, out / f"run_{arm}_{seed}.json")
                run = json.loads((out / f"run_{arm}_{seed}.json").read_text())
                assert run["failure"] == (None if seed == 2 else "non-finite test probabilities")
                assert (run["test_counts"] == zero) == (seed != 2)
                assert run["epochs_run"] == len(run["dev_f"]) == len(run["loss_curve"]) == 2


class TestBetaSweep:
    def test_rows_and_files(self, tmp_path):
        config = _tiny_config(
            tmp_path / "out",
            arms=(Arm("adaptive", Adaptive(1.0), TINY_TRAIN),),
            beta_sweep=(0.5, 1.0),
        )
        report = beta_sweep(config)
        assert [row.beta for row in report.rows] == [0.5, 1.0]
        for row in report.rows:
            assert row.n_valid == 2
            assert 0.0 <= row.mean_f1 <= 1.0
        csv_lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == (
            "beta,mean_precision,mean_recall,mean_f1,std_precision,std_recall,std_f1"
        )
        assert len(csv_lines) == 3
        _check_written(harness.SweepReport, tmp_path / "out" / "sweep.json")

    def test_single_beta_single_row(self, tmp_path):
        config = _tiny_config(
            tmp_path / "out",
            arms=(Arm("adaptive", Adaptive(1.0), TINY_TRAIN),),
            beta_sweep=(2.0,),
        )
        report = beta_sweep(config)
        assert len(report.rows) == 1
        assert report.rows[0].beta == 2.0

    def test_int_betas_write_the_bytes_of_the_file_config(self, tmp_path):
        # ints given for floats are stored as floats, so the sweep built in Python
        # and the same experiment read back from its JSON write the same files
        train = replace(TINY_TRAIN, epochs=1)
        config = _tiny_config(
            tmp_path / "python", arms=(Arm("adaptive", Adaptive(1), train),), beta_sweep=(2,)
        )
        assert config.beta_sweep == (2.0,) and type(config.beta_sweep[0]) is float
        assert configio.to_json(config.arms[0].strategy) == {"kind": "adaptive", "beta": 1.0}
        doc = experiment_to_json(replace(config, output_dir=str(tmp_path / "file")))
        beta_sweep(config)
        beta_sweep(experiment_from_json(json.loads(json.dumps(doc))))
        python_files = sorted(p.relative_to(tmp_path / "python") for p in (tmp_path / "python").rglob("*"))
        file_files = sorted(p.relative_to(tmp_path / "file") for p in (tmp_path / "file").rglob("*"))
        assert python_files == file_files and len(python_files) > 2
        for name in python_files:
            assert (tmp_path / "python" / name).read_bytes() == (tmp_path / "file" / name).read_bytes(), name

    def test_run_files_rebuild_every_row(self, tmp_path):
        # every column of every row, F1 at each beta too, follows from the run files' test counts
        report = _sweep(tmp_path / "out", betas=(0.5, 1.0, 2.0))
        for row in report.rows:
            paths = (tmp_path / "out").glob(f"run_adaptive_beta{row.beta:g}_*.json")
            runs = sorted((json.loads(p.read_text()) for p in paths), key=lambda run: run["seed"])
            counts = [ConfusionStats(**run["test_counts"]) for run in runs]
            assert row.n_valid == len(counts) == 2
            for name, metric in (("precision", precision), ("recall", recall), ("f1", f_beta)):
                column = np.array([metric(c) for c in counts])
                assert getattr(row, f"mean_{name}") == float(np.mean(column)), (row.beta, name)
                assert getattr(row, f"std_{name}") == float(np.std(column)), (row.beta, name)

    def test_requires_adaptive_arm(self, tmp_path):
        config = _tiny_config(
            tmp_path / "out",
            arms=(Arm("vanilla", Vanilla(), TINY_TRAIN),),
            beta_sweep=(1.0,),
        )
        with pytest.raises(ValueError, match="adaptive"):
            beta_sweep(config)

    def test_requires_betas(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        with pytest.raises(ValueError, match="beta_sweep"):
            beta_sweep(config)


class TestGridSearch:
    def test_static_cost_grid(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        arm = Arm("static", Static(0.5), TINY_TRAIN)
        result = grid_search(arm, {"negative_cost": (0.2, 0.5, 1.0)}, config)
        assert len(result.cells) == 3
        assert [c.params["negative_cost"] for c in result.cells] == [0.2, 0.5, 1.0]
        best = max(
            range(3), key=lambda i: (result.cells[i].mean_dev_f, -i)
        )
        assert result.best_index == best
        assert result.best_params == result.cells[best].params
        _check_written(harness.GridResult, tmp_path / "out" / "grid_static.json")

    def test_sampler_parameter_grid(self, tmp_path):
        config = _tiny_config(tmp_path / "out", n_seeds=1, best_k=1)
        arm = Arm(
            "undersample",
            Vanilla(),
            TrainConfig(optimizer=Adam(lr=0.01), epochs=2, batch_size=16, sampler=UnderSampler(1.0)),
        )
        result = grid_search(arm, {"neg_to_pos_ratio": (1.0, 5.0)}, config)
        assert len(result.cells) == 2
        assert all(c.n_valid == 1 for c in result.cells)

    def test_values_read_as_field_type(self, tmp_path):
        # grid values are JSON numbers: 2.0 sets an int field to 2, 1.5 is refused
        arm = Arm("stratified", Vanilla(), TINY_TRAIN)
        runs = {}
        for values in ((1, 2), (1, 2.0)):
            out = tmp_path / str(values[1])
            config = _tiny_config(out, n_seeds=1, best_k=1)
            result = grid_search(arm, {"min_positives_per_batch": values}, config)
            assert [c.n_valid for c in result.cells] == [1, 1]
            runs[values[1]] = {p.name: p.read_bytes() for p in out.glob("run_*.json")}
        assert runs[2] == runs[2.0] and len(runs[2]) == 2
        # the report keeps the values as given
        doc = json.loads((tmp_path / "2.0" / "grid_stratified.json").read_text())
        assert type(doc["cells"][1]["params"]["min_positives_per_batch"]) is float
        bad = _tiny_config(tmp_path / "bad", n_seeds=1, best_k=1)
        with pytest.raises(
            ValueError,
            match=re.escape(
                "grid of arm 'stratified': StratifiedSampler.min_positives_per_batch: expected int, got 1.5"
            ),
        ):
            grid_search(arm, {"min_positives_per_batch": (1, 1.5)}, bad)
        assert not (tmp_path / "bad").exists()

    def test_int_and_float_values_write_the_same_files(self, tmp_path):
        # a grid value is stored as its field's type, so the report does not depend on how it was typed
        arm = Arm("static", Static(0.5), replace(TINY_TRAIN, epochs=1))
        for name, costs in (("int", (1, 2)), ("float", (1.0, 2.0))):
            grid_search(arm, {"negative_cost": costs}, _tiny_config(tmp_path / name, n_seeds=1, best_k=1))
        files = sorted(p.name for p in (tmp_path / "int").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "float").iterdir()) and "grid_static.json" in files
        for name in files:
            assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "float" / name).read_bytes(), name

    def test_empty_grid_single_cell(self, tmp_path):
        config = _tiny_config(tmp_path / "out", n_seeds=1, best_k=1)
        result = grid_search(Arm("adaptive", Adaptive(1.0), TINY_TRAIN), {}, config)
        assert len(result.cells) == 1
        assert result.best_params == {}

    def test_empty_value_list(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        with pytest.raises(InputError, match="grid value lists must be non-empty"):
            grid_search(Arm("adaptive", Adaptive(1.0), TINY_TRAIN), {"beta": []}, config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["nope", "kind"])
    def test_unknown_parameter(self, tmp_path, key):
        # a union member's "kind" tag is a class variable, not a field a grid can set
        config = _tiny_config(tmp_path / "out")
        with pytest.raises(ValueError, match="neither"):
            grid_search(Arm("static", Static(0.5), TINY_TRAIN), {key: (1,)}, config)


# one value of every member of each tagged config union
UNION_MEMBERS = {
    LossStrategy: (Vanilla(), Adaptive(2.0), Static(0.3), Focal(1.5)),
    SamplerKind: (UniformSampler(), StratifiedSampler(2), UnderSampler(3.0)),
    Optimizer: (SGD(0.5, 0.9), Adam(0.01)),
    DatasetSource: (TINY_SOURCE, FileSource("a.csv", "b.csv", "c.csv", "csv")),
}


class TestTaggedUnions:
    @pytest.mark.parametrize("union", list(UNION_MEMBERS), ids=["strategy", "sampler", "optimizer", "source"])
    def test_members_round_trip_under_distinct_kinds(self, union):
        values = UNION_MEMBERS[union]
        assert [type(v) for v in values] == list(get_args(union))
        kinds = [type(v).kind for v in values]
        assert len(set(kinds)) == len(kinds)
        for value, kind in zip(values, kinds):
            doc = configio.to_json(value)
            assert doc["kind"] == kind
            assert configio.from_json(union, doc) == value

    def test_configio_imports_no_package_module(self):
        # the codec reads each tag from its class, so no module defining a config is imported
        tree = ast.parse(Path(configio.__file__).read_text())
        modules = [
            "." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom) else alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert modules and not [m for m in modules if m.startswith((".", "adascale"))]

    def test_execute_run_is_the_one_caller_of_train(self):
        # a protocol's runs and the train command's one run all train through harness._execute_run
        callers = []
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "train"
                    for call in ast.walk(node)
                ):
                    callers.append(f"{path.stem}.{node.name}")
        assert callers == ["harness._execute_run"]

    def test_metrics_owns_the_negative_label(self):
        # the background label is assigned once, in metrics, and no function takes it as a parameter
        assigned, parameters = [], []
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and node.id == "NEGATIVE_LABEL" and isinstance(node.ctx, ast.Store):
                    assigned.append(path.stem)
                elif isinstance(node, ast.arg) and node.arg == "negative_label":
                    parameters.append(path.stem)
        assert (assigned, parameters) == (["metrics"], [])

    def test_configio_owns_the_document_tags(self):
        # a document's format and version are written, read and checked by the codec alone: no
        # other module has a dict literal, a subscript or a .get() call keyed by either name
        def keys(node):
            if isinstance(node, ast.Dict):
                return node.keys
            if isinstance(node, ast.Subscript):
                return [node.slice]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                return node.args[:1]
            return []

        users = []
        for path in sorted(Path(harness.__file__).parent.glob("*.py")):
            if path.stem != "configio":
                for node in ast.walk(ast.parse(path.read_text())):
                    if any(isinstance(key, ast.Constant) and key.value in ("format", "version") for key in keys(node)):
                        users.append(f"{path.stem}:{node.lineno}")
        assert users == []


def _int_float_configs() -> list:
    """One value of every config and report class, built with an int wherever a
    float goes: in a field, an item of a tuple or list and a value of a dict."""
    generator = GeneratorConfig(n=400, d=5, k=3, positive_rate=0.1, class_separation=4, noise_scale=1)
    source = SyntheticSource(generator, n_dev=150, n_test=150)
    train = TrainConfig(optimizer=SGD(1, 0), sampler=UnderSampler(3), eval_beta=2, early_stop_patience=2)
    summary = harness.RunSummary(3, 1, 0, 1, 0, True)
    arm_summary = harness.ArmSummary("a", 2, 1, 1, 0, 0, 1, [4], [summary])
    row = harness.SweepRow(2, 1, 1, 0, 1, 0, 0, 0)
    cell = harness.GridCell({"negative_cost": 1, "min_positives_per_batch": 2}, 1, 2, [1, 0])
    counts = ConfusionStats(3, 5, 1, 2, 1)
    return [
        generator, source, FileSource("a.csv", "b.csv", "c.csv"),
        UniformSampler(), StratifiedSampler(2), UnderSampler(3),
        ModelSpec(5, 3, 4, "relu"), ModelConfig(4, "relu"),
        CheckpointLayer([[1, 0]], [0, 1]), Checkpoint("linear", 1, 2, None, None, [CheckpointLayer([[1, 0]], [0, 1])]),
        Vanilla(), Adaptive(2), Static(1), Focal(2), SGD(1, 0), Adam(1, 0, 0, 1), train,
        Arm("a", Static(1), train),
        ExperimentConfig(source, (Arm("a", Adaptive(1)),), beta_sweep=(1, 2), grid={"a": {"beta": (1, 2)}}),
        counts, RunReport(0, "a", "adaptive(beta=2)", 2, 1, 0, 1, [1], [0], [1], [2], [0, 1], 0, 1, 0, 1, counts),
        summary, arm_summary, harness.ComparisonReport(2, 1, 0, [arm_summary]),
        row, harness.SweepReport(1, 0, [row]),
        cell, harness.GridResult("a", 0, {"negative_cost": 1}, [cell]),
    ]


def _subclasses(cls) -> set:
    return {sub for child in cls.__subclasses__() for sub in (child, *_subclasses(child))}


def _drawn(tp, keywords=None):
    """A strategy for values of the annotation ``tp`` that meet the ``bound()`` ``keywords``."""
    keywords = keywords or {}
    origin, args = get_origin(tp), get_args(tp)
    if "enum" in keywords:
        return st.sampled_from(keywords["enum"])
    if origin is UnionType:
        members = [a for a in args if a is not type(None)]
        options = [_drawn(m, keywords if len(members) == 1 else None) for m in members]
        return st.one_of(*options, *([st.none()] if len(members) < len(args) else []))
    if origin in (tuple, list):
        items = st.lists(_drawn(args[0], keywords.get("items")), min_size=keywords.get("minItems", 0), max_size=3)
        return items.map(origin)
    if origin is dict:
        return st.dictionaries(st.text(max_size=3), _drawn(args[1]), max_size=2)
    if is_dataclass(tp):
        return _instances(tp)
    if tp is float:
        low = keywords.get("minimum", keywords.get("exclusiveMinimum"))
        high = keywords.get("maximum", keywords.get("exclusiveMaximum"))
        exclusive = {"exclude_min": "exclusiveMinimum" in keywords, "exclude_max": "exclusiveMaximum" in keywords}
        return st.floats(low, high, allow_nan=False, allow_infinity=False, **exclusive)
    return {
        int: st.integers(min_value=keywords.get("minimum")),
        str: st.text(min_size=keywords.get("minLength", 0), max_size=5),
        bool: st.booleans(),
    }[tp]


@st.composite
def _instance(draw, cls):
    hints = get_type_hints(cls)
    kw = {f.name: draw(_drawn(hints[f.name], f.metadata)) for f in fields(cls)}
    # the rules between fields, met by moving one field's value within its bound
    if cls is ExperimentConfig:
        kw["arms"] = tuple({arm.name: arm for arm in kw["arms"]}.values())
        kw["best_k"] = min(kw["best_k"], kw["n_seeds"])
        kw["grid"] = dict(zip((arm.name for arm in kw["arms"]), kw["grid"].values()))
    elif cls is ConfusionStats:
        kw["tp"], kw["tn"] = min(kw["tp"], kw["p"]), min(kw["tn"], kw["n"])
        kw["pe"] = min(kw["pe"], kw["p"] - kw["tp"])
    elif cls is GeneratorConfig:
        kw["k"] = max(2, min(kw["k"], round(kw["positive_rate"] * kw["n"]) + 1))
    elif cls is Checkpoint:
        # dimensions small enough to draw layers of, and the arch, activation and layers they imply
        kw["input_dim"], kw["n_classes"] = min(kw["input_dim"], 3), min(kw["n_classes"], 3)
        if kw["hidden_dim"] is None:
            kw["arch"], kw["activation"] = "linear", None
        else:
            kw["arch"], kw["hidden_dim"], kw["activation"] = "mlp", min(kw["hidden_dim"], 3), kw["activation"] or "tanh"

        def rows(m, n):
            return st.lists(st.lists(_drawn(float), min_size=n, max_size=n), min_size=m, max_size=m)

        kw["layers"] = [
            CheckpointLayer(draw(rows(fan_in, fan_out)), draw(rows(1, fan_out))[0])
            for fan_in, fan_out in ModelSpec(kw["input_dim"], kw["n_classes"], kw["hidden_dim"]).layer_dims
        ]
    try:
        return cls(**kw)
    except ValueError:
        reject()


@functools.lru_cache(maxsize=None)
def _instances(cls):
    return _instance(cls)


CONFIG_CLASSES = sorted({type(value) for value in _int_float_configs()}, key=lambda cls: cls.__name__)


def _past_edges(tp, keywords):
    """``(keyword, value)`` for each bound in ``keywords`` of a field of type ``tp``: the
    value one step past the bound, and NaN for a bounded float."""
    members = [a for a in get_args(tp) if a is not type(None)] if get_origin(tp) is UnionType else [tp]
    tp = members[0]
    for key, limit in keywords.items():
        if key in ("minimum", "maximum"):
            down = key == "minimum"
            if tp is int:
                yield key, limit - 1 if down else limit + 1
            else:
                yield key, float(np.nextafter(limit, -math.inf if down else math.inf))
        elif key in ("exclusiveMinimum", "exclusiveMaximum"):
            yield key, limit if tp is int else float(limit)
        elif key == "minLength":
            yield key, "x" * (limit - 1)
        elif key == "minItems":
            yield key, get_origin(tp)([])
        elif key == "enum":
            yield key, "bogus"
        elif key == "items":
            for item_key, past in _past_edges(get_args(tp)[0], limit):
                yield f"items {item_key}", get_origin(tp)([past])
    if tp is float or get_args(tp)[:1] == (float,):
        yield "nan", math.nan if tp is float else get_origin(tp)([math.nan])


BOUND_CASES = [
    (cls, f.name, key, past)
    for cls in CONFIG_CLASSES
    for f in fields(cls)
    if f.metadata
    for key, past in _past_edges(get_type_hints(cls)[f.name], f.metadata)
]


class TestCodecProperties:
    """Drawn values of every config and report class: the codec's round trip and the bounds."""

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_round_trip_keeps_the_bytes(self, cls, data):
        value = data.draw(_instances(cls))
        text = json.dumps(configio.to_json(value))
        assert json.dumps(configio.to_json(configio.from_json(cls, configio.to_json(value)))) == text

    @pytest.mark.parametrize(
        "cls, name, key, past", BOUND_CASES, ids=[f"{c.__name__}.{n} {k}" for c, n, k, _ in BOUND_CASES]
    )
    def test_one_step_past_a_bound_names_the_class_and_field(self, cls, name, key, past):
        base = next(value for value in _int_float_configs() if type(value) is cls)
        with pytest.raises(ValueError) as caught:
            replace(base, **{name: past})
        assert str(caught.value).startswith(f"{cls.__name__}.{name}")


class TestConfigCodec:
    def test_int_floats_write_the_json_they_read_back(self):
        # JSON text compares 1 and 1.0 as different, so each float field, item and value must be a float
        values = _int_float_configs()
        assert {type(v) for v in values} == {c for c in _subclasses(configio.Config) if is_dataclass(c)}
        for value in values:
            text = json.dumps(configio.to_json(value), sort_keys=True)
            read = configio.from_json(type(value), configio.to_json(value))
            assert json.dumps(configio.to_json(read), sort_keys=True) == text, type(value).__name__

    def test_a_format_field_is_no_tag(self):
        # FileSource's format is a field with a default, so no tag and not required
        source = FileSource("a.csv", "b.csv", "c.csv", format="csv")
        doc = configio.to_json(source)
        assert doc == {"kind": "files", "train": "a.csv", "dev": "b.csv", "test": "c.csv", "format": "csv"}
        assert configio.from_json(FileSource, doc) == source
        assert configio.from_json(FileSource, dict(doc, format=None)).format is None
        schema = configio.schema(FileSource)
        assert schema["required"] == ["kind", "train", "dev", "test"]
        assert schema["properties"]["format"] == {"enum": ["csv", "jsonl", None]}

    def test_tags_are_checked_on_read(self):
        # a kind may be left out where the caller names the class, but not contradict it,
        # and a class without a kind has no such key
        assert configio.from_json(Adam, {"lr": 0.5}) == configio.from_json(Adam, {"kind": "adam", "lr": 0.5})
        with pytest.raises(ValueError, match=r"^Adam\.kind must be 'adam', got 'sgd'$"):
            configio.from_json(Adam, {"kind": "sgd", "lr": 0.5})
        with pytest.raises(ValueError, match=re.escape("unknown TrainConfig keys ['kind']")):
            configio.from_json(TrainConfig, {"kind": "adam"})

    def test_int_grid_values_write_the_json_of_floats(self):
        # a grid value is stored as a float, so the experiment document does not depend on how it was typed
        arms = (Arm("static", Static(0.5)),)
        texts = {
            json.dumps(experiment_to_json(_tiny_config("out", arms=arms, grid={"static": {"negative_cost": costs}})))
            for costs in ((1, 2), (1.0, 2.0))
        }
        assert len(texts) == 1 and '"negative_cost": [1.0, 2.0]' in texts.pop()

    def test_int_floats_stored_as_floats(self):
        # what from_json stores for an integral number where a float goes
        config = TrainConfig(eval_beta=2, strategy=Static(1), optimizer=SGD(lr=1, momentum=0))
        for value in (config.eval_beta, config.strategy.negative_cost, config.optimizer.lr, config.optimizer.momentum):
            assert type(value) is float
        doc = {"eval_beta": 2, "optimizer": {"kind": "sgd", "lr": 1, "momentum": 0}}
        assert configio.to_json(config) == configio.to_json(configio.from_json(TrainConfig, doc))
        assert configio.to_json(config.optimizer) == {"kind": "sgd", "lr": 1.0, "momentum": 0.0}
        sweep = _tiny_config("out", beta_sweep=(2, 0.5, 4))
        assert sweep.beta_sweep == (2.0, 0.5, 4.0) and {type(b) for b in sweep.beta_sweep} == {float}
        assert _tiny_config("out").beta_sweep == ()
        assert type(TrainConfig(epochs=2).epochs) is int
        with pytest.raises(ValueError, match=r"^Adaptive\.beta: expected float, got True$"):
            Adaptive(True)
        with pytest.raises(ValueError, match=r"^ExperimentConfig\.beta_sweep\[1\]: expected float, got False$"):
            _tiny_config("out", beta_sweep=(1, False))
        # an int no float can hold fails as it does in a file
        big = 10**400
        with pytest.raises(ValueError) as caught:
            Adaptive(big)
        with pytest.raises(ValueError) as read:
            configio.from_json(Adaptive, {"beta": big})
        assert str(caught.value) == str(read.value)
        assert str(caught.value).startswith("Adaptive.beta: expected finite float, got 1000")
        with pytest.raises(ValueError, match=r"^ExperimentConfig\.beta_sweep\[0\]: expected finite float"):
            _tiny_config("out", beta_sweep=(big,))

    def _doc(self, out_dir="out"):
        return {
            "dataset": {
                "kind": "synthetic",
                "generator": {"n": 400, "d": 5, "k": 3, "positive_rate": 0.1, "seed": 0},
                "n_dev": 150,
                "n_test": 150,
            },
            "model": {"hidden_dim": None, "activation": "tanh"},
            "arms": [
                {"name": "vanilla", "strategy": {"kind": "vanilla"}},
                {
                    "name": "static",
                    "strategy": {"kind": "static", "negative_cost": 0.2},
                    "train": {"epochs": 5},
                },
            ],
            "train": {
                "optimizer": {"kind": "adam", "lr": 0.01},
                "epochs": 3,
                "batch_size": 32,
                "sampler": {"kind": "stratified", "min_positives_per_batch": 1},
            },
            "n_seeds": 2,
            "best_k": 2,
            "base_seed": 7,
            "output_dir": out_dir,
        }

    def _files_doc(self, fmt=None):
        # the other strategy, sampler and optimizer kinds; JSON integers for
        # float fields and integral floats for int fields
        dataset = {"kind": "files", "train": "tr.csv", "dev": "dev.csv", "test": "te.csv"}
        if fmt is not None:
            dataset["format"] = fmt
        return {
            "dataset": dataset,
            "model": {"hidden_dim": 16.0, "activation": "relu"},
            "arms": [
                {
                    "name": "adaptive",
                    "strategy": {"kind": "adaptive", "beta": 2},
                    "train": {"sampler": {"kind": "uniform"}},
                },
                {
                    "name": "focal",
                    "strategy": {"kind": "focal", "gamma": 2},
                    "train": {
                        "optimizer": {"kind": "sgd", "lr": 1, "momentum": 0.5},
                        "sampler": {"kind": "undersample", "neg_to_pos_ratio": 3},
                    },
                },
            ],
            "train": {
                "optimizer": {"kind": "adam", "lr": 1},
                "epochs": 4.0,
                "eval_beta": 2,
                "early_stop_patience": 2,
            },
            "beta_sweep": [0.5, 1, 2],
            "grid": {"focal": {"gamma": [0, 1.5]}},
            "n_seeds": 3,
            "best_k": 2,
            "workers": 2,
        }

    GOLDEN = {
        "dataset": {
            "kind": "files", "train": "tr.csv", "dev": "dev.csv", "test": "te.csv", "format": "jsonl"
        },
        "model": {"hidden_dim": 16, "activation": "relu"},
        "arms": [
            {
                "name": "adaptive",
                "strategy": {"kind": "adaptive", "beta": 2.0},
                "train": {
                    "optimizer": {"kind": "adam", "lr": 1.0, "b1": 0.9, "b2": 0.999, "eps": 1e-8},
                    "epochs": 4,
                    "batch_size": 64,
                    "sampler": {"kind": "uniform"},
                    "eval_beta": 2.0,
                    "early_stop_patience": 2,
                },
            },
            {
                "name": "focal",
                "strategy": {"kind": "focal", "gamma": 2.0},
                "train": {
                    "optimizer": {"kind": "sgd", "lr": 1.0, "momentum": 0.5},
                    "epochs": 4,
                    "batch_size": 64,
                    "sampler": {"kind": "undersample", "neg_to_pos_ratio": 3.0},
                    "eval_beta": 2.0,
                    "early_stop_patience": 2,
                },
            },
        ],
        "n_seeds": 3,
        "best_k": 2,
        "base_seed": 0,
        "output_dir": "out",
        "workers": 2,
        "beta_sweep": [0.5, 1.0, 2.0],
        "grid": {"focal": {"gamma": [0.0, 1.5]}},
    }

    def test_round_trip(self):
        config = experiment_from_json(self._doc())
        assert config.base_seed == 7
        assert config.arms[0].train.epochs == 3
        assert config.arms[1].train.epochs == 5  # arm-level override
        assert config.arms[1].train.batch_size == 32  # inherited
        for doc in (self._doc(), self._files_doc(), self._files_doc("jsonl"), self._files_doc("csv")):
            config = experiment_from_json(doc)
            assert experiment_from_json(experiment_to_json(config)) == config
        config = experiment_from_json(self._files_doc("jsonl"))
        # the text compares too, so 1 and 1.0 differ
        doc = experiment_to_json(config)
        assert doc == self.GOLDEN
        assert json.dumps(doc, sort_keys=True) == json.dumps(self.GOLDEN, sort_keys=True)
        assert experiment_to_json(experiment_from_json(self._files_doc()))["dataset"]["format"] is None
        adaptive, focal = config.arms
        for value in (
            adaptive.strategy.beta,
            adaptive.train.optimizer.lr,
            adaptive.train.eval_beta,
            focal.strategy.gamma,
            focal.train.optimizer.lr,
            focal.train.sampler.neg_to_pos_ratio,
            *config.beta_sweep,
        ):
            assert type(value) is float
        assert type(config.model.hidden_dim) is int
        assert config.grid == {"focal": {"gamma": (0, 1.5)}}

    def test_round_trip_documents_pass_schema(self):
        for doc in (self._doc(), self._files_doc(), self._files_doc("jsonl"), self._files_doc("csv")):
            assert _plain(EXPERIMENT_SCHEMA).is_valid(experiment_to_json(experiment_from_json(doc)))

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("train", "eval_beta"), math.nan, "TrainConfig.eval_beta"),
            (("train", "optimizer", "lr"), math.nan, "Adam.lr"),
            (("arms", 1, "train", "sampler", "neg_to_pos_ratio"), math.inf, "UnderSampler.neg_to_pos_ratio"),
        ],
    )
    def test_non_finite_values_rejected(self, path, value, field):
        # each passes the schema, which cannot say "finite"; the dataclass check stops it
        doc = _mutant("files", path, value)
        assert _plain(EXPERIMENT_SCHEMA).is_valid(doc)
        with pytest.raises(ValueError, match=rf"{re.escape(field)} must be finite, got {value}"):
            experiment_from_json(doc)

    def test_nested_error_names_the_arm_index(self):
        doc = _mutant("files", ("arms", 1, "train", "sampler", "neg_to_pos_ratio"), math.inf)
        with pytest.raises(ValueError) as caught:
            experiment_from_json(doc)
        assert str(caught.value) == (
            "ExperimentConfig.arms[1]: Arm.train: TrainConfig.sampler: "
            "UnderSampler.neg_to_pos_ratio must be finite, got inf"
        )

    @pytest.mark.parametrize(
        "tp, doc, message",
        [
            (Arm, {"name": 0, "strategy": {"kind": "vanilla"}}, "Arm.name: expected str, got 0"),
            (FileSource, {"train": 1, "dev": 2, "test": 3}, "FileSource.train: expected str, got 1"),
            (FileSource, {"train": "a.csv", "dev": "b.csv", "test": "c.csv", "format": ["csv"]},
             "FileSource.format: expected str, got ['csv']"),
        ],
        ids=["int arm name", "int file paths", "list format"],
    )
    def test_non_string_for_str_field_rejected(self, tp, doc, message):
        # no schema runs before this codec call, so the codec itself checks the type
        with pytest.raises(ValueError) as caught:
            configio.from_json(tp, doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Arm("", Vanilla()), "Arm.name must be of length >= 1, got ''"),
            (lambda: ModelConfig(hidden_dim=0), "ModelConfig.hidden_dim must be >= 1, got 0"),
            (lambda: SyntheticSource(n_dev=0), "SyntheticSource.n_dev must be >= 1, got 0"),
            (lambda: Adam(eps=math.inf), "Adam.eps must be finite, got inf"),
            (
                lambda: ExperimentConfig(TINY_SOURCE, (Arm("a", Vanilla()),), beta_sweep=(1.0, 0.0)),
                "ExperimentConfig.beta_sweep[1] must be > 0, got 0.0",
            ),
            (
                lambda: ExperimentConfig(TINY_SOURCE, (Arm("a", Vanilla()),), beta_sweep=5),
                "ExperimentConfig.beta_sweep: expected tuple, got 5",
            ),
            # report classes check their bounds when they are built, an item of a list by its index
            (lambda: RunReport(0, w_history=[0.5, -1.0]), "RunReport.w_history[1] must be >= 0, got -1.0"),
            (lambda: RunReport(0, dev_f=[0.5, math.inf]), "RunReport.dev_f[1] must be finite, got inf"),
            (
                lambda: harness.RunSummary(0, 1.5, 0.0, 0.0, 0.0, True),
                "RunSummary.best_dev_f must be <= 1, got 1.5",
            ),
            (lambda: harness.GridCell({}, None, 0, [0.5, "x"]), "GridCell.test_f[1]: expected float, got 'x'"),
            # a value of another type than its field's is named by the type, before any bound
            (lambda: Arm(0, Vanilla()), "Arm.name: expected str, got 0"),
            (lambda: TrainConfig(epochs="3"), "TrainConfig.epochs: expected int, got '3'"),
            (lambda: ExperimentConfig(source=TINY_SOURCE, arms=5), "ExperimentConfig.arms: expected tuple, got 5"),
            (lambda: GeneratorConfig(n=5000.5), "GeneratorConfig.n: expected int, got 5000.5"),
            (
                lambda: Arm("a", "vanilla"),
                "Arm.strategy: expected Vanilla | Adaptive | Static | Focal, got 'vanilla'",
            ),
        ],
        ids=[
            "empty arm name", "hidden_dim 0", "n_dev 0", "infinite eps", "zero in sweep", "int sweep",
            "negative weight", "infinite dev F", "run summary F above 1", "string grid test F",
            "int arm name", "string epochs", "int arms", "float generator n", "string arm strategy",
        ],
    )
    def test_out_of_range_rejected_on_construction(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_schema_rejects_bad_strategy(self):
        doc = self._doc()
        doc["arms"][0]["strategy"] = {"kind": "mystery"}
        message = "ExperimentConfig.arms[0]: Arm.strategy: unknown kind 'mystery'"
        with pytest.raises(ValueError, match=re.escape(message)):
            experiment_from_json(doc)

    def test_schema_rejects_unknown_keys(self):
        doc = self._doc()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match=re.escape("unknown ExperimentConfig keys ['surprise']")):
            experiment_from_json(doc)


_DROP = object()

# (label, base document, edited path, new value or _DROP, the codec's message or None to accept);
# the shipped schema gives the same verdict, except on the rows of CODEC_ONLY
SCHEMA_MUTANTS = [
    ("bad strategy kind", "synthetic", ("arms", 0, "strategy"), {"kind": "mystery"},
     "ExperimentConfig.arms[0]: Arm.strategy: unknown kind 'mystery'"),
    ("unknown top-level key", "synthetic", ("surprise",), 1, "unknown ExperimentConfig keys ['surprise']"),
    ("unknown generator key", "synthetic", ("dataset", "generator", "positve_rate"), 0.5,
     "ExperimentConfig.dataset: SyntheticSource.generator: unknown GeneratorConfig keys ['positve_rate']"),
    ("unknown arm key", "synthetic", ("arms", 0, "beta"), 1.0, "ExperimentConfig.arms[0]: unknown Arm keys ['beta']"),
    ("strategy inside train", "synthetic", ("train", "strategy"), {"kind": "vanilla"},
     "ExperimentConfig.arms[0]: Arm.train: unknown TrainConfig keys ['strategy']"),
    ("empty arm name", "synthetic", ("arms", 0, "name"), "",
     "ExperimentConfig.arms[0]: Arm.name must be of length >= 1, got ''"),
    ("no arms", "synthetic", ("arms",), [], "ExperimentConfig.arms must be of length >= 1, got ()"),
    ("no dataset", "synthetic", ("dataset",), _DROP,
     'ExperimentConfig: expected an object with a "dataset" and no "source"'),
    ("hidden_dim 0", "synthetic", ("model", "hidden_dim"), 0,
     "ExperimentConfig.model: ModelConfig.hidden_dim must be >= 1, got 0"),
    ("hidden_dim null", "files", ("model", "hidden_dim"), None, None),
    ("bad activation", "synthetic", ("model", "activation"), "sigmoid",
     "ExperimentConfig.model: ModelConfig.activation must be one of ('tanh', 'relu'), got 'sigmoid'"),
    ("lr 0", "synthetic", ("train", "optimizer", "lr"), 0,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.optimizer: Adam.lr must be > 0, got 0.0"),
    ("momentum 1", "files", ("arms", 1, "train", "optimizer", "momentum"), 1,
     "ExperimentConfig.arms[1]: Arm.train: TrainConfig.optimizer: SGD.momentum must be < 1, got 1.0"),
    ("b1 -1", "synthetic", ("train", "optimizer", "b1"), -1,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.optimizer: Adam.b1 must be >= 0, got -1.0"),
    ("beta 0", "files", ("arms", 0, "strategy", "beta"), 0,
     "ExperimentConfig.arms[0]: Arm.strategy: Adaptive.beta must be > 0, got 0.0"),
    ("gamma -1", "files", ("arms", 1, "strategy", "gamma"), -1,
     "ExperimentConfig.arms[1]: Arm.strategy: Focal.gamma must be >= 0, got -1.0"),
    ("static without cost", "synthetic", ("arms", 1, "strategy", "negative_cost"), _DROP,
     "ExperimentConfig.arms[1]: Arm.strategy: missing Static keys ['negative_cost']"),
    ("sweep value 0", "files", ("beta_sweep", 1), 0, "ExperimentConfig.beta_sweep[1] must be > 0, got 0.0"),
    ("null sweep", "files", ("beta_sweep",), None, "ExperimentConfig.beta_sweep: expected array, got None"),
    ("null grid", "files", ("grid",), None, "ExperimentConfig.grid: expected object, got None"),
    ("string grid value", "files", ("grid", "focal", "gamma", 0), "x",
     "ExperimentConfig.grid['focal']['gamma'][0]: expected float, got 'x'"),
    ("n_seeds 0", "synthetic", ("n_seeds",), 0, "ExperimentConfig.n_seeds must be >= 1, got 0"),
    ("workers 1.5", "synthetic", ("workers",), 1.5, "ExperimentConfig.workers: expected int, got 1.5"),
    ("epochs string", "synthetic", ("train", "epochs"), "3",
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.epochs: expected int, got '3'"),
    ("k 1", "synthetic", ("dataset", "generator", "k"), 1,
     "ExperimentConfig.dataset: SyntheticSource.generator: GeneratorConfig.k must be >= 2, got 1"),
    ("positive_rate 1", "synthetic", ("dataset", "generator", "positive_rate"), 1,
     "ExperimentConfig.dataset: SyntheticSource.generator: GeneratorConfig.positive_rate must be < 1, got 1.0"),
    ("n_dev 0", "synthetic", ("dataset", "n_dev"), 0,
     "ExperimentConfig.dataset: SyntheticSource.n_dev must be >= 1, got 0"),
    ("patience null", "files", ("train", "early_stop_patience"), None, None),
    ("patience 0", "files", ("train", "early_stop_patience"), 0,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.early_stop_patience must be >= 1, got 0"),
    ("ratio 0", "files", ("arms", 1, "train", "sampler", "neg_to_pos_ratio"), 0,
     "ExperimentConfig.arms[1]: Arm.train: TrainConfig.sampler: UnderSampler.neg_to_pos_ratio must be > 0, got 0.0"),
    ("min positives 0", "synthetic", ("train", "sampler", "min_positives_per_batch"), 0,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.sampler: "
     "StratifiedSampler.min_positives_per_batch must be >= 1, got 0"),
    ("format tsv", "files", ("dataset", "format"), "tsv",
     "ExperimentConfig.dataset: FileSource.format must be one of ('csv', 'jsonl', None), got 'tsv'"),
    ("format null", "files", ("dataset", "format"), None, None),
    ("files without test", "files", ("dataset", "test"), _DROP,
     "ExperimentConfig.dataset: missing FileSource keys ['test']"),
    ("eval_beta 0", "files", ("train", "eval_beta"), 0,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.eval_beta must be > 0, got 0.0"),
    # structure: a value that is not the object or array its place needs
    ("arms not a list", "synthetic", ("arms",), {"name": "vanilla", "strategy": {"kind": "vanilla"}},
     "ExperimentConfig.arms: expected array, got an object"),
    ("arm not an object", "synthetic", ("arms", 0), "vanilla",
     "ExperimentConfig.arms[0]: expected Arm object, got 'vanilla'"),
    ("train not an object", "synthetic", ("train",), [{"epochs": 3}],
     "ExperimentConfig.train: expected TrainConfig object, got an array"),
    ("string dataset", "synthetic", ("dataset",), "data.csv",
     "ExperimentConfig.dataset: expected object, got 'data.csv'"),
    ("arm train null", "files", ("arms", 0, "train"), None,
     "ExperimentConfig.arms[0]: Arm.train: expected TrainConfig object, got None"),
    ("null grid arm", "files", ("grid", "focal"), None, "ExperimentConfig.grid['focal']: expected object, got None"),
    ("source beside dataset", "synthetic", ("source",), {"kind": "files", "train": "a", "dev": "b", "test": "c"},
     'ExperimentConfig: expected an object with a "dataset" and no "source"'),
    ("bool for float", "files", ("train", "eval_beta"), True,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.eval_beta: expected float, got True"),
    # the defaults are checked also where every arm overrides the key
    ("defaults overridden by every arm", "files", ("train", "sampler"),
     {"kind": "stratified", "min_positives_per_batch": 0},
     "ExperimentConfig.train: TrainConfig.sampler: StratifiedSampler.min_positives_per_batch must be >= 1, got 0"),
    # what JSON Schema cannot say: a finite number, and the four rules across fields
    ("nan eval_beta", "files", ("train", "eval_beta"), math.nan,
     "ExperimentConfig.arms[0]: Arm.train: TrainConfig.eval_beta must be finite, got nan"),
    ("infinite ratio", "files", ("arms", 1, "train", "sampler", "neg_to_pos_ratio"), math.inf,
     "ExperimentConfig.arms[1]: Arm.train: TrainConfig.sampler: "
     "UnderSampler.neg_to_pos_ratio must be finite, got inf"),
    ("best_k above n_seeds", "synthetic", ("best_k",), 3, "ExperimentConfig.best_k must be <= n_seeds, got 3 > 2"),
    ("duplicate arm names", "synthetic", ("arms", 1, "name"), "vanilla",
     "ExperimentConfig.arms: arm names must be unique"),
    ("grid of a misspelled arm", "files", ("grid", "adaptve"), {"beta": [0.5, 2]},
     "ExperimentConfig.grid: no arm named 'adaptve'"),
    ("too few positives", "synthetic", ("dataset", "generator", "positive_rate"), 0.001,
     "ExperimentConfig.dataset: SyntheticSource.generator: "
     "GeneratorConfig.positive_rate * n must round to >= k - 1, got 0"),
]
CODEC_ONLY = {
    "nan eval_beta", "infinite ratio", "best_k above n_seeds", "duplicate arm names", "grid of a misspelled arm",
    "too few positives",
}


def _mutant(base: str, path: tuple, value) -> dict:
    doc = TestConfigCodec()._doc() if base == "synthetic" else TestConfigCodec()._files_doc()
    *parents, last = path
    node = functools.reduce(lambda n, key: n[key], parents, doc)
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


class TestExperimentSchema:
    """The codec's verdict and message on each experiment config, against plain
    jsonschema's verdict on the shipped schema."""

    @pytest.mark.parametrize(
        "label, base, path, value, expected", SCHEMA_MUTANTS, ids=[row[0] for row in SCHEMA_MUTANTS]
    )
    def test_best_match(self, label, base, path, value, expected):
        doc = _mutant(base, path, value)
        if expected is None:
            experiment_from_json(doc)
        else:
            with pytest.raises(ValueError) as caught:
                experiment_from_json(doc)
            assert str(caught.value) == expected
        # the schema rejects what the codec rejects, but for what only the codec can tell
        assert _plain(EXPERIMENT_SCHEMA).is_valid(doc) == (expected is None or label in CODEC_ONLY)

    def test_two_errors_at_once(self):
        # the schema reports both; the codec stops at the first field in declaration order
        doc = _mutant("synthetic", ("n_seeds",), 0)
        doc["model"]["activation"] = "sigmoid"
        assert len(list(_plain(EXPERIMENT_SCHEMA).iter_errors(doc))) == 2
        with pytest.raises(ValueError) as caught:
            experiment_from_json(doc)
        assert str(caught.value) == (
            "ExperimentConfig.model: ModelConfig.activation must be one of ('tanh', 'relu'), got 'sigmoid'"
        )
        doc = _mutant("synthetic", ("n_seeds",), "x")
        doc["beta_sweep"] = "y"
        with pytest.raises(ValueError) as caught:
            experiment_from_json(doc)
        assert str(caught.value) == "ExperimentConfig.n_seeds: expected int, got 'x'"


class TestRunReportSchema:
    @pytest.fixture(scope="class")
    def report_doc(self):
        train, dev, test = load_datasets(TINY_SOURCE)
        config = replace(TINY_TRAIN, strategy=Adaptive(1.0), epochs=1)
        _, report = train_run(train, dev, test, ModelSpec(5, 3), config)
        return report_to_dict(report)

    def test_accepts_real_report(self, report_doc):
        assert report_doc["w_history"]
        report = configio.validate_run_report(RunReport, report_doc)
        assert report_to_dict(report) == report_doc
        assert type(report.w_history) is list and report.w_history is not report_doc["w_history"]

    def test_rejects_negative_weight(self, report_doc):
        doc = copy.deepcopy(report_doc)
        doc["w_history"][0] = -0.5
        with pytest.raises(ValueError, match=re.escape("RunReport.w_history[0] must be >= 0, got -0.5")):
            configio.validate_run_report(RunReport, doc)

    def test_rejects_extra_key(self, report_doc):
        doc = dict(report_doc, surprise=1)
        with pytest.raises(ValueError, match=re.escape("unknown RunReport keys ['surprise']")):
            configio.validate_run_report(RunReport, doc)

    def test_needs_every_field(self, report_doc):
        # a field with a default is still required in a run file, which holds them all
        doc = {k: v for k, v in report_doc.items() if k != "skipped_steps"}
        with pytest.raises(ValueError, match=re.escape("missing RunReport keys ['skipped_steps']")):
            configio.validate_run_report(RunReport, doc)
        with pytest.raises(ValueError, match=re.escape("missing RunReport keys ['skipped_steps']")):
            configio.from_json(RunReport, doc)


class TestLoadDatasets:
    def test_synthetic_split_sizes_and_shared_layout(self):
        train, dev, test = load_datasets(TINY_SOURCE)
        assert (train.n, dev.n, test.n) == (400, 150, 150)
        assert train.k == dev.k == test.k == 3
        # same source twice gives identical splits
        t2, d2, _ = load_datasets(TINY_SOURCE)
        np.testing.assert_array_equal(train.features, t2.features)
        np.testing.assert_array_equal(dev.features, d2.features)

    def test_file_source(self, tmp_path):
        ds = Dataset(np.eye(3), np.array([0, 1, 2]), k=3)
        for split in ("train", "dev", "test"):
            save(ds, tmp_path / f"{split}.jsonl")
        source = FileSource(
            str(tmp_path / "train.jsonl"),
            str(tmp_path / "dev.jsonl"),
            str(tmp_path / "test.jsonl"),
        )
        train, dev, test = load_datasets(source)
        assert train.n == dev.n == test.n == 3

    def test_file_source_split_is_a_directory(self, tmp_path):
        save(Dataset(np.eye(3), np.array([0, 1, 2]), k=3), tmp_path / "train.csv")
        source = FileSource(str(tmp_path / "train.csv"), str(tmp_path), str(tmp_path / "train.csv"))
        with pytest.raises(InputError, match=re.escape(f"{tmp_path}: is a directory")):
            load_datasets(source)

    @pytest.mark.parametrize("short_split", ["train", "dev"])
    def test_file_source_class_count_spans_all_splits(self, tmp_path, short_split):
        # one split never shows the top class: k must still come from all three
        full, _, _ = load_datasets(TINY_SOURCE)
        paths = {}
        for split in ("train", "dev", "test"):
            keep = full.labels < 2 if split == short_split else np.ones(full.n, dtype=bool)
            paths[split] = str(tmp_path / f"{split}.csv")
            save(Dataset(full.features[keep], full.labels[keep], k=3), paths[split])
        source = FileSource(paths["train"], paths["dev"], paths["test"])
        splits = load_datasets(source)
        assert [ds.k for ds in splits] == [3, 3, 3]
        config = _tiny_config(
            tmp_path / "out", source=source, n_seeds=1, best_k=1,
            arms=(Arm("vanilla", Vanilla(), TINY_TRAIN),),
        )
        report = run_experiment(config)
        assert report.arms[0].n_valid == 1


HANDWRITTEN_SCHEMAS = Path(__file__).parent / "handwritten_schemas"
SCHEMA_DIR = importlib.resources.files("adascale").joinpath("schemas")
REGENERATE = "PYTHONPATH=src python -c \"from adascale import harness; harness.write_schemas('src/adascale/schemas')\""
SHIPPED_SCHEMAS = [
    f"{name}.schema.json" for name in ("experiment_config", "run_report", "comparison_report", "sweep_report", "grid_report")
]
EXPERIMENT_SCHEMA = "experiment_config.schema.json"
REPORTS = {
    "run_report.schema.json": RunReport,
    "comparison_report.schema.json": harness.ComparisonReport,
    "sweep_report.schema.json": harness.SweepReport,
    "grid_report.schema.json": harness.GridResult,
}


@functools.lru_cache(maxsize=None)
def _plain(schema_name):
    """A plain jsonschema validator of a shipped schema; the package itself runs none."""
    schema = json.loads(SCHEMA_DIR.joinpath(schema_name).read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _codec(schema_name, doc):
    """What the codec reads a document of the schema's kind with."""
    if schema_name == EXPERIMENT_SCHEMA:
        return experiment_from_json(doc)
    return configio.from_json(REPORTS[schema_name], doc)


def _check_written(cls, path):
    """A written report carries its class's format and version, meets its shipped
    schema, and the codec reads it back as the same document."""
    doc = json.loads(Path(path).read_text())
    assert (doc["format"], doc["version"]) == (cls.format, cls.version)
    assert _plain(next(name for name, c in REPORTS.items() if c is cls)).is_valid(doc)
    assert configio.to_json(configio.from_json(cls, doc)) == doc


@pytest.fixture(scope="module")
def generated_schemas(tmp_path_factory):
    out = tmp_path_factory.mktemp("schemas")
    harness.write_schemas(out)
    return out


@pytest.mark.parametrize("name", SHIPPED_SCHEMAS)
def test_shipped_schema_is_generated(name, generated_schemas):
    message = f"{name} differs from its generator's output; regenerate every shipped schema with: {REGENERATE}"
    # no file in the package's schema directory is written by hand
    assert sorted(p.name for p in SCHEMA_DIR.iterdir()) == sorted(SHIPPED_SCHEMAS), message
    assert sorted(p.name for p in generated_schemas.iterdir()) == sorted(SHIPPED_SCHEMAS), message
    assert SCHEMA_DIR.joinpath(name).read_text() == (generated_schemas / name).read_text(), message


class TestValidatorOracle:
    """The codec gives every shipped schema's verdict, which plain jsonschema
    reports, on each written document and mutant, of its own kind or not."""

    SCHEMAS = SHIPPED_SCHEMAS
    # mutants that only the codec rejects: JSON Schema cannot say "finite", an
    # integer beyond the float range reads as no finite float, and no schema
    # keyword compares two fields, as the invariant tp <= p does
    CODEC_ONLY = {
        "run w_history[2] = nan",
        "run w_history[-1] = " + repr(10**400),
        "run loss_curve[0] = inf",
        "run test_counts tp > p",
    }
    # the codec's message on each rejected mutant, read as its own kind
    MESSAGES = {
        "run w_history[0] = -0.5": "RunReport.w_history[0] must be >= 0, got -0.5",
        "run w_history[-1] = True": "RunReport.w_history[38]: expected float, got True",
        "run loss_curve[1] = '0.3'": "RunReport.loss_curve[1]: expected float, got '0.3'",
        "run w_history[2] = nan": "RunReport.w_history[2] must be finite, got nan",
        "run w_history[3] = None": "RunReport.w_history[3]: expected float, got None",
        "run loss_curve[0] = [0.1]": "RunReport.loss_curve[0]: expected float, got [0.1]",
        "run dev_f[-1] = 1.5": "RunReport.dev_f[2] must be <= 1, got 1.5",
        "run w_history[-1] = " + repr(10**400):
            "RunReport.w_history[38]: expected finite float, got 100000000000000000...0000000000000000000",
        "run loss_curve[0] = inf": "RunReport.loss_curve[0] must be finite, got inf",
        "run dev_precision[0] = -inf": "RunReport.dev_precision[0] must be finite, got -inf",
        "run w_history = 0.5": "RunReport.w_history: expected array, got 0.5",
        "run w_history = (0.5, 0.25)": "RunReport.w_history: expected array, got (0.5, 0.25)",
        "run w_history and dev_f": "RunReport.dev_f[0] must be <= 1, got 2.0",
        "run seed renamed": "missing RunReport keys ['seed']",
        "run test_f and valid dropped": "missing RunReport keys ['test_f', 'valid']",
        "run timed and dev_f above 1": "unknown RunReport keys ['wall_clock_s']",
        "run not an object": "expected RunReport object, got an array",
        "run valid 1": "RunReport.valid: expected bool, got 1",
        "run skipped_steps missing": "missing RunReport keys ['skipped_steps']",
        "run untagged": "missing RunReport keys ['format', 'version']",
        "run version 2": "RunReport.version must be 1, got 2",
        "run version True": "RunReport.version must be 1, got True",
        "run test_counts n = -1": "RunReport.test_counts: ConfusionStats.n must be >= 0, got -1.0",
        "run test_counts tp > p": "RunReport.test_counts: tp=9.0 exceeds p=8.0",
        "experiment_config beta_sweep 0": "ExperimentConfig.beta_sweep[0] must be > 0, got 0.0",
        "experiment_config grid string": "ExperimentConfig.grid['focal']['gamma'][0]: expected float, got 'x'",
        "grid test_f above 1": "GridResult.cells[0]: GridCell.test_f[1] must be <= 1, got 1.2",
        "grid no cells": "GridResult.cells must be of length >= 1, got []",
        "grid string param": "GridResult.best_params['negative_cost']: expected float, got '0.2'",
        "grid best_index renamed": "missing GridResult keys ['best_index']",
        "comparison mean_test_f above 1": "ComparisonReport.arms[0]: ArmSummary.mean_test_f must be <= 1, got 1.5",
        "comparison integer valid":
            "ComparisonReport.arms[1]: ArmSummary.runs[0]: RunSummary.valid: expected bool, got 1",
        "comparison extra run key":
            "ComparisonReport.arms[0]: ArmSummary.runs[1]: unknown RunSummary keys ['wall_clock_s']",
        "comparison two errors":
            "ComparisonReport.arms[0]: ArmSummary.runs[0]: RunSummary.test_f: expected float, got '0.5'",
        "comparison best3_test_f renamed": "ComparisonReport.arms[0]: missing ArmSummary keys ['best3_test_f']",
        "comparison without version": "missing ComparisonReport keys ['version']",
        "sweep mean_f1 above 1": "SweepReport.rows[0]: SweepRow.mean_f1 must be <= 1, got 1.5",
        "sweep fractional n_valid": "SweepReport.rows[0]: SweepRow.n_valid: expected int, got 1.5",
        "sweep extra row key": "SweepReport.rows[0]: unknown SweepRow keys ['n_runs']",
        "sweep negative std_f1": "SweepReport.rows[0]: SweepRow.std_f1 must be >= 0, got -0.1",
        "sweep two errors": "SweepReport.format must be 'sweep-report', got 'comparison-report'",
    }

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("oracle")
        _compare(out / "compare")
        _sweep(out / "sweep")
        _grid(out / "grid")
        docs = {str(p.relative_to(out)): json.loads(p.read_text()) for p in sorted(out.glob("*/*.json"))}
        docs["experiment_config"] = TestConfigCodec()._files_doc()
        return docs

    @staticmethod
    def _mutants(docs):
        run = docs["compare/run_adaptive_0.json"]
        edits = [
            ("w_history", 0, -0.5),
            ("w_history", -1, True),
            ("loss_curve", 1, "0.3"),
            ("w_history", 2, math.nan),
            ("dev_f", 0, np.float64(0.5)),
            ("w_history", 3, None),
            ("loss_curve", 0, [0.1]),
            ("dev_f", -1, 1.5),
            ("w_history", -1, 10**400),
            ("loss_curve", 0, math.inf),
            ("dev_precision", 0, -math.inf),
            ("dev_recall", 0, 0),
        ]
        for key, index, value in edits:
            doc = copy.deepcopy(run)
            doc[key][index] = value
            yield f"run {key}[{index}] = {value!r}", doc
        for key, value in (("w_history", 0.5), ("w_history", (0.5, 0.25)), ("dev_f", [])):
            yield f"run {key} = {value!r}", dict(run, **{key: value})
        both = copy.deepcopy(run)
        both["w_history"][0], both["dev_f"][0] = -1.0, 2.0
        yield "run w_history and dev_f", both
        # what reaggregate meets in a run file of another version: a renamed, a
        # dropped or an added key, alone or with a bad value
        renamed = dict(run, seeds=run["seed"])
        del renamed["seed"]
        yield "run seed renamed", renamed
        yield "run test_f and valid dropped", {k: v for k, v in run.items() if k not in ("test_f", "valid")}
        timed = copy.deepcopy(run)
        timed["wall_clock_s"], timed["dev_f"][0] = 1.5, 2.0
        yield "run timed and dev_f above 1", timed
        yield "run not an object", [run]
        yield "run valid 1", dict(run, valid=1)
        yield "run skipped_steps missing", {k: v for k, v in run.items() if k != "skipped_steps"}
        counts = run["test_counts"]
        # a run file of another format or version, or of none
        yield "run untagged", {k: v for k, v in run.items() if k not in ("format", "version")}
        for version in (2, True, 1.0):
            yield f"run version {version!r}", dict(run, version=version)
        yield "run test_counts n = -1", dict(run, test_counts=dict(counts, n=-1))
        yield "run test_counts tp > p", dict(run, test_counts=dict(counts, p=8.0, tp=9.0, pe=0.0))
        # known, kept: pe is optional in both, so a file without it is read with pe = 0
        yield "run test_counts without pe", dict(run, test_counts={k: v for k, v in counts.items() if k != "pe"})
        config = docs["experiment_config"]
        yield "experiment_config beta_sweep 0", dict(config, beta_sweep=[0, 1.0])
        yield "experiment_config grid string", dict(config, grid={"focal": {"gamma": ["x", 1]}})
        grid = copy.deepcopy(docs["grid/grid_static.json"])
        grid["cells"][0]["test_f"] = [0.5, 1.2]
        yield "grid test_f above 1", grid
        grid = docs["grid/grid_static.json"]
        yield "grid no cells", dict(grid, cells=[])
        yield "grid string param", dict(grid, best_params={"negative_cost": "0.2"})
        renamed = {k: v for k, v in grid.items() if k != "best_index"}
        yield "grid best_index renamed", dict(renamed, best=grid["best_index"])
        for label, edits in (
            ("mean_test_f above 1", [(("arms", 0, "mean_test_f"), 1.5)]),
            ("integer valid", [(("arms", 1, "runs", 0, "valid"), 1)]),
            ("extra run key", [(("arms", 0, "runs", 1, "wall_clock_s"), 0.5)]),
            ("two errors", [(("arms", 1, "n_valid"), -1), (("arms", 0, "runs", 0, "test_f"), "0.5")]),
        ):
            comparison = copy.deepcopy(docs["compare/comparison.json"])
            for (*parents, last), value in edits:
                functools.reduce(lambda node, key: node[key], parents, comparison)[last] = value
            yield f"comparison {label}", comparison
        yield "comparison without version", {k: v for k, v in docs["compare/comparison.json"].items() if k != "version"}
        renamed = copy.deepcopy(docs["compare/comparison.json"])
        renamed["arms"][0]["best_k_test_f"] = renamed["arms"][0].pop("best3_test_f")
        yield "comparison best3_test_f renamed", renamed
        for label, key, value in (
            ("mean_f1 above 1", "mean_f1", 1.5),
            ("fractional n_valid", "n_valid", 1.5),
            ("extra row key", "n_runs", 2),
            ("negative std_f1", "std_f1", -0.1),
        ):
            sweep = copy.deepcopy(docs["sweep/sweep.json"])
            sweep["rows"][0][key] = value
            yield f"sweep {label}", sweep
        two = copy.deepcopy(docs["sweep/sweep.json"])
        two["rows"][1]["beta"], two["format"] = 0, "comparison-report"
        yield "sweep two errors", two

    @staticmethod
    def _kind(label: str) -> str:
        # the label's first word names its kind
        word = label.split()[0]
        return f"{word}.schema.json" if word == "experiment_config" else f"{word}_report.schema.json"

    def test_same_errors_as_plain_validator(self, documents):
        inputs = list(documents.items()) + list(self._mutants(documents))
        assert len(inputs) > 25
        codec_only = set()
        for schema_name in self.SCHEMAS:
            for label, doc in inputs:
                try:
                    _codec(schema_name, doc)
                    error = None
                except ValueError as caught:
                    error = str(caught)
                accepted = _plain(schema_name).is_valid(doc)
                if accepted and error is not None and label in self.CODEC_ONLY:
                    codec_only.add(label)
                    continue
                assert (error is None) == accepted, (schema_name, label, error)
        # every listed exception is one: its own schema accepts what the codec rejects
        assert codec_only == self.CODEC_ONLY

    def test_counts_without_pe_read_as_zero(self, documents):
        label, doc = next((label, doc) for label, doc in self._mutants(documents) if label.endswith("without pe"))
        assert _plain(self._kind(label)).is_valid(doc)
        assert _codec(self._kind(label), doc).test_counts.pe == 0.0

    def test_codec_messages(self, documents):
        messages = {}
        for label, doc in self._mutants(documents):
            try:
                _codec(self._kind(label), doc)
            except ValueError as caught:
                messages[label] = str(caught)
        assert messages == self.MESSAGES

    def test_generated_report_schemas_judge_as_handwritten(self, documents):
        # the hand-written schemas the generated ones replaced, kept unchanged as the
        # reference; every document is checked against every schema, its own kind or not
        inputs = list(documents.items()) + list(self._mutants(documents))
        for path in sorted(HANDWRITTEN_SCHEMAS.glob("*.schema.json")):
            old = jsonschema.Draft202012Validator(json.loads(path.read_text()))
            for label, doc in inputs:
                errors = Counter((e.message, tuple(e.absolute_path)) for e in _plain(path.name).iter_errors(doc))
                expected = Counter((e.message, tuple(e.absolute_path)) for e in old.iter_errors(doc))
                assert errors == expected, (path.name, label)

    def test_generated_report_schemas_equal_handwritten(self, generated_schemas):
        # equal as JSON values: only the key order of the files differs
        for path in sorted(HANDWRITTEN_SCHEMAS.glob("*.schema.json")):
            assert json.loads((generated_schemas / path.name).read_text()) == json.loads(path.read_text()), path.name
