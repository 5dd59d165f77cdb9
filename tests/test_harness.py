import copy
import functools
import importlib.resources
import io
import json
import math
import pickle
import re
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from adascale import configio, harness
from adascale.data import Dataset, GeneratorConfig, StratifiedSampler, UnderSampler, save
from adascale.harness import (
    Arm,
    ExperimentConfig,
    FileSource,
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
from adascale.losses import Adaptive, Static, Vanilla
from adascale.model import ModelSpec
from adascale.trainer import SGD, Adam, TrainConfig, report_to_dict
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


def _sweep(out, betas=(0.5, 1.0), **kw):
    arms = (Arm("adaptive", Adaptive(1.0), TINY_TRAIN),)
    return beta_sweep(_tiny_config(out, arms=arms, beta_sweep=betas, **kw))


def _grid(out, costs=(0.2, 1.0), **kw):
    arm = Arm("static", Static(0.5), TINY_TRAIN)
    return grid_search(arm, {"negative_cost": costs}, _tiny_config(out, **kw))


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
        doc = json.loads((out / "comparison.json").read_text())
        configio.validate_comparison_report(doc)
        for arm in report.arms:
            assert arm.n_valid == 2
            test_f = [r["test_f"] for r in arm.runs]
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
            assert arm.mean_test_f == arm.runs[0]["test_f"]
            assert arm.var_test_f == 0.0
            assert arm.best3_test_f == arm.runs[0]["test_f"]

    def test_byte_identical_reruns(self, tmp_path):
        r1 = run_experiment(_tiny_config(tmp_path / "a"))
        r2 = run_experiment(_tiny_config(tmp_path / "b"))
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()
        assert r1.to_dict() == r2.to_dict()

    def test_reaggregation_reproduces_report(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        report = run_experiment(config)
        rebuilt = reaggregate(tmp_path / "out", best_k=config.best_k)
        for arm in report.arms:
            assert vars(rebuilt[arm.name]) == vars(arm)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {k: v for k, v in doc.items() if k not in ("test_f", "valid")},
            lambda doc: {**doc, "surprise": 1},
        ],
        ids=["missing_keys", "extra_key"],
    )
    def test_reaggregate_rejects_invalid_run_files(self, tmp_path, edit):
        run_experiment(_tiny_config(tmp_path / "out"))
        path = tmp_path / "out" / "run_adaptive_1.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            reaggregate(tmp_path / "out")

    @pytest.mark.parametrize(
        "protocol",
        # one seed per beta: the sweep's runs still go through the pool
        [_compare, functools.partial(_sweep, n_seeds=1, best_k=1), _grid],
        ids=["run_experiment", "beta_sweep", "grid_search"],
    )
    def test_worker_pool_matches_sequential(self, tmp_path, protocol):
        protocol(tmp_path / "seq", workers=1)
        protocol(tmp_path / "par", workers=2)
        seq = sorted(p.name for p in (tmp_path / "seq").iterdir())
        assert seq == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in seq:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()

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
        doc = json.loads((out / "comparison.json").read_text())
        configio.validate_comparison_report(doc)
        assert (out / "comparison.csv").read_bytes() == b"arm,mean,var,best3\r\ndiverges,,,\r\nadaptive,,,\r\n"

        sweep = beta_sweep(replace(config, beta_sweep=(0.5,)))
        assert sweep.rows[0].n_valid == 0 and sweep.rows[0].mean_f1 is None
        configio.validate_sweep_report(json.loads((out / "sweep.json").read_text()))
        assert (out / "sweep.csv").read_bytes() == (
            b"beta,mean_precision,mean_recall,mean_f1,std_precision,std_recall,std_f1\r\n0.5,,,,,,\r\n"
        )

        grid = grid_search(Arm("static", Static(0.5), bad_train), {"negative_cost": (0.2, 1.0)}, config)
        assert [c.mean_dev_f for c in grid.cells] == [None, None]
        assert grid.best_index == 0 and grid.best_params == {"negative_cost": 0.2}
        configio.validate_grid_report(json.loads((out / "grid_static.json").read_text()))


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
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        configio.validate_sweep_report(doc)

    def test_single_beta_single_row(self, tmp_path):
        config = _tiny_config(
            tmp_path / "out",
            arms=(Arm("adaptive", Adaptive(1.0), TINY_TRAIN),),
            beta_sweep=(2.0,),
        )
        report = beta_sweep(config)
        assert len(report.rows) == 1
        assert report.rows[0].beta == 2.0

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
        doc = json.loads((tmp_path / "out" / "grid_static.json").read_text())
        configio.validate_grid_report(doc)

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
            match="grid parameter 'min_positives_per_batch' of arm 'stratified': expected int, got 1.5",
        ):
            grid_search(arm, {"min_positives_per_batch": (1, 1.5)}, bad)
        assert not (tmp_path / "bad").exists()

    def test_empty_grid_single_cell(self, tmp_path):
        config = _tiny_config(tmp_path / "out", n_seeds=1, best_k=1)
        result = grid_search(Arm("adaptive", Adaptive(1.0), TINY_TRAIN), {}, config)
        assert len(result.cells) == 1
        assert result.best_params == {}

    def test_unknown_parameter(self, tmp_path):
        config = _tiny_config(tmp_path / "out")
        with pytest.raises(ValueError, match="neither"):
            grid_search(Arm("static", Static(0.5), TINY_TRAIN), {"nope": (1,)}, config)


class TestConfigCodec:
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
        "grid": {"focal": {"gamma": [0, 1.5]}},
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
            configio.validate_experiment_config(experiment_to_json(experiment_from_json(doc)))

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("train", "eval_beta"), math.nan, "TrainConfig.eval_beta"),
            (("train", "optimizer", "lr"), math.nan, "Adam.lr"),
            (("arms", 1, "train", "sampler", "neg_to_pos_ratio"), math.inf, "UnderSampler.neg_to_pos_ratio"),
        ],
    )
    def test_non_finite_values_rejected(self, path, value, field):
        # each passes the schema, so only the dataclass check stops it before a run trains
        doc = _mutant("files", path, value)
        configio.validate_experiment_config(doc)
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
        "build, message",
        [
            (lambda: Arm("", Vanilla()), "Arm.name must be of length >= 1, got ''"),
            (lambda: ModelConfig(hidden_dim=0), "ModelConfig.hidden_dim must be >= 1, got 0"),
            (lambda: SyntheticSource(n_dev=0), "SyntheticSource.n_dev must be >= 1, got 0"),
            (lambda: Adam(eps=math.inf), "Adam.eps must be finite, got inf"),
            (
                lambda: ExperimentConfig(TINY_SOURCE, (Arm("a", Vanilla()),), beta_sweep=(1.0, 0.0)),
                "ExperimentConfig.beta_sweep must be a sequence of items meeting {'exclusiveMinimum': 0}, got (1.0, 0.0)",
            ),
        ],
        ids=["empty arm name", "hidden_dim 0", "n_dev 0", "infinite eps", "zero in sweep"],
    )
    def test_out_of_range_rejected_on_construction(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_schema_rejects_bad_strategy(self):
        doc = self._doc()
        doc["arms"][0]["strategy"] = {"kind": "mystery"}
        with pytest.raises(Exception):
            experiment_from_json(doc)

    def test_schema_rejects_unknown_keys(self):
        doc = self._doc()
        doc["surprise"] = 1
        with pytest.raises(Exception):
            experiment_from_json(doc)


_DROP = object()

# (label, base document, edited path, new value or _DROP, best_match (message, path) or None to accept)
SCHEMA_MUTANTS = [
    ("bad strategy kind", "synthetic", ("arms", 0, "strategy"), {"kind": "mystery"},
     ("{'kind': 'mystery'} is not valid under any of the given schemas", ("arms", 0, "strategy"))),
    ("unknown top-level key", "synthetic", ("surprise",), 1,
     ("Additional properties are not allowed ('surprise' was unexpected)", ())),
    ("unknown generator key", "synthetic", ("dataset", "generator", "positve_rate"), 0.5,
     ("Additional properties are not allowed ('positve_rate' was unexpected)", ("dataset", "generator"))),
    ("unknown arm key", "synthetic", ("arms", 0, "beta"), 1.0,
     ("Additional properties are not allowed ('beta' was unexpected)", ("arms", 0))),
    ("strategy inside train", "synthetic", ("train", "strategy"), {"kind": "vanilla"},
     ("Additional properties are not allowed ('strategy' was unexpected)", ("train",))),
    ("empty arm name", "synthetic", ("arms", 0, "name"), "", ("'' should be non-empty", ("arms", 0, "name"))),
    ("no arms", "synthetic", ("arms",), [], ("[] should be non-empty", ("arms",))),
    ("no dataset", "synthetic", ("dataset",), _DROP, ("'dataset' is a required property", ())),
    ("hidden_dim 0", "synthetic", ("model", "hidden_dim"), 0,
     ("0 is less than the minimum of 1", ("model", "hidden_dim"))),
    ("hidden_dim null", "files", ("model", "hidden_dim"), None, None),
    ("bad activation", "synthetic", ("model", "activation"), "sigmoid",
     ("'sigmoid' is not one of ['tanh', 'relu']", ("model", "activation"))),
    ("lr 0", "synthetic", ("train", "optimizer", "lr"), 0, ("'sgd' was expected", ("train", "optimizer", "kind"))),
    ("momentum 1", "files", ("arms", 1, "train", "optimizer", "momentum"), 1,
     ("'adam' was expected", ("arms", 1, "train", "optimizer", "kind"))),
    ("b1 -1", "synthetic", ("train", "optimizer", "b1"), -1,
     ("-1 is less than the minimum of 0", ("train", "optimizer", "b1"))),
    ("beta 0", "files", ("arms", 0, "strategy", "beta"), 0,
     ("0 is less than or equal to the minimum of 0", ("arms", 0, "strategy", "beta"))),
    ("gamma -1", "files", ("arms", 1, "strategy", "gamma"), -1,
     ("-1 is less than the minimum of 0", ("arms", 1, "strategy", "gamma"))),
    ("static without cost", "synthetic", ("arms", 1, "strategy", "negative_cost"), _DROP,
     ("{'kind': 'static'} is not valid under any of the given schemas", ("arms", 1, "strategy"))),
    ("sweep value 0", "files", ("beta_sweep", 1), 0,
     ("0 is less than or equal to the minimum of 0", ("beta_sweep", 1))),
    ("null sweep", "files", ("beta_sweep",), None, ("None is not of type 'array'", ("beta_sweep",))),
    ("null grid", "files", ("grid",), None, ("None is not of type 'object'", ("grid",))),
    ("string grid value", "files", ("grid", "focal", "gamma", 0), "x",
     ("'x' is not of type 'number'", ("grid", "focal", "gamma", 0))),
    ("n_seeds 0", "synthetic", ("n_seeds",), 0, ("0 is less than the minimum of 1", ("n_seeds",))),
    ("workers 1.5", "synthetic", ("workers",), 1.5, ("1.5 is not of type 'integer'", ("workers",))),
    ("epochs string", "synthetic", ("train", "epochs"), "3", ("'3' is not of type 'integer'", ("train", "epochs"))),
    ("k 1", "synthetic", ("dataset", "generator", "k"), 1,
     ("1 is less than the minimum of 2", ("dataset", "generator", "k"))),
    ("positive_rate 1", "synthetic", ("dataset", "generator", "positive_rate"), 1,
     ("1 is greater than or equal to the maximum of 1", ("dataset", "generator", "positive_rate"))),
    ("n_dev 0", "synthetic", ("dataset", "n_dev"), 0, ("'files' was expected", ("dataset", "kind"))),
    ("patience null", "files", ("train", "early_stop_patience"), None, None),
    ("patience 0", "files", ("train", "early_stop_patience"), 0,
     ("0 is less than the minimum of 1", ("train", "early_stop_patience"))),
    ("ratio 0", "files", ("arms", 1, "train", "sampler", "neg_to_pos_ratio"), 0,
     ("{'kind': 'undersample', 'neg_to_pos_ratio': 0} is not valid under any of the given schemas",
      ("arms", 1, "train", "sampler"))),
    ("min positives 0", "synthetic", ("train", "sampler", "min_positives_per_batch"), 0,
     ("{'kind': 'stratified', 'min_positives_per_batch': 0} is not valid under any of the given schemas",
      ("train", "sampler"))),
    ("format tsv", "files", ("dataset", "format"), "tsv",
     ("'tsv' is not one of ['csv', 'jsonl', None]", ("dataset", "format"))),
    ("format null", "files", ("dataset", "format"), None, None),
    ("files without test", "files", ("dataset", "test"), _DROP, ("'synthetic' was expected", ("dataset", "kind"))),
    ("eval_beta 0", "files", ("train", "eval_beta"), 0,
     ("0 is less than or equal to the minimum of 0", ("train", "eval_beta"))),
]


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
    """What the experiment-config schema accepts, and the first error it reports."""

    @pytest.mark.parametrize(
        "base, path, value, expected", [row[1:] for row in SCHEMA_MUTANTS], ids=[row[0] for row in SCHEMA_MUTANTS]
    )
    def test_best_match(self, base, path, value, expected):
        doc = _mutant(base, path, value)
        if expected is None:
            configio.validate_experiment_config(doc)
            return
        with pytest.raises(jsonschema.ValidationError) as caught:
            configio.validate_experiment_config(doc)
        assert (caught.value.message, tuple(caught.value.absolute_path)) == expected

    def test_shipped_schema_is_generated(self, tmp_path):
        configio.write_json(harness.experiment_schema(), tmp_path / "schema.json")
        shipped = importlib.resources.files("adascale").joinpath("schemas", "experiment_config.schema.json")
        assert shipped.read_text() == (tmp_path / "schema.json").read_text(), (
            "regenerate with: PYTHONPATH=src python -c \"from adascale import configio, harness; "
            "configio.write_json(harness.experiment_schema(), 'src/adascale/schemas/experiment_config.schema.json')\""
        )

    def test_two_errors_at_once(self):
        doc = _mutant("synthetic", ("n_seeds",), 0)
        doc["model"]["activation"] = "sigmoid"
        validator = configio._validator("experiment_config.schema.json")
        assert len(list(validator.iter_errors(doc))) == 2
        with pytest.raises(jsonschema.ValidationError, match="0 is less than the minimum of 1"):
            configio.validate_experiment_config(doc)


class TestRunReportSchema:
    @pytest.fixture(scope="class")
    def report_doc(self):
        train, dev, test = load_datasets(TINY_SOURCE)
        config = replace(TINY_TRAIN, strategy=Adaptive(1.0), epochs=1)
        _, report = train_run(train, dev, test, ModelSpec(5, 3), config)
        return report_to_dict(report)

    def test_accepts_real_report(self, report_doc):
        assert report_doc["w_history"]
        configio.validate_run_report(report_doc)
        configio.validate_run_report(report_doc)  # the cached validator is reusable

    def test_rejects_negative_weight(self, report_doc):
        doc = copy.deepcopy(report_doc)
        doc["w_history"][0] = -0.5
        with pytest.raises(jsonschema.ValidationError):
            configio.validate_run_report(doc)

    def test_rejects_extra_key(self, report_doc):
        doc = dict(report_doc, surprise=1)
        with pytest.raises(jsonschema.ValidationError):
            configio.validate_run_report(doc)


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


def _walk(node):
    yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from _walk(child)


class TestValidatorOracle:
    """The package's validator reports exactly what a plain jsonschema validator does."""

    SCHEMAS = [
        "experiment_config.schema.json",
        "run_report.schema.json",
        "comparison_report.schema.json",
        "sweep_report.schema.json",
        "grid_report.schema.json",
    ]

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
        for key, value in (("w_history", 0.5), ("w_history", tuple(run["w_history"])), ("dev_f", [])):
            yield f"run {key} = {value!r}", dict(run, **{key: value})
        both = copy.deepcopy(run)
        both["w_history"][0], both["dev_f"][0] = -1.0, 2.0
        yield "run w_history and dev_f", both
        config = docs["experiment_config"]
        yield "config beta_sweep 0", dict(config, beta_sweep=[0, 1.0])
        yield "config grid string", dict(config, grid={"focal": {"gamma": ["x", 1]}})
        grid = copy.deepcopy(docs["grid/grid_static.json"])
        grid["cells"][0]["test_f"] = [0.5, 1.2]
        yield "grid test_f above 1", grid

    def test_same_errors_as_plain_validator(self, documents):
        inputs = list(documents.items()) + list(self._mutants(documents))
        assert len(inputs) > 25
        for schema_name in self.SCHEMAS:
            schema = configio._schema(schema_name)
            plain = jsonschema.validators.validator_for(schema)(schema)
            ours = configio._validator(schema_name)
            for label, doc in inputs:
                errors = [(e.message, tuple(e.absolute_path)) for e in ours.iter_errors(doc)]
                assert errors == [(e.message, tuple(e.absolute_path)) for e in plain.iter_errors(doc)], (
                    schema_name,
                    label,
                )
                best, expected = (jsonschema.exceptions.best_match(v.iter_errors(doc)) for v in (ours, plain))
                assert (best is None) == (expected is None), (schema_name, label)
                if best is not None:
                    assert (best.message, best.absolute_path, best.validator) == (
                        expected.message,
                        expected.absolute_path,
                        expected.validator,
                    ), (schema_name, label)

    def test_schemas_leave_items_alone(self):
        # the oracle's inputs exercise "items" on its own; these keywords would
        # make it share the item indexes, a case no input here covers
        for schema_name in self.SCHEMAS:
            for node in _walk(configio._schema(schema_name)):
                if isinstance(node, dict):
                    assert not {"prefixItems", "unevaluatedItems"} & node.keys(), schema_name
