import copy
import functools
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import adascale
from adascale import cli, data, harness
from adascale.cli import main, run
from adascale.data import GeneratorConfig, load


@pytest.fixture
def experiment_doc(tmp_path):
    return {
        "dataset": {
            "kind": "synthetic",
            "generator": {"n": 300, "d": 4, "k": 3, "positive_rate": 0.1, "seed": 1},
            "n_dev": 120,
            "n_test": 120,
        },
        "arms": [
            {"name": "vanilla", "strategy": {"kind": "vanilla"}},
            {"name": "adaptive", "strategy": {"kind": "adaptive", "beta": 1.0}},
            {"name": "static", "strategy": {"kind": "static", "negative_cost": 0.5}},
        ],
        "train": {
            "optimizer": {"kind": "adam", "lr": 0.01},
            "epochs": 2,
            "batch_size": 32,
            "sampler": {"kind": "stratified", "min_positives_per_batch": 1},
        },
        "n_seeds": 2,
        "best_k": 2,
        "beta_sweep": [0.5, 1.0],
        "grid": {"static": {"negative_cost": [0.2, 1.0]}},
        "output_dir": str(tmp_path / "out"),
    }


@pytest.fixture
def config_path(tmp_path, experiment_doc):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(experiment_doc))
    return str(path)


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            ["generate", "--out", str(out), "--n", "120", "--d", "3", "--k", "3",
             "--positive-rate", "0.1", "--seed", "5"]
        )
        assert code == 0
        ds = load(out)
        assert (ds.n, ds.d, ds.k) == (120, 3, 3)
        assert int((ds.labels != 0).sum()) == 12

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(["generate", "--out", str(out), "--n", "50", "--d", "2", "--k", "2",
                     "--positive-rate", "0.2"]) == 0
        assert load(out).n == 50

    def test_help_lists_every_generator_field(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        out = capsys.readouterr().out
        for f in fields(GeneratorConfig):
            assert f"--{f.name.replace('_', '-')} " in out

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n": 500, "positve_rate": 0.5}))
        out = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="positve_rate"):
            main(["generate", "--config", str(config), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("n", 500.7), ("positive_rate", "0.5"), ("d", True), ("k", "4"), ("noise_scale", False)],
    )
    def test_wrong_config_types_rejected(self, tmp_path, key, value):
        # an int field takes no fraction, no field takes a string, a bool is no number
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({"n": 500, "positive_rate": 0.5, key: value}))
        out = tmp_path / "data.csv"
        message = re.escape(f"GeneratorConfig.{key}: ") + ".*" + re.escape(repr(value))
        with pytest.raises(ValueError, match=message):
            main(["generate", "--config", str(config), "--out", str(out)])
        assert not out.exists()


class TestTrainEval:
    def test_train_writes_report_and_checkpoint(self, tmp_path, config_path):
        run_path = tmp_path / "run.json"
        model_path = tmp_path / "model.json"
        code = main(
            ["train", "--config", config_path, "--arm", "adaptive", "--seed", "3",
             "--out", str(run_path), "--save-model", str(model_path)]
        )
        assert code == 0
        doc = json.loads(run_path.read_text())
        assert doc["seed"] == 3 and doc["arm"] == "adaptive"
        assert model_path.exists()

    def test_train_checks_its_run_file_before_writing(self, tmp_path, config_path, monkeypatch):
        # a single run gets the check each of a protocol's runs gets
        from adascale.trainer import train

        def overscored(*args):
            params, report = train(*args)
            report.test_f = 2.0
            return params, report

        monkeypatch.setattr(harness, "train", overscored)
        run_path = tmp_path / "run.json"
        with pytest.raises(ValueError, match=re.escape("RunReport.test_f must be <= 1, got 2.0")):
            main(["train", "--config", config_path, "--arm", "vanilla", "--out", str(run_path)])
        assert not run_path.exists()

    def test_invalid_run_saves_no_checkpoint(self, tmp_path, experiment_doc, capsys):
        # a run that diverges in its first epoch would otherwise save its untrained initial parameters
        train = {"optimizer": {"kind": "sgd", "lr": 1e308}, "epochs": 2, "batch_size": 32}
        experiment_doc["arms"].append({"name": "diverging", "strategy": {"kind": "vanilla"}, "train": train})
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps(experiment_doc))
        run_path, model_path = tmp_path / "run.json", tmp_path / "model.json"
        code = main(["train", "--config", str(config), "--arm", "diverging",
                     "--out", str(run_path), "--save-model", str(model_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(run_path.read_text())["valid"] is False
        assert "[INVALID (" in captured.out
        assert captured.err == f"no checkpoint for an invalid run: {model_path}\n"
        assert not model_path.exists()

    def test_eval_prints_metrics(self, tmp_path, config_path, capsys):
        model_path = tmp_path / "model.json"
        data_path = tmp_path / "data.csv"
        main(["train", "--config", config_path, "--arm", "vanilla",
              "--out", str(tmp_path / "r.json"), "--save-model", str(model_path)])
        main(["generate", "--out", str(data_path), "--n", "80", "--d", "4", "--k", "3",
              "--positive-rate", "0.1", "--seed", "2"])
        metrics_path = tmp_path / "metrics.json"
        code = main(["eval", "--model", str(model_path), "--data", str(data_path),
                     "--beta", "1.0", "--out", str(metrics_path)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "precision=" in captured and "f_beta=" in captured
        doc = json.loads(metrics_path.read_text())
        assert set(doc) == {"precision", "recall", "f_beta", "beta"}

    def test_default_report_name_is_file_safe(self, tmp_path, experiment_doc, monkeypatch):
        # the default report path is the run file name the protocols write
        experiment_doc["arms"].append({"name": "adam/lr", "strategy": {"kind": "vanilla"}})
        path = tmp_path / "slash.json"
        path.write_text(json.dumps(experiment_doc))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(path), "--arm", "adam/lr", "--seed", "3"]) == 0
        assert json.loads((tmp_path / "run_adam-lr_3.json").read_text())["arm"] == "adam/lr"


def test_every_written_json_file_is_canonical(tmp_path, config_path):
    # one JSON writer: sorted keys, 2-space indent, no NaN, a trailing newline
    out = tmp_path / "written"
    for command in ("compare", "sweep"):
        assert main([command, "--config", config_path, "--out", str(out / command)]) == 0
    assert main(["grid", "--config", config_path, "--arm", "static", "--out", str(out / "grid")]) == 0
    assert main(["train", "--config", config_path, "--arm", "adaptive", "--out", str(out / "run.json"),
                 "--save-model", str(out / "model.json")]) == 0
    data_path = tmp_path / "data.csv"
    assert main(["generate", "--out", str(data_path), "--n", "80", "--d", "4", "--k", "3",
                 "--positive-rate", "0.1"]) == 0
    assert main(["eval", "--model", str(out / "model.json"), "--data", str(data_path),
                 "--out", str(out / "eval.json")]) == 0
    written = sorted(out.rglob("*.json"))
    assert {"model.json", "eval.json", "comparison.json", "sweep.json", "grid_static.json"} <= {p.name for p in written}
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2, allow_nan=False) + "\n", path


class TestCompareSweepGrid:
    def test_compare(self, tmp_path, config_path, capsys):
        code = main(["compare", "--config", config_path])
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "comparison.csv").exists()
        assert (out_dir / "comparison.json").exists()
        assert "vanilla:" in capsys.readouterr().out

    def test_compare_out_override(self, tmp_path, config_path):
        other = tmp_path / "elsewhere"
        assert main(["compare", "--config", config_path, "--out", str(other)]) == 0
        assert (other / "comparison.json").exists()

    def test_sweep(self, tmp_path, config_path):
        assert main(["sweep", "--config", config_path]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_grid(self, tmp_path, config_path, capsys):
        assert main(["grid", "--config", config_path, "--arm", "static"]) == 0
        assert (tmp_path / "out" / "grid_static.json").exists()
        assert "best:" in capsys.readouterr().out

    @staticmethod
    def _divergent_config(tmp_path, strategy, **extra):
        # contradictory data via file source, huge lr: every run aborts
        from adascale.data import Dataset, save
        import numpy as np

        ds = Dataset(np.ones((20, 2)), np.array([0, 1] * 10), k=2)
        for split in ("train", "dev", "test"):
            save(ds, tmp_path / f"{split}.csv")
        doc = {
            "dataset": {
                "kind": "files",
                "train": str(tmp_path / "train.csv"),
                "dev": str(tmp_path / "dev.csv"),
                "test": str(tmp_path / "test.csv"),
            },
            "arms": [{"name": "bad", "strategy": strategy}],
            "train": {"optimizer": {"kind": "sgd", "lr": 1e12}, "epochs": 2, "batch_size": 4},
            "n_seeds": 1,
            "best_k": 1,
            "output_dir": str(tmp_path / "out"),
            **extra,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_strict_flags_divergent_runs(self, tmp_path, capsys):
        path = self._divergent_config(tmp_path, {"kind": "vanilla"})
        assert main(["compare", "--config", path]) == 0
        assert main(["compare", "--config", path, "--strict"]) == 1
        assert capsys.readouterr().err == "invalid runs in arm 'bad': seeds [0]\n" * 2

    def test_strict_sweep_counts_runs_per_beta(self, tmp_path, capsys):
        path = self._divergent_config(tmp_path, {"kind": "adaptive"}, n_seeds=2, beta_sweep=[1.0])
        assert main(["sweep", "--config", path]) == 0
        assert main(["sweep", "--config", path, "--strict"]) == 1
        assert capsys.readouterr().err == "invalid runs at beta=1: 2 of 2\n" * 2


def _run_python(*args, cwd=None):
    # the child process imports the same adascale package as this one, installed or not
    src = str(Path(adascale.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
    )


def _run_module(*args):
    return _run_python("-m", "adascale", *args)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = _run_module(
            "generate", "--out", str(out), "--n", "30", "--d", "2", "--k", "2", "--positive-rate", "0.2"
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_help_lists_subcommands(self):
        proc = _run_module("--help")
        for sub in ("generate", "train", "eval", "compare", "sweep", "grid"):
            assert sub in proc.stdout

    # the Python demos; 02 is the one caller outside the tests of the public
    # BatchPrediction, batch_expected_counts and w_batch, and 03 and 04 the only
    # ones of run_experiment and beta_sweep, which write demo_out/ under the working directory
    @pytest.mark.parametrize(
        "demo",
        [
            "01_metrics_and_marginal_utility.py",
            "02_batch_weight_estimation.py",
            "03_adaptive_vs_baselines.py",
            "04_beta_tradeoff.py",
        ],
    )
    def test_demo_runs(self, demo, tmp_path):
        proc = _run_python(str(Path(__file__).resolve().parents[1] / "demos" / demo), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def _edit(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _with(text, **changes):
    """A JSON document's text with some of its top-level keys set."""
    return json.dumps({**json.loads(text), **changes})


def _json_paths(doc, path=()):
    """The path of every value nested in a JSON document, as keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _json_paths(value, (*path, key))


@st.composite
def _malformed(draw, doc):
    """The text of the checkpoint ``doc`` after one drawn mutation at one drawn path."""
    doc = copy.deepcopy(doc)
    layers = doc["layers"]
    mutation = draw(st.sampled_from(["drop", "retype", "non-finite", "add key", "row", "layer", "dimension"]))
    if mutation == "add key":
        draw(st.sampled_from([doc, *layers]))["note"] = 0
    elif mutation == "row":
        weight = draw(st.sampled_from(layers))["weight"]
        i = draw(st.integers(0, len(weight) - 1))
        if draw(st.booleans()):
            weight.pop(i)
        else:
            weight[i].append(0.0)
    elif mutation == "layer":
        if draw(st.booleans()):
            layers.pop()
        else:
            layers.append(copy.deepcopy(layers[-1]))
    elif mutation == "dimension":
        # sizes no machine could allocate, so code that builds anything of a declared one fails at once
        doc[draw(st.sampled_from(["input_dim", "n_classes", "hidden_dim"]))] = draw(st.sampled_from([10**400, 2**62]))
    else:
        paths = [p for p in _json_paths(doc) if mutation != "drop" or type(p[-1]) is str]  # only a key is dropped
        *parents, last = draw(st.sampled_from(paths))
        node = functools.reduce(operator.getitem, parents, doc)
        if mutation == "drop":
            del node[last]
        else:
            node[last] = draw(st.sampled_from([None, True, 0, 1.5, "x", [], {}])) if mutation == "retype" else "<nf>"
    return json.dumps(doc).replace('"<nf>"', draw(st.sampled_from(["NaN", "1e400"])))


def _no_training(*args, **kwargs):
    raise AssertionError("trained before the output paths were checked")


def _no_loading(*args, **kwargs):
    raise AssertionError("loaded a dataset before the output paths were checked")


def _no_generating(*args, **kwargs):
    raise AssertionError("generated a dataset before its output format was known")


class TestInputErrors:
    """The ``adascale`` command reports an unusable input in one line, with status 2."""

    def _run(self, monkeypatch, capsys, *args):
        monkeypatch.setattr(sys, "argv", ["adascale", *args])
        code = run()
        captured = capsys.readouterr()
        return code, captured.err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (
                ("train", "eval_beta"), math.nan,
                "ExperimentConfig.arms[0]: Arm.train: TrainConfig.eval_beta must be finite, got nan",
            ),
            (
                ("arms", 1, "train"), {"sampler": {"kind": "undersample", "neg_to_pos_ratio": math.inf}},
                "ExperimentConfig.arms[1]: Arm.train: TrainConfig.sampler: "
                "UnderSampler.neg_to_pos_ratio must be finite, got inf",
            ),
            (("arms", 0, "name"), "", "ExperimentConfig.arms[0]: Arm.name must be of length >= 1, got ''"),
            (("n_seeds",), 0, "ExperimentConfig.n_seeds must be >= 1, got 0"),
            (("arms", 0), "vanilla", "ExperimentConfig.arms[0]: expected Arm object, got 'vanilla'"),
            (
                ("grid", "static"), {"gamma": [1.0]},
                "grid parameter 'gamma' matches neither the strategy nor the sampler of arm 'static'",
            ),
            (("grid", "static"), {"negative_cost": []}, "grid value lists must be non-empty"),
            (
                ("dataset", "generator", "n"), 10**400,
                "ExperimentConfig.dataset: SyntheticSource.generator: "
                f"GeneratorConfig.n must be <= {sys.float_info.max!r}, got 100000000000000000...0000000000000000000",
            ),
        ],
        ids=[
            "nan", "arm index", "schema", "schema minimum", "arm not an object", "grid", "empty grid values",
            "n beyond a float",
        ],
    )
    def test_config_errors(self, tmp_path, experiment_doc, monkeypatch, capsys, path, value, message):
        _edit(experiment_doc, path, value)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(experiment_doc))
        command = ["grid", "--arm", "static"] if path[0] == "grid" else ["compare"]
        code, err = self._run(monkeypatch, capsys, *command, "--config", str(config))
        assert (code, err) == (2, f"adascale: error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_same_line_from_file_and_flag(self, tmp_path, experiment_doc, config_path, monkeypatch, capsys):
        # one validator reads the file and the override, so both print one message
        experiment_doc["n_seeds"] = 0
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(experiment_doc))
        from_file = self._run(monkeypatch, capsys, "compare", "--config", str(config))
        from_flag = self._run(monkeypatch, capsys, "compare", "--config", config_path, "--n-seeds", "0")
        assert from_file == from_flag == (2, "adascale: error: ExperimentConfig.n_seeds must be >= 1, got 0\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_splits_of_different_widths(self, tmp_path, experiment_doc, monkeypatch, capsys, workers):
        from adascale.data import Dataset, save

        paths = {split: tmp_path / f"{split}.csv" for split in ("train", "dev", "test")}
        for split, path in paths.items():
            d = 4 if split == "dev" else 5
            save(Dataset(np.eye(6, d), np.array([0, 1, 0, 1, 0, 1]), k=2), path)
        experiment_doc["dataset"] = {"kind": "files", **{split: str(path) for split, path in paths.items()}}
        config = tmp_path / "files.json"
        config.write_text(json.dumps(experiment_doc))
        code, err = self._run(monkeypatch, capsys, "compare", "--config", str(config), "--workers", str(workers))
        assert (code, err) == (
            2, f"adascale: error: {paths['dev']}: 4 features, but the train split {paths['train']} has 5\n"
        )
        assert not (tmp_path / "out").exists()

    def test_override_errors(self, config_path, monkeypatch, capsys):
        code, err = self._run(monkeypatch, capsys, "compare", "--config", config_path, "--n-seeds", "0")
        assert (code, err) == (2, "adascale: error: ExperimentConfig.n_seeds must be >= 1, got 0\n")
        code, err = self._run(
            monkeypatch, capsys, "train", "--config", config_path, "--arm", "vanilla", "--seed", "-1"
        )
        assert (code, err) == (2, "adascale: error: ExperimentConfig.base_seed must be >= 0, got -1\n")

    def test_unreadable_json(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{")
        code, err = self._run(monkeypatch, capsys, "sweep", "--config", str(config))
        assert code == 2 and err.startswith(f"adascale: error: {config}: Expecting property name")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["compare", "generate"])
    def test_missing_config(self, tmp_path, monkeypatch, capsys, command):
        config = tmp_path / "missing.json"
        extra = ["--out", str(tmp_path / "d.csv")] if command == "generate" else []
        code, err = self._run(monkeypatch, capsys, command, "--config", str(config), *extra)
        assert (code, err) == (2, f"adascale: error: {config}: No such file or directory\n")

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_unknown_arm(self, config_path, monkeypatch, capsys, command):
        code, err = self._run(monkeypatch, capsys, command, "--config", config_path, "--arm", "nope")
        assert (code, err) == (2, "adascale: error: no arm named 'nope' in config\n")

    def test_dataset_and_checkpoint_errors(self, tmp_path, experiment_doc, monkeypatch, capsys):
        missing = tmp_path / "missing.csv"
        experiment_doc["dataset"] = {"kind": "files", **{split: str(missing) for split in ("train", "dev", "test")}}
        config = tmp_path / "files.json"
        config.write_text(json.dumps(experiment_doc))
        expected = (2, f"adascale: error: {missing}: no such file\n")
        assert self._run(monkeypatch, capsys, "compare", "--config", str(config)) == expected
        assert self._run(monkeypatch, capsys, "train", "--config", str(config), "--arm", "vanilla") == expected

        checkpoint = tmp_path / "model.json"
        checkpoint.write_text("{}")
        data_path = tmp_path / "data.csv"
        assert main(["generate", "--out", str(data_path), "--n", "40", "--d", "3", "--k", "2",
                     "--positive-rate", "0.2"]) == 0
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, f"adascale: error: {checkpoint}: missing Checkpoint keys ['format', 'version']\n")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (None, "No such file or directory"),
            (lambda text: text[:10], "Unterminated string starting at: line 2 column 3 (char 4)"),
            (lambda text: text.replace('"input_dim"', '"width"'), "missing Checkpoint keys ['input_dim']"),
            (lambda text: "[]", "expected Checkpoint object, got an array"),
            (lambda text: _with(text, input_dim="3"), "Checkpoint.input_dim: expected int, got '3'"),
            (lambda text: _with(text, n_classes=True), "Checkpoint.n_classes: expected int, got True"),
            (lambda text: _with(text, input_dim=3.5), "Checkpoint.input_dim: expected int, got 3.5"),
            (lambda text: _with(text, version=2), "Checkpoint.version must be 1, got 2"),
            (
                lambda text: _with(text, layers=json.loads(text)["layers"] * 2),
                "Checkpoint.layers: expected 1 layers, got 2",
            ),
            (
                lambda text: _with(text, layers=[{**json.loads(text)["layers"][0], "weight": [[math.nan, 0.0]] * 3}]),
                "Checkpoint.layers[0]: non-finite parameter values",
            ),
            (lambda text: _with(text, layers=5), "Checkpoint.layers: expected array, got 5"),
            (lambda text: _with(text, layers=None), "Checkpoint.layers: expected array, got None"),
            (lambda text: _with(text, layers="x"), "Checkpoint.layers: expected array, got 'x'"),
            (
                lambda text: _with(text, layers=[[1]]),
                "Checkpoint.layers[0]: expected CheckpointLayer object, got an array",
            ),
            (
                lambda text: _with(text, layers=[{**json.loads(text)["layers"][0], "bias": {"a": 1.0}}]),
                "Checkpoint.layers[0]: CheckpointLayer.bias: expected array, got an object",
            ),
            (
                lambda text: _with(text, layers=[{**json.loads(text)["layers"][0], "weight": "x"}]),
                "Checkpoint.layers[0]: CheckpointLayer.weight: expected array, got 'x'",
            ),
            (
                lambda text: _with(text, layers=[{**json.loads(text)["layers"][0], "weight": [[0.0, 0.0], [0.0]]}]),
                "Checkpoint.layers[0]: expected weight shape (3, 2), bias (2,)",
            ),
            (lambda text: _with(text, arch="mlp"), "Checkpoint.arch 'mlp' does not match hidden_dim None"),
            (lambda text: _with(text, arch="resnet"), "Checkpoint.arch must be one of ('linear', 'mlp'), got 'resnet'"),
            (
                lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "arch"}),
                "missing Checkpoint keys ['arch']",
            ),
            (
                lambda text: _with(text, activation="bogus"),
                "Checkpoint.activation must be one of ('tanh', 'relu', None), got 'bogus'",
            ),
            (
                lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "activation"}),
                "missing Checkpoint keys ['activation']",
            ),
            (lambda text: _with(text, note="x"), "unknown Checkpoint keys ['note']"),
            (
                lambda text: _with(text, layers=[{**json.loads(text)["layers"][0], "note": "x"}]),
                "Checkpoint.layers[0]: unknown CheckpointLayer keys ['note']",
            ),
            (
                lambda text: _with(text, input_dim=10**400),
                f"Checkpoint.layers[0]: expected weight shape ({10**400}, 2), bias (2,)",
            ),
        ],
        ids=[
            "missing", "truncated", "missing key", "not an object", "string dim", "bool dim", "float dim",
            "version", "extra layer", "nan weight", "int layers", "null layers", "string layers", "list layer",
            "object bias", "string weight", "ragged weight", "mlp arch", "unknown arch", "no arch",
            "linear activation", "no activation", "unknown key", "unknown layer key", "huge input_dim",
        ],
    )
    def test_checkpoint_errors(self, tmp_path, monkeypatch, capsys, edit, message):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        if edit is None:
            checkpoint.unlink()
        else:
            checkpoint.write_text(edit(checkpoint.read_text()))
        data_path = tmp_path / "data.csv"
        assert main(["generate", "--out", str(data_path), "--n", "40", "--d", "3", "--k", "2",
                     "--positive-rate", "0.2"]) == 0
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, f"adascale: error: {checkpoint}: {message}\n")

    @settings(
        max_examples=100, derandomize=True, deadline=None, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_every_malformed_checkpoint_gives_one_line(self, tmp_path, monkeypatch, capsys, data):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint, data_path = tmp_path / "model.json", tmp_path / "data.csv"
        if not data_path.exists():
            assert main(["generate", "--out", str(data_path), "--n", "40", "--d", "3", "--k", "2",
                         "--positive-rate", "0.2"]) == 0
        save_params(init_params(data.draw(st.sampled_from([ModelSpec(3, 2), ModelSpec(3, 2, 4)])), 0), checkpoint)
        checkpoint.write_text(data.draw(_malformed(json.loads(checkpoint.read_text()))))
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (0, "") or (code, err.count("\n")) == (2, 1), err
        assert code == 0 or err.startswith(f"adascale: error: {checkpoint}: ")

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["generate", "--n", "40", "--d", "3", "--k", "2", "--positive-rate", "0.2", "--out", "{nodir}/x.csv"],
             "{nodir}/x.csv: No such file or directory"),
            (["eval", "--model", "{model}", "--data", "{data}", "--out", "{nodir}/e.json"],
             "{nodir}/e.json: No such file or directory"),
            (["train", "--config", "{config}", "--arm", "vanilla", "--out", "{nodir}/r.json"],
             "{nodir}/r.json: No such file or directory"),
            (["train", "--config", "{config}", "--arm", "vanilla", "--out", "{dir}/r.json", "--save-model",
              "{nodir}/m.json"], "{nodir}/m.json: No such file or directory"),
            (["compare", "--config", "{config}", "--out", "{file}"], "{file}: File exists"),
            (["sweep", "--config", "{config}", "--out", "{file}"], "{file}: File exists"),
            (["grid", "--config", "{config}", "--arm", "static", "--out", "{file}"], "{file}: File exists"),
        ],
        ids=["generate", "eval", "train", "save-model", "compare", "sweep", "grid"],
    )
    def test_unwritable_output_path(self, tmp_path, config_path, monkeypatch, capsys, args, expected):
        from adascale.model import ModelSpec, init_params, save_params

        paths = {"nodir": tmp_path / "nodir", "dir": tmp_path, "config": config_path, "file": tmp_path / "file",
                 "model": tmp_path / "model.json", "data": tmp_path / "data.csv"}
        paths["file"].write_text("")
        save_params(init_params(ModelSpec(3, 2), 0), paths["model"])
        assert main(["generate", "--out", str(paths["data"]), "--n", "40", "--d", "3", "--k", "2",
                     "--positive-rate", "0.2"]) == 0
        written = set(tmp_path.iterdir())
        monkeypatch.setattr(harness, "train", _no_training)
        monkeypatch.setattr(data, "load", _no_loading)  # as eval loads its dataset
        code, err = self._run(monkeypatch, capsys, *(arg.format(**paths) for arg in args))
        assert (code, err) == (2, f"adascale: error: {expected.format(**paths)}\n")
        # train rejects its outputs before it trains and leaves no file behind
        assert set(tmp_path.iterdir()) == written

    @pytest.mark.parametrize("text", ["[]", "3", '"x"'], ids=["list", "number", "string"])
    def test_generator_config_not_an_object(self, tmp_path, monkeypatch, capsys, text):
        config = tmp_path / "gen.json"
        config.write_text(text)
        out = tmp_path / "d.csv"
        code, err = self._run(monkeypatch, capsys, "generate", "--config", str(config), "--out", str(out), "--n", "50")
        assert (code, err) == (2, f"adascale: error: {config}: not a JSON object\n")
        assert not out.exists()

    def test_generator_n_beyond_a_float(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(data, "generate", _no_generating)
        out = tmp_path / "data.csv"
        code, err = self._run(monkeypatch, capsys, "generate", "--n", str(10**400), "--out", str(out))
        assert (code, err) == (
            2,
            f"adascale: error: GeneratorConfig.n must be <= {sys.float_info.max!r}, "
            "got 100000000000000000...0000000000000000000\n",
        )
        assert not out.exists()

    def test_generate_format_not_inferable(self, tmp_path, monkeypatch, capsys):
        # the output's format is settled before the dataset is generated
        monkeypatch.setattr(data, "generate", _no_generating)
        out = tmp_path / "data.txt"
        code, err = self._run(monkeypatch, capsys, "generate", "--out", str(out))
        assert (code, err) == (
            2, "adascale: error: cannot infer format from 'data.txt': expected a .csv or .jsonl suffix\n"
        )
        assert not out.exists()

    def test_eval_format_not_inferable(self, tmp_path, monkeypatch, capsys):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint, data_path = tmp_path / "model.json", tmp_path / "x.txt"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        data_path.write_text("f0,f1,f2,label\r\n0.0,0.0,0.0,1\r\n")
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (
            2, "adascale: error: cannot infer format from 'x.txt': expected a .csv or .jsonl suffix\n"
        )

    def test_data_is_a_directory(self, tmp_path, monkeypatch, capsys):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        code, err = self._run(
            monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(tmp_path), "--format", "csv"
        )
        assert (code, err) == (2, f"adascale: error: {tmp_path}: is a directory\n")

    def test_dataset_with_more_classes_than_the_model(self, tmp_path, monkeypatch, capsys):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        data_path = tmp_path / "data.csv"
        assert main(["generate", "--out", str(data_path), "--n", "60", "--d", "3", "--k", "4",
                     "--positive-rate", "0.1"]) == 0
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, "adascale: error: dataset k 4 exceeds model n_classes 2\n")
        # a dataset that lacks the model's top classes is scored
        save_params(init_params(ModelSpec(3, 5), 0), checkpoint)
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (0, "")

    def test_dataset_the_model_cannot_score(self, tmp_path, monkeypatch, capsys):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        data_path = tmp_path / "huge.csv"
        # finite rows on which the model's logits overflow
        data.save(data.Dataset(1.7e308 * np.tile([1.0, -1.0, 1.0], (4, 1)), np.array([0, 1, 0, 1]), k=2), data_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, f"adascale: error: {data_path}: non-finite class probabilities from {checkpoint}\n")

    @pytest.mark.parametrize(
        "beta, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")], ids=["0", "-1", "nan", "inf"]
    )
    def test_eval_beta_checked_before_loading(self, tmp_path, monkeypatch, capsys, beta, shown):
        monkeypatch.setattr(cli, "load_params", _no_loading)
        monkeypatch.setattr(data, "load", _no_loading)
        args = ("eval", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"), f"--beta={beta}")
        code, err = self._run(monkeypatch, capsys, *args)
        assert (code, err) == (2, f"adascale: error: beta must be a positive real, got {shown}\n")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("huge.jsonl", '{"features": [1' + "0" * 400 + '], "label": 0}\n',
             "1: 'features' must be a list of finite reals"),
            ("big.jsonl", '{"features": [0.5], "label": ' + str(10**30) + "}\n", f"1: label {10**30} out of range"),
            ("big.csv", f"f0,label\n0.5,{10**30}\n", f"2: label {10**30} out of range"),
            ("long.jsonl", '{"features": [1' + "0" * 5000 + '], "label": 0}\n', "1: integer too long to parse"),
            ("long.jsonl", '{"features": [0.5], "label": 1' + "0" * 5000 + "}\n", "1: integer too long to parse"),
            ("wide.csv", "f0,label\n1" + "0" * 200_000 + ",0\n", "2: field larger than field limit (131072)"),
        ],
        ids=["huge feature", "big jsonl label", "big csv label", "long feature", "long label", "wide csv field"],
    )
    def test_numbers_beyond_the_arrays(self, tmp_path, monkeypatch, capsys, name, text, message):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(1, 2), 0), checkpoint)
        data_path = tmp_path / name
        data_path.write_text(text)
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, f"adascale: error: {data_path}:{message}\n")

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("deep.jsonl", b'{"features": ' + b"[" * 100_000 + b"\n", "1: JSON nested too deeply"),
            ("bad.csv", b"f0,label\n0.5,0\n0.\xff5,1\n",
             "3: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
            ("bad.jsonl", b'{"features": [0.5], "label": 0}\n{"features": [\xff], "label": 1}\n',
             "2: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
        ],
        ids=["nested jsonl", "undecodable csv", "undecodable jsonl"],
    )
    def test_unparsable_dataset_lines(self, tmp_path, monkeypatch, capsys, name, data, message):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint = tmp_path / "model.json"
        save_params(init_params(ModelSpec(1, 2), 0), checkpoint)
        data_path = tmp_path / name
        data_path.write_bytes(data)
        code, err = self._run(monkeypatch, capsys, "eval", "--model", str(checkpoint), "--data", str(data_path))
        assert (code, err) == (2, f"adascale: error: {data_path}:{message}\n")

    def test_training_errors_propagate(self, config_path, monkeypatch):
        def broken(*args):
            raise ValueError("broken step")

        monkeypatch.setattr(harness, "train", broken)
        monkeypatch.setattr(sys, "argv", ["adascale", "compare", "--config", config_path])
        with pytest.raises(ValueError, match="broken step") as caught:
            run()
        assert not isinstance(caught.value, harness.InputError)

    def test_module_invocation(self, tmp_path, experiment_doc):
        experiment_doc["train"]["eval_beta"] = math.nan
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(experiment_doc))
        proc = _run_module("compare", "--config", str(config))
        assert proc.returncode == 2
        assert proc.stderr == (
            "adascale: error: ExperimentConfig.arms[0]: Arm.train: TrainConfig.eval_beta must be finite, got nan\n"
        )


# prints which of the modules the package loads only on first use are loaded
_PRINT_LAZY_MODULES = (
    "print(sorted(m for m in sys.modules if m.startswith(('jsonschema', 'multiprocessing', 'concurrent.futures'))))"
)


class TestColdStart:
    """A fresh process loads the worker pool only when it pools, and jsonschema never."""

    def test_import_loads_neither(self):
        proc = _run_python("-c", f"import sys, adascale, adascale.cli; {_PRINT_LAZY_MODULES}")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_generate_and_eval_load_neither(self, tmp_path):
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint, data_path = tmp_path / "model.json", tmp_path / "data.csv"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        commands = [
            ["generate", "--out", str(data_path), "--n", "40", "--d", "3", "--k", "2", "--positive-rate", "0.2"],
            ["eval", "--model", str(checkpoint), "--data", str(data_path)],
        ]
        script = "import json, sys, adascale.cli\nfor argv in json.loads(sys.argv[1]): adascale.cli.main(argv)\n"
        proc = _run_python("-c", script + _PRINT_LAZY_MODULES, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_error_paths(self, tmp_path, experiment_doc):
        experiment_doc["n_seeds"] = 0
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(experiment_doc))
        proc = _run_module("compare", "--config", str(config))
        assert (proc.returncode, proc.stderr) == (2, "adascale: error: ExperimentConfig.n_seeds must be >= 1, got 0\n")

        run_file = tmp_path / "run_x_0.json"
        run_file.write_text('{"format": "run-report", "version": 1, "arm": "x"}')
        proc = _run_python("-c", "import sys, adascale.harness; adascale.harness.reaggregate(sys.argv[1])", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            f"ValueError: {run_file}: not a valid run report: missing RunReport keys "
            "['seed', 'strategy', 'eval_beta', 'epochs_run', 'best_epoch', 'best_dev_f', 'dev_precision', "
            "'dev_recall', 'dev_f', 'loss_curve', 'w_history', 'skipped_steps', 'test_precision', "
            "'test_recall', 'test_f', 'test_counts', 'valid', 'failure']"
        )

    def test_no_command_loads_jsonschema(self, tmp_path, experiment_doc, config_path):
        # the shipped schemas are a contract for other tools; the package runs none of them
        from adascale.model import ModelSpec, init_params, save_params

        checkpoint, data_path = tmp_path / "model.json", tmp_path / "data.csv"
        save_params(init_params(ModelSpec(3, 2), 0), checkpoint)
        experiment_doc["n_seeds"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(experiment_doc))
        commands = [
            ["generate", "--out", str(data_path), "--n", "40", "--d", "3", "--k", "2", "--positive-rate", "0.2"],
            ["eval", "--model", str(checkpoint), "--data", str(data_path)],
            ["compare", "--config", config_path],
            ["sweep", "--config", config_path],
            ["compare", "--config", str(bad)],
        ]
        script = (
            "import json, sys, adascale.cli, adascale.harness\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try: adascale.cli.main(argv)\n"
            "    except adascale.harness.InputError as error: print(error)\n"
            "print(sorted(adascale.harness.reaggregate(sys.argv[2], best_k=2)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('jsonschema')))\n"
        )
        proc = _run_python("-c", script, json.dumps(commands), str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        *_, failed, arms, loaded = proc.stdout.splitlines()
        assert failed == "ExperimentConfig.n_seeds must be >= 1, got 0"
        assert arms == str(sorted(["vanilla", "adaptive", "static", "adaptive_beta0.5", "adaptive_beta1"]))
        assert loaded == "[]"
