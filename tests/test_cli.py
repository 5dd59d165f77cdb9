import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import adascale
from adascale import harness
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

    def test_unknown_arm(self, config_path):
        assert main(["train", "--config", config_path, "--arm", "nope"]) == 2


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

    def test_strict_flags_divergent_runs(self, tmp_path):
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
            "arms": [{"name": "bad", "strategy": {"kind": "vanilla"}}],
            "train": {"optimizer": {"kind": "sgd", "lr": 1e12}, "epochs": 2, "batch_size": 4},
            "n_seeds": 1,
            "best_k": 1,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", "--config", str(path)]) == 0
        assert main(["compare", "--config", str(path), "--strict"]) == 1


def _run_module(*args):
    # the child process imports the same adascale package as this one, installed or not
    src = str(Path(adascale.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "adascale", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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


def _edit(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


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
            (("arms", 0, "name"), "", "$.arms[0].name: '' should be non-empty"),
            (("n_seeds",), 0, "$.n_seeds: 0 is less than the minimum of 1"),
            (
                ("grid", "static"), {"gamma": [1.0]},
                "grid parameter 'gamma' matches neither the strategy nor the sampler of arm 'static'",
            ),
        ],
        ids=["nan", "arm index", "schema", "schema minimum", "grid"],
    )
    def test_config_errors(self, tmp_path, experiment_doc, monkeypatch, capsys, path, value, message):
        _edit(experiment_doc, path, value)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(experiment_doc))
        command = ["grid", "--arm", "static"] if path[0] == "grid" else ["compare"]
        code, err = self._run(monkeypatch, capsys, *command, "--config", str(config))
        assert (code, err) == (2, f"adascale: error: {message}\n")
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
        assert code == 2 and err.startswith("adascale: error: Expecting property name")
        assert err.count("\n") == 1

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
        assert (code, err) == (2, f"adascale: error: {checkpoint}: not a model checkpoint\n")

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
