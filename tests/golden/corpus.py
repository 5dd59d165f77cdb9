"""The committed byte corpus: a fixed set of commands whose output files and
printed lines are pinned by ``manifest.json``.

:func:`build` runs the set in-process, in a given directory and with relative
paths, and returns its manifest: the SHA-256 and size of every file the set
leaves behind, the argv, exit status, stdout, stderr and warnings of each
command, and the numpy and BLAS versions that produced them.  The set is

- ``generate`` of a 9-class dataset to CSV (train, test) and JSONL (dev);
- two experiment configs written by ``experiment_to_json``: a linear model
  on a 4-class synthetic source, and a relu MLP on the generated files
  (a ``FileSource``);
- for each config, ``compare`` of vanilla, adaptive, focal with under-sampling
  and SGD momentum, and an arm whose ``SGD(lr=1e308)`` diverges, a 2-beta
  ``sweep`` and a 2-cell ``grid``, each at ``--workers 1`` and ``--workers 2``;
- ``train --save-model`` and ``eval --out`` on the relu MLP;
- ``write_schemas``.

``tests/test_golden.py`` compares a fresh build with the committed manifest;
``regenerate.py`` rewrites the manifest after a deliberate byte change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import warnings
from pathlib import Path

import numpy as np

from adascale import cli, configio, harness
from adascale.data import FileSource, GeneratorConfig, SyntheticSource, UnderSampler
from adascale.losses import Adaptive, Focal, Vanilla
from adascale.trainer import SGD, Adam, TrainConfig

MANIFEST = Path(__file__).with_name("manifest.json")

_GENERATOR = ["--d", "8", "--k", "9", "--seed", "7"]


def _experiment(source, model: harness.ModelConfig) -> harness.ExperimentConfig:
    short = TrainConfig(optimizer=Adam(lr=0.01), epochs=3)
    arms = (
        harness.Arm("vanilla", Vanilla(), short),
        harness.Arm("adaptive", Adaptive(1.0), short),
        harness.Arm(
            "focal", Focal(2.0), TrainConfig(optimizer=SGD(0.1, momentum=0.9), epochs=3, sampler=UnderSampler(2.0))
        ),
        harness.Arm("diverging", Vanilla(), TrainConfig(optimizer=SGD(1e308), epochs=3)),
    )
    return harness.ExperimentConfig(
        source, arms, model, n_seeds=2, best_k=1, beta_sweep=(0.5, 2.0), grid={"focal": {"gamma": (1.0, 3.0)}}
    )


EXPERIMENTS = {
    "linear": _experiment(
        SyntheticSource(GeneratorConfig(n=1500, d=10, k=4, positive_rate=0.1, seed=3), n_dev=300, n_test=300),
        harness.ModelConfig(),
    ),
    "mlp": _experiment(
        FileSource("data/train.csv", "data/dev.jsonl", "data/test.csv"), harness.ModelConfig(16, "relu")
    ),
}


def _commands() -> list[list[str]]:
    commands = [
        ["generate", "--out", "data/train.csv", "--n", "1500", "--positive-rate", "0.2", *_GENERATOR],
        ["generate", "--out", "data/dev.jsonl", "--n", "300", "--positive-rate", "0.2", *_GENERATOR],
        # one seed gives the splits one cluster layout; a rarer positive class tells test from dev
        ["generate", "--out", "data/test.csv", "--n", "300", "--positive-rate", "0.15", *_GENERATOR],
    ]
    for name in EXPERIMENTS:
        for workers in ("1", "2"):
            for protocol in ("compare", "sweep", "grid"):
                arm = ["--arm", "focal"] if protocol == "grid" else []
                out = f"{name}/{protocol}_w{workers}"
                commands.append([protocol, "--config", f"{name}.json", *arm, "--out", out, "--workers", workers])
    commands += [
        ["train", "--config", "mlp.json", "--arm", "adaptive", "--out", "train/run.json", "--save-model", "train/model.json"],
        ["eval", "--model", "train/model.json", "--data", "data/test.csv", "--out", "train/eval.json"],
    ]
    return commands


def _run(argv: list[str]) -> dict:
    """``adascale <argv>`` in-process: its exit status, stdout, stderr and warnings."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def blas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def build(directory) -> dict:
    """Run the set in ``directory`` (made empty or new) and return its manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for path in ("data", "train", "schemas"):
            Path(path).mkdir()
        for name, config in EXPERIMENTS.items():
            configio.write_json(harness.experiment_to_json(config), f"{name}.json")
        commands = [_run(argv) for argv in _commands()]
        harness.write_schemas("schemas")
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files[path.relative_to(directory).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}
    return {"numpy": np.__version__, "blas": blas_version(), "commands": commands, "files": files}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per file whose hash or size differs, is missing or is new, and per command whose output differs."""
    lines = []
    old, new = expected["files"], actual["files"]
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"{path}: missing")
        elif path not in old:
            lines.append(f"{path}: new file")
        elif old[path] != new[path]:
            lines.append(f"{path}: size {old[path]['size']} -> {new[path]['size']}, sha256 differs")
    old_runs = {tuple(c["argv"]): c for c in expected["commands"]}
    ran = {tuple(c["argv"]) for c in actual["commands"]}
    lines += [f"adascale {' '.join(argv)}: not run" for argv in old_runs if argv not in ran]
    for command in actual["commands"]:
        recorded = old_runs.get(tuple(command["argv"]))
        if recorded != command:
            what = "not in the manifest" if recorded is None else ", ".join(
                key for key in ("exit", "stdout", "stderr", "warnings") if recorded[key] != command[key]
            )
            lines.append(f"adascale {' '.join(command['argv'])}: {what}")
    return lines
