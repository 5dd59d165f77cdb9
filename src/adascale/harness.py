"""Experiment orchestration: multi-seed comparisons, beta sweeps, grid search.

Protocol: every arm trains once per seed (all arms share the same seed
list, so comparisons are paired), every run is persisted as JSON before
any aggregate is computed, and aggregates are recomputable from the
persisted files alone (:func:`reaggregate`).  Each protocol only plans its
``(arm name, TrainConfig)`` runs; one pipeline (:func:`_execute`) trains
and persists them all.

Reported variance follows the percentage-point convention: test F is
expressed on a 0..100 scale, so the reported Var is 1e4 times the raw
variance of F in [0, 1].  Both values are stored.  The Best-k statistic
ranks runs by dev F and reports the highest test F among the top k.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import jsonschema
import numpy as np

from . import configio
from .data import Config, Dataset, DatasetSource, FileSource, SyntheticSource, bound, generate, load
from .losses import Adaptive, LossStrategy
from .model import ACTIVATIONS, ModelSpec
from .trainer import RunReport, TrainConfig, evaluate, report_to_dict, train, write_run_report

__all__ = [
    "Arm",
    "ModelConfig",
    "SyntheticSource",
    "FileSource",
    "DatasetSource",
    "ExperimentConfig",
    "ArmSummary",
    "ComparisonReport",
    "SweepRow",
    "SweepReport",
    "GridCell",
    "GridResult",
    "InputError",
    "best_k_test_score",
    "load_datasets",
    "run_experiment",
    "beta_sweep",
    "grid_search",
    "reaggregate",
    "experiment_from_json",
    "experiment_to_json",
    "experiment_schema",
]

VAR_PCT_SCALE = 1e4  # variance of 100*F equals 1e4 * variance of F


class InputError(ValueError):
    """A config, dataset or checkpoint that cannot be used as given.

    The ``adascale`` command prints one as a single line and exits 2; to any
    other caller it is an ordinary ``ValueError``.
    """


@contextmanager
def _reading():
    """Re-raise a ``ValueError`` or schema error of the block as an :class:`InputError`."""
    try:
        yield
    except jsonschema.ValidationError as error:
        raise InputError(f"{error.json_path}: {error.message}") from error
    except ValueError as error:
        raise InputError(str(error)) from error


@dataclass(frozen=True)
class ModelConfig(Config):
    """Architecture knobs; input width and class count come from the data."""

    hidden_dim: int | None = bound(None, minimum=1)
    activation: str = bound("tanh", enum=ACTIVATIONS)


@dataclass(frozen=True)
class Arm(Config):
    """One system under comparison: a loss strategy plus its training config."""

    name: str = bound(minLength=1)
    strategy: LossStrategy
    train: TrainConfig = TrainConfig()


@dataclass(frozen=True)
class ExperimentConfig(Config):
    source: DatasetSource
    arms: tuple[Arm, ...] = bound(minItems=1)
    model: ModelConfig = ModelConfig()
    n_seeds: int = bound(10, minimum=1)
    best_k: int = bound(3, minimum=1)
    base_seed: int = bound(0, minimum=0)
    beta_sweep: tuple[float, ...] | None = bound(None, items={"exclusiveMinimum": 0})
    grid: dict[str, dict[str, tuple]] | None = None
    output_dir: str = "out"
    workers: int = bound(1, minimum=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.best_k > self.n_seeds:
            raise ValueError(f"best_k must be <= n_seeds, got {self.best_k} > {self.n_seeds}")
        if len({arm.name for arm in self.arms}) != len(self.arms):
            raise ValueError("arm names must be unique")


@dataclass
class ArmSummary:
    name: str
    n_runs: int
    n_valid: int
    mean_test_f: float | None
    var_test_f: float | None
    var_test_f_pct: float | None
    best3_test_f: float | None
    invalid_seeds: list[int]
    runs: list[dict]


@dataclass
class ComparisonReport:
    n_seeds: int
    best_k: int
    base_seed: int
    arms: list[ArmSummary]

    def to_dict(self) -> dict:
        return {"format": "comparison-report", "version": 1, **configio.to_json(self)}


@dataclass
class SweepRow:
    beta: float
    n_valid: int
    mean_precision: float | None
    mean_recall: float | None
    mean_f1: float | None
    std_precision: float | None
    std_recall: float | None
    std_f1: float | None


@dataclass
class SweepReport:
    n_seeds: int
    base_seed: int
    rows: list[SweepRow]

    def to_dict(self) -> dict:
        return {"format": "sweep-report", "version": 1, **configio.to_json(self)}


@dataclass
class GridCell:
    params: dict
    mean_dev_f: float | None
    n_valid: int
    test_f: list[float]


@dataclass
class GridResult:
    arm: str
    best_index: int
    best_params: dict
    cells: list[GridCell]

    def to_dict(self) -> dict:
        return {"format": "grid-report", "version": 1, **configio.to_json(self)}


def best_k_test_score(dev_scores, test_scores, k: int) -> float:
    """Best test score among the k runs with the highest dev scores.

    Ranking ties keep the earlier run.  k is capped at the number of runs.
    """
    dev = list(dev_scores)
    test = list(test_scores)
    if len(dev) != len(test) or not dev:
        raise ValueError("dev and test score lists must be non-empty and equal length")
    order = sorted(range(len(dev)), key=lambda i: (-dev[i], i))
    top = order[: max(1, min(k, len(order)))]
    return max(test[i] for i in top)


def load_datasets(source: DatasetSource) -> tuple[Dataset, Dataset, Dataset]:
    if isinstance(source, SyntheticSource):
        gen = source.generator
        pool = generate(replace(gen, n=gen.n + source.n_dev + source.n_test))
        bounds = (gen.n, gen.n + source.n_dev, pool.n)
        return (
            Dataset(pool.features[: bounds[0]], pool.labels[: bounds[0]], pool.k),
            Dataset(pool.features[bounds[0] : bounds[1]], pool.labels[bounds[0] : bounds[1]], pool.k),
            Dataset(pool.features[bounds[1] :], pool.labels[bounds[1] :], pool.k),
        )
    with _reading():
        splits = [load(path, source.format) for path in (source.train, source.dev, source.test)]
    # a split may lack the top class, so k is the largest over all three
    k = max(ds.k for ds in splits)
    return tuple(ds if ds.k == k else Dataset(ds.features, ds.labels, k) for ds in splits)


def _build_spec(model: ModelConfig, dataset: Dataset) -> ModelSpec:
    return ModelSpec(
        input_dim=dataset.d,
        n_classes=dataset.k,
        hidden_dim=model.hidden_dim,
        activation=model.activation,
    )


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+=-]", "-", name)


def _execute_run(task, datasets) -> tuple[RunReport, tuple[float, float, float]]:
    spec, config, arm_name = task
    train_ds, dev_ds, test_ds = datasets
    params, report = train(train_ds, dev_ds, test_ds, spec, config)
    report.arm = arm_name
    extras = evaluate(params, test_ds, 1.0) if report.valid else (0.0, 0.0, 0.0)
    return report, extras


# set only inside a pool worker, by _init_worker
_worker_datasets: tuple[Dataset, Dataset, Dataset] | None = None


def _init_worker(datasets) -> None:
    global _worker_datasets
    _worker_datasets = datasets


def _execute_in_worker(task):
    return _execute_run(task, _worker_datasets)


def _run_all(tasks, workers: int, datasets):
    """Results of ``(spec, config, arm name)`` tasks on the shared datasets, in task order.

    A pool hands the datasets to each worker once, through its initializer,
    so a task carries only its own config.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_execute_run(t, datasets) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(datasets,)) as pool:
        return list(pool.map(_execute_in_worker, tasks))


def _run_file(arm_name: str, seed: int) -> str:
    return f"run_{_safe_name(arm_name)}_{seed}.json"


def _persist(report: RunReport, out_dir: Path) -> None:
    write_run_report(report, out_dir / _run_file(report.arm, report.seed))
    configio.validate_run_report(report_to_dict(report))


def _seed_runs(
    config: ExperimentConfig, arm_name: str, train_config: TrainConfig
) -> list[tuple[str, TrainConfig]]:
    """One ``(arm name, TrainConfig)`` run per seed of the shared seed list."""
    return [(arm_name, replace(train_config, seed=config.base_seed + s)) for s in range(config.n_seeds)]


def _execute(config: ExperimentConfig, runs: list[tuple[str, TrainConfig]]) -> tuple[list, Path]:
    """Train the planned ``(arm name, TrainConfig)`` runs and persist every report.

    Runs whose reports would share a file are rejected before any training.
    Results come back in plan order, so each protocol reads its arms, betas
    or cells as consecutive blocks of ``n_seeds``.
    """
    files: dict[str, str] = {}
    for arm_name, train_config in runs:
        file = _run_file(arm_name, train_config.seed)
        if file in files:
            raise InputError(f"arms {files[file]!r} and {arm_name!r} both write {file}")
        files[file] = arm_name
    datasets = load_datasets(config.source)
    spec = _build_spec(config.model, datasets[0])
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(spec, train_config, arm_name) for arm_name, train_config in runs]
    results = _run_all(tasks, config.workers, datasets)
    for report, _ in results:
        _persist(report, out_dir)
    return results, out_dir


def _blocks(results: list, size: int) -> list[list]:
    return [results[i : i + size] for i in range(0, len(results), size)]


def _summarize_arm(name: str, reports: list[RunReport], best_k: int) -> ArmSummary:
    reports = sorted(reports, key=lambda r: r.seed)
    valid = [r for r in reports if r.valid]
    rows = [
        {
            "seed": r.seed,
            "best_dev_f": r.best_dev_f,
            "test_precision": r.test_precision,
            "test_recall": r.test_recall,
            "test_f": r.test_f,
            "valid": r.valid,
        }
        for r in reports
    ]
    if valid:
        test_f = np.array([r.test_f for r in valid])
        mean = float(np.mean(test_f))
        var = float(np.var(test_f))
        best = best_k_test_score([r.best_dev_f for r in valid], [r.test_f for r in valid], best_k)
        var_pct = var * VAR_PCT_SCALE
    else:
        mean = var = var_pct = best = None
    return ArmSummary(
        name=name,
        n_runs=len(reports),
        n_valid=len(valid),
        mean_test_f=mean,
        var_test_f=var,
        var_test_f_pct=var_pct,
        best3_test_f=best,
        invalid_seeds=[r.seed for r in reports if not r.valid],
        runs=rows,
    )


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Numbers as ``:.6f``, ``None`` as an empty cell, text as it is."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                ["" if v is None else v if isinstance(v, str) else f"{v:.6f}" for v in row]
            )


def run_experiment(config: ExperimentConfig) -> ComparisonReport:
    """Train every arm over the shared seed list and aggregate test F.

    Per-run JSON files land in ``output_dir`` before aggregation starts;
    invalid (aborted) runs are excluded from aggregates and listed in the
    arm summary.  Writes ``comparison.csv`` and ``comparison.json``.
    """
    runs = []
    for arm in config.arms:
        runs += _seed_runs(config, arm.name, replace(arm.train, strategy=arm.strategy))
    results, out_dir = _execute(config, runs)
    report = ComparisonReport(
        n_seeds=config.n_seeds,
        best_k=config.best_k,
        base_seed=config.base_seed,
        arms=[
            _summarize_arm(arm.name, [r for r, _ in block], config.best_k)
            for arm, block in zip(config.arms, _blocks(results, config.n_seeds))
        ],
    )
    doc = report.to_dict()
    configio.validate_comparison_report(doc)
    configio.write_json(doc, out_dir / "comparison.json")
    # table-style scale: mean/best3 as percentage points, var on the same scale
    rows = [
        [arm.name, None, None, None]
        if arm.mean_test_f is None
        else [arm.name, 100.0 * arm.mean_test_f, arm.var_test_f_pct, 100.0 * arm.best3_test_f]
        for arm in report.arms
    ]
    _write_csv(out_dir / "comparison.csv", ["arm", "mean", "var", "best3"], rows)
    return report


def beta_sweep(config: ExperimentConfig) -> SweepReport:
    """Train the adaptive strategy at each beta in ``config.beta_sweep``.

    Dev-set model selection uses F at the matching beta; reported test
    metrics are precision, recall and F1 so rows are comparable across
    betas.  Writes ``sweep.csv`` (one row per beta, means plus population
    stddevs) and ``sweep.json``.
    """
    if not config.beta_sweep:
        raise InputError("config.beta_sweep must be a non-empty list")
    template = next((arm for arm in config.arms if isinstance(arm.strategy, Adaptive)), None)
    if template is None:
        raise InputError("beta sweep requires an adaptive arm in the experiment config")

    runs = []
    for beta in config.beta_sweep:
        train_config = replace(template.train, strategy=Adaptive(beta=beta), eval_beta=beta)
        runs += _seed_runs(config, f"adaptive_beta{beta:g}", train_config)
    results, out_dir = _execute(config, runs)
    stat_names = [f.name for f in fields(SweepRow)][2:]
    rows: list[SweepRow] = []
    for beta, block in zip(config.beta_sweep, _blocks(results, config.n_seeds)):
        per_seed = [extras for report, extras in block if report.valid]
        # SweepRow's field order: three means, then three stddevs, each over one 1-D column
        columns = [np.array(column) for column in zip(*per_seed)]
        stats = [float(np.mean(c)) for c in columns] + [float(np.std(c)) for c in columns]
        rows.append(SweepRow(float(beta), len(per_seed), *(stats or [None] * len(stat_names))))

    report = SweepReport(n_seeds=config.n_seeds, base_seed=config.base_seed, rows=rows)
    doc = report.to_dict()
    configio.validate_sweep_report(doc)
    configio.write_json(doc, out_dir / "sweep.json")
    _write_csv(
        out_dir / "sweep.csv",
        ["beta", *stat_names],
        [[f"{row.beta:g}", *(getattr(row, name) for name in stat_names)] for row in rows],
    )
    return report


def _apply_cell(arm: Arm, cell: dict) -> Arm:
    """The arm with each grid value, read as its field's type, set on its strategy or sampler."""
    strategy, sampler = arm.strategy, arm.train.sampler
    strategy_hints, sampler_hints = get_type_hints(type(strategy)), get_type_hints(type(sampler))
    for key, value in cell.items():
        if key not in strategy_hints and key not in sampler_hints:
            raise InputError(
                f"grid parameter {key!r} matches neither the strategy nor the sampler of arm {arm.name!r}"
            )
        try:
            if key in strategy_hints:
                strategy = replace(strategy, **{key: configio.from_json(strategy_hints[key], value)})
            else:
                sampler = replace(sampler, **{key: configio.from_json(sampler_hints[key], value)})
        except ValueError as error:
            raise InputError(f"grid parameter {key!r} of arm {arm.name!r}: {error}") from None
    return Arm(name=arm.name, strategy=strategy, train=replace(arm.train, sampler=sampler))


def grid_search(arm: Arm, grid: dict, config: ExperimentConfig) -> GridResult:
    """Exhaustive search over a per-arm hyper-parameter grid.

    Grid keys name fields of the arm's strategy or of its sampler; cells
    are the cartesian product in declared order.  Each cell is scored by
    mean dev F over the shared seed list; ties keep the first-declared
    cell.  An empty grid means the arm has nothing to tune and evaluates
    as a single cell.  Writes ``grid_<arm>.json``.
    """
    names = list(grid.keys())
    cells = [dict(zip(names, combo)) for combo in itertools.product(*(grid[n] for n in names))]
    if not cells:
        raise InputError("grid value lists must be non-empty")

    runs = []
    for cell in cells:
        cell_arm = _apply_cell(arm, cell)
        label = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in cell.items())
        arm_name = f"{arm.name}#{label}" if label else arm.name
        runs += _seed_runs(config, arm_name, replace(cell_arm.train, strategy=cell_arm.strategy))
    results, out_dir = _execute(config, runs)

    grid_cells: list[GridCell] = []
    for cell, block in zip(cells, _blocks(results, config.n_seeds)):
        valid = [r for r, _ in block if r.valid]
        grid_cells.append(
            GridCell(
                params=cell,
                mean_dev_f=float(np.mean([r.best_dev_f for r in valid])) if valid else None,
                n_valid=len(valid),
                test_f=[r.test_f for r in valid],
            )
        )

    # a cell without valid runs scores below any dev F; ties keep the first-declared cell
    scores = [-1.0 if c.mean_dev_f is None else c.mean_dev_f for c in grid_cells]
    best_index = max(range(len(scores)), key=lambda i: (scores[i], -i))

    grid_result = GridResult(
        arm=arm.name,
        best_index=best_index,
        best_params=grid_cells[best_index].params,
        cells=grid_cells,
    )
    doc = grid_result.to_dict()
    configio.validate_grid_report(doc)
    configio.write_json(doc, out_dir / f"grid_{_safe_name(arm.name)}.json")
    return grid_result


def reaggregate(run_dir, best_k: int = 3) -> dict[str, ArmSummary]:
    """Rebuild per-arm aggregates from persisted run files alone.

    Independent of in-memory state: reads every ``run_*.json`` under
    ``run_dir``, groups by the embedded arm name and recomputes
    mean/var/best-k exactly as :func:`run_experiment` does.  Every file is
    checked against the run-report schema first; a file that fails raises
    a ``ValueError`` naming it.
    """
    run_dir = Path(run_dir)
    by_arm: dict[str, list[RunReport]] = {}
    for path in sorted(run_dir.glob("run_*.json")):
        doc = json.loads(path.read_text())
        try:
            configio.validate_run_report(doc)
        except jsonschema.ValidationError as error:
            raise ValueError(f"{path}: not a valid run report: {error.message}") from error
        report = RunReport(**doc)
        by_arm.setdefault(report.arm, []).append(report)
    return {name: _summarize_arm(name, reports, best_k) for name, reports in by_arm.items()}


def experiment_from_json(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON document.

    An arm's optional "train" block is a shallow override of the top-level
    "train" defaults (nested optimizer/sampler objects replace, not merge).
    """
    configio.validate_experiment_config(doc)
    base_train = doc.get("train", {})
    body = {key: value for key, value in doc.items() if key not in ("dataset", "train")}
    body["source"] = doc["dataset"]
    body["arms"] = [{**arm, "train": {**base_train, **arm.get("train", {})}} for arm in doc["arms"]]
    return configio.from_json(ExperimentConfig, body)


def experiment_to_json(config: ExperimentConfig) -> dict:
    doc = configio.to_json(config)
    doc["dataset"] = doc.pop("source")
    # an experiment without a sweep or a grid leaves the key out
    return {key: value for key, value in doc.items() if value is not None}


def experiment_schema() -> dict:
    """``configio.schema(ExperimentConfig)`` in the layout ``experiment_from_json``
    reads; ``schemas/experiment_config.schema.json`` is its output."""
    doc = configio.schema(ExperimentConfig)
    properties = doc["properties"]
    properties["dataset"] = properties.pop("source")
    # the defaults that each arm's "train" block overrides key by key
    properties["train"] = configio.schema(TrainConfig)
    doc["required"] = ["dataset" if name == "source" else name for name in doc["required"]]
    # a sweep or a grid is left out, never null; a grid's values are numbers,
    # each read as its strategy or sampler field's type when the grid runs
    properties["beta_sweep"]["type"] = "array"
    properties["grid"]["type"] = "object"
    properties["grid"]["additionalProperties"]["additionalProperties"]["items"] = {"type": "number"}
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", "$id": "adascale/experiment_config",
            "title": "Experiment configuration", **doc}
