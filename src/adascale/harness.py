"""Experiment orchestration: multi-seed comparisons, beta sweeps, grid search.

Protocol: each protocol only plans its arms, one :class:`Arm` per compared
system, beta or grid cell.  One pipeline (:func:`_execute`) trains every arm
once per seed (all arms share the same seed list, so comparisons are
paired) and persists every run as JSON before any aggregate is computed.

Every aggregate is a function of the run files alone.

Reported variance follows the percentage-point convention: test F is
expressed on a 0..100 scale, so the reported Var is 1e4 times the raw
variance of F in [0, 1].  Both values are stored.  The Best-k statistic
ranks runs by dev F and reports the highest test F among the top k.
"""

from __future__ import annotations

import csv
import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import configio
from .configio import SCORE, Config, bound
from .data import Dataset, DatasetSource, FileSource, SyntheticSource, generate, load
from .losses import Adaptive, LossStrategy
from .metrics import f_beta, precision, recall
from .model import ACTIVATIONS, ModelParams, ModelSpec
from .trainer import RunReport, TrainConfig, evaluate, report_to_dict, train, write_run_report

__all__ = [
    "Arm",
    "ModelConfig",
    "SyntheticSource",
    "FileSource",
    "DatasetSource",
    "ExperimentConfig",
    "RunSummary",
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
    "write_schemas",
]

VAR_PCT_SCALE = 1e4  # variance of 100*F equals 1e4 * variance of F


class InputError(ValueError):
    """A config, dataset or checkpoint that cannot be used as given.

    The ``adascale`` command prints one as a single line and exits 2; to any
    other caller it is an ordinary ``ValueError``.
    """


@contextmanager
def _reading():
    """Re-raise a ``ValueError`` of the block as an :class:`InputError`."""
    try:
        yield
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
    beta_sweep: tuple[float, ...] = bound((), items={"exclusiveMinimum": 0})
    grid: dict[str, dict[str, tuple[float, ...]]] = field(default_factory=dict)
    output_dir: str = "out"
    workers: int = bound(1, minimum=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.best_k > self.n_seeds:
            raise ValueError(f"ExperimentConfig.best_k must be <= n_seeds, got {self.best_k} > {self.n_seeds}")
        names = {arm.name for arm in self.arms}
        if len(names) != len(self.arms):
            raise ValueError("ExperimentConfig.arms: arm names must be unique")
        for name in self.grid:
            if name not in names:
                raise ValueError(f"ExperimentConfig.grid: no arm named {name!r}")


@dataclass
class RunSummary(Config):
    seed: int
    best_dev_f: float = bound(**SCORE)
    test_precision: float = bound(**SCORE)
    test_recall: float = bound(**SCORE)
    test_f: float = bound(**SCORE)
    valid: bool


@dataclass
class ArmSummary(Config):
    name: str
    n_runs: int = bound(minimum=0)
    n_valid: int = bound(minimum=0)
    mean_test_f: float | None = bound(**SCORE)
    var_test_f: float | None = bound(minimum=0)
    var_test_f_pct: float | None = bound(minimum=0)
    best3_test_f: float | None = bound(**SCORE)
    invalid_seeds: list[int]
    runs: list[RunSummary]


@dataclass
class ComparisonReport(Config):
    format: ClassVar[str] = "comparison-report"
    version: ClassVar[int] = 1
    n_seeds: int = bound(minimum=1)
    best_k: int = bound(minimum=1)
    base_seed: int
    arms: list[ArmSummary]


@dataclass
class SweepRow(Config):
    beta: float = bound(exclusiveMinimum=0)
    n_valid: int = bound(minimum=0)
    mean_precision: float | None = bound(**SCORE)
    mean_recall: float | None = bound(**SCORE)
    mean_f1: float | None = bound(**SCORE)
    std_precision: float | None = bound(minimum=0)
    std_recall: float | None = bound(minimum=0)
    std_f1: float | None = bound(minimum=0)


@dataclass
class SweepReport(Config):
    format: ClassVar[str] = "sweep-report"
    version: ClassVar[int] = 1
    n_seeds: int = bound(minimum=1)
    base_seed: int
    rows: list[SweepRow]


@dataclass
class GridCell(Config):
    params: dict[str, float]
    mean_dev_f: float | None = bound(**SCORE)
    n_valid: int = bound(minimum=0)
    test_f: list[float] = bound(items=SCORE)


@dataclass
class GridResult(Config):
    format: ClassVar[str] = "grid-report"
    version: ClassVar[int] = 1
    arm: str
    best_index: int = bound(minimum=0)
    best_params: dict[str, float]
    cells: list[GridCell] = bound(minItems=1)


def _check_best_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"best_k must be an int >= 1, got {k!r}")


def best_k_test_score(dev_scores, test_scores, k: int) -> float:
    """Best test score among the k runs with the highest dev scores.

    Ranking ties keep the earlier run.  k, an int >= 1, is capped at the number of runs.
    """
    _check_best_k(k)
    dev = list(dev_scores)
    test = list(test_scores)
    if len(dev) != len(test) or not dev:
        raise ValueError("dev and test score lists must be non-empty and equal length")
    order = sorted(range(len(dev)), key=lambda i: (-dev[i], i))
    top = order[:k]
    return max(test[i] for i in top)


def load_datasets(source: DatasetSource) -> tuple[Dataset, Dataset, Dataset]:
    if isinstance(source, SyntheticSource):
        gen = source.generator
        pool = generate(replace(gen, n=gen.n + source.n_dev + source.n_test))
        cuts = (0, gen.n, gen.n + source.n_dev, pool.n)
        return tuple(Dataset(pool.features[a:b], pool.labels[a:b], pool.k) for a, b in itertools.pairwise(cuts))
    with _reading():
        splits = [load(path, source.format) for path in (source.train, source.dev, source.test)]
    for path, ds in ((source.dev, splits[1]), (source.test, splits[2])):
        if ds.d != splits[0].d:
            raise InputError(f"{path}: {ds.d} features, but the train split {source.train} has {splits[0].d}")
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


def _execute_run(task, datasets) -> tuple[RunReport, ModelParams]:
    """The report, labelled with its arm, and the best-dev parameters of one
    ``(spec, config, arm name)`` task: the package's one call of :func:`train`."""
    spec, config, arm_name = task
    params, report = train(*datasets, spec, config)
    report.arm = arm_name
    # evaluate stays imported because perfbench wraps it here (ROADMAP item 1)
    return report, params


# set only inside a pool worker, by _init_worker
_worker_datasets: tuple[Dataset, Dataset, Dataset] | None = None


def _init_worker(datasets) -> None:
    global _worker_datasets
    _worker_datasets = datasets


def _execute_in_worker(task):
    return _execute_run(task, _worker_datasets)[0], None


def _run_all(tasks, workers: int, datasets):
    """The ``(report, params)`` of each ``(spec, config, arm name)`` task on the shared datasets, in task order.

    A pool hands the datasets to each worker once, through its initializer,
    so a task carries only its own config.  A protocol keeps only the reports,
    so a worker returns ``(report, None)`` and pickles no parameters back.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_execute_run(t, datasets) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(workers, len(tasks)), initializer=_init_worker, initargs=(datasets,)) as pool:
        return list(pool.map(_execute_in_worker, tasks))


def _run_file(arm_name: str, seed: int) -> str:
    return f"run_{_safe_name(arm_name)}_{seed}.json"


def _persist(report: RunReport, path: Path) -> None:
    configio.validate_run_report(RunReport, report_to_dict(report))
    write_run_report(report, path)


def _run_config(arm: Arm, seed: int) -> TrainConfig:
    return replace(arm.train, strategy=arm.strategy, seed=seed)


def _execute(config: ExperimentConfig, arms) -> tuple[list[list[RunReport]], Path]:
    """Train each arm at every seed of the shared seed list and persist every report.

    Arms whose reports would share a file are rejected before any training.
    Returns each arm's block of reports, in seed order.
    """
    seeds = range(config.base_seed, config.base_seed + config.n_seeds)
    files: dict[str, str] = {}
    for arm in arms:
        # a run file's name ends in its seed, so two arms share the files of every seed or of none
        file = _run_file(arm.name, seeds[0])
        if file in files:
            raise InputError(f"arms {files[file]!r} and {arm.name!r} both write {file}")
        files[file] = arm.name
    datasets = load_datasets(config.source)
    spec = _build_spec(config.model, datasets[0])
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(spec, _run_config(arm, seed), arm.name) for arm in arms for seed in seeds]
    reports = [report for report, _ in _run_all(tasks, config.workers, datasets)]
    for report in reports:
        _persist(report, out_dir / _run_file(report.arm, report.seed))
    return [reports[i : i + len(seeds)] for i in range(0, len(reports), len(seeds))], out_dir


def _summarize_arm(name: str, reports: list[RunReport], best_k: int) -> ArmSummary:
    reports = sorted(reports, key=lambda r: r.seed)
    valid = [r for r in reports if r.valid]
    if valid:
        test_f = np.array([r.test_f for r in valid])
        mean = float(np.mean(test_f))
        var = float(np.var(test_f))
        best = best_k_test_score([r.best_dev_f for r in valid], [r.test_f for r in valid], best_k)
        var_pct = var * VAR_PCT_SCALE
    else:
        mean = var = var_pct = best = None
    invalid = [r.seed for r in reports if not r.valid]
    runs = [
        RunSummary(r.seed, r.best_dev_f, r.test_precision, r.test_recall, r.test_f, r.valid) for r in reports
    ]
    return ArmSummary(name, len(reports), len(valid), mean, var, var_pct, best, invalid, runs)


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
    blocks, out_dir = _execute(config, config.arms)
    arms = [_summarize_arm(a.name, block, config.best_k) for a, block in zip(config.arms, blocks)]
    report = ComparisonReport(config.n_seeds, config.best_k, config.base_seed, arms)
    configio.write_json(configio.to_json(report), out_dir / "comparison.json")
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
    metrics are precision, recall and F1, from each run's test counts, so
    rows are comparable across betas.  Writes ``sweep.csv`` (one row per
    beta, means plus population stddevs) and ``sweep.json``.
    """
    if not config.beta_sweep:
        raise InputError("config.beta_sweep must be a non-empty list")
    template = next((arm for arm in config.arms if isinstance(arm.strategy, Adaptive)), None)
    if template is None:
        raise InputError("beta sweep requires an adaptive arm in the experiment config")

    arms = [
        Arm(f"adaptive_beta{beta:g}", Adaptive(beta), replace(template.train, eval_beta=beta))
        for beta in config.beta_sweep
    ]
    blocks, out_dir = _execute(config, arms)
    stat_names = [f.name for f in fields(SweepRow)][2:]
    rows: list[SweepRow] = []
    for beta, block in zip(config.beta_sweep, blocks):
        counts = [report.test_counts for report in block if report.valid]
        per_seed = [(precision(c), recall(c), f_beta(c, 1.0)) for c in counts]
        # SweepRow's field order: three means, then three stddevs, each over one 1-D column
        columns = [np.array(column) for column in zip(*per_seed)]
        stats = [float(np.mean(c)) for c in columns] + [float(np.std(c)) for c in columns]
        rows.append(SweepRow(float(beta), len(per_seed), *(stats or [None] * len(stat_names))))

    report = SweepReport(n_seeds=config.n_seeds, base_seed=config.base_seed, rows=rows)
    configio.write_json(configio.to_json(report), out_dir / "sweep.json")
    _write_csv(
        out_dir / "sweep.csv",
        ["beta", *stat_names],
        [[f"{row.beta:g}", *(getattr(row, name) for name in stat_names)] for row in rows],
    )
    return report


def _apply_cell(arm: Arm, cell: dict) -> Arm:
    """The cell's arm, named by its values, each set on the arm's strategy or sampler for the codec to read."""
    parts = (arm.strategy, arm.train.sampler)
    docs = [configio.to_json(part) for part in parts]
    for key, value in cell.items():
        # a union member's "kind" tag is a class variable, not a field a grid can set
        doc = next((doc for doc in docs if key in doc and key != "kind"), None)
        if doc is None:
            raise InputError(
                f"grid parameter {key!r} matches neither the strategy nor the sampler of arm {arm.name!r}"
            )
        doc[key] = value
    try:
        strategy, sampler = (configio.from_json(type(part), doc) for part, doc in zip(parts, docs))
    except ValueError as error:
        raise InputError(f"grid of arm {arm.name!r}: {error}") from None
    label = ",".join(f"{key}={value:g}" for key, value in cell.items())
    return Arm(f"{arm.name}#{label}" if label else arm.name, strategy, replace(arm.train, sampler=sampler))


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

    blocks, out_dir = _execute(config, [_apply_cell(arm, cell) for cell in cells])

    grid_cells: list[GridCell] = []
    for cell, block in zip(cells, blocks):
        valid = [r for r in block if r.valid]
        mean_dev_f = float(np.mean([r.best_dev_f for r in valid])) if valid else None
        grid_cells.append(GridCell(cell, mean_dev_f, len(valid), [r.test_f for r in valid]))

    # a cell without valid runs scores below any dev F; ties keep the first-declared cell
    scores = [-1.0 if c.mean_dev_f is None else c.mean_dev_f for c in grid_cells]
    best_index = max(range(len(scores)), key=lambda i: (scores[i], -i))

    grid_result = GridResult(arm.name, best_index, grid_cells[best_index].params, grid_cells)
    configio.write_json(configio.to_json(grid_result), out_dir / f"grid_{_safe_name(arm.name)}.json")
    return grid_result


def reaggregate(run_dir, best_k: int = 3) -> dict[str, ArmSummary]:
    """Rebuild per-arm aggregates from persisted run files alone.

    Independent of in-memory state: reads every ``run_*.json`` under
    ``run_dir``, groups by the embedded arm name and recomputes
    mean/var/best-k exactly as :func:`run_experiment` does, with the config's
    ``best_k`` to reproduce ``comparison.json``.  Every file must decode as a
    complete :class:`RunReport` of its format and version; one that fails raises
    a ``ValueError`` naming it, and so does a ``run_dir`` with no run file, or no such directory.
    """
    _check_best_k(best_k)
    run_dir = Path(run_dir)
    paths = sorted(run_dir.glob("run_*.json"))
    if not paths:
        raise ValueError(f"{run_dir}: no run_*.json files")
    by_arm: dict[str, list[RunReport]] = {}
    for path in paths:
        doc = configio.read_json(path)
        try:
            report = configio.validate_run_report(RunReport, doc)
        except ValueError as error:
            raise ValueError(f"{path}: not a valid run report: {error}") from None
        by_arm.setdefault(report.arm, []).append(report)
    return {name: _summarize_arm(name, reports, best_k) for name, reports in by_arm.items()}


def experiment_from_json(doc) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON document, an object whose "dataset" is the source.

    An arm's optional "train" block is a shallow override of the top-level
    "train" defaults (nested optimizer/sampler objects replace, not merge),
    so an error in the defaults is reported at the first arm, and at
    "train" itself when every arm overrides the key at fault.
    """
    if not isinstance(doc, dict) or "dataset" not in doc or "source" in doc:
        raise ValueError('ExperimentConfig: expected an object with a "dataset" and no "source"')
    defaults = doc.get("train", {})
    body = {key: value for key, value in doc.items() if key not in ("dataset", "train")}
    body["source"] = doc["dataset"]
    if isinstance(body.get("arms"), list) and isinstance(defaults, dict):
        # an arm or a "train" block that is no object is left to the codec to reject
        body["arms"] = [
            {**arm, "train": {**defaults, **arm.get("train", {})}}
            if isinstance(arm, dict) and isinstance(arm.get("train", {}), dict) else arm
            for arm in body["arms"]
        ]
    try:
        config = configio.from_json(ExperimentConfig, body)
    except ValueError as error:
        # an error in the source names the key the file spells
        text = str(error)
        if not text.startswith("ExperimentConfig.source:"):
            raise
        raise ValueError(text.replace("source", "dataset", 1)) from None
    try:
        configio.from_json(TrainConfig, defaults)
    except ValueError as error:
        raise ValueError(f"ExperimentConfig.train: {error}") from None
    return config


def experiment_to_json(config: ExperimentConfig) -> dict:
    return {"dataset" if key == "source" else key: value for key, value in configio.to_json(config).items()}


def experiment_schema() -> dict:
    """``configio.schema(ExperimentConfig)`` in the layout ``experiment_from_json`` reads."""
    doc = configio.schema(ExperimentConfig)
    properties = doc["properties"]
    properties["dataset"] = properties.pop("source")
    properties["train"] = configio.schema(TrainConfig)
    doc["required"] = ["dataset" if name == "source" else name for name in doc["required"]]
    return doc


def write_schemas(directory) -> None:
    """Write every schema the package ships, ``schemas/<name>.schema.json``, into ``directory``."""
    for name, title, doc in (
        ("experiment_config", "Experiment configuration", experiment_schema()),
        ("run_report", "Single training run report", configio.schema(RunReport)),
        ("comparison_report", "Multi-arm comparison report", configio.schema(ComparisonReport)),
        ("sweep_report", "Beta sweep report", configio.schema(SweepReport)),
        ("grid_report", "Grid search report", configio.schema(GridResult)),
    ):
        head = {"$schema": "https://json-schema.org/draft/2020-12/schema", "$id": f"adascale/{name}"}
        configio.write_json({**head, "title": title, **doc}, Path(directory) / f"{name}.schema.json")
