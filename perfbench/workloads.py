"""The three benchmark workloads and the per-layer metrics traced on them.

Each workload makes its inputs from the seed alone (``GeneratorConfig(seed=
seed)``: 10k/2k/2k rows, 20 features, 4 classes, 2% positives) and calls
the library only through the public functions of ``harness``, ``data``,
``model``, ``trainer`` and ``cli``.  A workload has four steps:

- ``prepare``: input generation (and, for ``files_roundtrip``, the
  checkpoint), timed as part of ``setup_s``;
- ``warm_up``: the same protocol at one epoch, also part of ``setup_s``;
- ``run_pass``: one timed pass, which is what ``wall_s`` measures;
- ``inspect``: untimed reading of the pass's outputs, which counts runs,
  steps and rows and checks the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adascale import cli, configio, data, harness, losses, model, trainer
from adascale.data import GeneratorConfig, StratifiedSampler, UnderSampler
from adascale.harness import Arm, ExperimentConfig, FileSource, ModelConfig, SyntheticSource
from adascale.losses import Adaptive, Vanilla
from adascale.trainer import Adam, TrainConfig

from tracing import CoverageError, Tracer

EPOCHS = 30
BATCH = 64
SPLITS = ("train", "dev", "test")
FORMATS = ("csv", "jsonl")


class Checks:
    """Correctness checks and training runs, counted for ``failed_frac``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class PassOutput:
    hashes: dict[str, str]
    runs: int = 0
    steps: int = 0
    skipped: int = 0
    rows: int = 0
    adaptive_f1: float | None = None
    vanilla_f1: float | None = None


def _hash_dir(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _nospan(name: str):
    return contextlib.nullcontext()


def _dataset_digest(ds: data.Dataset) -> str:
    h = hashlib.sha256(ds.features.tobytes())
    h.update(ds.labels.tobytes())
    return h.hexdigest()


# --- protocol workloads -----------------------------------------------------


@dataclass
class ProtocolState:
    source: SyntheticSource
    steps_per_epoch: int
    fingerprint: str


class _Protocol:
    """A multi-seed protocol from ``harness`` over one synthetic source.

    Subclasses set ``name``, ``why``, ``protocol_span``, ``n_seeds``,
    ``expected_runs``, ``workers`` and ``sampler``.
    """

    def prepare(self, seed: int, work: Path) -> ProtocolState:
        source = SyntheticSource(GeneratorConfig(seed=seed))
        train_ds, dev_ds, test_ds = harness.load_datasets(source)
        # both samplers give the same number of batches in every epoch
        steps = len(data.batches(train_ds, self.sampler, BATCH, 0))
        digest = "".join(_dataset_digest(ds) for ds in (train_ds, dev_ds, test_ds))
        return ProtocolState(source, steps, hashlib.sha256(digest.encode()).hexdigest())

    def train_config(self, epochs: int) -> TrainConfig:
        return TrainConfig(optimizer=Adam(), epochs=epochs, batch_size=BATCH, sampler=self.sampler)

    def config(self, state: ProtocolState, out: Path, epochs: int, workers: int) -> ExperimentConfig:
        raise NotImplementedError

    def protocol(self, config: ExperimentConfig):
        raise NotImplementedError

    def warm_up(self, state: ProtocolState, work: Path) -> None:
        self.protocol(self.config(state, work, 1, self.workers))

    def run_pass(self, state: ProtocolState, out: Path, tracer: Tracer | None = None, workers: int | None = None):
        span = tracer.span if tracer else _nospan
        config = self.config(state, out, EPOCHS, self.workers if workers is None else workers)
        with span(self.protocol_span):
            return self.protocol(config)

    def _runs(self, state: ProtocolState, out: Path, checks: Checks) -> tuple[list[dict], PassOutput]:
        docs = [json.loads(p.read_text()) for p in sorted(out.glob("run_*.json"))]
        result = PassOutput(hashes=_hash_dir(out), runs=len(docs))
        checks.expect(len(docs) == self.expected_runs, f"{len(docs)} run files, expected {self.expected_runs}")
        for doc in docs:
            checks.expect(doc["valid"], f"run {doc['arm']} seed {doc['seed']} is invalid: {doc['failure']}")
            result.steps += doc["epochs_run"] * state.steps_per_epoch
            result.skipped += doc["skipped_steps"]
        return docs, result


class CompareLinear(_Protocol):
    name = "compare_linear"
    why = (
        "The paper's main protocol: vanilla vs adaptive(beta=1) on a linear model, where ~95% of the time "
        "is the small-batch step loop (model, losses, scaling, the optimizer in trainer)."
    )
    protocol_span = "harness.run_experiment"
    n_seeds = 1
    expected_runs = 2 * n_seeds
    workers = 1
    sampler = StratifiedSampler(1)

    def config(self, state, out, epochs, workers):
        train = self.train_config(epochs)
        return ExperimentConfig(
            source=state.source,
            arms=(Arm("vanilla", Vanilla(), train), Arm("adaptive", Adaptive(beta=1.0), train)),
            n_seeds=self.n_seeds,
            best_k=self.n_seeds,
            workers=workers,
            output_dir=str(out),
        )

    def protocol(self, config):
        return harness.run_experiment(config)

    def inspect(self, state, out, returned, checks) -> PassOutput:
        _, result = self._runs(state, out, checks)
        doc = json.loads((out / "comparison.json").read_text())
        arms = {arm["name"]: arm for arm in doc["arms"]}
        result.adaptive_f1 = arms["adaptive"]["mean_test_f"]
        result.vanilla_f1 = arms["vanilla"]["mean_test_f"]
        # the aggregates must be recomputable from the persisted runs alone
        for name, summary in harness.reaggregate(out, best_k=self.n_seeds).items():
            checks.expect(
                summary.mean_test_f is not None
                and math.isclose(summary.mean_test_f, arms[name]["mean_test_f"], rel_tol=1e-12)
                and summary.best3_test_f == arms[name]["best3_test_f"],
                f"reaggregate of arm {name} differs from comparison.json",
            )
        return result


class SweepMlpPool(_Protocol):
    name = "sweep_mlp_pool"
    why = (
        "A beta sweep of a tanh MLP under undersampling in a 2-process pool: per-epoch dev evaluation, "
        "report validation and pool pickling weigh here, so a step-loop gain that slows them shows."
    )
    protocol_span = "harness.beta_sweep"
    betas = (0.25, 0.5, 1.0, 2.0, 4.0)
    n_seeds = 2  # a pool is used only for more than one task per beta
    expected_runs = len(betas) * n_seeds
    workers = 2
    sampler = UnderSampler(neg_to_pos_ratio=4.0)
    model_config = ModelConfig(hidden_dim=32, activation="tanh")

    def config(self, state, out, epochs, workers):
        return ExperimentConfig(
            source=state.source,
            arms=(Arm("adaptive", Adaptive(beta=1.0), self.train_config(epochs)),),
            model=self.model_config,
            n_seeds=self.n_seeds,
            best_k=1,
            beta_sweep=self.betas,
            workers=workers,
            output_dir=str(out),
        )

    def protocol(self, config):
        return harness.beta_sweep(config)

    def inspect(self, state, out, returned, checks) -> PassOutput:
        docs, result = self._runs(state, out, checks)
        rows = {row["beta"]: row for row in json.loads((out / "sweep.json").read_text())["rows"]}
        for beta in self.betas:
            checks.expect(rows[beta]["n_valid"] == self.n_seeds, f"sweep row beta={beta:g} lost runs")
        # at beta=1 the row's F1 is the mean of the persisted runs' test F
        run_f = [d["test_f"] for d in sorted(docs, key=lambda d: d["seed"]) if d["arm"] == "adaptive_beta1"]
        result.adaptive_f1 = rows[1.0]["mean_f1"]
        checks.expect(
            len(run_f) == self.n_seeds and math.isclose(float(np.mean(run_f)), result.adaptive_f1, rel_tol=1e-12),
            "sweep beta=1 mean F1 differs from its run files",
        )
        return result


# --- files workload ---------------------------------------------------------


@dataclass
class FilesState:
    splits: tuple[data.Dataset, data.Dataset, data.Dataset]
    checkpoint: Path
    fingerprint: str


class FilesRoundtrip:
    name = "files_roundtrip"
    why = (
        "Writes the 10k/2k/2k splits as CSV and JSONL, reads them back and runs cli eval on a checkpoint: "
        "Python-level parsing and serialising in data dominate and trainer does no work."
    )
    workers = 1
    checkpoint_epochs = 5

    def prepare(self, seed: int, work: Path) -> FilesState:
        work.mkdir(parents=True, exist_ok=True)
        splits = harness.load_datasets(SyntheticSource(GeneratorConfig(seed=seed)))
        spec = model.ModelSpec(input_dim=splits[0].d, n_classes=splits[0].k)
        config = TrainConfig(
            optimizer=Adam(),
            epochs=self.checkpoint_epochs,
            batch_size=BATCH,
            sampler=StratifiedSampler(1),
            strategy=Adaptive(beta=1.0),
        )
        params, _ = trainer.train(*splits, spec, config)
        checkpoint = work / "model.json"
        model.save_params(params, checkpoint)
        digest = hashlib.sha256(checkpoint.read_bytes())
        for ds in splits:
            digest.update(_dataset_digest(ds).encode())
        return FilesState(splits, checkpoint, digest.hexdigest())

    def _eval_argv(self, state: FilesState, path: Path, out: Path) -> list[str]:
        return ["eval", "--model", str(state.checkpoint), "--data", str(path), "--out", str(out)]

    def warm_up(self, state: FilesState, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        small = data.Dataset(state.splits[1].features[:200], state.splits[1].labels[:200], state.splits[1].k)
        for fmt in FORMATS:
            data.save(small, work / f"small.{fmt}")
            data.load(work / f"small.{fmt}")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._eval_argv(state, work / "small.csv", work / "eval.json"))

    def run_pass(self, state: FilesState, out: Path, tracer: Tracer | None = None, workers: int | None = None):
        span = tracer.span if tracer else _nospan
        out.mkdir(parents=True, exist_ok=True)
        for split, ds in zip(SPLITS, state.splits):
            for fmt in FORMATS:
                with span(f"data.save_{fmt}"):
                    data.save(ds, out / f"{split}.{fmt}")
        loaded = {
            fmt: harness.load_datasets(FileSource(*(str(out / f"{split}.{fmt}") for split in SPLITS)))
            for fmt in FORMATS
        }
        # the line cli prints is part of the measured call, not of the benchmark's output
        with span("cli.eval"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._eval_argv(state, out / "test.csv", out / "eval.json"))
        return loaded, code

    def inspect(self, state: FilesState, out: Path, returned, checks: Checks) -> PassOutput:
        loaded, code = returned
        n_rows = sum(ds.n for ds in state.splits)
        result = PassOutput(
            hashes=_hash_dir(out),
            rows=2 * len(FORMATS) * n_rows + state.splits[2].n,
        )
        for fmt in FORMATS:
            for split, saved, back in zip(SPLITS, state.splits, loaded[fmt]):
                checks.expect(
                    np.array_equal(saved.features, back.features)
                    and np.array_equal(saved.labels, back.labels)
                    and saved.k == back.k,
                    f"{split}.{fmt} does not reload to the saved arrays",
                )
        checks.expect(code == 0, f"cli eval exited with {code}")
        written = json.loads((out / "eval.json").read_text())
        p, r, f = trainer.evaluate(model.load_params(state.checkpoint), state.splits[2], 1.0)
        checks.expect(
            (written["precision"], written["recall"], written["f_beta"]) == (p, r, f),
            "cli eval metrics differ from an in-memory evaluate of the same checkpoint",
        )
        return result


# --- per-layer metrics ------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    ``stat`` is ``self`` (self time per call), ``total`` (duration per call,
    children included), ``calls``, or a derived statistic named in
    :func:`layer_values`.  ``source`` names the traced phase it is read
    from: ``setup``, ``run`` (in-run layers) or ``parent`` (parent-side
    spans; on ``sweep_mlp_pool`` these come from the pass at workers=2).
    """

    name: str
    unit: str
    source: str
    spans: tuple[str, ...]
    stat: str


_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}
_PROTOCOL_SPANS = ("harness.run_experiment", "harness.beta_sweep")

LAYERS = (
    Layer("data.generate_ms", "ms", "setup", ("data.generate",), "self"),
    Layer("data.batches_us", "us", "run", ("data.batches",), "self"),
    Layer("data.batches_calls", "count", "run", ("data.batches",), "calls"),
    Layer("data.save_csv_ms", "ms", "run", ("data.save_csv",), "self"),
    Layer("data.save_jsonl_ms", "ms", "run", ("data.save_jsonl",), "self"),
    Layer("data.load_csv_ms", "ms", "run", ("data.load_csv",), "self"),
    Layer("data.load_jsonl_ms", "ms", "run", ("data.load_jsonl",), "self"),
    Layer("data.rows_loaded", "count", "run", ("data.load_csv", "data.load_jsonl"), "rows_loaded"),
    Layer("model.forward_us", "us", "run", ("model.forward",), "self"),
    Layer("model.backward_us", "us", "run", ("model.backward",), "self"),
    Layer("model.forward_calls", "count", "run", ("model.forward",), "calls"),
    Layer("model.predict_ms", "ms", "run", ("model.predict",), "total"),
    Layer("model.load_params_ms", "ms", "run", ("model.load_params",), "self"),
    Layer("losses.compute_loss_us", "us", "run", ("losses.compute_loss",), "self"),
    Layer("scaling.w_batch_us", "us", "run", ("scaling.w_batch",), "self"),
    Layer("scaling.w_batch_calls", "count", "run", ("scaling.w_batch",), "calls"),
    Layer("metrics.confusion_us", "us", "run", ("metrics.confusion",), "self"),
    Layer("trainer.opt_step_us", "us", "run", ("trainer.opt_step",), "self"),
    Layer("trainer.step_self_us", "us", "run", ("trainer.train",), "self_per_step"),
    Layer("trainer.evaluate_ms", "ms", "run", ("trainer.evaluate",), "total"),
    Layer("trainer.train_s", "s", "run", ("trainer.train",), "total"),
    Layer("trainer.steps", "count", "run", ("trainer.train",), "steps"),
    Layer("trainer.skipped_step_frac", "ratio", "run", ("trainer.train",), "skipped_frac"),
    Layer("configio.validate_run_report_ms", "ms", "parent", ("configio.validate_run_report",), "self"),
    Layer("trainer.write_run_report_ms", "ms", "parent", ("trainer.write_run_report",), "self"),
    Layer("harness.run_all_s", "s", "parent", ("harness.run_all",), "total"),
    Layer("harness.pool_efficiency", "ratio", "parent", ("harness.run_all",), "pool_efficiency"),
    Layer("harness.task_pickle_bytes", "bytes", "parent", ("harness.run_all",), "pickle_bytes"),
    Layer("harness.aggregate_ms", "ms", "parent", _PROTOCOL_SPANS, "self"),
    Layer("cli.eval_ms", "ms", "run", ("cli.eval",), "total"),
)

_FILE_LAYERS = {
    "data.save_csv_ms",
    "data.save_jsonl_ms",
    "data.load_csv_ms",
    "data.load_jsonl_ms",
    "data.rows_loaded",
    "model.load_params_ms",
    "cli.eval_ms",
}
_TRAINING_LAYERS = {layer.name for layer in LAYERS} - _FILE_LAYERS
# layers each workload exercises; the traced run fails if one records no call
CompareLinear.layers = frozenset(_TRAINING_LAYERS)
SweepMlpPool.layers = frozenset(_TRAINING_LAYERS)
FilesRoundtrip.layers = frozenset(
    _FILE_LAYERS
    | {"data.generate_ms", "model.forward_us", "model.forward_calls", "model.predict_ms"}
    | {"metrics.confusion_us", "trainer.evaluate_ms"}
)

WORKLOADS = {w.name: w for w in (CompareLinear(), SweepMlpPool(), FilesRoundtrip())}


# --- wrapping ---------------------------------------------------------------


def _load_name(path, format=None) -> str:
    return "data.load_" + (format or Path(path).suffix.lstrip(".").lower())


def _count_rows(tracer: Tracer):
    def on_return(args, kwargs, dataset, span):
        tracer.add("rows_loaded", dataset.n)

    return on_return


def _observe_run_all(tracer: Tracer):
    """Per ``_run_all`` call: task pickle size and the returned reports' run time.

    Both are read after the span has closed, so neither is in its time.
    """

    def on_return(args, kwargs, results, span):
        tasks, workers = args[0], args[1]
        if tasks:
            tracer.add("pickle_bytes", len(pickle.dumps(tasks[0])))
            tracer.add("pickled_tasks", 1)
        tracer.add("report_wall_s", sum(report.wall_clock_s for report, _ in results))
        tracer.add("worker_s", workers * (span[4] - span[3]) * 1e-9)

    return on_return


def parent_side_plan(tracer: Tracer) -> None:
    """Names the parent process calls around a process pool.

    Training runs in the workers, whose spans would never come back, so
    nothing they call is wrapped.
    """
    tracer.wrap(harness, "generate", "data.generate")
    tracer.wrap(harness, "load_datasets", "harness.load_datasets")
    tracer.wrap(harness, "_run_all", "harness.run_all", on_return=_observe_run_all(tracer))
    tracer.wrap(harness, "_persist", "harness.persist")
    tracer.wrap(harness, "write_run_report", "trainer.write_run_report")
    tracer.wrap(configio, "validate_run_report", "configio.validate_run_report")


def in_process_plan(tracer: Tracer) -> None:
    """Every traced name, bound where its caller looks it up."""
    parent_side_plan(tracer)
    tracer.wrap(trainer, "batches", "data.batches")
    tracer.wrap(harness, "load", _load_name, on_return=_count_rows(tracer))
    tracer.wrap(data, "load", _load_name, on_return=_count_rows(tracer))  # cli calls data.load
    tracer.wrap(trainer, "forward", "model.forward")
    tracer.wrap(model, "forward", "model.forward")  # predict calls forward
    tracer.wrap(trainer, "backward", "model.backward")
    tracer.wrap(trainer, "predict", "model.predict")
    tracer.wrap(cli, "load_params", "model.load_params")
    tracer.wrap(trainer, "compute_loss", "losses.compute_loss")
    tracer.wrap(losses, "w_batch", "scaling.w_batch")
    tracer.wrap(trainer, "confusion_from_predictions", "metrics.confusion")
    tracer.wrap(trainer._OptimizerState, "step", "trainer.opt_step")
    tracer.wrap(harness, "train", "trainer.train")
    for owner in (trainer, harness, cli):
        tracer.wrap(owner, "evaluate", "trainer.evaluate")


@contextlib.contextmanager
def traced(tracer: Tracer, plan, root: str):
    """Wrap the plan's names and open the root span; restore on exit."""
    try:
        plan(tracer)
        with tracer.span(root):
            yield
    finally:
        tracer.restore()


# --- per-layer values -------------------------------------------------------


def layer_values(workload, tracer: Tracer, roots: dict[str, list[int]], outputs: dict[str, PassOutput]) -> dict[str, dict]:
    """Every per-layer metric with its calls per pass and its source.

    ``roots`` maps each source to the root spans of its traced passes (or
    set-up).  Times are per call over all of them; counts are per pass.  A
    layer the workload does not use reads 0.  Raises :class:`CoverageError`
    when a layer the workload uses recorded no call.
    """
    totals = {source: tracer.totals(set(ids)) for source, ids in roots.items()}
    out: dict[str, dict] = {}
    missing = []
    for layer in LAYERS:
        stats = totals[layer.source]
        ids = roots[layer.source]
        n_passes = len(ids)
        calls = sum(stats.get(s, {}).get("calls", 0) for s in layer.spans)
        total_ns = sum(stats.get(s, {}).get("total_ns", 0) for s in layer.spans)
        self_ns = sum(stats.get(s, {}).get("self_ns", 0) for s in layer.spans)
        steps = outputs[layer.source].steps if layer.source in outputs else 0
        applies = layer.name in workload.layers
        if applies and (calls == 0 or (layer.stat in ("self_per_step", "steps", "skipped_frac") and steps == 0)):
            missing.append(f"{layer.name} ({', '.join(layer.spans)})")
            applies = False
        value = 0.0
        if applies:
            if layer.stat == "self":
                value = self_ns * _SCALE[layer.unit] / calls
            elif layer.stat == "total":
                value = total_ns * _SCALE[layer.unit] / calls
            elif layer.stat == "calls":
                value = calls / n_passes
            elif layer.stat == "rows_loaded":
                value = tracer.count(ids, "rows_loaded") / n_passes
            elif layer.stat == "self_per_step":
                value = self_ns * _SCALE[layer.unit] / (steps * n_passes)
            elif layer.stat == "steps":
                value = steps
            elif layer.stat == "skipped_frac":
                value = outputs[layer.source].skipped / steps
            elif layer.stat == "pool_efficiency":
                value = tracer.count(ids, "report_wall_s") / tracer.count(ids, "worker_s")
            elif layer.stat == "pickle_bytes":
                value = tracer.count(ids, "pickle_bytes") / tracer.count(ids, "pickled_tasks")
            else:
                raise ValueError(f"unknown statistic {layer.stat!r}")
        out[layer.name] = {"value": value, "unit": layer.unit, "calls": calls / n_passes, "source": layer.source}
    if missing:
        raise CoverageError(f"{workload.name}: no calls recorded for " + "; ".join(missing))
    return out
