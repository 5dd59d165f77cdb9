"""JSON codecs for strategies, samplers, optimizers and generator configs,
plus schema validation for every document the toolkit reads or writes.

All on-disk documents use tagged objects ({"kind": ...}) for the union
types.  Schemas ship inside the package under ``adascale/schemas`` and are
the contract for external tooling.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema

from .data import GeneratorConfig, SamplerKind, StratifiedSampler, UnderSampler, UniformSampler
from .losses import Adaptive, Focal, LossStrategy, Static, Vanilla
from .trainer import SGD, Adam, Optimizer, TrainConfig

__all__ = [
    "strategy_to_json",
    "strategy_from_json",
    "sampler_to_json",
    "sampler_from_json",
    "optimizer_to_json",
    "optimizer_from_json",
    "generator_to_json",
    "generator_from_json",
    "train_config_to_json",
    "train_config_from_json",
    "validate_experiment_config",
    "validate_run_report",
    "validate_comparison_report",
    "validate_sweep_report",
    "validate_grid_report",
    "write_json",
]


def write_json(doc: dict, path) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline, no NaN."""
    from pathlib import Path

    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def strategy_to_json(strategy: LossStrategy) -> dict:
    if isinstance(strategy, Vanilla):
        return {"kind": "vanilla"}
    if isinstance(strategy, Adaptive):
        return {"kind": "adaptive", "beta": strategy.beta}
    if isinstance(strategy, Static):
        return {"kind": "static", "negative_cost": strategy.negative_cost}
    if isinstance(strategy, Focal):
        return {"kind": "focal", "gamma": strategy.gamma}
    raise TypeError(f"unknown strategy {strategy!r}")


def strategy_from_json(doc: dict) -> LossStrategy:
    kind = doc.get("kind")
    if kind == "vanilla":
        return Vanilla()
    if kind == "adaptive":
        return Adaptive(beta=float(doc.get("beta", 1.0)))
    if kind == "static":
        return Static(negative_cost=float(doc["negative_cost"]))
    if kind == "focal":
        return Focal(gamma=float(doc["gamma"]))
    raise ValueError(f"unknown strategy kind {kind!r}")


def sampler_to_json(sampler: SamplerKind) -> dict:
    if isinstance(sampler, UniformSampler):
        return {"kind": "uniform"}
    if isinstance(sampler, StratifiedSampler):
        return {"kind": "stratified", "min_positives_per_batch": sampler.min_positives_per_batch}
    if isinstance(sampler, UnderSampler):
        return {"kind": "undersample", "neg_to_pos_ratio": sampler.neg_to_pos_ratio}
    raise TypeError(f"unknown sampler {sampler!r}")


def sampler_from_json(doc: dict) -> SamplerKind:
    kind = doc.get("kind")
    if kind == "uniform":
        return UniformSampler()
    if kind == "stratified":
        return StratifiedSampler(min_positives_per_batch=int(doc.get("min_positives_per_batch", 1)))
    if kind == "undersample":
        return UnderSampler(neg_to_pos_ratio=float(doc["neg_to_pos_ratio"]))
    raise ValueError(f"unknown sampler kind {kind!r}")


def optimizer_to_json(optimizer: Optimizer) -> dict:
    if isinstance(optimizer, SGD):
        return {"kind": "sgd", "lr": optimizer.lr, "momentum": optimizer.momentum}
    if isinstance(optimizer, Adam):
        return {
            "kind": "adam",
            "lr": optimizer.lr,
            "b1": optimizer.b1,
            "b2": optimizer.b2,
            "eps": optimizer.eps,
        }
    raise TypeError(f"unknown optimizer {optimizer!r}")


def optimizer_from_json(doc: dict) -> Optimizer:
    kind = doc.get("kind")
    if kind == "sgd":
        return SGD(lr=float(doc.get("lr", 0.1)), momentum=float(doc.get("momentum", 0.0)))
    if kind == "adam":
        return Adam(
            lr=float(doc.get("lr", 1e-3)),
            b1=float(doc.get("b1", 0.9)),
            b2=float(doc.get("b2", 0.999)),
            eps=float(doc.get("eps", 1e-8)),
        )
    raise ValueError(f"unknown optimizer kind {kind!r}")


def generator_to_json(config: GeneratorConfig) -> dict:
    return {
        "n": config.n,
        "d": config.d,
        "k": config.k,
        "positive_rate": config.positive_rate,
        "negative_modes": config.negative_modes,
        "class_separation": config.class_separation,
        "noise_scale": config.noise_scale,
        "seed": config.seed,
    }


def generator_from_json(doc: dict) -> GeneratorConfig:
    defaults = GeneratorConfig()
    return GeneratorConfig(
        n=int(doc.get("n", defaults.n)),
        d=int(doc.get("d", defaults.d)),
        k=int(doc.get("k", defaults.k)),
        positive_rate=float(doc.get("positive_rate", defaults.positive_rate)),
        negative_modes=int(doc.get("negative_modes", defaults.negative_modes)),
        class_separation=float(doc.get("class_separation", defaults.class_separation)),
        noise_scale=float(doc.get("noise_scale", defaults.noise_scale)),
        seed=int(doc.get("seed", defaults.seed)),
    )


def train_config_to_json(config: TrainConfig) -> dict:
    """Serialize the shared training knobs (strategy and seed are per-run)."""
    return {
        "optimizer": optimizer_to_json(config.optimizer),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "sampler": sampler_to_json(config.sampler),
        "eval_beta": config.eval_beta,
        "early_stop_patience": config.early_stop_patience,
    }


def train_config_from_json(doc: dict) -> TrainConfig:
    defaults = TrainConfig()
    patience = doc.get("early_stop_patience")
    return TrainConfig(
        optimizer=optimizer_from_json(doc["optimizer"]) if "optimizer" in doc else defaults.optimizer,
        epochs=int(doc.get("epochs", defaults.epochs)),
        batch_size=int(doc.get("batch_size", defaults.batch_size)),
        sampler=sampler_from_json(doc["sampler"]) if "sampler" in doc else defaults.sampler,
        eval_beta=float(doc.get("eval_beta", defaults.eval_beta)),
        early_stop_patience=None if patience is None else int(patience),
    )


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    text = resources.files("adascale").joinpath("schemas", name).read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _validator(name: str):
    """One validator per schema; the schema itself is checked once, here."""
    schema = _schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc: dict, schema_name: str) -> None:
    # what jsonschema.validate raises, without re-checking the schema per call
    error = jsonschema.exceptions.best_match(_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


def validate_experiment_config(doc: dict) -> None:
    _validate(doc, "experiment_config.schema.json")


def validate_run_report(doc: dict) -> None:
    _validate(doc, "run_report.schema.json")


def validate_comparison_report(doc: dict) -> None:
    _validate(doc, "comparison_report.schema.json")


def validate_sweep_report(doc: dict) -> None:
    _validate(doc, "sweep_report.schema.json")


def validate_grid_report(doc: dict) -> None:
    _validate(doc, "grid_report.schema.json")
