"""Command line front end.

Subcommands: generate, train, eval, compare, sweep, grid.  All take
``--config <json>`` plus a small set of flag overrides; ``--seed`` and
``--out`` are accepted everywhere.  With ``--strict``, any invalid
(aborted) run makes the process exit nonzero.  The ``adascale`` command
(:func:`run`) reports an unusable config, dataset, checkpoint, override or
output path as one ``adascale: error:`` line with exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from . import configio, data, harness
from .metrics import _check_beta
from .model import load_params, save_params
from .trainer import evaluate, write_run_report


def _experiment(args) -> harness.ExperimentConfig:
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "n_seeds", None) is not None:
        overrides["n_seeds"] = args.n_seeds
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    with harness._reading():
        config = harness.experiment_from_json(configio.read_json(args.config))
        return replace(config, **overrides) if overrides else config


def _arm(config: harness.ExperimentConfig, name: str) -> harness.Arm:
    arm = next((a for a in config.arms if a.name == name), None)
    if arm is None:
        raise harness.InputError(f"no arm named {name!r} in config")
    return arm


def _strict_exit(invalid: list[str], strict: bool) -> int:
    """Print one line per group of invalid runs; with ``strict``, any makes the exit status 1."""
    for line in invalid:
        print(line, file=sys.stderr)
    return 1 if invalid and strict else 0


def _cmd_generate(args) -> int:
    with harness._reading():
        doc = configio.read_json(args.config) if args.config else {}
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config}: not a JSON object")
        for f in fields(data.GeneratorConfig):
            value = getattr(args, f.name)
            if value is not None:
                doc[f.name] = value
        config = configio.from_json(data.GeneratorConfig, doc)
        fmt = data._infer_format(Path(args.out), args.format)
    dataset = data.generate(config)
    data.save(dataset, args.out, fmt)
    print(f"wrote {dataset.n} instances ({dataset.d} features, k={dataset.k}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _experiment(args)
    arm = _arm(config, args.arm)
    out = Path(args.out or harness._run_file(arm.name, config.base_seed))
    # an output the run cannot write is reported before the run trains
    for path in (out, args.save_model):
        if path:
            harness._check_writable(Path(path))
    datasets = harness.load_datasets(config.source)
    task = (harness._build_spec(config.model, datasets[0]), harness._run_config(arm, config.base_seed), arm.name)
    report, params = harness._execute_run(task, datasets)
    write_run_report(report, out)
    # an invalid run's parameters may be the untrained initial ones, so they are not saved
    if args.save_model and report.valid:
        save_params(params, args.save_model)
    elif args.save_model:
        print(f"no checkpoint for an invalid run: {args.save_model}", file=sys.stderr)
    status = "ok" if report.valid else f"INVALID ({report.failure})"
    print(
        f"{arm.name} seed={config.base_seed}: dev_f={report.best_dev_f:.4f} test_f={report.test_f:.4f} "
        f"[{status}] -> {out}"
    )
    return 0 if report.valid or not args.strict else 1


def _cmd_eval(args) -> int:
    # an output the command cannot write is reported before the dataset loads
    if args.out:
        harness._check_writable(Path(args.out))
    # every input is the user's: a beta, checked first, a checkpoint and a dataset it can score
    with harness._reading():
        _check_beta(args.beta)
        params = load_params(args.model)
        dataset = data.load(args.data, args.format)
        try:
            p, r, f = evaluate(params, dataset, args.beta)
        except FloatingPointError as error:
            raise ValueError(f"{args.data}: {error} from {args.model}") from None
    print(f"precision={p:.6f} recall={r:.6f} f_beta={f:.6f} (beta={args.beta:g})")
    if args.out:
        configio.write_json(
            {"precision": p, "recall": r, "f_beta": f, "beta": args.beta}, args.out
        )
    return 0


def _cmd_compare(args) -> int:
    config = _experiment(args)
    report = harness.run_experiment(config)
    for arm in report.arms:
        if arm.mean_test_f is None:
            print(f"{arm.name}: no valid runs")
        else:
            print(
                f"{arm.name}: mean={100 * arm.mean_test_f:.2f} "
                f"var={arm.var_test_f_pct:.2f} best3={100 * arm.best3_test_f:.2f}"
            )
    print(f"reports in {config.output_dir}")
    invalid = [
        f"invalid runs in arm {a.name!r}: seeds {a.invalid_seeds}" for a in report.arms if a.invalid_seeds
    ]
    return _strict_exit(invalid, args.strict)


def _cmd_sweep(args) -> int:
    config = _experiment(args)
    report = harness.beta_sweep(config)
    invalid = []
    for row in report.rows:
        if row.mean_f1 is None:
            print(f"beta={row.beta:g}: no valid runs")
        else:
            print(
                f"beta={row.beta:g}: precision={row.mean_precision:.4f} "
                f"recall={row.mean_recall:.4f} f1={row.mean_f1:.4f}"
            )
        if row.n_valid < config.n_seeds:
            invalid.append(f"invalid runs at beta={row.beta:g}: {config.n_seeds - row.n_valid} of {config.n_seeds}")
    print(f"reports in {config.output_dir}")
    return _strict_exit(invalid, args.strict)


def _cmd_grid(args) -> int:
    config = _experiment(args)
    arm = _arm(config, args.arm)
    grid = config.grid.get(args.arm, {})
    result = harness.grid_search(arm, grid, config)
    for cell in result.cells:
        score = "-" if cell.mean_dev_f is None else f"{cell.mean_dev_f:.4f}"
        print(f"{cell.params or '(no parameters)'}: mean_dev_f={score}")
    print(f"best: {result.best_params or '(no parameters)'}")
    invalid = [
        f"invalid runs in grid cell {cell.params}: {config.n_seeds - cell.n_valid} of {config.n_seeds}"
        for cell in result.cells
        if cell.n_valid < config.n_seeds
    ]
    return _strict_exit(invalid, args.strict)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adascale",
        description="Cost-sensitive training and evaluation for sparse detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV or JSONL")
    gen.add_argument("--config", help="generator config JSON")
    gen.add_argument("--out", required=True, help="output file (.csv or .jsonl)")
    gen.add_argument("--format", choices=data.FORMATS, default=None)
    for name, tp in get_type_hints(data.GeneratorConfig).items():
        gen.add_argument("--" + name.replace("_", "-"), dest=name, type=tp, default=None)
    gen.set_defaults(func=_cmd_generate)

    tr = sub.add_parser("train", help="train one arm for one seed")
    tr.add_argument("--config", required=True, help="experiment config JSON")
    tr.add_argument("--arm", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--out", default=None, help="run report path")
    tr.add_argument("--save-model", dest="save_model", default=None, help="checkpoint path")
    tr.add_argument("--strict", action="store_true")
    tr.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="score a saved model on a dataset file")
    ev.add_argument("--model", required=True, help="checkpoint path")
    ev.add_argument("--data", required=True, help="dataset file")
    ev.add_argument("--format", choices=data.FORMATS, default=None)
    ev.add_argument("--beta", type=float, default=1.0)
    ev.add_argument("--out", default=None, help="metrics JSON path")
    ev.set_defaults(func=_cmd_eval)

    for name, func, extra in (
        ("compare", _cmd_compare, "multi-seed comparison of all arms"),
        ("sweep", _cmd_sweep, "adaptive beta sweep"),
        ("grid", _cmd_grid, "grid search one arm's hyper-parameters"),
    ):
        cp = sub.add_parser(name, help=extra)
        cp.add_argument("--config", required=True, help="experiment config JSON")
        if name == "grid":
            cp.add_argument("--arm", required=True)
        cp.add_argument("--seed", type=int, default=None, help="override base seed")
        cp.add_argument("--out", default=None, help="override output directory")
        cp.add_argument("--n-seeds", dest="n_seeds", type=int, default=None)
        cp.add_argument("--workers", type=int, default=None)
        cp.add_argument("--strict", action="store_true")
        cp.set_defaults(func=func)

    args = parser.parse_args(argv)
    return args.func(args)


def run() -> int:
    """The ``adascale`` command: :func:`main` on the process arguments, with an
    unusable config, dataset, checkpoint, override or output path reported as
    one line and exit status 2 instead of a traceback."""
    try:
        return main()
    except harness.InputError as error:
        message = str(error)
    except OSError as error:
        if error.filename is None:
            raise
        # a file the command cannot write (or open), named by the path it was given
        message = f"{error.filename}: {error.strerror}"
    print(f"adascale: error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(run())
