"""The names the benchmark in ``perfbench/`` wraps stay where it looks them up,
and a traced training run calls every one of them."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``workloads`` and ``tracing`` modules, imported as it imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)


def test_trace_plan_binds_every_name(perfbench):
    # Tracer.wrap raises CoverageError for a name its owner lacks, so a moved
    # or dropped name fails here, not only in a traced benchmark run
    workloads, tracing = perfbench
    tracer = tracing.Tracer("run")
    try:
        workloads.in_process_plan(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def _traced_pass(perfbench, wl, tmp_path, epochs=2):
    """One pass of the workload at ``epochs`` and workers=1, traced with every name
    the benchmark wraps: its outputs' reading and the calls per traced name.

    A step that stops calling a wrapped name records no calls under it, which
    otherwise shows only when the traced benchmark runs.
    """
    workloads, tracing = perfbench
    state = wl.prepare(3, tmp_path / "work")
    out = tmp_path / "out"
    tracer = tracing.Tracer(run_root="trainer.train")
    # what wl.run_pass does, at fewer epochs than the benchmark's 30
    with workloads.traced(tracer, workloads.in_process_plan, "pass"), tracer.span(wl.protocol_span):
        returned = wl.protocol(wl.config(state, out, epochs, 1))
    checks = workloads.Checks()
    run = wl.inspect(state, out, returned, checks)
    assert checks.failures == []
    assert run.runs == wl.expected_runs and run.steps == run.runs * epochs * state.steps_per_epoch

    calls = {name: stats["calls"] for name, stats in tracer.totals().items()}
    for layer in workloads.LAYERS:
        if layer.name in wl.layers:
            assert sum(calls.get(span, 0) for span in layer.spans) > 0, layer.name
    # one loss and one backward call and one optimizer step per step, one batching
    # per epoch and one train() per run
    for span in ("losses.compute_loss", "model.backward", "trainer.opt_step"):
        assert calls[span] == run.steps, span
    assert calls["data.batches"] == run.runs * epochs
    assert calls["trainer.train"] == run.runs
    # the benchmark's own reading of the trace raises CoverageError for a silent layer
    roots = {source: [0] for source in ("setup", "run", "parent")}
    layers = workloads.layer_values(wl, tracer, roots, {"run": run, "parent": run})
    assert layers["losses.compute_loss_us"]["calls"] == run.steps
    return run, calls


def test_traced_run_calls_every_training_layer(perfbench, tmp_path):
    # linear model, vanilla + adaptive, StratifiedSampler(1): every adaptive batch has a positive
    workloads, _ = perfbench
    run, calls = _traced_pass(perfbench, workloads.CompareLinear(), tmp_path)
    assert run.runs == 2 and run.skipped == 0
    assert calls["scaling.w_batch"] == run.steps // 2


def test_traced_mlp_pool_run_calls_every_training_layer(perfbench, tmp_path):
    # tanh MLP, UnderSampler, five adaptive betas of two seeds each, run in-process
    workloads, _ = perfbench
    run, calls = _traced_pass(perfbench, workloads.SweepMlpPool(), tmp_path)
    assert run.runs == 10
    # the batch weight is computed once for every adaptive step that has a positive
    assert calls["scaling.w_batch"] == run.steps - run.skipped


def test_traced_files_pass_calls_every_file_layer(perfbench, tmp_path):
    # the files workload's set-up and one pass, traced as the benchmark traces them:
    # a loader or cli edit that stops a files layer recording calls fails here
    workloads, tracing = perfbench
    wl = workloads.FilesRoundtrip()
    tracer = tracing.Tracer(run_root="trainer.train")
    roots = {"setup": [len(tracer.spans)]}
    with workloads.traced(tracer, workloads.in_process_plan, "bench.setup"):
        state = wl.prepare(3, tmp_path / "work")
    roots["run"] = roots["parent"] = [len(tracer.spans)]
    out = tmp_path / "out"
    with workloads.traced(tracer, workloads.in_process_plan, "bench.pass"):
        returned = wl.run_pass(state, out, tracer=tracer)
    checks = workloads.Checks()
    run = wl.inspect(state, out, returned, checks)
    assert checks.failures == []

    calls = {name: stats["calls"] for name, stats in tracer.totals().items()}
    for layer in workloads.LAYERS:
        if layer.name in wl.layers:
            assert sum(calls.get(span, 0) for span in layer.spans) > 0, layer.name
    # the benchmark's own reading of the trace raises CoverageError for a silent layer
    layers = workloads.layer_values(wl, tracer, roots, {"run": run, "parent": run})
    # two formats of the 10k/2k/2k splits, then the 2k test split cli eval scores
    assert layers["data.rows_loaded"]["value"] == 30_000
