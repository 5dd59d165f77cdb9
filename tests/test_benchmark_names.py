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


def test_traced_run_calls_every_training_layer(perfbench, tmp_path):
    # a step that stops calling a wrapped name records no calls under it, which
    # otherwise shows only when the traced benchmark runs
    workloads, tracing = perfbench
    wl = workloads.CompareLinear()  # linear model, vanilla + adaptive, StratifiedSampler(1)
    state = wl.prepare(3, tmp_path / "work")
    out = tmp_path / "out"
    tracer = tracing.Tracer(run_root="trainer.train")
    # what wl.run_pass does, at 2 epochs instead of the benchmark's 30
    with workloads.traced(tracer, workloads.in_process_plan, "pass"), tracer.span(wl.protocol_span):
        returned = wl.protocol(wl.config(state, out, 2, 1))
    checks = workloads.Checks()
    run = wl.inspect(state, out, returned, checks)
    assert checks.failures == []
    assert run.runs == 2 and run.steps == 2 * 2 * state.steps_per_epoch

    calls = {name: stats["calls"] for name, stats in tracer.totals().items()}
    for layer in workloads.LAYERS:
        if layer.name in wl.layers:
            assert sum(calls.get(span, 0) for span in layer.spans) > 0, layer.name
    # one loss and one backward call and one optimizer step per step
    for span in ("losses.compute_loss", "model.backward", "trainer.opt_step"):
        assert calls[span] == run.steps, span
    assert calls["scaling.w_batch"] == run.steps // 2
    # the benchmark's own reading of the trace raises CoverageError for a silent layer
    roots = {source: [0] for source in ("setup", "run", "parent")}
    layers = workloads.layer_values(wl, tracer, roots, {"run": run, "parent": run})
    assert layers["losses.compute_loss_us"]["calls"] == run.steps
