"""The names the benchmark in ``perfbench/`` wraps stay where it looks them up."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_plan_binds_every_name(monkeypatch):
    # Tracer.wrap raises CoverageError for a name its owner lacks, so a moved
    # or dropped name fails here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        tracer = importlib.import_module("tracing").Tracer("run")
        try:
            workloads.in_process_plan(tracer)
            patched = list(tracer._patches)
        finally:
            tracer.restore()
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is original
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)
