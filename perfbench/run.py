"""adascale benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload compare_linear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of traced passes (spans recorded from
outside the library, see ``tracing.py``) and the tracing overhead.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything before
it is for people.  Outputs go to ``.perfbench_out/`` at the checkout root.
See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads; pool workers inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("compare_linear", "sweep_mlp_pool", "files_roundtrip")
SETUP_REPEATS = 5
MIN_PASSES = 5
REF_BATCH, REF_STEPS, REF_ROWS, REF_TEXT_ROUNDS = 64, 4800, 200, 16  # 0.3-0.45 s of reference loop on a 2-vCPU VM
TRACED_PASSES = (2, 3)  # at least, at most; each pass of compare_linear keeps ~50k spans
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import adascale.cli; print(time.perf_counter() - t)"
)

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_per_ref": ("ratio", "lower"),
    "wall_s": ("s", "lower"),
    "runs_per_s": ("1/s", "higher"),
    "steps_per_s": ("1/s", "higher"),
    "rows_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "adaptive_f1_pts": ("pts", "higher"),
    "f1_gain_pts": ("pts", "higher"),
}


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_library() -> None:
    """Import adascale from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "adascale" / "__init__.py").is_file():
        _fail(f"no adascale package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adascale

    if Path(adascale.__file__).resolve().parent != SRC / "adascale":
        _fail(f"imported adascale from {adascale.__file__}, not from {SRC}")


def _fastest(times: list[float]) -> float:
    """The fastest of a run's passes, the one other tenants disturbed least.

    ``wall_s`` and the tracing overhead use it.  It still moves by up to
    ~40% from run to run on a busy shared host, so the bounded pass-time
    metric is ``wall_per_ref`` instead (see :func:`_reference`).
    """
    return min(times)


def _reference() -> float:
    """Time a fixed reference loop that does not use the library; return seconds.

    The loop mixes what the workloads spend their time on: small-batch
    softmax regression with Adam (64x20 inputs, 4 classes) and parsing and
    formatting floats as text.  Its inputs never change, so it measures
    how fast the host is at the moment, not the program.  Other tenants on
    a shared host slow everything by up to ~2x, switching many times a
    second; a pass timed against the loops run just before and just after
    it moves far less from run to run than the pass alone (README.md).
    """
    import numpy as np

    rng = np.random.default_rng(20180505)
    x = rng.standard_normal((REF_BATCH, 20))
    y = np.eye(4)[rng.integers(0, 4, REF_BATCH)]
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rng.standard_normal((REF_ROWS, 20)))
    t0 = time.perf_counter()
    w, m, v = np.zeros((20, 4)), np.zeros((20, 4)), np.zeros((20, 4))
    for t in range(1, REF_STEPS + 1):
        z = x @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        g = x.T @ (p - y) / REF_BATCH
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 1e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    for _ in range(REF_TEXT_ROUNDS):
        rows = [[float(c) for c in line.split(",")] for line in text.split("\n")]
        text2 = "\n".join(",".join(repr(c) for c in row) for row in rows)
        json.loads(json.dumps({"rows": rows}))
    elapsed = time.perf_counter() - t0
    if text2 != text or not np.all(np.isfinite(w)):
        _fail("the reference loop gave another result than it always does", 1)
    return elapsed


def _import_s() -> tuple[float, list[float]]:
    """Time ``import adascale`` in fresh interpreters, ``SETUP_REPEATS`` times.

    The benchmark process imported the package before it could time it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            _fail(f"import probe failed: {proc.stderr.strip()}", 1)
        samples.append(float(proc.stdout))
    return statistics.median(samples), samples


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children term is the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Bench:
    """One benchmark run of one workload: set-up, passes and their checks."""

    def __init__(self, wl, args, checks) -> None:
        self.wl = wl
        self.args = args
        self.checks = checks
        self.work = OUT / f"{wl.name}-{os.getpid()}"
        self.first = None  # outputs of the first untraced pass
        self.n = 0

    def setup(self) -> list[float]:
        """Set up ``SETUP_REPEATS`` times; every set-up must give the same inputs."""
        times, fingerprints = [], []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.state = self.wl.prepare(self.args.seed, self.work / f"setup{i}")
            self.wl.warm_up(self.state, self.work / f"warm{i}")
            times.append(time.perf_counter() - t0)
            fingerprints.append(self.state.fingerprint)
        self.checks.expect(len(set(fingerprints)) == 1, "repeated set-up produced different inputs")
        return times

    def run_pass(self, tracer=None, plan=None, workers=None):
        """One timed pass, traced under a ``bench.pass`` root when a tracer is
        given.  Its outputs are inspected after tracing is switched off and
        must be byte-identical to the first untraced pass's."""
        import workloads as W

        out = self.work / f"pass{self.n}"
        self.n += 1
        with W.traced(tracer, plan, "bench.pass") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            returned = self.wl.run_pass(self.state, out, tracer=tracer, workers=workers)
            elapsed = time.perf_counter() - t0
        result = self.wl.inspect(self.state, out, returned, self.checks)
        shutil.rmtree(out, ignore_errors=True)
        if self.first is None:
            self.first = result
        else:
            label = "traced" if tracer else "untraced"
            self.checks.expect(
                result.hashes == self.first.hashes,
                f"{label} pass {self.n - 1} at workers={workers or self.wl.workers} wrote other bytes than pass 0",
            )
        return elapsed, result


def _end_to_end(bench: Bench) -> dict:
    setup_times = bench.setup()
    _reference()  # warm-up
    times, refs = [], [_reference()]
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < bench.args.seconds:
        times.append(bench.run_pass()[0])
        refs.append(_reference())
    # each pass against the mean of the reference loops on either side of it
    wall_per_ref = statistics.median(2.0 * t / (a + b) for t, a, b in zip(times, refs, refs[1:]))
    first, wall_s = bench.first, _fastest(times)
    peak_rss_mb = _peak_rss_mb()
    # the import probes are child processes too, so they run after the
    # workload's peak memory has been read
    import_s, import_times = _import_s()
    setup_s = import_s + statistics.median(setup_times)
    values = {"setup_s": setup_s, "wall_per_ref": wall_per_ref, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if first.runs:
        values["runs_per_s"] = first.runs / wall_s
        values["steps_per_s"] = first.steps / wall_s
    if first.rows:
        values["rows_per_s"] = first.rows / wall_s
    if first.adaptive_f1 is not None:
        values["adaptive_f1_pts"] = 100.0 * first.adaptive_f1
    if first.vanilla_f1 is not None:
        values["f1_gain_pts"] = 100.0 * (first.adaptive_f1 - first.vanilla_f1)
    values["failed_frac"] = len(bench.checks.failures) / bench.checks.attempted
    notes = {
        "wall_per_ref": (
            f"median of {len(times)} passes, each over the mean of the reference loops before and after it; "
            f"reference loop median {statistics.median(refs):.4f} s, fastest {min(refs):.4f} s"
        ),
        "wall_s": (
            f"fastest of {len(times)} passes; median {statistics.median(times):.4f}, slowest {max(times):.4f}"
        ),
        "setup_s": f"median of {SETUP_REPEATS} imports plus median of {SETUP_REPEATS} set-ups",
    }
    return {
        "values": values,
        "notes": notes,
        "pass_s": times,
        "reference_s": refs,
        "setup_s_samples": setup_times,
        "import_s_samples": import_times,
    }


def _traced(bench: Bench) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones.

    Spans from pool workers never reach this process, so on a pooled
    workload the parent-side layers come from passes at its own worker
    count that trace only what the parent calls, and the in-run layers
    from fully traced passes at workers=1.
    """
    import workloads as W
    from tracing import Tracer

    wl = bench.wl
    bench.setup()
    tracer = Tracer(run_root="trainer.train")
    roots = {"setup": [len(tracer.spans)]}
    with W.traced(tracer, W.in_process_plan, "bench.setup"):
        wl.prepare(bench.args.seed, bench.work / "traced-setup")

    if wl.workers > 1:
        phases = [
            ("parent", W.parent_side_plan, wl.workers, "parent-side spans only"),
            ("run", W.in_process_plan, 1, "every layer traced"),
        ]
    else:
        phases = [("run", W.in_process_plan, wl.workers, "every layer traced")]
    sources = {"setup": "traced set-up"}
    outputs, overheads = {}, {}
    budget = bench.args.seconds / len(phases)
    for label, plan, workers, what in phases:
        plain, traced = [], []
        roots[label] = []
        start = time.perf_counter()
        while len(traced) < TRACED_PASSES[0] or (
            len(traced) < TRACED_PASSES[1] and time.perf_counter() - start < budget
        ):
            plain.append(bench.run_pass(workers=workers)[0])
            roots[label].append(len(tracer.spans))
            elapsed, outputs[label] = bench.run_pass(tracer=tracer, plan=plan, workers=workers)
            traced.append(elapsed)
        overheads[label] = _fastest(traced) / _fastest(plain) - 1.0
        sources[label] = f"{len(traced)} passes at workers={workers}, {what}"
    if "parent" not in roots:
        roots["parent"], outputs["parent"], sources["parent"] = roots["run"], outputs["run"], sources["run"]

    layers = W.layer_values(wl, tracer, roots, outputs)
    steps = outputs["run"].steps
    if steps:
        calls = layers["losses.compute_loss_us"]["calls"]
        bench.checks.expect(calls == steps, f"{calls} traced loss calls per pass for {steps} steps")
    layers["trace.overhead_frac"] = {"value": overheads["run"], "unit": "ratio", "calls": 0, "source": "run"}
    OUT.mkdir(exist_ok=True)
    header = {"sources": sources, "roots": roots, "overheads": overheads, "provenance": _provenance(bench.args)}
    tracer.write(OUT / f"{wl.name}.spans.jsonl", header)
    notes = {f"overhead.{k}": f"{v:+.3f} (fastest traced pass / fastest untraced pass - 1)" for k, v in overheads.items()}
    notes.update({f"source.{k}": v for k, v in sources.items()})
    return {"layers": layers, "notes": notes}


def _print_rows(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def run_one(args) -> int:
    _import_library()
    import workloads as W
    from tracing import CoverageError

    wl = W.WORKLOADS[args.workload]
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = W.Checks()
    bench = Bench(wl, args, checks)
    shutil.rmtree(bench.work, ignore_errors=True)
    try:
        if args.trace:
            result = _traced(bench)
        else:
            result = _end_to_end(bench)
    except CoverageError as exc:
        _fail(f"span coverage check failed: {exc}", 1)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    print(f"workload {wl.name}: {wl.why}")
    if args.trace:
        layers = result["layers"]
        _print_rows(
            "per-layer metrics (value, unit, calls per pass, source; 0 where the workload does not use the layer)",
            [(f"{n:34s}", f"{v['value']:.6g}", v["unit"], f"calls={v['calls']:g}", v["source"]) for n, v in layers.items()],
        )
        wanted = [m["name"] for m in bench_doc["per_layer"]]
        metrics = {n: {"value": layers[n]["value"], "unit": layers[n]["unit"]} for n in wanted}
    else:
        values = result["values"]
        _print_rows(
            "end-to-end metrics (value, unit, better)",
            [(f"{n:16s}", f"{values[n]:.6g}", u, b) for n, (u, b) in END_TO_END.items() if n in values],
        )
        wanted = [m["name"] for m in bench_doc["end_to_end"]]
        metrics = {n: {"value": values[n], "unit": END_TO_END[n][0]} for n in wanted}
    for key, note in result["notes"].items():
        print(f"  note {key}: {note}")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    provenance = _provenance(args)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"provenance": provenance, "checks_failed": checks.failures, **result}
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    summary = {"correct": not checks.failures, "attempted": checks.attempted, "failed": len(checks.failures)}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}", 1)
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
