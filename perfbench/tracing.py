"""In-memory spans recorded from outside the library.

The benchmark never edits ``src/``.  It rebinds a function name in the
namespace of the module that *calls* it (``trainer.forward``, not
``model.forward``, because ``trainer`` did ``from .model import forward``),
records one span per call, and restores every original binding when
tracing ends.

A span is ``[name, parent, run, start_ns, end_ns]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``run`` is the index of
the enclosing training-run span (-1 outside one), so all spans of one
training run share an identifier.  Self time is a span's duration minus
the time its direct children cover; calls are strictly nested because
tracing only ever runs in a single thread of a single process.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class CoverageError(RuntimeError):
    """A traced name is missing or recorded no calls where it must."""


class Tracer:
    def __init__(self, run_root: str) -> None:
        self.run_root = run_root
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        """Accumulate a count under the root span that is open now."""
        root = self._stack[0] if self._stack else -1
        self.counts[(root, key)] = self.counts.get((root, key), 0) + value

    def count(self, roots, key: str) -> float:
        """Sum of a count over the given root spans."""
        return sum(self.counts.get((root, key), 0) for root in roots)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if name == self.run_root:
            run = idx
        else:
            run = self.spans[parent][2] if parent >= 0 else -1
        self.spans.append([name, parent, run, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call made by the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name, on_return=None) -> None:
        """Rebind ``owner.attr`` to a recording wrapper until :meth:`restore`.

        ``name`` is a span name, or a callable of the call's arguments that
        returns one.  ``on_return(args, kwargs, result, span)`` runs after
        the span has closed, so its work is not in the span's time.
        """
        if not hasattr(owner, attr):
            raise CoverageError(f"{getattr(owner, '__name__', owner)}.{attr} does not exist")
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(args, kwargs, result, tracer.spans[idx])
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, roots: set[int] | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds.

        With ``roots``, only spans inside those root spans count.
        """
        child_ns = [0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for i, (_, parent, _, start, end) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, _, _, start, end) in enumerate(self.spans):
            if roots is not None and root_of[i] not in roots:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON array per span, once, at the end."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "fields": ["name", "parent", "run", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
