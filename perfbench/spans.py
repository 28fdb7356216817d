"""Wall-clock spans recorded around calls into the program's layers.

The program itself reads no clock, so the benchmark wraps the public
entry points of each layer from outside (:func:`install_probes`) while a
traced pass runs, and removes the wrappers afterwards. Untraced passes
run the program's own functions untouched.

A span is ``{name, start, end, id, parent, run, pid, attrs}`` with
``perf_counter_ns`` times. On Linux that clock is system-wide monotonic,
so spans from forked pool workers line up with the parent's. Spans stay
in memory; pool workers append theirs to one file per worker process
after every task (:meth:`SpanRecorder.flush`), because a pool worker
exits through ``os._exit`` and never runs exit hooks.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

#: where a span's data comes from, for the report
COLLECTION = {
    "in-process": "recorded in the process that made the call",
    "worker-file": "recorded in a forked pool worker, appended to a per-worker "
    "span file after each task, merged by the parent",
}


class SpanRecorder:
    """Nested spans of one process, kept in memory."""

    def __init__(self, run: str = "", spill_dir: Optional[Path] = None) -> None:
        self.run = run
        self.spans: list[dict] = []
        self.spill_dir = spill_dir
        # one open-span stack per thread, so concurrent callers nest correctly
        self._local = threading.local()
        self._ids = itertools.count()
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a forked worker keeps the open stack (so its spans hang under the
        # parent's executor span) but none of the parent's finished spans
        self._pid = os.getpid()
        self.spans = []

    @property
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {
            "name": name,
            "id": f"{self._pid}.{next(self._ids)}",
            "parent": parent,
            "run": self.run,
            "pid": self._pid,
            "attrs": attrs,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(rec)

    def attr(self, key: str):
        """The innermost open span's value for ``key``, if any."""
        for rec in reversed(self._stack):
            if key in rec["attrs"]:
                return rec["attrs"][key]
        return None

    def flush(self) -> None:
        """Append this process's finished spans to its spill file."""
        if self.spill_dir is None or not self.spans:
            return
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")
        self.spans = []

    def collect_spilled(self) -> None:
        """Merge every worker's spill file into this recorder."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    rec = json.loads(line)
                    rec["collected"] = "worker-file"
                    self.spans.append(rec)
            path.unlink()


# -- probes --------------------------------------------------------------------


def _wrap(rec: SpanRecorder, fn, name: str, *, attrs=None, after=None, flush=False, skip=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip is not None and skip(*args):
            return fn(*args, **kwargs)
        with rec.span(name, **(attrs(*args, **kwargs) if attrs else {})) as sp:
            result = fn(*args, **kwargs)
            if after is not None:
                sp["attrs"].update(after(result))
        if flush:
            rec.flush()
        return result

    return wrapper


def _probe_table(rec: SpanRecorder):
    """(owner, attribute, span name, options) for every probed call."""
    from repro.gpu import compiled
    from repro.gpu.engine import Engine
    from repro.harness import execution, runner
    from repro.harness.cache import ResultCache
    from repro.harness.workload_cache import WorkloadCache
    from repro.workloads.base import Workload

    hit = lambda result: {"hit": result is not None}  # noqa: E731
    return [
        # datagen + trace building; kernel() memoizes, so only a call that
        # builds opens a span
        (
            Workload,
            "kernel",
            "workloads.build",
            {"skip": lambda w: w.is_built, "attrs": lambda w: {"bench": w.full_name}},
        ),
        (WorkloadCache, "store", "workload_cache.store", {}),
        (WorkloadCache, "load", "workload_cache.load", {"after": hit}),
        (compiled, "compile_body", "compiled.lower", {}),
        (Engine, "run", "engine.run", {"attrs": lambda _engine: {"cell": rec.attr("cell")}}),
        (ResultCache, "load", "result_cache.load", {"after": hit}),
        (ResultCache, "store", "result_cache.store", {}),
        (execution.Executor, "run", "executor.run", {}),
        (execution, "kernel_for", "executor.kernel_for", {}),
        # run_grid calls the name it imported into the runner module
        (runner, "seed_kernel_cache", "executor.seed_kernel_cache", {}),
        (execution, "_worker_init", "executor.worker_init", {"flush": True}),
        (
            execution,
            "_worker_run",
            "executor.worker_run",
            {
                "flush": True,
                "attrs": lambda payload: {
                    "cell": "{benchmark}/{scheduler}/{model}".format(**payload["spec"])
                },
            },
        ),
    ]


@contextmanager
def install_probes(rec: SpanRecorder):
    """Wrap every probed layer call in a span for the duration of the block.

    Pool workers forked inside the block inherit the wrappers, which is
    how their spans are recorded at all.
    """
    saved = []
    for owner, attr, name, opts in _probe_table(rec):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(rec, original, name, **opts))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis --------------------------------------------------------------------


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self time in seconds."""
    children: dict[str, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    return {
        rec["id"]: (
            rec["end"] - rec["start"] - _covered(rec["start"], rec["end"], children.get(rec["id"], []))
        )
        / 1e9
        for rec in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
