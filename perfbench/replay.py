"""Workload ``replay``: in-process ``Engine(...).run()`` over pre-built,
pre-lowered traces.

Engine, scheduler and memory model do all the work here; no file is read
or written while passes run. One pass replays 20 cells: the five
benchmarks x {rr, adaptive-bind} x {dtbl, cdp}.
"""

from __future__ import annotations

import time

from perfbench import layers
from perfbench.common import (
    BENCHMARKS,
    SCALE,
    cell_key,
    committed_digests,
    digest,
    median,
    tail,
    self_rss_mb,
)
from perfbench.spans import SpanRecorder, install_probes

SCHEDULERS = ("rr", "adaptive-bind")
MODELS = ("dtbl", "cdp")
CELLS = [(b, s, m) for b in BENCHMARKS for s in SCHEDULERS for m in MODELS]


def build_traces(seed: int) -> dict:
    """One set-up: datagen + trace building, then lowering of every body."""
    from repro.gpu.trace import walk_bodies
    from repro.harness.registry import experiment_config, load_benchmark

    line_bytes = experiment_config().line_bytes
    kernels = {b: load_benchmark(b, scale=SCALE, seed=seed).kernel() for b in BENCHMARKS}
    for kernel in kernels.values():
        for body in walk_bodies(kernel.bodies):
            body.compiled(line_bytes)
    return kernels


def replay_pass(kernels: dict, rec: SpanRecorder | None = None) -> tuple[dict, dict]:
    """Replay every cell once: (cell -> host seconds, cell -> SimStats)."""
    from repro.core import make_scheduler
    from repro.dynpar import make_model
    from repro.gpu.engine import Engine
    from repro.harness.registry import experiment_config

    config = experiment_config()
    times, stats = {}, {}
    for bench, sched, model in CELLS:
        cell = cell_key(bench, sched, model)
        start = time.perf_counter()
        if rec is None:
            result = Engine(config, make_scheduler(sched), make_model(model), [kernels[bench]]).run()
        else:
            with rec.span("engine.cell", cell=cell):
                result = Engine(
                    config, make_scheduler(sched), make_model(model), [kernels[bench]]
                ).run()
        times[cell] = time.perf_counter() - start
        stats[cell] = result
    return times, stats


def walk_probe(kernels: dict, rec: SpanRecorder, repeats: int = 3) -> dict[str, float]:
    """ns per coalesced line through ``MemoryHierarchy.accessor(smx)``.

    Drives the per-SMX accessor the engine itself calls over each
    benchmark's compiled line stream: every LOAD/STORE of every distinct
    body, bodies dealt round-robin over the SMXs, the clock advancing a
    fixed 4 cycles per access. Median of ``repeats`` walks, each on a
    fresh (cold) hierarchy.
    """
    from repro.gpu.compiled import OP_LOAD, OP_STORE
    from repro.gpu.trace import walk_bodies
    from repro.harness.registry import experiment_config
    from repro.memory.hierarchy import MemoryHierarchy

    config = experiment_config()
    out = {}
    for bench in BENCHMARKS:
        bodies = [b.compiled(config.line_bytes) for b in walk_bodies(kernels[bench].bodies)]
        stream = []
        for i, body in enumerate(bodies):
            pool = body.lines
            for ops, args, offs in zip(body.warp_ops, body.warp_args, body.warp_offs):
                for op, arg, off in zip(ops, args, offs):
                    if op == OP_LOAD or op == OP_STORE:
                        stream.append((i % config.num_smx, pool, off, off + arg, op == OP_STORE))
        lines = sum(end - begin for _, _, begin, end, _ in stream)
        samples = []
        for _ in range(repeats):
            memory = MemoryHierarchy(config)
            accessors = [memory.accessor(i) for i in range(config.num_smx)]
            now = 0
            with rec.span("memory.walk", bench=bench, lines=lines):
                start = time.perf_counter_ns()
                for smx, pool, begin, end, is_write in stream:
                    accessors[smx](pool, begin, end, now, is_write)
                    now += 4
                elapsed = time.perf_counter_ns() - start
            samples.append(elapsed / max(lines, 1))
        out[bench] = median(samples)
    return out


def run(seed: int, seconds: float, trace: bool, work, ledger) -> layers.Result:
    result = layers.Result()
    rec = SpanRecorder() if trace else None
    pinned = committed_digests(seed)

    # set-up, three times: the figure is the median
    setups = []
    for i in range(3):
        start = time.perf_counter()
        if rec is None:
            kernels = build_traces(seed)
        else:
            rec.run = f"setup-{i}"
            with install_probes(rec):
                kernels = build_traces(seed)
        setups.append(time.perf_counter() - start)

    passes: list[float] = []
    traced_passes: list[float] = []
    cell_times: list[float] = []
    reference: dict[str, str] = {}
    executed: dict[str, list] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        traced = rec is not None and i % 2 == 1
        start = time.perf_counter()
        if traced:
            rec.run = f"pass-{i}"
            with install_probes(rec):
                times, stats = replay_pass(kernels, rec)
        else:
            times, stats = replay_pass(kernels)
        elapsed = time.perf_counter() - start
        if traced:
            traced_passes.append(elapsed)
            result.pass_walls[rec.run] = elapsed
            executed[rec.run] = list(stats.items())
        else:
            passes.append(elapsed)
            cell_times.extend(times.values())
        for cell, st in stats.items():
            got = digest(st)
            reference.setdefault(cell, got)
            ledger.op(got == reference[cell], f"replay pass {i}: {cell} differs from pass 0")
        i += 1
    rss = self_rss_mb()

    # the in-process path against the pinned digests, the executor path and
    # the cache path (a second executor answered from the first one's cache)
    if pinned:
        for cell, got in reference.items():
            ledger.expect(cell, got, pinned, "in-process replay vs pinned seed-7")
    _check_executor_and_cache(seed, reference, work, ledger)

    instructions = sum(st.instructions for st in stats.values())
    wall = median(passes)
    result.e2e = {
        "setup_s": (median(setups), len(setups)),
        "wall_s": (wall, len(passes)),
        "sim_instr_per_s": (instructions / wall, len(passes)),
        "peak_rss_mb": (rss, 1),
        "job_latency_p50_s": (median(cell_times), len(cell_times)),
        "job_latency_p95_s": (tail(cell_times), len(cell_times)),
    }
    if rec is not None:
        rec.run = "probe"
        walk = walk_probe(kernels, rec)
        result.per_layer = layers.from_spans(rec.spans, executed)
        result.per_layer.update({f"memory.walk_ns_per_line.{b}": ns for b, ns in walk.items()})
        result.per_layer["trace.overhead_frac"] = (median(traced_passes) - wall) / wall
        result.spans = rec.spans
        result.tables += layers.modelled_table(executed)
    return result


def _check_executor_and_cache(seed: int, reference: dict, work, ledger) -> None:
    from repro.harness.cache import ResultCache
    from repro.harness.execution import RunSpec, SerialExecutor

    specs = {cell_key(b, s, m): RunSpec.create(b, s, m, scale=SCALE, seed=seed) for b, s, m in CELLS}
    cache = ResultCache(work / "verify-cache")
    for path in ("executor path", "cache path"):
        executor = SerialExecutor(cache)
        results = executor.run(list(specs.values()))
        for cell, spec in specs.items():
            ledger.expect(cell, digest(results[spec]), reference, f"{path} vs in-process replay")
        if path == "cache path":
            ledger.op(executor.misses == 0 and executor.hits == len(specs), "cache path re-executed")
