"""Workloads ``grid-cold`` and ``grid-warm``: the ``repro grid`` command.

Each pass is a fresh ``python3 -m repro.cli grid`` process over the five
benchmarks x the paper's four schedulers x dtbl (20 cells) with
``--jobs nproc``, timed from spawn to exit. ``grid-cold`` gives every
pass an empty result cache (and so an empty workload cache); ``grid-warm``
points every pass at the cache its set-up filled.

Correctness: set-up replays the 20 cells in-process (the reference).
Every pass's export must equal the export built from the reference; a
cold pass's cache records must carry the reference stats; a warm pass's
export must equal the cold fill's byte for byte, and the warm pass must
leave the cache untouched.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from perfbench import layers
from perfbench.common import (
    BENCHMARKS,
    PAPER_SCHEDULERS,
    PY,
    ROOT,
    SCALE,
    cell_key,
    child_env,
    committed_digests,
    digest,
    digest_obj,
    dir_bytes,
    fresh_dir,
    median,
    nproc,
    tail,
    run_child,
)

MODEL = "dtbl"
CELLS = [(b, s, MODEL) for b in BENCHMARKS for s in PAPER_SCHEDULERS]


class Reference:
    """The 20 grid cells replayed in-process, and the export they make."""

    def __init__(self, seed: int) -> None:
        from repro.core import make_scheduler
        from repro.dynpar import make_model
        from repro.gpu.engine import Engine
        from repro.harness.export import grid_to_json
        from repro.harness.registry import experiment_config, load_benchmark
        from repro.harness.runner import GridResult

        config = experiment_config()
        self.kernels = {b: load_benchmark(b, scale=SCALE, seed=seed).kernel() for b in BENCHMARKS}
        grid = GridResult(schedulers=list(PAPER_SCHEDULERS), models=[MODEL], benchmarks=list(BENCHMARKS))
        for bench, sched, model in CELLS:
            grid.stats[(bench, sched, model)] = Engine(
                config, make_scheduler(sched), make_model(model), [self.kernels[bench]]
            ).run()
        self.stats = {cell_key(*key): st for key, st in grid.stats.items()}
        self.digests = {cell: digest(st) for cell, st in self.stats.items()}
        self.records = {
            cell_key(r["benchmark"], r["scheduler"], r["model"]): r
            for r in json.loads(grid_to_json(grid))
        }
        self.instructions = sum(st.instructions for st in self.stats.values())

    def trace_counts(self) -> dict:
        """bench -> (distinct bodies, coalesced lines) of its trace."""
        from repro.gpu.trace import walk_bodies
        from repro.harness.registry import experiment_config

        line_bytes = experiment_config().line_bytes
        out = {}
        for bench, kernel in self.kernels.items():
            bodies = walk_bodies(kernel.bodies)
            out[bench] = (len(bodies), sum(len(b.compiled(line_bytes).lines) for b in bodies))
        return out


def grid_argv(seed: int, cache: Path, export: Path) -> list[str]:
    """The ``repro`` command line of one pass."""
    return [
        "--seed", str(seed), "grid", "--scale", SCALE,
        "--benchmarks", *BENCHMARKS, "--models", MODEL,
        "--jobs", str(nproc()), "--cache-dir", str(cache), "-o", str(export),
    ]


def _pass(seed: int, cache: Path, work: Path, tag: str, traced: bool):
    """One grid process: (wall seconds, child, export path, spans or None)."""
    export = work / f"{tag}-export.json"
    argv = grid_argv(seed, cache, export)
    if traced:
        spans = work / f"{tag}-spans.json"
        spill = fresh_dir(work / f"{tag}-spill")
        argv = [PY, str(ROOT / "perfbench" / "grid_child.py"), "--run", tag,
                "--spans", str(spans), "--spill", str(spill), "--", *argv]
    else:
        argv = [PY, "-m", "repro.cli", *argv]
    wall, child = run_child(argv, child_env(), work / f"{tag}.log")
    loaded = json.loads(spans.read_text()) if traced and child.proc.returncode == 0 else None
    return wall, child, export, loaded


def _check_export(export: Path, ref: Reference, ledger, what: str) -> None:
    """One operation per cell: the pass's exported record equals the
    reference's."""
    try:
        records = {
            cell_key(r["benchmark"], r["scheduler"], r["model"]): r
            for r in json.loads(export.read_text())
        }
    except (OSError, ValueError, KeyError):
        records = {}
    for cell in ref.records:
        ledger.op(records.get(cell) == ref.records[cell], f"{what}: {cell} export record differs")


def _check_cache(cache: Path, seed: int, ref: Reference, ledger, what: str) -> None:
    """One operation per cell: its result-cache record carries the
    reference stats."""
    from repro.harness.cache import ResultCache
    from repro.harness.execution import RunSpec

    store = ResultCache(cache)
    for bench, sched, model in CELLS:
        record = store.load(RunSpec.create(bench, sched, model, scale=SCALE, seed=seed).cache_key())
        stats = record.get("stats") if record is not None else None
        cell = cell_key(bench, sched, model)
        got = digest_obj(stats) if isinstance(stats, dict) else None
        ledger.expect(cell, got, ref.digests, f"{what}: cache record vs in-process reference")


def _snapshot(cache: Path) -> dict:
    return {str(p): (p.stat().st_mtime_ns, p.stat().st_size) for p in cache.rglob("*") if p.is_file()}


def _setup_reference(seed: int, ledger) -> Reference:
    ref = Reference(seed)
    pinned = committed_digests(seed)
    if pinned:
        for cell, got in ref.digests.items():
            ledger.expect(cell, got, pinned, "in-process reference vs pinned seed-7")
    return ref


def _measure(seed, seconds, trace, work, ledger, *, warm: bool) -> layers.Result:
    result = layers.Result()
    setups = []
    for i in range(3):
        start = time.perf_counter()
        ref = _setup_reference(seed, ledger)
        if warm:
            cache = fresh_dir(work / f"cache-setup-{i}")
            _, child, export, _ = _pass(seed, cache, work, f"setup-{i}", False)
            ledger.op(child.proc.returncode == 0, f"warm set-up fill exited {child.proc.returncode}")
        setups.append(time.perf_counter() - start)
    if warm:
        _check_export(export, ref, ledger, "cold fill")
        _check_cache(cache, seed, ref, ledger, "cold fill")
        cold_export = export.read_bytes()
        before = _snapshot(cache)

    # one unmeasured pass first, so that every measured pass finds the
    # interpreter's bytecode caches and the OS page cache in the same state
    _, child, _, _ = _pass(seed, cache if warm else fresh_dir(work / "cache-warmup"), work, "warmup", False)
    ledger.op(child.proc.returncode == 0, f"warm-up pass exited {child.proc.returncode}")

    walls, traced_walls, rss = [], [], []
    spans, executed, measured = [], {}, {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        tag = f"pass-{i}"
        if not warm:
            cache = fresh_dir(work / f"cache-{tag}")
        wall, child, export, pass_spans = _pass(seed, cache, work, tag, traced)
        if child.proc.returncode != 0:
            for cell in ref.records:
                ledger.op(False, f"{tag}: repro grid exited {child.proc.returncode} ({cell})")
            i += 1
            continue
        _check_export(export, ref, ledger, tag)
        if warm:
            ledger.op(export.read_bytes() == cold_export, f"{tag}: warm export differs from the cold one")
            ledger.op(_snapshot(cache) == before, f"{tag}: warm pass wrote to the cache")
        else:
            _check_cache(cache, seed, ref, ledger, tag)
        if traced:
            traced_walls.append(wall)
            result.pass_walls[tag] = wall
            spans += pass_spans
            measured[tag] = {"workload_cache.bytes": dir_bytes(cache / "workloads")}
            if not warm:
                executed[tag] = list(ref.stats.items())
        else:
            walls.append(wall)
            rss.append(child.rss_mb)
        i += 1

    wall = median(walls)
    result.e2e = {
        "setup_s": (median(setups), len(setups)),
        "wall_s": (wall, len(walls)),
        "sim_instr_per_s": (ref.instructions / wall if wall else 0.0, len(walls)),
        "peak_rss_mb": (max(rss, default=0.0), len(rss)),
        "job_latency_p50_s": (wall, len(walls)),
        "job_latency_p95_s": (tail(walls), len(walls)),
    }
    if trace:
        result.spans = spans
        result.per_layer = layers.from_spans(spans, executed, ref.trace_counts(), measured)
        result.per_layer["trace.overhead_frac"] = (median(traced_walls) - wall) / wall if wall else 0.0
    return result


def run_cold(seed, seconds, trace, work, ledger) -> layers.Result:
    return _measure(seed, seconds, trace, work, ledger, warm=False)


def run_warm(seed, seconds, trace, work, ledger) -> layers.Result:
    return _measure(seed, seconds, trace, work, ledger, warm=True)
