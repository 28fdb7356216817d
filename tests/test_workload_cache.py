"""The content-addressed on-disk workload cache.

Pins the end-to-end property the harness optimization promises: once a
workload trace is stored, a warm ``repro grid`` (cold in-memory caches,
cold *result* cache) executes **zero** datagen steps, and the simulated
statistics are bit-for-bit identical to a freshly generated run.
"""

import gzip
import json
import shutil
import time

import pytest

import repro.harness.registry as registry
from repro.harness import workload_cache as wc
from repro.harness.cache import ResultCache
from repro.harness.execution import (
    _KERNEL_CACHE,
    RunSpec,
    make_executor,
    run_spec,
    seed_kernel_cache,
)
from repro.harness.export import grid_to_json
from repro.harness.registry import load_benchmark
from repro.harness.runner import run_grid
from repro.harness.workload_cache import TRACE_VERSION, WorkloadCache
from repro.gpu.serialize import spec_to_obj, stats_to_obj

BENCH = "join-uniform"
SPEC = RunSpec(benchmark=BENCH, scheduler="rr", model="dtbl", scale="tiny", seed=7)


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Tests own the process-wide workload cache and the in-memory LRU."""
    saved_active = wc._active
    saved_kernels = dict(_KERNEL_CACHE)
    wc._active = None
    _KERNEL_CACHE.clear()
    try:
        yield
    finally:
        wc._active = saved_active
        _KERNEL_CACHE.clear()
        _KERNEL_CACHE.update(saved_kernels)


# --- unit: keys, files, maintenance ------------------------------------------


def test_key_is_deterministic_and_version_sensitive(monkeypatch):
    key = WorkloadCache.key_for(BENCH, "tiny", 7)
    assert key == WorkloadCache.key_for(BENCH, "tiny", 7)
    assert key != WorkloadCache.key_for(BENCH, "tiny", 8)
    assert key != WorkloadCache.key_for(BENCH, "small", 7)
    monkeypatch.setattr(wc, "TRACE_VERSION", TRACE_VERSION + 1)
    assert key != WorkloadCache.key_for(BENCH, "tiny", 7)


def test_path_for_rejects_traversal(tmp_path):
    cache = WorkloadCache(tmp_path)
    for bad in ("", "../x", "a.b", "a/b"):
        with pytest.raises(ValueError):
            cache.path_for(bad)


def test_roundtrip_preserves_simulated_stats(tmp_path):
    cache = WorkloadCache(tmp_path)
    assert cache.load(BENCH, "tiny", 7) is None  # cold
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    loaded = cache.load(BENCH, "tiny", 7)
    assert loaded is not None and loaded is not built
    assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def stats_for(spec):
        from repro.harness.runner import simulate

        return stats_to_obj(simulate(spec, "adaptive-bind", "dtbl"))

    assert stats_for(loaded) == stats_for(built)


def test_corrupt_record_is_a_miss(tmp_path):
    cache = WorkloadCache(tmp_path)
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    path = cache.path_for(cache.key_for(BENCH, "tiny", 7))
    path.write_bytes(b"not a gzip trace")
    assert cache.load(BENCH, "tiny", 7) is None


# --- record format: compact JSON, gzip level 1, zero mtime -------------------


def _record_path(cache: WorkloadCache):
    return cache.path_for(cache.key_for(BENCH, "tiny", 7))


def test_gzip9_record_written_the_old_way_still_loads(tmp_path):
    """Records of earlier versions (streamed json.dump, gzip level 9)
    stay valid: same payload, only the compression differs."""
    cache = WorkloadCache(tmp_path)
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    path = _record_path(cache)
    path.parent.mkdir(parents=True)
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump(spec_to_obj(built), f, separators=(",", ":"))
    loaded = cache.load(BENCH, "tiny", 7)
    assert loaded is not None and cache.hits == 1 and cache.misses == 0
    assert spec_to_obj(loaded) == spec_to_obj(built)


def test_two_stores_of_one_spec_are_byte_identical(tmp_path, monkeypatch):
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    first, second = WorkloadCache(tmp_path / "a"), WorkloadCache(tmp_path / "b")
    first.store(BENCH, "tiny", 7, built)
    # a header carrying the wall clock would now differ
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    second.store(BENCH, "tiny", 7, built)
    data = _record_path(first).read_bytes()
    assert data == _record_path(second).read_bytes()
    assert data[4:8] == b"\0\0\0\0"  # gzip header mtime


def test_record_payload_is_the_compact_json_of_the_spec(tmp_path):
    cache = WorkloadCache(tmp_path)
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    payload = gzip.decompress(_record_path(cache).read_bytes())
    assert payload == json.dumps(spec_to_obj(built), separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("keep", [0, 5, 10, 100, -8, -1])
def test_truncated_record_is_a_miss(tmp_path, keep):
    cache = WorkloadCache(tmp_path)
    cache.store(BENCH, "tiny", 7, load_benchmark(BENCH, scale="tiny", seed=7).kernel())
    path = _record_path(cache)
    path.write_bytes(path.read_bytes()[:keep])
    assert cache.load(BENCH, "tiny", 7) is None
    assert cache.misses == 1 and cache.hits == 0


def test_disk_stats_and_prune(tmp_path):
    cache = WorkloadCache(tmp_path)
    assert cache.disk_stats()["records"] == 0 and len(cache) == 0
    built = load_benchmark(BENCH, scale="tiny", seed=7).kernel()
    cache.store(BENCH, "tiny", 7, built)
    cache.store(BENCH, "tiny", 8, built)
    stats = cache.disk_stats()
    assert stats["records"] == 2 and stats["total_bytes"] > 0
    removed, freed = cache.prune(0)
    assert removed == 2 and freed == stats["total_bytes"]
    assert len(cache) == 0
    # shard dirs are cleaned up; only the root remains
    assert [p for p in tmp_path.iterdir() if p.is_dir()] == []
    with pytest.raises(ValueError):
        cache.prune(-1)


# --- integration: kernel_for / executors / grids ------------------------------


def test_kernel_for_builds_once_then_loads_from_disk(tmp_path, monkeypatch):
    from repro.harness import execution

    builds = []
    orig = registry.load_benchmark

    def counting(name, scale="small", seed=7):
        builds.append(name)
        return orig(name, scale=scale, seed=seed)

    monkeypatch.setattr(registry, "load_benchmark", counting)
    cache = wc.configure_workload_cache(tmp_path)
    execution.kernel_for(BENCH, "tiny", 7)
    assert builds == [BENCH] and cache.stores == 1
    _KERNEL_CACHE.clear()
    execution.kernel_for(BENCH, "tiny", 7)  # warm: disk, not datagen
    assert builds == [BENCH] and cache.hits == 1


def test_executor_activates_cache_next_to_result_cache(tmp_path):
    executor = make_executor(jobs=1, cache=ResultCache(tmp_path / "cache"))
    assert executor.workload_cache is wc.active_workload_cache()
    assert executor.workload_cache.root == tmp_path / "cache" / "workloads"
    # uncached executors leave the active cache alone
    assert make_executor(jobs=1).workload_cache is None
    assert wc.active_workload_cache() is executor.workload_cache


def test_warm_grid_runs_zero_datagen_steps(tmp_path, monkeypatch):
    """The headline pin: grid #2 must not generate a single workload.

    Setup stores the trace via a cold grid; then every in-memory cache
    is cleared, the *result* cache is emptied (so simulations really
    re-run) and datagen is monkeypatched to fail loudly.
    """
    cache_dir = tmp_path / "cache"
    workloads = [load_benchmark(BENCH, scale="tiny", seed=7)]
    first = run_grid(
        workloads,
        schedulers=("rr", "adaptive-bind"),
        models=("dtbl",),
        scale="tiny",
        executor=make_executor(jobs=1, cache=ResultCache(cache_dir)),
    )
    # cold process simulation: no kernels in memory, no cached results —
    # only the workload trace store survives
    _KERNEL_CACHE.clear()
    for entry in cache_dir.iterdir():
        if entry.name != "workloads":
            shutil.rmtree(entry)

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("datagen executed on a warm workload cache")

    monkeypatch.setattr(type(workloads[0]), "build", boom)
    monkeypatch.setattr(registry, "load_benchmark", boom)
    monkeypatch.setattr(registry, "make_workload", boom)
    executor = make_executor(jobs=1, cache=ResultCache(cache_dir))
    # run_grid with a fresh (unbuilt) workload object: construction is
    # allowed, build is not — seed_kernel_cache must answer from disk
    second = run_grid(
        [type(workloads[0])(workloads[0].input_name, scale="tiny", seed=7)],
        schedulers=("rr", "adaptive-bind"),
        models=("dtbl",),
        scale="tiny",
        executor=executor,
    )
    assert executor.hits == 0  # the result cache really was emptied
    assert grid_to_json(second) == grid_to_json(first)
    assert executor.workload_cache.hits >= 1


def test_built_workload_trace_is_stored_once(tmp_path):
    """Regression: seed_kernel_cache rewrote a built workload's trace on
    every grid, even when the identical record was already on disk."""
    workloads = [load_benchmark(BENCH, scale="tiny", seed=7)]
    workloads[0].kernel()
    for _ in range(2):
        run_grid(
            workloads,
            schedulers=("rr",),
            models=("dtbl",),
            executor=make_executor(jobs=1, cache=ResultCache(tmp_path)),
        )
    assert wc.active_workload_cache().stores == 1


def test_custom_workload_subclass_bypasses_disk_cache(tmp_path):
    """A subclass sharing a registry name must use its own trace."""
    base = load_benchmark(BENCH, scale="tiny", seed=7)
    cache = wc.configure_workload_cache(tmp_path)
    cache.store(BENCH, "tiny", 7, base.kernel())

    class Custom(type(base)):
        pass

    custom = Custom(base.input_name, scale="tiny", seed=7)
    seed_kernel_cache(custom)
    assert _KERNEL_CACHE[(BENCH, "tiny", 7)] is custom.kernel()


def test_run_spec_without_active_cache_touches_no_disk(tmp_path):
    assert wc.active_workload_cache() is None
    run_spec(SPEC)
    assert list(tmp_path.iterdir()) == []


# --- CLI --------------------------------------------------------------------


def test_cli_cache_stats_and_prune_cover_workloads(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    cache = WorkloadCache(cache_dir / "workloads")
    cache.store(BENCH, "tiny", 7, load_benchmark(BENCH, scale="tiny", seed=7).kernel())
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "workload traces  1" in out
    assert main(["cache", "prune", "--max-bytes", "0", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 workload trace(s)" in out
    assert len(cache) == 0
