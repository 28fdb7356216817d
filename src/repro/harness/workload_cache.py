"""Content-addressed on-disk cache of generated workload traces.

Workload generation (graph synthesis plus per-warp trace building) can
cost far more than simulating the resulting trace once, and its inputs
are exactly three values: the benchmark name, the scale and the seed.
This module caches the *generated artifact* — the complete
:class:`~repro.gpu.kernel.KernelSpec`, launch tree included — on disk,
keyed by those inputs plus :data:`TRACE_VERSION`, so a warm ``repro
grid`` / ``tune`` run never executes a datagen step at all.

Records are the gzip-compressed JSON trace files of
:mod:`repro.gpu.serialize` (``save_spec`` / ``load_spec``), which
preserve body sharing: a :class:`~repro.gpu.trace.TBBody` referenced by
several launches round-trips to a single object, so the flat-array
lowering (:mod:`repro.gpu.compiled`) is still compiled once per body
after a cache load. Layout mirrors the result cache, sharded by the
first two hex digits of the key::

    <root>/ab/abcdef0123....trace.json.gz

The conventional root is ``workloads/`` *inside* the result-cache
directory (see :func:`repro.harness.execution.kernel_for` and the CLI's
``repro cache stats`` / ``prune``); the suffix and extra directory level
keep the two stores invisible to each other's globs.

Like the result cache, invalidation is by going cold, never wrong:
:data:`TRACE_VERSION` enters every key, so bump it whenever workload
generation or trace semantics change and old records are simply never
looked up again. Corrupt or truncated files count as misses and writes
are atomic, so concurrent processes sharing one cache never observe a
half-written trace.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zlib
from pathlib import Path
from typing import Optional

from repro.gpu.kernel import KernelSpec
from repro.gpu.serialize import FORMAT_VERSION, canonical_json, load_spec, save_spec

#: Version of workload-generation semantics. Bump whenever a datagen or
#: trace-building change can alter the KernelSpec a (benchmark, scale,
#: seed) triple produces: it enters every cache key, so previously
#: stored traces go cold (never wrong) without manual cleanup.
TRACE_VERSION = 1

_SUFFIX = ".trace.json.gz"


class WorkloadCache:
    """Keyed trace store rooted at one directory.

    The directory is created lazily on the first :meth:`store`, so
    constructing a cache (e.g. from a CLI default) touches nothing.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- addressing ------------------------------------------------------------

    @staticmethod
    def key_for(benchmark: str, scale: str, seed: int) -> str:
        """Content hash addressing one generated workload trace.

        Includes :data:`TRACE_VERSION` (generation semantics) and the
        serializer's ``FORMAT_VERSION`` (file layout), so bumping either
        makes every stored trace go cold.
        """
        payload = {
            "trace_version": TRACE_VERSION,
            "format_version": FORMAT_VERSION,
            "benchmark": benchmark,
            "scale": scale,
            "seed": seed,
        }
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        """File a trace with this key lives at (whether or not it exists)."""
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"invalid cache key {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    # -- load / store ----------------------------------------------------------

    def load(self, benchmark: str, scale: str, seed: int) -> Optional[KernelSpec]:
        """Return the cached trace for this workload, or None.

        Missing, unreadable and corrupt files all count as misses — the
        caller regenerates and overwrites.
        """
        path = self.path_for(self.key_for(benchmark, scale, seed))
        try:
            spec = load_spec(path)
        except (OSError, EOFError, zlib.error, ValueError, KeyError, TypeError, IndexError):
            # absent file, truncated gzip, or a record from a foreign/old
            # format the deserializer rejects: regenerate
            self.misses += 1
            return None
        self.hits += 1
        return spec

    def contains(self, benchmark: str, scale: str, seed: int) -> bool:
        """Whether a trace is stored for this workload (not read or checked)."""
        return self.path_for(self.key_for(benchmark, scale, seed)).is_file()

    def store(self, benchmark: str, scale: str, seed: int, spec: KernelSpec) -> None:
        """Atomically write this workload's trace (overwrites)."""
        path = self.path_for(self.key_for(benchmark, scale, seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        # mkstemp (not a pid-suffixed name) so concurrent writers — other
        # processes or threads in this one — never share a temp path
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        os.close(fd)
        try:
            save_spec(spec, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        """Number of traces on disk (walks the directory)."""
        return len(self.record_paths())

    # -- maintenance (``repro cache stats`` / ``repro cache prune``) -----------

    def record_paths(self) -> list[Path]:
        """Every trace file on disk, in deterministic (sorted) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{_SUFFIX}"))

    def disk_stats(self) -> dict:
        """Size digest of the cache directory (JSON-safe)."""
        records = 0
        total_bytes = 0
        for path in self.record_paths():
            try:
                size = path.stat().st_size
            except OSError:
                continue  # racing writer or prune: skip
            records += 1
            total_bytes += size
        return {"root": str(self.root), "records": records, "total_bytes": total_bytes}

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Delete oldest traces until the cache fits in ``max_bytes``.

        Eviction order is modification time (then file name, so equal
        timestamps break deterministically); returns ``(records removed,
        bytes freed)``. Empty shard directories are cleaned up.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        total = 0
        for path in self.record_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, path.name, path, stat.st_size))
            total += stat.st_size
        removed = 0
        freed = 0
        for _, _, path, size in sorted(entries):
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent prune got there first
            removed += 1
            freed += size
        if removed and self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return removed, freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"


# --- the process-wide active cache -------------------------------------------
#
# ``kernel_for`` is a module-level function called deep inside the
# execution layer, so the cache it consults is a process-wide setting
# rather than a parameter threaded through every call site. Executors
# built with a result cache activate a workload cache next to it;
# worker processes are configured by the pool initializer.

_active: Optional[WorkloadCache] = None


def configure_workload_cache(root: str | os.PathLike) -> WorkloadCache:
    """Activate (or re-root) the process-wide workload cache."""
    global _active
    if _active is None or _active.root != Path(root):
        _active = WorkloadCache(root)
    return _active


def active_workload_cache() -> Optional[WorkloadCache]:
    """The process-wide workload cache, or None when disabled."""
    return _active


def disable_workload_cache() -> None:
    """Deactivate the process-wide workload cache (in-memory reuse stays)."""
    global _active
    _active = None


__all__ = [
    "TRACE_VERSION",
    "WorkloadCache",
    "active_workload_cache",
    "configure_workload_cache",
    "disable_workload_cache",
]
