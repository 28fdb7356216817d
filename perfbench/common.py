"""Shared pieces of the benchmark: checkout layout, provenance, digests,
child processes, and the operation ledger."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space and outputs, inside the checkout (and git-ignored)
OUT = ROOT / ".perfbench"

#: the five application families the benchmark replays (one per family)
BENCHMARKS = ("bfs-citation", "sssp-graph500", "amr", "join-gaussian", "bht")
#: the paper's four TB schedulers, figure order
PAPER_SCHEDULERS = ("rr", "tb-pri", "smx-bind", "adaptive-bind")
SCALE = "tiny"


def checkout_ok() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for program child processes: this process's (which
    run.py cleared of REPRO_* knobs and pointed TMPDIR into the checkout)
    plus the checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(SRC))


# -- provenance -------------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True, timeout=10
    ).stdout.strip()


def provenance(workload: str, seed: int, trace: bool) -> dict:
    """Where a result came from. The checkout the benchmark runs in may not
    be a git repository, so a digest of ``src/`` always identifies the code."""
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            git_rev = _git("rev-parse", "--short", "HEAD")
            if _git("status", "--porcelain", "--untracked-files=no"):
                git_rev += "-dirty"
        except (OSError, subprocess.SubprocessError):
            git_rev = None
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "scale": SCALE,
        "trace": trace,
        "git_rev": git_rev or "unavailable (not a git checkout)",
        "src_sha256": tree.hexdigest()[:16],
        "cpu_model": cpu,
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- correctness ------------------------------------------------------------------


def digest_obj(stats_obj: dict) -> str:
    """sha256 of the canonical JSON of ``stats_to_obj`` output."""
    from repro.gpu.serialize import canonical_json

    return hashlib.sha256(canonical_json(stats_obj).encode("utf-8")).hexdigest()


def digest(stats) -> str:
    from repro.gpu.serialize import stats_to_obj

    return digest_obj(stats_to_obj(stats))


def cell_key(benchmark: str, scheduler: str, model: str) -> str:
    return f"{benchmark}/{scheduler}/{model}"


def committed_digests(seed: int) -> dict[str, str]:
    """Per-cell digests pinned for seed 7 (empty for other seeds)."""
    data = json.loads((Path(__file__).parent / "digests.json").read_text())
    if seed != data["seed"] or data["scale"] != SCALE:
        return {}
    return data["cells"]


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def expect(self, cell: str, got: str, want: dict[str, str], path: str) -> bool:
        """One cell of one path checked against its reference digest."""
        ref = want.get(cell)
        return self.op(ref is not None and got == ref, f"{path}: {cell} digest mismatch")


# -- statistics ---------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values, q: float = 95, beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, when at least ``beyond`` samples lie
    above it. With fewer samples it is the highest percentile that has
    ``beyond`` samples above it, and never less than the median: a tail
    read off a handful of samples is noise, not a percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    rank = max(min(math.ceil(q / 100 * n), n - beyond), math.ceil(n / 2))
    return ordered[rank - 1]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- child processes ------------------------------------------------------------------


def tree_peak_mb(pid: int) -> float:
    """Largest ``VmHWM`` (peak resident set) of a process and its live
    descendants, in MB.

    ``wait4``'s ``ru_maxrss`` cannot be used for a child: Linux carries
    the peak of the pre-exec address space, a copy of this (larger)
    benchmark process, into the child's figure.
    """
    peak, stack = 0, [pid]
    while stack:
        proc = Path(f"/proc/{stack.pop()}")
        try:
            for line in (proc / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
            for task in (proc / "task").iterdir():
                stack += [int(c) for c in (task / "children").read_text().split()]
        except (OSError, ValueError):
            continue
    return peak / 1024


class Child:
    """A program process in its own session, so that stopping it also
    stops any pool workers it forked. ``rss_mb`` is the largest peak RSS
    seen in its process tree, sampled every ``RSS_SAMPLE_S``."""

    RSS_SAMPLE_S = 0.01

    def __init__(self, argv: list[str], env: dict, log: Path) -> None:
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.rss_mb = 0.0

    def sample_rss(self) -> None:
        self.rss_mb = max(self.rss_mb, tree_peak_mb(self.proc.pid))

    def wait(self, timeout: float) -> int:
        """Reap the child, sampling its tree's RSS meanwhile; kills the
        session on timeout."""
        deadline = time.monotonic() + timeout
        next_sample = 0.0
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                break
            now = time.monotonic()
            if now > deadline:
                self.kill()
                pid, status = os.waitpid(self.proc.pid, 0)
                break
            if now >= next_sample:
                self.sample_rss()
                next_sample = now + self.RSS_SAMPLE_S
            time.sleep(0.001)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode

    def terminate(self, timeout: float = 30.0) -> int:
        if self.proc.returncode is None:
            self.sample_rss()
            try:
                os.kill(self.proc.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            return self.wait(timeout)
        return self.proc.returncode

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_child(argv: list[str], env: dict, log: Path, timeout: float = 120.0) -> tuple[float, Child]:
    """Run a program process to completion: (wall seconds, child)."""
    start = time.perf_counter()
    child = Child(argv, env, log)
    try:
        child.wait(timeout)
    except BaseException:
        child.kill()
        raise
    return time.perf_counter() - start, child


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


PY = sys.executable
