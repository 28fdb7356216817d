"""Workload ``service``: an open loop against ``repro serve --jobs 1``.

One generator thread submits jobs on a fixed schedule (``RATE`` slots
per second) whatever the service's state. A job's latency runs from its
due time to the service's completion stamp (``finished_at``; client and
service share the host's clock), so a stall also charges the wait it
imposes on later jobs, and no polling interval blurs the figure. After
the last submission the generator polls the job list until every job
has finished, then fetches each result.

Every run starts the service on an empty result cache. Set-up warms the
worker with one job per benchmark under a scheduler outside the measured
pool, so traces are built before timing starts (a long-lived service
pays that once) while every measured spec still misses the result cache.

Each of the 80 tiny specs (five benchmarks x ``SCHEDULERS`` x {dtbl,
cdp}) is offered three times, in an order drawn from
``--seed``: new (the worker executes it), a duplicate right behind it
(the broker coalesces it onto the in-flight original) and a repeat
``REPEAT_GAP`` slots later (answered from the result cache inside the
POST). The composition is the same for every seed.
"""

from __future__ import annotations

import random
import re
import time
from contextlib import nullcontext

from perfbench import layers
from perfbench.common import (
    BENCHMARKS,
    PAPER_SCHEDULERS,
    PY,
    SCALE,
    Child,
    cell_key,
    child_env,
    committed_digests,
    digest,
    digest_obj,
    fresh_dir,
    median,
    tail,
)
from perfbench.spans import SpanRecorder

#: fast enough that a 15-second run offers the whole pool, so every seed
#: runs the same mix of specs
RATE = 11.0
POLL_S = 0.02
REPEAT_GAP = 5
DRAIN_TIMEOUT_S = 60.0
#: the paper's four schedulers, the two L2-cluster bindings and two
#: throttled compositions
SCHEDULERS = (*PAPER_SCHEDULERS, "l2-bind", "adaptive-l2", "rr+throttle", "adaptive-bind+throttle")
POOL = [(b, s, m) for b in BENCHMARKS for s in SCHEDULERS for m in ("dtbl", "cdp")]
#: warm-up scheduler, outside the measured pool
WARMUP_SCHEDULER = "l2-bind+throttle"


def plan(seed: int, slots: int) -> list[tuple[int, str, str]]:
    """(slot, cell, kind) submissions; kind is new, duplicate or repeat."""
    cells = [cell_key(*spec) for spec in POOL]
    random.Random(seed).shuffle(cells)
    out = []
    for k, cell in enumerate(cells[: slots // 2]):
        out += [(2 * k, cell, "new"), (2 * k, cell, "duplicate"), (2 * k + REPEAT_GAP, cell, "repeat")]
    return sorted(out, key=lambda entry: entry[0])


def references(seed: int) -> dict[str, str]:
    """Digest of every pool spec, replayed in-process."""
    from repro.core import make_scheduler
    from repro.dynpar import make_model
    from repro.gpu.engine import Engine
    from repro.harness.registry import experiment_config, load_benchmark

    config = experiment_config()
    kernels = {b: load_benchmark(b, scale=SCALE, seed=seed).kernel() for b in BENCHMARKS}
    return {
        cell_key(b, s, m): digest(
            Engine(config, make_scheduler(s), make_model(m), [kernels[b]]).run()
        )
        for b, s, m in POOL
    }


def start_server(work, tag: str) -> tuple[Child, int]:
    """``repro serve --jobs 1`` on an empty cache; returns once it answers."""
    from repro.service.client import ServiceClient

    cache = fresh_dir(work / f"serve-{tag}")
    log = work / f"serve-{tag}.log"
    child = Child(
        [PY, "-u", "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
         "--cache-dir", str(cache)],
        child_env(),
        log,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        match = re.search(r"listening on http://[^:]+:(\d+)", log.read_text())
        if match:
            port = int(match.group(1))
            ServiceClient(port=port).health()
            return child, port
        if child.proc.poll() is not None:
            break
        time.sleep(0.01)
    child.kill()
    child.wait(10)
    raise RuntimeError(f"repro serve did not come up; see {log}")


def warm_up(port: int, seed: int) -> list[str]:
    """Build every benchmark's trace in the worker (see module docstring);
    returns the warm-up jobs' final states."""
    from repro.service.client import ServiceClient

    client = ServiceClient(port=port)
    ids = [client.submit(b, WARMUP_SCHEDULER, "dtbl", scale=SCALE, seed=seed)["id"] for b in BENCHMARKS]
    return [client.wait(job_id, timeout=DRAIN_TIMEOUT_S)["state"] for job_id in ids]


class Job:
    """One planned submission and what became of it."""

    __slots__ = ("slot", "cell", "kind", "due", "late", "submit_s", "id", "error", "final", "stats")

    def __init__(self, slot: int, cell: str, kind: str, due: float) -> None:
        self.slot, self.cell, self.kind, self.due = slot, cell, kind, due
        self.late = self.submit_s = 0.0
        self.id = self.error = self.final = self.stats = None


def open_loop(port: int, seed: int, seconds: float, rec: SpanRecorder | None) -> list[Job]:
    """Offer the planned jobs on schedule; returns them with their final state."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import TERMINAL_STATES

    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    client = ServiceClient(port=port)
    base = time.time() + 0.1
    jobs = [Job(slot, cell, kind, base + slot / RATE) for slot, cell, kind in plan(seed, int(RATE * seconds))]
    for job in jobs:
        delay = job.due - time.time()
        if delay > 0:
            time.sleep(delay)
        job.late = time.time() - job.due
        sent = time.perf_counter()
        bench, sched, model = job.cell.split("/")
        try:
            with span("service.submit"):
                job.id = client.submit(bench, sched, model, scale=SCALE, seed=seed)["id"]
        except (ServiceError, OSError) as exc:
            job.error = str(exc)
        job.submit_s = time.perf_counter() - sent
    waiting = {job.id for job in jobs if job.id is not None}
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while waiting and time.monotonic() < deadline:
        with span("service.list"):
            listing = client.jobs()
        waiting -= {e["id"] for e in listing if e["state"] in TERMINAL_STATES}
        if waiting:
            time.sleep(POLL_S)
    for job in jobs:
        if job.id is not None:
            with span("service.fetch"):
                job.final = client.job(job.id)
    return jobs


def _schedule(server, tag, seed, seconds, ref, ledger, rec=None) -> dict:
    """One open-loop schedule on a warmed server, every job checked. The
    server is stopped at the end, after a last sample of its peak RSS."""
    from repro.gpu.serialize import stats_from_obj

    child, port = server
    try:
        jobs = open_loop(port, seed, seconds, rec)
    finally:
        child.terminate()
    done = []
    for job in jobs:
        final = job.final or {}
        ok = (
            job.error is None
            and final.get("state") == "done"
            and isinstance(final.get("stats"), dict)
            and digest_obj(final["stats"]) == ref.get(job.cell)
        )
        if job.error:
            reason = job.error
        elif final.get("state") != "done":
            reason = f"ended {final.get('state')}: {final.get('error')}"
        else:
            reason = "digest mismatch"
        if ledger.op(ok, f"{tag}: {job.kind} {job.cell}: {reason}"):
            done.append(job)
    executed = [j for j in done if j.final["source"] == "executed"]
    for job in executed:
        job.stats = stats_from_obj(job.final["stats"])
    latencies = [j.final["finished_at"] - j.due for j in done]
    makespan = max((j.final["finished_at"] for j in done), default=jobs[0].due) - jobs[0].due
    return {
        "makespan": makespan,
        "latencies": latencies,
        "instructions": sum(j.stats.instructions for j in executed),
        "exec_s": sum(j.final["finished_at"] - j.final["started_at"] for j in executed),
        "rss": child.rss_mb,
        "executed": [(j.cell, j.stats) for j in executed],
        "layer": {
            "service.submit_s": median([j.submit_s for j in jobs]),
            "service.queue_wait_s": median(
                [j.final["started_at"] - j.final["submitted_at"] for j in executed]
            ),
            "service.exec_s": median(
                [j.final["finished_at"] - j.final["started_at"] for j in executed]
            ),
            "service.cache_hit_frac": sum(j.final["source"] == "cache" for j in done) / len(jobs),
            "service.coalesce_hits": sum(j.final["source"] == "coalesced" for j in done),
            "service.jobs_executed": len(executed),
            "service.rejected": sum((j.error or "").startswith("HTTP 429") for j in jobs),
            "generator.late_max_s": max(j.late for j in jobs),
        },
    }


def run(seed, seconds, trace, work, ledger) -> layers.Result:
    result = layers.Result()
    setups, servers = [], []
    try:
        # set-up, three times (the figure is the median): the in-process
        # references, then a server started and warmed
        for i in range(3):
            start = time.perf_counter()
            ref = references(seed)
            child, port = start_server(work, f"setup-{i}")
            servers.append((child, port))
            states = warm_up(port, seed)
            setups.append(time.perf_counter() - start)
            for state in states:
                ledger.op(state == "done", f"set-up {i}: warm-up job ended {state}")
        for child, _ in servers[: -2 if trace else -1]:
            child.terminate()
        pinned = committed_digests(seed)
        if pinned:
            for cell, got in ref.items():
                ledger.expect(cell, got, pinned, "in-process reference vs pinned seed-7")

        plain = _schedule(servers[-1], "plain", seed, seconds / 2 if trace else seconds, ref, ledger)
        result.e2e = {
            "setup_s": (median(setups), len(setups)),
            "wall_s": (plain["makespan"], 1),
            "sim_instr_per_s": (
                plain["instructions"] / plain["exec_s"] if plain["exec_s"] else 0.0,
                len(plain["executed"]),
            ),
            "peak_rss_mb": (plain["rss"], 1),
            "job_latency_p50_s": (median(plain["latencies"]), len(plain["latencies"])),
            "job_latency_p95_s": (tail(plain["latencies"]), len(plain["latencies"])),
        }
        if trace:
            rec = SpanRecorder(run="pass-0")
            traced = _schedule(servers[-2], "traced", seed, seconds / 2, ref, ledger, rec)
            result.spans = rec.spans
            result.pass_walls["pass-0"] = traced["makespan"]
            result.per_layer = layers.from_spans(
                rec.spans, {"pass-0": traced["executed"]}, measured={"pass-0": traced["layer"]}
            )
            result.per_layer["trace.overhead_frac"] = (
                traced["makespan"] - plain["makespan"]
            ) / plain["makespan"]
            result.tables.append(
                "  not collected: the service.* spans time the client's calls only; the "
                "server and its worker are not spanned, and the queue wait and execution "
                "time come from each job's started_at/finished_at stamps"
            )
    finally:
        for child, _ in servers:
            child.terminate()
    return result
