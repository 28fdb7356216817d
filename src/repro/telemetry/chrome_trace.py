"""Chrome/Perfetto trace-event export.

:class:`ChromeTraceSink` records the telemetry stream and renders it in
the Trace Event JSON format that ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

* one *thread* track per SMX, holding complete-event (``"ph": "X"``)
  slices for every thread block's residency (dispatch → retire), named by
  kernel and colored by host/dynamic origin;
* a *scheduler* track with instant events for device launches, kernel
  admissions, work steals and queue overflows;
* counter tracks (``"ph": "C"``) for cache hit rates and queued/resident
  thread blocks, fed by the engine's periodic :class:`CacheSample`\\ s.

One simulated cycle is exported as one microsecond of trace time, so
viewer timestamps read directly as cycles.

:func:`validate_trace` is the schema checker used by tests, ``repro
trace`` and ``make trace-demo``: it verifies the envelope, the required
``ph``/``ts``/``pid``/``tid`` keys, non-negative durations and globally
sorted (monotonically consistent) timestamps.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.telemetry.events import (
    CacheSample,
    ChildLaunched,
    KernelDispatched,
    QueueOverflow,
    TBCompleted,
    TBDispatched,
    TelemetryEvent,
    TelemetrySink,
    WarpStall,
    WorkStolen,
)

#: pid used for the single simulated-GPU "process"
TRACE_PID = 0

#: phases that describe timed trace content (metadata "M" is exempt from
#: the ts/tid requirements)
_TIMED_PHASES = {"X", "i", "I", "C", "B", "E"}


class TraceValidationError(ValueError):
    """A trace violated the trace-event schema (first problem in args)."""


class ChromeTraceSink(TelemetrySink):
    """Buffers telemetry events and renders trace-event JSON.

    The sink keeps the raw events (they are frozen and cheap); rendering
    happens once, after the run, in :meth:`trace` / :meth:`write`.
    """

    def __init__(self, *, num_smx: Optional[int] = None, label: Optional[str] = None) -> None:
        self.events: list[TelemetryEvent] = []
        self.num_smx = num_smx
        #: free-form run label (canonical scheduler name in the harness);
        #: shown in the viewer's process name so traces are self-describing
        self.label = label

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    # ----- rendering -------------------------------------------------------
    def _smx_count(self) -> int:
        if self.num_smx is not None:
            return self.num_smx
        highest = -1
        for e in self.events:
            smx = getattr(e, "smx_id", None)
            if smx is None:
                smx = getattr(e, "thief_smx_id", None)
            if smx is not None and smx > highest:
                highest = smx
        return highest + 1

    def trace(self) -> dict:
        """Render the buffered events as a trace-event JSON object."""
        num_smx = self._smx_count()
        scheduler_tid = num_smx  # one track after the per-SMX ones
        process_name = "LaPerm simulated GPU"
        if self.label:
            process_name = f"{process_name} [{self.label}]"
        out: list[dict] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": TRACE_PID,
                "args": {"name": process_name},
            }
        ]
        for smx in range(num_smx):
            out.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": TRACE_PID,
                    "tid": smx,
                    "args": {"name": f"SMX {smx}"},
                }
            )
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": scheduler_tid,
                "args": {"name": "scheduler"},
            }
        )

        timed: list[dict] = []
        open_slices: dict[int, TBDispatched] = {}
        end_time = max((e.time for e in self.events), default=0)

        def instant(event_time: int, tid: int, name: str, args: dict) -> None:
            timed.append(
                {
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "ts": event_time,
                    "pid": TRACE_PID,
                    "tid": tid,
                    "name": name,
                    "args": args,
                }
            )

        for event in self.events:
            kind = type(event)
            if kind is TBDispatched:
                open_slices[event.tb_id] = event
            elif kind is TBCompleted:
                start = event.dispatched_at
                dispatch = open_slices.pop(event.tb_id, None)
                timed.append(
                    {
                        "ph": "X",
                        "ts": start,
                        "dur": max(event.time - start, 0),
                        "pid": TRACE_PID,
                        "tid": event.smx_id,
                        "name": event.kernel,
                        "cat": "dynamic" if event.is_dynamic else "host",
                        "args": {
                            "tb": event.tb_id,
                            "kernel_id": event.kernel_id,
                            "warps": event.warps,
                            "priority": dispatch.priority if dispatch else None,
                        },
                    }
                )
            elif kind is ChildLaunched:
                instant(
                    event.time,
                    event.smx_id,
                    f"launch {event.kernel}",
                    {"parent_tb": event.parent_tb_id, "tbs": event.num_tbs},
                )
            elif kind is WorkStolen:
                instant(
                    event.time,
                    event.thief_smx_id,
                    "steal",
                    {
                        "victim_cluster": event.victim_cluster,
                        "tb": event.tb_id,
                        "priority": event.priority,
                    },
                )
            elif kind is KernelDispatched:
                instant(
                    event.time,
                    scheduler_tid,
                    f"kernel {event.kernel}",
                    {
                        "kernel_id": event.kernel_id,
                        "priority": event.priority,
                        "tbs": event.num_tbs,
                        "device": event.is_device,
                    },
                )
            elif kind is QueueOverflow:
                instant(
                    event.time,
                    scheduler_tid,
                    "queue overflow",
                    {"cluster": event.cluster, "level": event.level, "entries": event.total_entries},
                )
            elif kind is CacheSample:
                timed.append(
                    {
                        "ph": "C",
                        "ts": event.time,
                        "pid": TRACE_PID,
                        "tid": scheduler_tid,
                        "name": "cache hit rate",
                        "args": {"l1": event.l1_hit_rate, "l2": event.l2_hit_rate},
                    }
                )
                timed.append(
                    {
                        "ph": "C",
                        "ts": event.time,
                        "pid": TRACE_PID,
                        "tid": scheduler_tid,
                        "name": "thread blocks",
                        "args": {"queued": event.queued_tbs, "resident": event.resident_tbs},
                    }
                )
            # WarpStall events are aggregated, not drawn: a slice per stall
            # would dwarf the TB residency story the trace is for

        stalls = [e for e in self.events if type(e) is WarpStall]
        if stalls:
            # one counter track of stalls observed per sample-ish bucket is
            # overkill; surface the aggregate as a process-level metadata arg
            out[0]["args"]["warp_stalls"] = len(stalls)

        # TBs still resident when recording stopped: close at the last
        # observed time so every dispatch is visible in the viewer
        for dispatch in open_slices.values():
            timed.append(
                {
                    "ph": "X",
                    "ts": dispatch.time,
                    "dur": max(end_time - dispatch.time, 0),
                    "pid": TRACE_PID,
                    "tid": dispatch.smx_id,
                    "name": dispatch.kernel,
                    "cat": "dynamic" if dispatch.is_dynamic else "host",
                    "args": {
                        "tb": dispatch.tb_id,
                        "kernel_id": dispatch.kernel_id,
                        "warps": dispatch.warps,
                        "priority": dispatch.priority,
                        "unretired": True,
                    },
                }
            )

        timed.sort(key=lambda e: (e["ts"], e["tid"], e["ph"]))
        out.extend(timed)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "1 trace us = 1 simulated cycle"},
        }

    def write(self, path) -> dict:
        """Render and write the trace; returns the trace object."""
        trace = self.trace()
        with open(path, "w", encoding="utf-8") as f:
            # one C-encoded dumps; streaming json.dump runs the Python encoder
            f.write(json.dumps(trace))
        return trace


def write_trace(path, sink: ChromeTraceSink) -> dict:
    """Module-level convenience wrapper around :meth:`ChromeTraceSink.write`."""
    return sink.write(path)


def validate_trace(trace) -> list[str]:
    """Check a trace object against the trace-event schema.

    Returns a list of human-readable problems (empty = valid): envelope
    shape, required ``ph``/``ts``/``pid``/``tid`` keys, non-negative
    timestamps and durations, and monotonically non-decreasing timestamps
    over the timed events.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace must carry a 'traceEvents' list"]
    last_ts: Optional[float] = None
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"{where}: missing 'ph'")
            continue
        if "pid" not in event:
            problems.append(f"{where}: missing 'pid'")
        if ph == "M":
            continue  # metadata events carry no timestamp
        if ph not in _TIMED_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"{where}: missing numeric 'ts'")
            continue
        if "tid" not in event:
            problems.append(f"{where}: missing 'tid'")
        if ts < 0:
            problems.append(f"{where}: negative ts {ts}")
        if last_ts is not None and ts < last_ts:
            problems.append(f"{where}: ts {ts} goes back in time (prev {last_ts})")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: 'X' event needs a non-negative 'dur'")
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in args.values()
            ):
                problems.append(f"{where}: counter event needs numeric 'args'")
    return problems


def assert_valid_trace(trace) -> None:
    """Raise :class:`TraceValidationError` on the first schema problem."""
    problems = validate_trace(trace)
    if problems:
        raise TraceValidationError(
            f"{len(problems)} schema problem(s); first: {problems[0]}"
        )
