"""Simulation-as-a-service: a long-lived, cache-resident job server.

After nine PRs every entry point was a one-shot CLI process; this
package keeps the harness warm and serves many concurrent clients
against one result/workload cache. The shapes are LaPerm's own —
admission queues, priority ordering, binding work to warm state,
backpressure under bursty dynamically-generated load — applied one level
up, to simulation jobs across worker processes.

* :mod:`repro.service.jobs` — the :class:`Job` lifecycle and event log
* :mod:`repro.service.broker` — bounded priority admission, request
  coalescing, warm-cache fast path, metrics
* :mod:`repro.service.workers` — the persistent worker-process fleet
* :mod:`repro.service.server` — the asyncio HTTP/SSE front end
* :mod:`repro.service.client` — the blocking client used by the CLI

See docs/service.md.
"""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.service.broker": ("AdmissionError", "Broker", "ServiceUnavailable"),
        "repro.service.client": ("ServiceClient", "ServiceError"),
        "repro.service.jobs": (
            "CANCELLED",
            "DONE",
            "FAILED",
            "JOB_STATES",
            "QUEUED",
            "RUNNING",
            "TERMINAL_STATES",
            "Job",
            "JobEvent",
            "estimate_cost",
        ),
        "repro.service.server": ("DEFAULT_PORT", "ServiceServer", "ServiceThread", "serve"),
        "repro.service.workers": ("JobTimeout", "WorkerCrashed", "WorkerFleet"),
    },
)
