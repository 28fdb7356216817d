"""Simulator observability: typed events, metrics, Chrome-trace export.

See docs/telemetry.md for the event taxonomy, the sink API and a
walkthrough of loading an exported trace in Perfetto.
"""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.telemetry.chrome_trace": (
            "ChromeTraceSink",
            "TraceValidationError",
            "assert_valid_trace",
            "validate_trace",
            "write_trace",
        ),
        "repro.telemetry.events": (
            "EVENT_TYPES",
            "NULL_SINK",
            "CacheSample",
            "ChildLaunched",
            "KernelDispatched",
            "NullSink",
            "QueueOverflow",
            "RecordingSink",
            "SearchProgress",
            "TBCompleted",
            "TBDispatched",
            "TeeSink",
            "TelemetryEvent",
            "TelemetrySink",
            "WarpStall",
            "WorkStolen",
        ),
        "repro.telemetry.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "MetricsSink",
            "gini",
            "render_prometheus",
        ),
    },
)
