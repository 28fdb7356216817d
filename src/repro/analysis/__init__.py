"""Trace and timeline analyses: footprints, reuse distance, occupancy."""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.analysis.footprint": ("FootprintResult", "analyze_footprint"),
        "repro.analysis.locality": (
            "COLD",
            "InterTBReuse",
            "inter_tb_reuse",
            "reuse_distance_histogram",
            "reuse_distances",
        ),
        "repro.analysis.timeline": ("OccupancyTimeline",),
    },
)
