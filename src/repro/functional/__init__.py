"""Functional kernel frontend: execute-while-recording warp programs."""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.functional.kernels": (
            "BFSProgram",
            "SSSPProgram",
            "reference_bfs_distances",
            "reference_sssp_distances",
        ),
        "repro.functional.machine": (
            "DeviceArray",
            "DeviceMemory",
            "WarpContext",
            "run_functional_kernel",
        ),
    },
)
