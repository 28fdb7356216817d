"""LaPerm: Locality Aware Scheduler for Dynamic Parallelism on GPUs.

A from-scratch Python reproduction of the ISCA 2016 paper by Wang, Rubin,
Sidelnik and Yalamanchili: a trace-driven, cycle-level GPU simulator with
CDP/DTBL dynamic parallelism, a composable TB-scheduler stack whose
named presets are the four policies the paper evaluates (round-robin
baseline, TB-Pri, SMX-Bind, Adaptive-Bind = LaPerm; see
docs/schedulers.md for the component grammar), the eight irregular
benchmark applications, and the analysis/harness code that regenerates
every table and figure.

Quick start::

    from repro import simulate, make_workload

    workload = make_workload("bfs", "citation", scale="small")
    baseline = simulate(workload.kernel(), scheduler="rr", model="dtbl")
    laperm = simulate(workload.kernel(), scheduler="adaptive-bind", model="dtbl")
    print(laperm.ipc / baseline.ipc)
"""

from repro._lazy import attach

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.analysis.footprint": ("FootprintResult", "analyze_footprint"),
        "repro.analysis.locality": ("inter_tb_reuse", "reuse_distance_histogram"),
        "repro.analysis.timeline": ("OccupancyTimeline",),
        "repro.core": (
            "SCHEDULERS",
            "SCHEDULER_ORDER",
            "ComposedScheduler",
            "ThrottledScheduler",
            "make_scheduler",
        ),
        "repro.core.components": (
            "NAMED_COMPOSITIONS",
            "SchedulerSpec",
            "canonical_scheduler_name",
            "parse_spec",
        ),
        "repro.dynpar": ("MODELS", "make_model"),
        "repro.functional": ("BFSProgram", "DeviceMemory", "run_functional_kernel"),
        "repro.gpu.config": ("GPUConfig",),
        "repro.gpu.engine": ("Engine",),
        "repro.gpu.kernel": ("KernelSpec",),
        "repro.gpu.stats": ("SimStats",),
        "repro.harness.cache": ("ResultCache",),
        "repro.harness.execution": ("RunSpec", "make_executor"),
        "repro.harness.registry": (
            "BENCHMARKS",
            "experiment_config",
            "iter_benchmarks",
            "load_benchmark",
        ),
        "repro.harness.runner": (
            "GridResult",
            "run_grid",
            "run_latency_sweep",
            "run_seed_sweep",
            "simulate",
        ),
        "repro.workloads": ("APPLICATIONS", "Workload", "make_workload"),
    },
    eager=("__version__",),
)
