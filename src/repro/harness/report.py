"""Report rendering: the paper's tables and figure series as text.

Each ``render_*`` function takes the measured results and returns a
string shaped like the corresponding paper artifact — per-benchmark bars
for the figures, config listings for Table I. Benchmark harnesses print
these and EXPERIMENTS.md embeds them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.analysis.footprint import FootprintResult
    from repro.gpu.config import GPUConfig
    from repro.harness.runner import GridResult


def _bar(value: float, scale: float = 40.0, vmax: float = 1.0) -> str:
    filled = int(min(value / vmax, 1.0) * scale) if vmax else 0
    return "#" * filled


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Simple fixed-width ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_config(config: GPUConfig, title: str = "Table I: simulated GPU configuration") -> str:
    return f"{title}\n{'=' * len(title)}\n{config.describe()}"


def render_footprints(
    results: Mapping[str, FootprintResult],
    title: str = "Figure 2: shared footprint ratios",
) -> str:
    """Fig 2: parent-child and child-sibling bars per benchmark."""
    rows = []
    for name, r in results.items():
        rows.append((name, f"{r.parent_child:.3f}", f"{r.child_sibling:.3f}", f"{r.parent_parent:.3f}"))
    pcs = [r.parent_child for r in results.values()]
    css = [r.child_sibling for r in results.values()]
    pps = [r.parent_parent for r in results.values()]
    rows.append(("AVERAGE", f"{sum(pcs)/len(pcs):.3f}", f"{sum(css)/len(css):.3f}", f"{sum(pps)/len(pps):.3f}"))
    table = render_table(
        ["benchmark", "parent-child", "child-sibling", "parent-parent"], rows, title=title
    )
    return table + "\n(paper averages: parent-child 0.384, child-sibling 0.305, parent-parent 0.093)"


def _render_metric_figure(
    result: GridResult,
    metric: Callable[[str, str, str], float],
    *,
    title: str,
    fmt: str = "{:.3f}",
    vmax: float = 1.0,
    mean_of: Callable[[str, str], float] | None = None,
) -> str:
    lines = [title, "=" * len(title)]
    for model in result.models:
        lines.append(f"\n[{model.upper()}]")
        header = f"{'benchmark':16s}" + "".join(f"{s:>15s}" for s in result.schedulers)
        lines.append(header)
        lines.append("-" * len(header))
        for bench in result.benchmarks:
            row = f"{bench:16s}"
            for sched in result.schedulers:
                row += f"{fmt.format(metric(bench, sched, model)):>15s}"
            lines.append(row)
        mean_row = f"{'MEAN':16s}"
        for sched in result.schedulers:
            if mean_of is not None:
                value = mean_of(sched, model)
            else:
                values = [metric(b, sched, model) for b in result.benchmarks]
                value = sum(values) / len(values) if values else 0.0
            mean_row += f"{fmt.format(value):>15s}"
        lines.append(mean_row)
    return "\n".join(lines)


def render_l2_hit_rates(result: GridResult) -> str:
    """Figure 7: L2 cache hit rate per benchmark and scheduler."""
    return _render_metric_figure(
        result,
        lambda b, s, m: result.get(b, s, m).l2_hit_rate,
        title="Figure 7: L2 cache hit rate",
    )


def render_l1_hit_rates(result: GridResult) -> str:
    """Figure 8: L1 cache hit rate per benchmark and scheduler."""
    return _render_metric_figure(
        result,
        lambda b, s, m: result.get(b, s, m).l1_hit_rate,
        title="Figure 8: L1 cache hit rate",
    )


def render_normalized_ipc(result: GridResult, baseline: str = "rr") -> str:
    """Figure 9: IPC normalized to the RR baseline (a: CDP, b: DTBL)."""
    return _render_metric_figure(
        result,
        lambda b, s, m: result.normalized_ipc(b, s, m, baseline),
        title="Figure 9: IPC normalized to RR",
        fmt="{:.3f}",
        mean_of=lambda s, m: result.mean_normalized_ipc(s, m, baseline),
    )


def render_latency_sweep(
    rows: Sequence[tuple[int, float, float]],
    title: str = "Launch-latency sensitivity (Section V-D)",
) -> str:
    """Launch latency vs LaPerm speedup over RR."""
    table_rows = [
        (latency, f"{speedup:.3f}", f"{wait:.0f}") for latency, speedup, wait in rows
    ]
    return render_table(
        ["launch latency (cycles)", "Adaptive-Bind IPC / RR IPC", "mean child wait"],
        table_rows,
        title=title,
    )
