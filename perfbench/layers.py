"""Per-layer metrics and report tables derived from a traced run.

Every per-layer figure is a median over the traced passes of the value
one pass produced. Layer times are self times (span duration minus the
time its child spans cover), summed over the spans of a pass; where a
layer runs in several pool workers at once the sum is CPU-seconds across
processes, not wall time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from perfbench.common import BENCHMARKS, median
from perfbench.spans import COLLECTION, layer_of, self_times

MODEL_NOTE = (
    "The timing model is unvalidated against hardware: EXPERIMENTS.md compares "
    "the paper's figure shapes only, so no error figure is given."
)


@dataclass
class Result:
    """What one workload run hands back to run.py."""

    #: end-to-end metric -> (value, sample count)
    e2e: dict = field(default_factory=dict)
    #: per-layer metric -> value (traced runs only)
    per_layer: dict = field(default_factory=dict)
    #: extra report lines
    tables: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: pass wall seconds of the traced passes, by run id (for the self-time table)
    pass_walls: dict = field(default_factory=dict)


def _passes(spans: list[dict], prefix: str = "pass-") -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for rec in spans:
        if rec["run"].startswith(prefix):
            out[rec["run"]].append(rec)
    return out


def _under(rec: dict, by_id: dict, name: str) -> bool:
    parent = rec["parent"]
    while parent is not None and parent in by_id:
        if by_id[parent]["name"] == name:
            return True
        parent = by_id[parent]["parent"]
    return False


def _span_values(spans: list[dict], trace_counts: dict) -> dict:
    """Layer times and counts of one pass."""
    selfs = self_times(spans)
    by_id = {rec["id"]: rec for rec in spans}
    m: dict = defaultdict(float)
    engine_s: dict[str, float] = {}
    for rec in spans:
        name, attrs, own = rec["name"], rec["attrs"], selfs[rec["id"]]
        dur = (rec["end"] - rec["start"]) / 1e9
        if name == "workloads.build":
            m["workloads.build_s"] += own
            m[f"workloads.build_s.{attrs['bench']}"] += own
            bodies, lines = trace_counts.get(attrs["bench"], (0, 0))
            m["workloads.bodies"] += bodies
            m["workloads.mem_lines"] += lines
        elif name == "workload_cache.store":
            m["workload_cache.store_s"] += own
            m["workload_cache.stores"] += 1
        elif name == "workload_cache.load":
            m["workload_cache.load_s"] += own
            m["workload_cache.hits" if attrs["hit"] else "workload_cache.misses"] += 1
        elif name == "compiled.lower":
            m["compiled.lower_s"] += own
            m["compiled.bodies"] += 1
        elif name == "engine.run":
            # self time: a worker's first run of a body also lowers it
            engine_s[attrs["cell"]] = own
            if _under(rec, by_id, "executor.run"):
                m["executor.specs_executed"] += 1
        elif name == "result_cache.load":
            m["result_cache.get_s"] += own
            m["result_cache.hits" if attrs["hit"] else "result_cache.misses"] += 1
        elif name == "result_cache.store":
            m["result_cache.put_s"] += own
        elif name == "executor.run":
            m["executor.run_s"] += own
        elif name == "executor.kernel_for" and rec.get("collected") != "worker-file":
            # the parent's pre-resolve before fan-out, inclusive of the
            # trace loads/builds it triggers
            m["executor.preresolve_s"] += dur
        elif name == "cli.import":
            m["cli.import_s"] += dur
    for cell, seconds in engine_s.items():
        m[f"engine.replay_s.{cell.replace('/', '.')}"] = seconds
    m["_engine_s"] = sum(engine_s.values())
    m["_engine_cells"] = engine_s
    return m


def _modelled(stats_by_cell: list, m: dict) -> None:
    """Modelled-design counts over the cells a pass simulated."""
    if not stats_by_cell:
        return
    cells = dict(stats_by_cell)
    total = lambda attr: sum(getattr(st, attr) for st in cells.values())  # noqa: E731
    instructions = total("instructions")
    if m["_engine_s"] and instructions:
        m["engine.host_ns_per_instr"] = m["_engine_s"] / instructions * 1e9
    m["engine.sim_cycles"] = total("cycles")
    m["engine.tbs_dispatched"] = total("tbs_dispatched")
    m["engine.launches"] = total("launches")
    m["memory.l1_hit_rate"] = total("l1_hits") / max(total("l1_accesses"), 1)
    m["memory.l2_hit_rate"] = total("l2_hits") / max(total("l2_accesses"), 1)
    m["memory.dram_accesses"] = total("dram_accesses")
    m["memory.mshr_dropped"] = total("mshr_dropped")
    m["core.work_steals"] = total("work_steals")
    children = max(total("child_tbs_dispatched"), 1)
    m["core.child_same_smx_fraction"] = total("child_same_smx") / children
    m["core.child_mean_wait_cycles"] = total("child_wait_total") / children
    engine = m["_engine_cells"]
    for model in ("dtbl", "cdp"):
        pairs = [(f"{b}/adaptive-bind/{model}", f"{b}/rr/{model}") for b in BENCHMARKS]
        if all(ab in engine and rr in engine for ab, rr in pairs):
            m[f"core.host_ratio.adaptive-bind_over_rr.{model}"] = sum(
                engine[ab] for ab, _ in pairs
            ) / sum(engine[rr] for _, rr in pairs)
        for (ab, rr), bench in zip(pairs, BENCHMARKS):
            if ab in cells and rr in cells and cells[rr].ipc:
                m[f"model.ipc_vs_rr.{bench}.{model}"] = cells[ab].ipc / cells[rr].ipc


def from_spans(
    spans: list[dict],
    executed: dict,
    trace_counts: dict | None = None,
    measured: dict | None = None,
) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's value.

    ``executed`` maps a pass's run id to the ``(cell, SimStats)`` pairs the
    pass simulated; ``trace_counts`` maps a benchmark to the ``(bodies,
    coalesced lines)`` of its trace, charged to every pass that built it;
    ``measured`` maps a run id to values the workload measured itself.
    """
    values: dict[str, list[float]] = defaultdict(list)
    passes = _passes(spans)
    for run, recs in passes.items():
        m = _span_values(recs, trace_counts or {})
        _modelled(executed.get(run, []), m)
        m.update((measured or {}).get(run, {}))
        for key, value in m.items():
            if not key.startswith("_"):
                values[key].append(value)
    # a metric absent from some passes was zero in them
    return {k: median(v + [0.0] * (len(passes) - len(v))) for k, v in values.items()}


# -- tables ------------------------------------------------------------------------


def self_time_table(spans: list[dict], pass_walls: dict[str, float], phase: str = "pass") -> list[str]:
    """Self time per layer and span name, per traced pass or set-up (medians)."""
    passes = _passes(spans, f"{phase}-")
    if not passes:
        return []
    rows: dict[str, dict] = {}
    for run, recs in passes.items():
        selfs = self_times(recs)
        per: dict[str, list] = defaultdict(lambda: [0.0, 0, set()])
        for rec in recs:
            row = per[rec["name"]]
            row[0] += selfs[rec["id"]]
            row[1] += 1
            row[2].add(rec.get("collected", "in-process"))
        for name, (secs, count, how) in per.items():
            agg = rows.setdefault(name, {"s": [], "n": [], "how": set()})
            agg["s"].append(secs)
            agg["n"].append(count)
            agg["how"] |= how
    wall = median(list(pass_walls.values())) if pass_walls else 0.0
    lines = [
        "",
        f"self time per traced {phase} (median of {len(passes)}"
        + (f"; wall {wall:.4f} s)" if wall else ")"),
        f"  {'layer':15s} {'span':30s} {'self_s':>10s} {'share':>7s} {'spans':>6s}  collected",
    ]
    by_layer: dict[str, float] = defaultdict(float)
    for name in sorted(rows, key=lambda n: (layer_of(n), n)):
        agg = rows[name]
        secs = median(agg["s"] + [0.0] * (len(passes) - len(agg["s"])))
        by_layer[layer_of(name)] += secs
        share = f"{secs / wall:7.1%}" if wall else "      -"
        lines.append(
            f"  {layer_of(name):15s} {name:30s} {secs:10.4f} {share} {median(agg['n']):6.0f}"
            f"  {', '.join(sorted(agg['how']))}"
        )
    lines.append("  per layer: " + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(by_layer.items())))
    for how in sorted({h for agg in rows.values() for h in agg["how"]}):
        lines.append(f"  {how}: {COLLECTION[how]}")
    return lines


def modelled_table(executed: dict) -> list[str]:
    """Modelled design per simulated cell, from the first traced pass."""
    if not executed:
        return []
    cells = dict(executed[sorted(executed)[0]])
    lines = [
        "",
        "modelled design (simulated time, first traced pass)",
        f"  {'cell':36s} {'L1 hit':>7s} {'L2 hit':>7s} {'IPC':>7s} {'vs rr':>6s} "
        f"{'steals':>6s} {'child wait':>10s}",
    ]
    for cell, st in cells.items():
        bench, _, model = cell.split("/")
        rr = cells.get(f"{bench}/rr/{model}")
        vs = f"{st.ipc / rr.ipc:6.3f}" if rr is not None and rr.ipc else "     -"
        lines.append(
            f"  {cell:36s} {st.l1_hit_rate:7.3f} {st.l2_hit_rate:7.3f} {st.ipc:7.3f} {vs} "
            f"{st.work_steals:6d} {st.child_mean_wait:10.1f}"
        )
    lines.append("  " + MODEL_NOTE)
    return lines
