"""Host-time benchmark of the LaPerm reproduction, layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 7 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json with its
unit and sample count; ``--trace 1`` runs the same workload with spans
around the program's layer calls and prints every per-layer metric, the
self-time table and the tracing overhead. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is non-zero when any operation failed or any
result differed from its reference. perfbench/README.md says why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path[0:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench import common  # noqa: E402

WORKLOADS = ("replay", "grid-cold", "grid-warm", "service")


def _load_workload(name: str):
    if name == "replay":
        from perfbench import replay

        return replay.run
    if name == "service":
        from perfbench import service

        return service.run
    from perfbench import grids

    return grids.run_cold if name == "grid-cold" else grids.run_warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default: 7)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not common.checkout_ok():
        print(f"perfbench: no program sources at {common.SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)

    from perfbench import layers

    # SIGTERM unwinds like an exception, so every started process is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = common.fresh_dir(common.OUT / f"work-{os.getpid()}")
    os.environ["TMPDIR"] = str(work)
    ledger = common.Ledger()
    try:
        result: layers.Result = _load_workload(args.workload)(
            args.seed, args.seconds, trace, work, ledger
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = common.provenance(args.workload, args.seed, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, rows = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if trace:
            value, samples = result.per_layer.get(name, 0.0), None
        else:
            value, samples = result.e2e[name]
        metrics[name] = {"value": value, "unit": unit}
        rows.append((name, value, unit, samples))

    correct = ledger.failed == 0
    out = [
        f"perfbench {args.workload}  seed={args.seed}  scale={common.SCALE}  "
        f"trace={args.trace}  seconds={args.seconds:g}",
        "provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items() if k not in ("workload", "seed", "scale", "trace")),
        "",
        f"  {'metric':52s} {'value':>14s}  {'unit':8s} samples",
    ]
    for name, value, unit, samples in rows:
        out.append(f"  {name:52s} {value:14.6g}  {unit:8s} {'' if samples is None else samples}")
    out.append(f"operations: failed/attempted = {ledger.failed}/{ledger.attempted}")
    out += [f"  FAILED: {reason}" for reason in ledger.reasons]
    if trace:
        out += layers.self_time_table(result.spans, result.pass_walls)
        out += layers.self_time_table(result.spans, {}, "setup")
    out += result.tables
    print("\n".join(out))

    dest = common.OUT / "out"
    dest.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.reasons,
        "metrics": metrics,
        "samples": {name: samples for name, _, _, samples in rows},
        "report": out,
    }
    (dest / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if trace:
        (dest / f"{stem}-spans.json").write_text(
            json.dumps({"provenance": prov, "spans": result.spans})
        )
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
