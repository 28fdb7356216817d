"""Kernel-trace, configuration and statistics serialization.

Workload traces can take seconds to minutes to generate (graph synthesis
plus per-warp trace building). This module saves a `KernelSpec` — the
complete launch tree included — to a gzip-compressed JSON file and loads
it back, preserving body sharing (a `TBBody` referenced by several
launches round-trips to a single object).

Format: a flat table of bodies (instruction streams) and launch specs,
referenced by index, so arbitrarily deep launch trees serialize without
recursion. The file is compact JSON (no whitespace) that `save_spec`
encodes in one `json.dumps` call (CPython's C encoder; streaming
`json.dump` runs the pure-Python one) and compresses in one call at gzip
level 1 with a zero header mtime, so equal specs give equal files.
`load_spec` reads any gzip level, so files written at level 9 by earlier
versions load unchanged.

It also provides the plain-object round trips the execution layer is
built on: `GPUConfig` and `SimStats` to/from JSON-compatible dicts
(`config_to_obj` / `config_from_obj`, `stats_to_obj` / `stats_from_obj`)
and `config_fingerprint`, the content hash that keys result caching in
`repro.harness` (see docs/harness.md).
"""

from __future__ import annotations

import gzip
import hashlib
import json
from typing import TYPE_CHECKING, Optional

from repro.gpu.config import GPUConfig
from repro.gpu.stats import SimStats

if TYPE_CHECKING:
    # trace types load on first spec (de)serialization, so callers that
    # only decode stats or hash configs never import them
    from repro.gpu.kernel import KernelSpec
    from repro.gpu.trace import Instr, LaunchSpec, TBBody

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_to_obj(config: GPUConfig) -> dict:
    """Serialize a machine description to plain JSON-compatible objects."""
    return config.to_dict()


def config_from_obj(obj: dict) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from :func:`config_to_obj` output."""
    return GPUConfig.from_dict(obj)


def config_fingerprint(config: GPUConfig) -> str:
    """Short content hash of a machine description.

    Two configs share a fingerprint iff every field (including nested
    cache geometry) is equal — this is what makes simulation results
    content-addressable.
    """
    digest = hashlib.sha256(canonical_json(config_to_obj(config)).encode("utf-8"))
    return digest.hexdigest()[:16]


def stats_to_obj(stats: SimStats) -> dict:
    """Serialize simulation results to plain JSON-compatible objects."""
    return stats.to_dict()


def stats_from_obj(obj: dict) -> SimStats:
    """Rebuild a :class:`SimStats` from :func:`stats_to_obj` output."""
    return SimStats.from_dict(obj)


def _collect(spec: KernelSpec):
    """Index every body and launch spec reachable from ``spec``."""
    bodies: list[TBBody] = []
    body_ids: dict[int, int] = {}
    launches: list[LaunchSpec] = []
    launch_ids: dict[int, int] = {}

    def visit_body(body: TBBody) -> None:
        if id(body) in body_ids:
            return
        body_ids[id(body)] = len(bodies)
        bodies.append(body)
        for child_spec in body.launches():
            visit_launch(child_spec)

    def visit_launch(launch_spec: LaunchSpec) -> None:
        if id(launch_spec) in launch_ids:
            return
        launch_ids[id(launch_spec)] = len(launches)
        launches.append(launch_spec)
        for body in launch_spec.bodies:
            visit_body(body)

    for body in spec.bodies:
        visit_body(body)
    return bodies, body_ids, launches, launch_ids


def spec_to_obj(spec: KernelSpec) -> dict:
    """Serialize a kernel spec to plain JSON-compatible objects."""
    from repro.gpu.trace import Op

    bodies, body_ids, launches, launch_ids = _collect(spec)

    def instr_obj(instr: Instr) -> list:
        if instr.op == Op.COMPUTE:
            return ["c", instr.cycles]
        if instr.op == Op.LOAD:
            return ["l", list(instr.addresses)]
        if instr.op == Op.STORE:
            return ["s", list(instr.addresses)]
        return ["x", launch_ids[id(instr.launch)]]

    return {
        "version": FORMAT_VERSION,
        "name": spec.name,
        "resources": {
            "threads": spec.resources.threads,
            "regs_per_thread": spec.resources.regs_per_thread,
            "smem_bytes": spec.resources.smem_bytes,
        },
        "bodies": [
            [[instr_obj(i) for i in warp] for warp in body.warps]
            for body in bodies
        ],
        "launches": [
            {
                "bodies": [body_ids[id(b)] for b in launch_spec.bodies],
                "threads_per_tb": launch_spec.threads_per_tb,
                "regs_per_thread": launch_spec.regs_per_thread,
                "smem_per_tb": launch_spec.smem_per_tb,
                "name": launch_spec.name,
            }
            for launch_spec in launches
        ],
        "roots": [body_ids[id(b)] for b in spec.bodies],
    }


def spec_from_obj(obj: dict) -> KernelSpec:
    """Rebuild a kernel spec from :func:`spec_to_obj` output."""
    from repro.gpu.kernel import KernelSpec, ResourceReq
    from repro.gpu.trace import Instr, LaunchSpec, Op, TBBody

    if obj.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {obj.get('version')!r}")

    launch_objs = obj["launches"]
    launch_specs: list[Optional[LaunchSpec]] = [None] * len(launch_objs)
    bodies: list[Optional[TBBody]] = [None] * len(obj["bodies"])

    def build_body(index: int) -> TBBody:
        if bodies[index] is not None:
            return bodies[index]
        warps = []
        for warp_obj in obj["bodies"][index]:
            instrs = []
            for item in warp_obj:
                kind, payload = item
                if kind == "c":
                    instrs.append(Instr(Op.COMPUTE, cycles=payload))
                elif kind == "l":
                    instrs.append(Instr(Op.LOAD, addresses=tuple(payload)))
                elif kind == "s":
                    instrs.append(Instr(Op.STORE, addresses=tuple(payload)))
                elif kind == "x":
                    instrs.append(Instr(Op.LAUNCH, launch=build_launch(payload)))
                else:
                    raise ValueError(f"unknown instruction kind {kind!r}")
            warps.append(instrs)
        body = TBBody(warps=warps)
        bodies[index] = body
        return body

    def build_launch(index: int) -> LaunchSpec:
        if launch_specs[index] is not None:
            return launch_specs[index]
        entry = launch_objs[index]
        # reserve the slot first: launch trees are acyclic, but bodies of
        # this launch may reference later launches
        spec = LaunchSpec(
            bodies=[TBBody(warps=[[Instr(Op.COMPUTE, cycles=1)]])],  # placeholder
            threads_per_tb=entry["threads_per_tb"],
            regs_per_thread=entry["regs_per_thread"],
            smem_per_tb=entry["smem_per_tb"],
            name=entry["name"],
        )
        launch_specs[index] = spec
        spec.bodies = [build_body(i) for i in entry["bodies"]]
        return spec

    roots = [build_body(i) for i in obj["roots"]]
    resources = obj["resources"]
    return KernelSpec(
        name=obj["name"],
        bodies=roots,
        resources=ResourceReq(
            threads=resources["threads"],
            regs_per_thread=resources["regs_per_thread"],
            smem_bytes=resources["smem_bytes"],
        ),
    )


def save_spec(spec: KernelSpec, path: str) -> None:
    """Write a kernel spec to a gzip-compressed JSON trace file.

    One C-encoded ``json.dumps``, one level-1 compression and one write:
    at gzip level 9 compression alone took 9x as long as at level 1.
    """
    data = json.dumps(spec_to_obj(spec), separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(gzip.compress(data, compresslevel=1, mtime=0))


def load_spec(path: str) -> KernelSpec:
    """Load a kernel spec written by :func:`save_spec` (any gzip level)."""
    with open(path, "rb") as f:
        data = f.read()
    return spec_from_obj(json.loads(gzip.decompress(data)))
