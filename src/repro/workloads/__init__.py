"""Benchmark applications (paper Table II) and their input generators."""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workloads.base import Workload


@cache
def _applications() -> dict:
    """Application classes by short name (``APPLICATIONS``)."""
    from repro.workloads.amr import AMR
    from repro.workloads.bfs import BFS
    from repro.workloads.bht import BHT
    from repro.workloads.clr import CLR
    from repro.workloads.join import JOIN
    from repro.workloads.pre import PRE
    from repro.workloads.regx import REGX
    from repro.workloads.sssp import SSSP

    return {
        "amr": AMR,
        "bht": BHT,
        "bfs": BFS,
        "clr": CLR,
        "regx": REGX,
        "pre": PRE,
        "join": JOIN,
        "sssp": SSSP,
    }


def make_workload(name: str, input_name: str | None = None, scale: str = "small", seed: int = 7) -> Workload:
    """Construct a benchmark by application name and input name."""
    try:
        cls = _applications()[name]
    except KeyError:
        raise ValueError(
            f"unknown application {name!r}; expected one of {sorted(_applications())}"
        ) from None
    return cls(input_name, scale=scale, seed=seed)


__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.workloads.amr": ("AMR",),
        "repro.workloads.base": ("AddressSpace", "Array", "WarpTrace", "Workload"),
        "repro.workloads.bfs": ("BFS",),
        "repro.workloads.bht": ("BHT",),
        "repro.workloads.clr": ("CLR",),
        "repro.workloads.join": ("JOIN",),
        "repro.workloads.pre": ("PRE",),
        "repro.workloads.regx": ("REGX",),
        "repro.workloads.sssp": ("SSSP",),
    },
    computed={"APPLICATIONS": _applications},
    eager=("make_workload",),
)
