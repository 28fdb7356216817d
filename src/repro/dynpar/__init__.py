"""Dynamic-parallelism launch models (CDP and DTBL)."""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.dynpar.launch import DynamicParallelismModel

@cache
def _models() -> dict:
    """Launch-model classes by name (``MODELS``)."""
    from repro.dynpar.cdp import CDP
    from repro.dynpar.dtbl import DTBL

    return {"cdp": CDP, "dtbl": DTBL}


def make_model(name: str) -> DynamicParallelismModel:
    """Construct a dynamic-parallelism model by name ('cdp' or 'dtbl')."""
    try:
        return _models()[name]()
    except KeyError:
        raise ValueError(f"unknown dynamic parallelism model {name!r}") from None


__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.dynpar.cdp": ("CDP",),
        "repro.dynpar.dtbl": ("DTBL",),
        "repro.dynpar.launch": ("DynamicParallelismModel", "clamp_priority"),
    },
    computed={"MODELS": _models},
    eager=("make_model",),
)
