"""The paper's contribution: LaPerm TB schedulers and their queues.

Every policy is a composition of components (priority, placement,
stealing, admission) hosted by :class:`ComposedScheduler`; see
:mod:`repro.core.components` for the axes and the spec grammar.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.base import TBScheduler

#: the paper's ordering for figures: baseline first, then LaPerm variants
SCHEDULER_ORDER = ["rr", "tb-pri", "smx-bind", "adaptive-bind"]


@cache
def _schedulers() -> dict:
    """The paper's four policies by name (``SCHEDULERS``)."""
    from repro.core.adaptive_bind import AdaptiveBindScheduler
    from repro.core.rr import RoundRobinScheduler
    from repro.core.smx_bind import SMXBindScheduler
    from repro.core.tb_pri import TBPriScheduler

    return {
        "rr": RoundRobinScheduler,
        "tb-pri": TBPriScheduler,
        "smx-bind": SMXBindScheduler,
        "adaptive-bind": AdaptiveBindScheduler,
    }


def _composed_order() -> list[str]:
    """Composed policies the spec grammar unlocks beyond the paper's four,
    in report order (``COMPOSED_ORDER``; used by ``repro list`` and the
    benchmark grid)."""
    from repro.core.components import NAMED_COMPOSITIONS

    return [name for name in NAMED_COMPOSITIONS if name not in _schedulers()]


def make_scheduler(name: str) -> TBScheduler:
    """Construct a TB scheduler by name or spec string.

    Accepts the named compositions (``"adaptive-bind"``), spec strings
    from the component grammar (``"pri=level,bind=smx,steal=backup"``,
    aliases like ``bind=parent-smx-bind`` included), and a ``+throttle``
    suffix on either, which composes contention-aware TB throttling
    (Section IV-F / [12]) into the policy.
    """
    from repro.core.components import resolve_scheduler
    from repro.core.composed import ComposedScheduler

    canonical, spec = resolve_scheduler(name)
    preset = _schedulers().get(canonical)
    if preset is not None:
        return preset()
    return ComposedScheduler(spec, name=canonical)


__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.core.adaptive_bind": ("AdaptiveBindScheduler",),
        "repro.core.base": ("TBScheduler",),
        "repro.core.components": (
            "NAMED_COMPOSITIONS",
            "SchedulerSpec",
            "canonical_scheduler_name",
            "describe_components",
            "parse_spec",
            "resolve_scheduler",
        ),
        "repro.core.composed": ("ComposedScheduler",),
        "repro.core.queues": ("Entry", "MultiLevelQueue"),
        "repro.core.rr": ("RoundRobinScheduler",),
        "repro.core.smx_bind": ("SMXBindScheduler",),
        "repro.core.tb_pri": ("TBPriScheduler",),
        "repro.core.throttle": ("ThrottledScheduler",),
    },
    computed={"SCHEDULERS": _schedulers, "COMPOSED_ORDER": _composed_order},
    eager=("SCHEDULER_ORDER", "make_scheduler"),
)
