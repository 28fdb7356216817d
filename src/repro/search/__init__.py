"""Scheduler-policy autotuning: design-space search over the spec grammar.

``repro tune`` and :func:`tune` search the space PR 5's component grammar
opened — every legal ``pri=…,bind=…,steal=…,admit=…`` composition — with
budgeted successive halving over scaled-down evaluation rungs. See
docs/search.md for the architecture, the reproducibility guarantees and
a usage walkthrough.
"""

from repro._lazy import attach

__all__, __getattr__, __dir__ = attach(
    __name__,
    {
        "repro.search.objectives": (
            "OBJECTIVES",
            "Objective",
            "dominates",
            "get_objective",
            "pareto_frontier",
            "resolve_objectives",
        ),
        "repro.search.report": (
            "ProgressPrinter",
            "render_leaderboard",
            "tune_to_obj",
            "write_tune",
        ),
        "repro.search.space": (
            "dedup_names",
            "enumerate_space",
            "random_spec_string",
            "random_spelling",
            "sample_specs",
            "space_names",
            "spec_names",
        ),
        "repro.search.tuner": (
            "DEFAULT_EXTRA_OBJECTIVES",
            "CandidateResult",
            "Rung",
            "TuneResult",
            "default_rungs",
            "plan_counts",
            "tune",
        ),
    },
)
